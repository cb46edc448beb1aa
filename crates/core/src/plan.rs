//! The precomputed state-independent routing plan.
//!
//! A [`RoutingPlan`] binds together everything a node would learn or
//! compute off-line in the paper's architecture:
//!
//! * the primary assignment (tier 1, possibly bifurcated),
//! * per ordered pair, the alternate paths in order of increasing hop
//!   count (as the DALFAR-style distributed computation would yield),
//! * per link, the primary load `Λ^k` (Eq. 1), the state-protection level
//!   `r^k` (Eq. 15), and — for the Ott–Krishnan baseline — the shadow
//!   price table.
//!
//! The plan depends only on topology, traffic, the primary rule, and the
//! design parameter `H`; the per-call state-dependent decision is made by
//! the [`crate::select`] selectors against current occupancies.
//!
//! Candidate paths are no longer enumerated eagerly at construction: the
//! plan is a thin view over an [`altroute_netgraph::store::PathStore`],
//! which fills each pair's set on first [`RoutingPlan::candidates`] call
//! (byte-identical to the old eager enumeration) and supports incremental
//! invalidation when links fail or revive — see
//! [`RoutingPlan::set_link_state`]. Loads, protection levels, and shadow
//! tables still depend on the traffic matrix, so those require a plan
//! rebuild when *traffic* changes; link availability alone does not.

use crate::primary::PrimaryAssignment;
use altroute_netgraph::graph::{LinkId, Topology};
use altroute_netgraph::paths::Path;
use altroute_netgraph::store::PathStore;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_teletraffic::estimate::protection_levels_for;
use altroute_teletraffic::reservation::protection_level;
use altroute_teletraffic::shadow::ShadowPriceTable;

/// Everything state-independent that routing needs, precomputed.
#[derive(Debug, Clone)]
pub struct RoutingPlan {
    primaries: PrimaryAssignment,
    /// Per ordered pair, the loop-free paths of ≤ `max_alternate_hops`
    /// hops in attempt order (primary paths are *not* removed here — they
    /// are skipped at decision time against the sampled primary), behind
    /// the lazy incrementally-invalidated cache. The store also owns the
    /// topology.
    store: PathStore,
    /// Per-link primary load Λ^k.
    loads: Vec<f64>,
    /// Per-link protection level r^k.
    protection: Vec<u32>,
    /// Per-link shadow price table (for the Ott–Krishnan policy).
    shadows: Vec<ShadowPriceTable>,
    /// The design parameter H.
    max_alternate_hops: u32,
}

impl RoutingPlan {
    /// Builds a plan with minimum-hop primaries.
    ///
    /// `max_alternate_hops` is the paper's `H`: both the cap on alternate
    /// path length and the divisor in Eq. 15.
    pub fn min_hop(topo: Topology, traffic: &TrafficMatrix, max_alternate_hops: u32) -> Self {
        let primaries = PrimaryAssignment::min_hop(&topo);
        Self::with_primaries(topo, traffic, primaries, max_alternate_hops)
    }

    /// Like [`min_hop`](Self::min_hop), but keeps at most `candidate_cap`
    /// candidate paths per ordered pair — the first `candidate_cap`
    /// entries of the canonical `(hop count, node sequence)` attempt
    /// order.
    ///
    /// Dense meshes need this: on K_N every pair has N−2 two-hop tandems,
    /// so the uncapped enumeration over all n² pairs allocates O(N³)
    /// paths (≈ 8M at N = 200) before a single call is simulated. The
    /// randomized selectors (DAR, best-of-d) only ever sample from the
    /// candidate set, so a cap bounds plan construction to O(N²·cap)
    /// while leaving every uncapped plan byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if `candidate_cap == 0` (a plan without even the primary
    /// candidate is useless) or on the [`with_primaries`](Self::with_primaries)
    /// size mismatches.
    pub fn min_hop_capped(
        topo: Topology,
        traffic: &TrafficMatrix,
        max_alternate_hops: u32,
        candidate_cap: usize,
    ) -> Self {
        assert!(candidate_cap > 0, "candidate cap must be positive");
        let primaries = PrimaryAssignment::min_hop(&topo);
        Self::build(topo, traffic, primaries, max_alternate_hops, candidate_cap)
    }

    /// Builds a plan from an explicit (possibly bifurcated) primary
    /// assignment.
    ///
    /// # Panics
    ///
    /// Panics if sizes mismatch or `max_alternate_hops == 0`.
    pub fn with_primaries(
        topo: Topology,
        traffic: &TrafficMatrix,
        primaries: PrimaryAssignment,
        max_alternate_hops: u32,
    ) -> Self {
        Self::build(topo, traffic, primaries, max_alternate_hops, usize::MAX)
    }

    fn build(
        topo: Topology,
        traffic: &TrafficMatrix,
        primaries: PrimaryAssignment,
        max_alternate_hops: u32,
        candidate_cap: usize,
    ) -> Self {
        assert!(max_alternate_hops > 0, "H must be positive");
        assert_eq!(
            traffic.num_nodes(),
            topo.num_nodes(),
            "traffic matrix size mismatch"
        );
        assert_eq!(
            primaries.num_nodes(),
            topo.num_nodes(),
            "primary assignment size mismatch"
        );
        let loads = primaries.link_loads(&topo, traffic);
        let capacities: Vec<u32> = topo.links().iter().map(|l| l.capacity).collect();
        let protection = protection_levels_for(&loads, &capacities, max_alternate_hops);
        let shadows = loads
            .iter()
            .zip(topo.links())
            .map(|(&a, l)| ShadowPriceTable::new(a, l.capacity))
            .collect();
        let store = if candidate_cap == usize::MAX {
            PathStore::new(topo, max_alternate_hops as usize)
        } else {
            PathStore::with_cap(topo, max_alternate_hops as usize, candidate_cap)
        };
        Self {
            primaries,
            store,
            loads,
            protection,
            shadows,
            max_alternate_hops,
        }
    }

    /// Converts this plan to the **per-link hop bound** variant of the
    /// paper's footnote 5: "each link k can pick its own H^k, which would
    /// be the maximum hop-length of alternate-routed calls that traverse
    /// link k."
    ///
    /// `H^k ≤ H` everywhere, and strictly smaller wherever no long
    /// alternate path crosses the link, so the recomputed `r^k` are no
    /// larger — alternate routing becomes freer while the Theorem 1
    /// guarantee is preserved (every alternate path through `k` has at
    /// most `H^k` hops by construction).
    ///
    /// Links traversed by no alternate candidate keep `r = 0` (they can
    /// never carry an alternate-routed call).
    pub fn with_per_link_hop_bounds(mut self) -> Self {
        let mut per_link_h = vec![0u32; self.topology().num_links()];
        let n = self.topology().num_nodes();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                for path in self.store.candidates(i, j) {
                    // Only alternate-routed calls count towards H^k; paths
                    // that are (part of) the primary split never arrive as
                    // alternates on their own links.
                    if self.primaries.is_primary(i, j, path.links()) {
                        continue;
                    }
                    for &l in path.links() {
                        per_link_h[l] = per_link_h[l].max(path.hops() as u32);
                    }
                }
            }
        }
        self.protection = self
            .loads
            .iter()
            .zip(self.store.topology().links())
            .zip(&per_link_h)
            .map(|((&a, l), &h)| {
                if h == 0 {
                    0
                } else {
                    protection_level(a, l.capacity, h)
                }
            })
            .collect();
        self
    }

    /// Replaces the per-link protection levels with an explicit vector,
    /// overriding the Eq. 15 values computed from the primary loads.
    ///
    /// This is the hook behind what-if studies and the conformance
    /// subsystem's differential oracles: pinning `r^k` exactly lets a
    /// simulated link be compared against the analytic protected
    /// birth–death chain with the *same* protection level, and setting all
    /// levels to zero makes the controlled policy provably coincide with
    /// free (uncontrolled) alternate routing.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len()` differs from the link count or any level
    /// exceeds its link's capacity.
    pub fn with_protection_levels(mut self, levels: Vec<u32>) -> Self {
        assert_eq!(
            levels.len(),
            self.topology().num_links(),
            "need one protection level per link"
        );
        for (l, (&r, link)) in levels.iter().zip(self.store.topology().links()).enumerate() {
            assert!(
                r <= link.capacity,
                "link {l}: protection {r} exceeds capacity {}",
                link.capacity
            );
        }
        self.protection = levels;
        self
    }

    /// The topology the plan was built for.
    pub fn topology(&self) -> &Topology {
        self.store.topology()
    }

    /// The primary assignment.
    pub fn primaries(&self) -> &PrimaryAssignment {
        &self.primaries
    }

    /// The candidate (loop-free, ≤ H hops) paths of a pair in attempt
    /// order, including whichever paths serve as primaries.
    ///
    /// Computed lazily on first access over the currently-live links and
    /// memoized; see [`Self::set_link_state`] for invalidation.
    pub fn candidates(&self, src: usize, dst: usize) -> &[Path] {
        self.store.candidates(src, dst)
    }

    /// The underlying lazy candidate-path cache.
    pub fn path_store(&self) -> &PathStore {
        &self.store
    }

    /// Marks a link up or down in the candidate cache, evicting exactly
    /// the pairs whose cached sets may change (down: pairs traversing the
    /// link, via the reverse index; up: pairs within hop range of the
    /// revived link). Returns the number of evicted pairs; they recompute
    /// lazily on next access.
    ///
    /// This keeps `candidates()` consistent with the surviving topology
    /// without an O(N²) plan rebuild. Loads, protection levels, and
    /// shadow tables are *not* recomputed — they encode the engineered
    /// (design-time) traffic, which is unchanged by an outage.
    pub fn set_link_state(&mut self, link: LinkId, up: bool) -> usize {
        self.store.set_link_state(link, up)
    }

    /// Per-link primary loads `Λ^k`.
    pub fn link_loads(&self) -> &[f64] {
        &self.loads
    }

    /// Per-link protection levels `r^k`.
    pub fn protection_levels(&self) -> &[u32] {
        &self.protection
    }

    /// The protection level of one link.
    pub fn protection(&self, link: LinkId) -> u32 {
        self.protection[link]
    }

    /// The shadow price table of one link.
    pub fn shadow_table(&self, link: LinkId) -> &ShadowPriceTable {
        &self.shadows[link]
    }

    /// The design parameter `H`.
    pub fn max_alternate_hops(&self) -> u32 {
        self.max_alternate_hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altroute_netgraph::topologies;

    #[test]
    fn plan_precomputes_consistent_tables() {
        let topo = topologies::nsfnet(100);
        let traffic = altroute_netgraph::estimate::nsfnet_nominal_traffic().traffic;
        let plan = RoutingPlan::min_hop(topo, &traffic, 11);
        assert_eq!(plan.link_loads().len(), 30);
        assert_eq!(plan.protection_levels().len(), 30);
        assert_eq!(plan.max_alternate_hops(), 11);
        // Protection levels satisfy Eq. 15's minimality (cross-checked in
        // teletraffic); here check the plan wired loads to levels.
        for (l, (&load, &r)) in plan
            .link_loads()
            .iter()
            .zip(plan.protection_levels())
            .enumerate()
        {
            let expect = protection_level(load, plan.topology().link(l).capacity, 11);
            assert_eq!(r, expect, "link {l}");
            assert_eq!(plan.protection(l), r);
        }
        // Shadow tables exist per link with the right capacity.
        for l in 0..30 {
            assert_eq!(plan.shadow_table(l).capacity(), 100);
        }
    }

    #[test]
    fn protection_override_replaces_eq15_levels() {
        let topo = topologies::quadrangle();
        let traffic = TrafficMatrix::uniform(4, 90.0);
        let plan = RoutingPlan::min_hop(topo, &traffic, 3);
        let num_links = plan.topology().num_links();
        let zeroed = plan.clone().with_protection_levels(vec![0; num_links]);
        assert!(zeroed.protection_levels().iter().all(|&r| r == 0));
        let mut levels = vec![0u32; num_links];
        levels[3] = 7;
        let custom = plan.with_protection_levels(levels.clone());
        assert_eq!(custom.protection_levels(), &levels[..]);
        assert_eq!(custom.protection(3), 7);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn protection_override_rejects_oversized_level() {
        let topo = topologies::quadrangle();
        let traffic = TrafficMatrix::uniform(4, 10.0);
        let plan = RoutingPlan::min_hop(topo, &traffic, 3);
        let num_links = plan.topology().num_links();
        plan.with_protection_levels(vec![101; num_links]);
    }

    #[test]
    fn candidates_are_ordered_and_capped() {
        let topo = topologies::nsfnet(100);
        let traffic = TrafficMatrix::uniform(12, 1.0);
        let plan = RoutingPlan::min_hop(topo, &traffic, 6);
        for (i, j) in plan.topology().ordered_pairs() {
            let c = plan.candidates(i, j);
            assert!(!c.is_empty(), "{i}->{j} must have candidates");
            for w in c.windows(2) {
                assert!(w[0].hops() <= w[1].hops());
            }
            assert!(c.iter().all(|p| p.hops() <= 6));
            // The min-hop primary is the first candidate.
            let (prim, _) = plan.primaries().split(i, j).next().unwrap();
            assert_eq!(c[0].hops(), prim.len());
        }
        assert!(plan.candidates(4, 4).is_empty());
    }

    #[test]
    fn capped_plan_candidates_are_a_prefix_of_the_uncapped_plan() {
        let traffic = TrafficMatrix::uniform(6, 5.0);
        let full = RoutingPlan::min_hop(topologies::full_mesh(6, 20), &traffic, 2);
        for cap in [1usize, 2, 3, 10] {
            let capped =
                RoutingPlan::min_hop_capped(topologies::full_mesh(6, 20), &traffic, 2, cap);
            for (i, j) in capped.topology().ordered_pairs() {
                let all = full.candidates(i, j);
                let got = capped.candidates(i, j);
                assert_eq!(got, &all[..cap.min(all.len())], "{i}->{j} cap={cap}");
            }
            // Eq.-15 protection depends only on loads/capacities, never on
            // the candidate listing.
            assert_eq!(capped.protection_levels(), full.protection_levels());
        }
    }

    #[test]
    fn k200_capped_plan_construction_fits_a_time_budget() {
        // Regression for the K_N tandem blowup: the uncapped enumeration
        // at N = 200, H = 2 allocates ~200³/2 ≈ 8M paths; the capped plan
        // must stay O(N²·cap) and finish quickly. The budget is generous
        // (debug builds, loaded CI machines) — before the cap existed this
        // took minutes and gigabytes.
        let n = 200;
        let traffic = TrafficMatrix::uniform(n, 10.0);
        let start = std::time::Instant::now();
        let plan = RoutingPlan::min_hop_capped(topologies::full_mesh(n, 50), &traffic, 2, 16);
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(60),
            "K_200 capped plan took {elapsed:?}"
        );
        let c = plan.candidates(0, 1);
        assert_eq!(c.len(), 16);
        assert_eq!(c[0].hops(), 1);
        assert!(c[1..].iter().all(|p| p.hops() == 2));
    }

    #[test]
    #[should_panic(expected = "candidate cap must be positive")]
    fn zero_candidate_cap_is_rejected() {
        let traffic = TrafficMatrix::uniform(4, 1.0);
        RoutingPlan::min_hop_capped(topologies::full_mesh(4, 10), &traffic, 2, 0);
    }

    #[test]
    fn uniform_symmetric_plan_has_uniform_protection() {
        let topo = topologies::full_mesh(4, 100);
        let traffic = TrafficMatrix::uniform(4, 90.0);
        let plan = RoutingPlan::min_hop(topo, &traffic, 3);
        let r0 = plan.protection(0);
        assert!(plan.protection_levels().iter().all(|&r| r == r0));
        assert!(r0 >= 1, "busy symmetric mesh needs protection");
    }

    #[test]
    fn per_link_hop_bounds_never_raise_protection() {
        // NSFNet is so richly connected that every link carries an
        // 11-hop alternate (verified exhaustively), so footnote 5 changes
        // nothing there; the invariant after <= before must still hold.
        let topo = topologies::nsfnet(100);
        let traffic = altroute_netgraph::estimate::nsfnet_nominal_traffic().traffic;
        let network_wide = RoutingPlan::min_hop(topo, &traffic, 11);
        let baseline = network_wide.protection_levels().to_vec();
        let per_link = network_wide.with_per_link_hop_bounds();
        for (l, (&before, &after)) in baseline
            .iter()
            .zip(per_link.protection_levels())
            .enumerate()
        {
            assert!(after <= before, "link {l}: {after} > {before}");
        }
        assert_eq!(
            baseline,
            per_link.protection_levels(),
            "all NSFNet links see 11-hop alternates"
        );
    }

    #[test]
    fn per_link_hop_bounds_relax_where_alternates_are_short_or_absent() {
        // K4 with a deliberately loose network-wide H = 5: the longest
        // loop-free path has only 3 hops, so every link's H^k = 3 < 5 and
        // the per-link levels must drop at this load.
        let topo = topologies::full_mesh(4, 100);
        let traffic = TrafficMatrix::uniform(4, 90.0);
        let network_wide = RoutingPlan::min_hop(topo, &traffic, 5);
        let baseline = network_wide.protection_levels().to_vec();
        let per_link = network_wide.clone().with_per_link_hop_bounds();
        let h3 = RoutingPlan::min_hop(topologies::full_mesh(4, 100), &traffic, 3);
        assert_eq!(
            per_link.protection_levels(),
            h3.protection_levels(),
            "per-link H must equal the true 3-hop bound"
        );
        let mut strictly_lower = 0;
        for (&before, &after) in baseline.iter().zip(per_link.protection_levels()) {
            assert!(after <= before);
            if after < before {
                strictly_lower += 1;
            }
        }
        assert!(
            strictly_lower > 0,
            "r(90, 100, 3) < r(90, 100, 5) at this load"
        );

        // Pure line: no alternates anywhere => r = 0 on every link.
        let line = topologies::line(4, 30);
        let line_traffic = TrafficMatrix::uniform(4, 10.0);
        let plan = RoutingPlan::min_hop(line, &line_traffic, 3).with_per_link_hop_bounds();
        assert!(plan.protection_levels().iter().all(|&r| r == 0));
    }

    #[test]
    fn per_link_h_equals_network_h_on_symmetric_mesh() {
        // On K4 every link carries 2- and 3-hop alternates, so H^k = 3 =
        // H and the plans coincide.
        let topo = topologies::full_mesh(4, 100);
        let traffic = TrafficMatrix::uniform(4, 90.0);
        let network_wide = RoutingPlan::min_hop(topo, &traffic, 3);
        let baseline = network_wide.protection_levels().to_vec();
        let per_link = network_wide.with_per_link_hop_bounds();
        assert_eq!(baseline, per_link.protection_levels());
    }

    #[test]
    fn link_state_changes_update_candidates_without_a_rebuild() {
        let topo = topologies::nsfnet(100);
        let traffic = TrafficMatrix::uniform(12, 5.0);
        let mut plan = RoutingPlan::min_hop(topo, &traffic, 4);
        let link = plan.topology().link_between(5, 6).unwrap();
        let before = plan.candidates(5, 6).to_vec();
        assert!(before.iter().any(|p| p.uses_link(link)));
        let loads = plan.link_loads().to_vec();
        let protection = plan.protection_levels().to_vec();

        let evicted = plan.set_link_state(link, false);
        assert!(evicted > 0);
        assert!(!plan.path_store().is_up(link));
        // Candidates now reflect the surviving subgraph...
        assert!(plan.candidates(5, 6).iter().all(|p| !p.uses_link(link)));
        // ...while the engineered loads and Eq.-15 levels are untouched.
        assert_eq!(plan.link_loads(), &loads[..]);
        assert_eq!(plan.protection_levels(), &protection[..]);

        plan.set_link_state(link, true);
        assert_eq!(plan.candidates(5, 6), &before[..]);
    }

    #[test]
    #[should_panic(expected = "H must be positive")]
    fn zero_h_panics() {
        let topo = topologies::full_mesh(3, 10);
        let traffic = TrafficMatrix::uniform(3, 1.0);
        RoutingPlan::min_hop(topo, &traffic, 0);
    }
}
