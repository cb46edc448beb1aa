//! Kernel route selectors: the policy layer's [`RouteSelector`]
//! implementations for the shared simulation kernel — the only place the
//! workspace decides *which path carries a call, given the plan and the
//! link states*.
//!
//! A selector proposes paths and the kernel's
//! [`AdmissionPolicy`] says which links accept the call at each tier;
//! both read the one [`LinkOccupancy`] the kernel books against.
//! Selectors may carry *state* between calls (sticky choices, online
//! estimators, private RNG streams):
//!
//! * [`TieredSelector`] — primary-then-alternates in Eq. 15 order, the
//!   state-dependent tier of the paper's scheme. Combined with
//!   [`TrunkReservation`](altroute_simcore::kernel::TrunkReservation)
//!   it is controlled alternate routing; with
//!   [`Uncontrolled`](altroute_simcore::kernel::Uncontrolled) admission
//!   it is the uncontrolled baseline; with alternates disabled it is
//!   single-path routing.
//! * [`OttKrishnanSelector`] — the separable shadow-price baseline:
//!   cheapest candidate by summed per-link prices, carried iff the
//!   price does not exceed the call's revenue. Admission is internal to
//!   the price test, so the kernel's admission policy is ignored.
//! * [`DarStickySelector`] — dynamic alternative routing (DAR): a
//!   sticky alternate per pair, resampled uniformly at random whenever
//!   a call fails on it. Pairs naturally spread over uncongested
//!   alternates without any load exchange, at the cost of losing the
//!   call that triggers the resample. Protection (trunk reservation) on
//!   alternates is what keeps DAR stable past the critical load.
//!
//! Every selector returns paths borrowed from its [`RoutingPlan`], so
//! selection allocates nothing per call.

use crate::plan::RoutingPlan;
use altroute_simcore::kernel::{AdmissionPolicy, LinkOccupancy, RouteSelector, Selection, Tier};
use altroute_simcore::rng::RngStream;

/// Primary-then-alternates selection (the paper's ordering): the
/// (possibly bifurcated) primary first, then the plan's candidate
/// alternates in increasing hop count, skipping the sampled primary.
/// Which calls a link accepts at each tier is entirely the admission
/// policy's business.
#[derive(Debug, Clone)]
pub struct TieredSelector<'p> {
    plan: &'p RoutingPlan,
    alternates: bool,
}

impl<'p> TieredSelector<'p> {
    /// A selector that overflows blocked primaries onto alternates.
    pub fn new(plan: &'p RoutingPlan) -> Self {
        Self {
            plan,
            alternates: true,
        }
    }

    /// A selector that only ever offers the primary path (single-path
    /// routing).
    pub fn single_path(plan: &'p RoutingPlan) -> Self {
        Self {
            plan,
            alternates: false,
        }
    }
}

impl<'p> RouteSelector<'p> for TieredSelector<'p> {
    fn select<A: AdmissionPolicy>(
        &mut self,
        src: usize,
        dst: usize,
        pick: f64,
        view: &LinkOccupancy,
        admission: &A,
        bandwidth: u32,
    ) -> Selection<'p> {
        let Some(primary) = self.plan.primaries().choose(src, dst, pick) else {
            return Selection::Blocked;
        };
        if admission.path_admits(view, primary, Tier::Primary, bandwidth) {
            return Selection::Route {
                links: primary,
                tier: Tier::Primary,
            };
        }
        if !self.alternates {
            return Selection::Blocked;
        }
        for path in self.plan.candidates(src, dst) {
            if path.links() == primary {
                continue;
            }
            if admission.path_admits(view, path.links(), Tier::Alternate, bandwidth) {
                return Selection::Route {
                    links: path.links(),
                    tier: Tier::Alternate,
                };
            }
        }
        Selection::Blocked
    }
}

/// The Ott–Krishnan separable shadow-price rule: among the pair's
/// candidates pick the one with the smallest summed per-link shadow
/// price at current occupancies (ties to the shortest), and carry the
/// call iff that price does not exceed the call's revenue (1 in the
/// single-service model). Down links price at infinity.
///
/// The price test *is* the admission control, so the kernel's admission
/// policy is ignored.
#[derive(Debug, Clone)]
pub struct OttKrishnanSelector<'p> {
    plan: &'p RoutingPlan,
}

impl<'p> OttKrishnanSelector<'p> {
    /// Binds the selector to a plan (whose shadow-price tables drive
    /// the decision).
    pub fn new(plan: &'p RoutingPlan) -> Self {
        Self { plan }
    }
}

impl<'p> RouteSelector<'p> for OttKrishnanSelector<'p> {
    fn select<A: AdmissionPolicy>(
        &mut self,
        src: usize,
        dst: usize,
        _pick: f64,
        view: &LinkOccupancy,
        _admission: &A,
        _bandwidth: u32,
    ) -> Selection<'p> {
        const REVENUE: f64 = 1.0;
        let mut best: Option<(&'p altroute_netgraph::paths::Path, f64)> = None;
        for path in self.plan.candidates(src, dst) {
            let mut cost = 0.0;
            for &l in path.links() {
                if !view.is_up(l) {
                    cost = f64::INFINITY;
                    break;
                }
                cost += self.plan.shadow_table(l).price(view.occupancy(l));
                if cost.is_infinite() {
                    break;
                }
            }
            // Candidates are in increasing-length order; strict `<` keeps
            // the shortest of equal-cost paths.
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((path, cost));
            }
        }
        match best {
            Some((path, cost)) if cost <= REVENUE + 1e-12 => {
                // Any path in the pair's primary split counts as
                // primary-routed.
                Selection::Route {
                    links: path.links(),
                    tier: if self.plan.primaries().is_primary(src, dst, path.links()) {
                        Tier::Primary
                    } else {
                        Tier::Alternate
                    },
                }
            }
            _ => Selection::Blocked,
        }
    }
}

/// Dynamic alternative routing with sticky random resampling (DAR).
///
/// Each pair remembers one *current* alternate. A call tries its
/// primary; if the primary refuses, it tries the sticky alternate (at
/// [`Tier::Alternate`], so trunk reservation applies). If that also
/// refuses, the call is lost **and** the pair resamples a new sticky
/// alternate uniformly at random — learning-by-failure, with no load
/// information exchanged between switches.
///
/// The resampling RNG is the selector's own stream, deliberately
/// separate from the arrival streams: DAR perturbs routing state only,
/// so every pair still sees the identical call sequence as the other
/// policies (common random numbers).
#[derive(Debug, Clone)]
pub struct DarStickySelector<'p> {
    plan: &'p RoutingPlan,
    /// Per pair: the candidate alternates (candidates minus every path
    /// in the pair's primary split, so stickiness is well defined even
    /// under bifurcated primaries).
    alternates: Vec<Vec<&'p altroute_netgraph::paths::Path>>,
    /// Per pair: index into `alternates` of the current sticky choice.
    current: Vec<usize>,
    rng: RngStream,
    n: usize,
    resamples: u64,
}

impl<'p> DarStickySelector<'p> {
    /// Binds the selector to a plan with its private resampling stream.
    pub fn new(plan: &'p RoutingPlan, rng: RngStream) -> Self {
        let n = plan.topology().num_nodes();
        let mut alternates = Vec::with_capacity(n * n);
        for src in 0..n {
            for dst in 0..n {
                let alts: Vec<&'p altroute_netgraph::paths::Path> = plan
                    .candidates(src, dst)
                    .iter()
                    .filter(|path| !plan.primaries().is_primary(src, dst, path.links()))
                    .collect();
                alternates.push(alts);
            }
        }
        Self {
            plan,
            alternates,
            current: vec![0; n * n],
            rng,
            n,
            resamples: 0,
        }
    }

    /// How many times any pair resampled its sticky alternate.
    pub fn resamples(&self) -> u64 {
        self.resamples
    }
}

impl<'p> RouteSelector<'p> for DarStickySelector<'p> {
    fn select<A: AdmissionPolicy>(
        &mut self,
        src: usize,
        dst: usize,
        pick: f64,
        view: &LinkOccupancy,
        admission: &A,
        bandwidth: u32,
    ) -> Selection<'p> {
        let Some(primary) = self.plan.primaries().choose(src, dst, pick) else {
            return Selection::Blocked;
        };
        if admission.path_admits(view, primary, Tier::Primary, bandwidth) {
            return Selection::Route {
                links: primary,
                tier: Tier::Primary,
            };
        }
        let pair = src * self.n + dst;
        let alts = &self.alternates[pair];
        if alts.is_empty() {
            return Selection::Blocked;
        }
        let sticky = alts[self.current[pair]];
        if admission.path_admits(view, sticky.links(), Tier::Alternate, bandwidth) {
            return Selection::Route {
                links: sticky.links(),
                tier: Tier::Alternate,
            };
        }
        // The call is lost; the pair abandons the congested alternate
        // and picks a fresh one at random for the *next* overflow.
        self.current[pair] = self.rng.below(alts.len());
        self.resamples += 1;
        Selection::Blocked
    }
}

/// Balanced-allocation DAR — "best of d".
///
/// A call tries its primary; if the primary refuses, the pair samples
/// `d` alternates uniformly at random (with replacement) and carries
/// the call on the least-loaded admissible one — the "power of d
/// choices" rule from balanced allocation, applied to two-hop tandems.
/// Load is the maximum link occupancy along the alternate, so a tandem
/// is exactly as loaded as its busier leg. Alternates are attempted at
/// [`Tier::Alternate`], so trunk reservation applies.
///
/// Degenerate corners are pinned by tests: `d = 1` is memoryless
/// uniform resampling (DAR without stickiness), and `d ≥` the number of
/// alternates scans them **all deterministically** — no RNG draws —
/// picking the globally least-loaded admissible alternate (ties to the
/// earliest in attempt order).
///
/// The sampling RNG is the selector's own stream, separate from the
/// arrival streams, so every pair sees the identical call sequence as
/// the other policies (common random numbers).
#[derive(Debug, Clone)]
pub struct BestOfDSelector<'p> {
    plan: &'p RoutingPlan,
    /// Per pair: the candidate alternates (candidates minus every path
    /// in the pair's primary split).
    alternates: Vec<Vec<&'p altroute_netgraph::paths::Path>>,
    d: usize,
    rng: RngStream,
    n: usize,
    samples: u64,
}

impl<'p> BestOfDSelector<'p> {
    /// Binds the selector to a plan with its private sampling stream.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` — sampling zero alternates is single-path
    /// routing, which [`TieredSelector::single_path`] already provides.
    pub fn new(plan: &'p RoutingPlan, d: u32, rng: RngStream) -> Self {
        assert!(d >= 1, "best-of-d needs d >= 1");
        let n = plan.topology().num_nodes();
        let mut alternates = Vec::with_capacity(n * n);
        for src in 0..n {
            for dst in 0..n {
                let alts: Vec<&'p altroute_netgraph::paths::Path> = plan
                    .candidates(src, dst)
                    .iter()
                    .filter(|path| !plan.primaries().is_primary(src, dst, path.links()))
                    .collect();
                alternates.push(alts);
            }
        }
        Self {
            plan,
            alternates,
            d: d as usize,
            rng,
            n,
            samples: 0,
        }
    }

    /// How many uniform draws the sampling stream has made (zero when
    /// every overflow so far fell in the deterministic full-scan
    /// regime `d ≥ #alternates`).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The load of an alternate: the occupancy of its busiest link.
    fn load(view: &LinkOccupancy, links: &[usize]) -> u32 {
        links.iter().map(|&l| view.occupancy(l)).max().unwrap_or(0)
    }
}

impl<'p> RouteSelector<'p> for BestOfDSelector<'p> {
    fn select<A: AdmissionPolicy>(
        &mut self,
        src: usize,
        dst: usize,
        pick: f64,
        view: &LinkOccupancy,
        admission: &A,
        bandwidth: u32,
    ) -> Selection<'p> {
        let Some(primary) = self.plan.primaries().choose(src, dst, pick) else {
            return Selection::Blocked;
        };
        if admission.path_admits(view, primary, Tier::Primary, bandwidth) {
            return Selection::Route {
                links: primary,
                tier: Tier::Primary,
            };
        }
        let pair = src * self.n + dst;
        let alts = &self.alternates[pair];
        if alts.is_empty() {
            return Selection::Blocked;
        }
        let mut best: Option<(&'p [usize], u32)> = None;
        let mut consider = |links: &'p [usize], view: &LinkOccupancy| {
            if admission.path_admits(view, links, Tier::Alternate, bandwidth) {
                let load = Self::load(view, links);
                // Strict `<` keeps the earliest of equally-loaded
                // alternates (attempt order on a full scan, draw order
                // when sampling).
                if best.is_none_or(|(_, b)| load < b) {
                    best = Some((links, load));
                }
            }
        };
        if self.d >= alts.len() {
            // Enough samples to cover every alternate: scan them all
            // deterministically, no RNG draws.
            for path in alts {
                consider(path.links(), view);
            }
        } else {
            // Exactly d draws per overflow (with replacement), even if
            // an early sample already admits — a fixed draw count keeps
            // the stream aligned across runs.
            for _ in 0..self.d {
                let idx = self.rng.below(alts.len());
                self.samples += 1;
                consider(alts[idx].links(), view);
            }
        }
        match best {
            Some((links, _)) => Selection::Route {
                links,
                tier: Tier::Alternate,
            },
            None => Selection::Blocked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use altroute_netgraph::topologies;
    use altroute_netgraph::traffic::TrafficMatrix;
    use altroute_simcore::kernel::{TrunkReservation, Uncontrolled};
    use altroute_simcore::rng::StreamFactory;

    /// K4 with capacity 100, uniform 90 Erlang/pair, H = 3.
    fn k4_plan() -> RoutingPlan {
        let topo = topologies::full_mesh(4, 100);
        let traffic = TrafficMatrix::uniform(4, 90.0);
        RoutingPlan::min_hop(topo, &traffic, 3)
    }

    fn view_for(plan: &RoutingPlan) -> LinkOccupancy {
        let caps: Vec<u32> = plan.topology().links().iter().map(|l| l.capacity).collect();
        LinkOccupancy::new(&caps)
    }

    fn fill(view: &mut LinkOccupancy, link: usize, to: u32) {
        let occ = view.occupancy(link);
        assert!(to >= occ);
        for _ in occ..to {
            view.book(&[link], 1);
        }
    }

    /// The four plan-driven policies as the simulator pairs them:
    /// tiered selection under capacity-only or trunk-reservation
    /// admission, and the Ott–Krishnan price rule.
    fn decide<'p>(
        plan: &'p RoutingPlan,
        kind: PolicyKind,
        src: usize,
        dst: usize,
        view: &LinkOccupancy,
    ) -> Selection<'p> {
        let reservation = TrunkReservation::new(plan.protection_levels().to_vec());
        match kind {
            PolicyKind::SinglePath => {
                TieredSelector::single_path(plan).select(src, dst, 0.0, view, &Uncontrolled, 1)
            }
            PolicyKind::UncontrolledAlternate { .. } => {
                TieredSelector::new(plan).select(src, dst, 0.0, view, &Uncontrolled, 1)
            }
            PolicyKind::ControlledAlternate { .. } => {
                TieredSelector::new(plan).select(src, dst, 0.0, view, &reservation, 1)
            }
            PolicyKind::OttKrishnan { .. } => {
                OttKrishnanSelector::new(plan).select(src, dst, 0.0, view, &Uncontrolled, 1)
            }
            other => panic!("{other:?} is not a plan-driven policy"),
        }
    }

    const POLICIES: [PolicyKind; 4] = [
        PolicyKind::SinglePath,
        PolicyKind::UncontrolledAlternate { max_hops: 3 },
        PolicyKind::ControlledAlternate { max_hops: 3 },
        PolicyKind::OttKrishnan { max_hops: 3 },
    ];

    #[test]
    fn idle_network_routes_primary() {
        let plan = k4_plan();
        let view = view_for(&plan);
        for kind in POLICIES {
            match decide(&plan, kind, 0, 1, &view) {
                Selection::Route { links, tier } => {
                    assert_eq!(tier, Tier::Primary, "{kind:?}");
                    assert_eq!(links.len(), 1, "{kind:?}");
                }
                Selection::Blocked => panic!("{kind:?} blocked on an empty network"),
            }
        }
    }

    #[test]
    fn tiered_single_path_never_overflows() {
        let plan = k4_plan();
        let mut view = view_for(&plan);
        let direct = plan.topology().link_between(0, 1).unwrap();
        fill(&mut view, direct, 100);
        let mut sel = TieredSelector::single_path(&plan);
        assert_eq!(
            sel.select(0, 1, 0.0, &view, &Uncontrolled, 1),
            Selection::Blocked
        );
        // Other pairs are unaffected.
        assert!(matches!(
            sel.select(0, 2, 0.0, &view, &Uncontrolled, 1),
            Selection::Route { .. }
        ));
        let mut sel = TieredSelector::new(&plan);
        match sel.select(0, 1, 0.0, &view, &Uncontrolled, 1) {
            Selection::Route { links, tier } => {
                assert_eq!(tier, Tier::Alternate);
                assert_eq!(links.len(), 2);
            }
            Selection::Blocked => panic!("uncontrolled must overflow"),
        }
    }

    #[test]
    fn uncontrolled_overflows_past_a_full_alternate() {
        let plan = k4_plan();
        let t = plan.topology();
        let mut view = view_for(&plan);
        fill(&mut view, t.link_between(0, 1).unwrap(), 100);
        // Fill the first leg via node 2 to force the 0-3-1 path.
        fill(&mut view, t.link_between(0, 2).unwrap(), 100);
        let via3 = [t.link_between(0, 3).unwrap(), t.link_between(3, 1).unwrap()];
        assert_eq!(
            TieredSelector::new(&plan).select(0, 1, 0.0, &view, &Uncontrolled, 1),
            Selection::Route {
                links: &via3[..],
                tier: Tier::Alternate
            }
        );
    }

    #[test]
    fn tiered_with_trunk_reservation_refuses_protected_band() {
        let plan = k4_plan();
        let r = plan.protection(0);
        assert!(r >= 1, "90 Erlangs on 100 circuits needs protection");
        let mut view = view_for(&plan);
        let direct = plan.topology().link_between(0, 1).unwrap();
        fill(&mut view, direct, 100);
        // Every other link exactly at the threshold C−r: alternates are
        // refused while primaries would still fit.
        for l in 0..plan.topology().num_links() {
            if l != direct {
                fill(&mut view, l, 100 - plan.protection(l));
            }
        }
        let tr = TrunkReservation::new(plan.protection_levels().to_vec());
        let mut sel = TieredSelector::new(&plan);
        assert_eq!(sel.select(0, 1, 0.0, &view, &tr, 1), Selection::Blocked);
        // Uncontrolled admission would still route the same selection.
        assert!(matches!(
            sel.select(0, 1, 0.0, &view, &Uncontrolled, 1),
            Selection::Route { .. }
        ));
        // One below the threshold, C−r−1, the reservation admits again.
        for l in 0..plan.topology().num_links() {
            if l != direct {
                view.release(&[l], 1);
            }
        }
        match sel.select(0, 1, 0.0, &view, &tr, 1) {
            Selection::Route { tier, .. } => assert_eq!(tier, Tier::Alternate),
            Selection::Blocked => panic!("one free circuit below threshold must admit"),
        }
    }

    #[test]
    fn primary_calls_ignore_protection() {
        let plan = k4_plan();
        let mut view = view_for(&plan);
        let direct = plan.topology().link_between(0, 1).unwrap();
        fill(&mut view, direct, 99); // deep inside the protected band
        let kind = PolicyKind::ControlledAlternate { max_hops: 3 };
        match decide(&plan, kind, 0, 1, &view) {
            Selection::Route { links, tier } => {
                assert_eq!(tier, Tier::Primary);
                assert_eq!(links, &[direct][..]);
            }
            Selection::Blocked => panic!("a primary call must take the last circuit"),
        }
    }

    #[test]
    fn down_links_admit_nothing() {
        let plan = k4_plan();
        let mut view = view_for(&plan);
        let direct = plan.topology().link_between(0, 1).unwrap();
        view.set_down(direct);
        for kind in POLICIES {
            match decide(&plan, kind, 0, 1, &view) {
                Selection::Blocked => assert_eq!(kind, PolicyKind::SinglePath),
                Selection::Route { links, .. } => {
                    assert!(!links.contains(&direct), "{kind:?} routed over a down link");
                }
            }
        }
    }

    #[test]
    fn ott_krishnan_picks_cheapest_path_and_blocks_on_high_price() {
        let plan = k4_plan();
        let mut view = view_for(&plan);
        let direct = plan.topology().link_between(0, 1).unwrap();
        let mut sel = OttKrishnanSelector::new(&plan);
        // Empty network: the direct path is cheapest (one cheap link
        // beats two).
        assert_eq!(
            sel.select(0, 1, 0.0, &view, &Uncontrolled, 1),
            Selection::Route {
                links: &[direct][..],
                tier: Tier::Primary
            }
        );
        // Fill the direct link: the cheapest two-hop path wins.
        fill(&mut view, direct, 100);
        match sel.select(0, 1, 0.0, &view, &Uncontrolled, 1) {
            Selection::Route { links, tier } => {
                assert_eq!(links.len(), 2);
                assert_eq!(tier, Tier::Alternate);
            }
            Selection::Blocked => panic!("two-hop alternates are cheap on an empty network"),
        }
        // Every other link one below capacity: the last circuit's shadow
        // price is exactly 1, so two-hop paths cost 2 > revenue, and the
        // direct path is full (infinite). Blocked.
        for l in 0..plan.topology().num_links() {
            if l != direct {
                fill(&mut view, l, 99);
            }
        }
        assert_eq!(
            sel.select(0, 1, 0.0, &view, &Uncontrolled, 1),
            Selection::Blocked
        );
    }

    #[test]
    fn ott_krishnan_accepts_exactly_at_revenue() {
        // A direct path at occupancy C−1 costs exactly 1.0 = revenue and
        // must still be accepted ("blocked iff price exceeds revenue").
        let plan = k4_plan();
        let mut view = view_for(&plan);
        for l in 0..plan.topology().num_links() {
            fill(&mut view, l, 99);
        }
        match OttKrishnanSelector::new(&plan).select(0, 1, 0.0, &view, &Uncontrolled, 1) {
            Selection::Route { links, .. } => assert_eq!(links.len(), 1),
            Selection::Blocked => panic!("price == revenue must be accepted"),
        }
    }

    #[test]
    fn fully_loaded_network_blocks_everything() {
        let plan = k4_plan();
        let mut view = view_for(&plan);
        for l in 0..plan.topology().num_links() {
            fill(&mut view, l, 100);
        }
        for kind in POLICIES {
            assert_eq!(
                decide(&plan, kind, 2, 3, &view),
                Selection::Blocked,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn dar_sticks_until_blocked_then_resamples() {
        let plan = k4_plan();
        let mut view = view_for(&plan);
        let direct = plan.topology().link_between(0, 1).unwrap();
        fill(&mut view, direct, 100);
        let mut sel = DarStickySelector::new(&plan, StreamFactory::new(7).stream(u64::MAX));
        // First overflow routes the sticky alternate...
        let first = sel.select(0, 1, 0.0, &view, &Uncontrolled, 1);
        let Selection::Route {
            links: sticky,
            tier,
        } = first
        else {
            panic!("overflow must route on an otherwise empty network");
        };
        assert_eq!(tier, Tier::Alternate);
        // ...and the same one again while it keeps admitting.
        let again = sel.select(0, 1, 0.0, &view, &Uncontrolled, 1);
        assert_eq!(first, again);
        assert_eq!(sel.resamples(), 0);
        // Congest the sticky alternate: the call is lost and the pair
        // resamples.
        for &l in sticky {
            fill(&mut view, l, 100);
        }
        assert_eq!(
            sel.select(0, 1, 0.0, &view, &Uncontrolled, 1),
            Selection::Blocked
        );
        assert_eq!(sel.resamples(), 1);
    }

    #[test]
    fn dar_primary_unaffected_by_stickiness() {
        let plan = k4_plan();
        let view = view_for(&plan);
        let mut sel = DarStickySelector::new(&plan, StreamFactory::new(7).stream(u64::MAX));
        match sel.select(2, 3, 0.0, &view, &Uncontrolled, 1) {
            Selection::Route { tier, links } => {
                assert_eq!(tier, Tier::Primary);
                assert_eq!(links.len(), 1);
            }
            Selection::Blocked => panic!("empty network must route the primary"),
        }
        assert_eq!(sel.resamples(), 0);
    }

    #[test]
    fn best_of_one_is_uniform_dar_resampling() {
        // d = 1 is memoryless DAR: every overflow draws one uniform
        // alternate and uses it iff admissible. A mirror of the sampling
        // stream predicts the selection exactly.
        let plan = k4_plan();
        let mut view = view_for(&plan);
        let direct = plan.topology().link_between(0, 1).unwrap();
        fill(&mut view, direct, 100);
        let mut sel = BestOfDSelector::new(&plan, 1, StreamFactory::new(9).stream(u64::MAX - 1));
        let mut mirror = StreamFactory::new(9).stream(u64::MAX - 1);
        let alts: Vec<_> = plan
            .candidates(0, 1)
            .iter()
            .filter(|p| !plan.primaries().is_primary(0, 1, p.links()))
            .collect();
        assert!(alts.len() > 1, "need a real sampling regime");
        for call in 0..30 {
            let expect = alts[mirror.below(alts.len())];
            match sel.select(0, 1, 0.0, &view, &Uncontrolled, 1) {
                Selection::Route { links, tier } => {
                    assert_eq!(tier, Tier::Alternate);
                    assert_eq!(links, expect.links(), "call {call}");
                }
                Selection::Blocked => panic!("call {call}: all alternates admit"),
            }
        }
        assert_eq!(sel.samples(), 30);
    }

    #[test]
    fn best_of_many_scans_all_alternates_deterministically() {
        // d ≥ #alternates covers every alternate: the globally
        // least-loaded admissible one wins, and the RNG is never drawn.
        let plan = k4_plan();
        let mut view = view_for(&plan);
        let t = plan.topology();
        fill(&mut view, t.link_between(0, 1).unwrap(), 100);
        fill(&mut view, t.link_between(0, 2).unwrap(), 40);
        fill(&mut view, t.link_between(2, 1).unwrap(), 30);
        fill(&mut view, t.link_between(0, 3).unwrap(), 20);
        fill(&mut view, t.link_between(3, 1).unwrap(), 25);
        // Tandem loads for 0→1: [0,2,1] = 40, [0,3,1] = 25,
        // [0,2,3,1] = 40, [0,3,2,1] = 30 → [0,3,1] wins.
        let mut sel = BestOfDSelector::new(&plan, 10, StreamFactory::new(9).stream(u64::MAX - 1));
        match sel.select(0, 1, 0.0, &view, &Uncontrolled, 1) {
            Selection::Route { links, tier } => {
                assert_eq!(tier, Tier::Alternate);
                let want: Vec<usize> =
                    vec![t.link_between(0, 3).unwrap(), t.link_between(3, 1).unwrap()];
                assert_eq!(links, &want[..]);
            }
            Selection::Blocked => panic!("an admissible alternate exists"),
        }
        assert_eq!(sel.samples(), 0, "full scan must not draw from the RNG");
        // Equal loads tie to the earliest alternate in attempt order.
        fill(&mut view, t.link_between(0, 3).unwrap(), 40);
        fill(&mut view, t.link_between(3, 1).unwrap(), 40);
        fill(&mut view, t.link_between(2, 1).unwrap(), 40);
        match sel.select(0, 1, 0.0, &view, &Uncontrolled, 1) {
            Selection::Route { links, .. } => {
                let want: Vec<usize> =
                    vec![t.link_between(0, 2).unwrap(), t.link_between(2, 1).unwrap()];
                assert_eq!(links, &want[..], "tie must go to attempt order");
            }
            Selection::Blocked => panic!("an admissible alternate exists"),
        }
    }

    #[test]
    fn best_of_d_respects_trunk_reservation() {
        let plan = k4_plan();
        let r = plan.protection(0);
        assert!(r >= 1);
        let mut view = view_for(&plan);
        let direct = plan.topology().link_between(0, 1).unwrap();
        fill(&mut view, direct, 100);
        for l in 0..plan.topology().num_links() {
            if l != direct {
                fill(&mut view, l, 100 - plan.protection(l));
            }
        }
        let tr = TrunkReservation::new(plan.protection_levels().to_vec());
        let mut sel = BestOfDSelector::new(&plan, 10, StreamFactory::new(9).stream(u64::MAX - 1));
        assert_eq!(sel.select(0, 1, 0.0, &view, &tr, 1), Selection::Blocked);
        // Uncontrolled admission still routes.
        assert!(matches!(
            sel.select(0, 1, 0.0, &view, &Uncontrolled, 1),
            Selection::Route { .. }
        ));
    }

    #[test]
    fn best_of_d_primary_unaffected_by_sampling() {
        let plan = k4_plan();
        let view = view_for(&plan);
        let mut sel = BestOfDSelector::new(&plan, 2, StreamFactory::new(9).stream(u64::MAX - 1));
        match sel.select(2, 3, 0.0, &view, &Uncontrolled, 1) {
            Selection::Route { tier, links } => {
                assert_eq!(tier, Tier::Primary);
                assert_eq!(links.len(), 1);
            }
            Selection::Blocked => panic!("empty network must route the primary"),
        }
        assert_eq!(sel.samples(), 0);
    }

    #[test]
    fn best_of_d_is_deterministic_per_stream_seed() {
        let plan = k4_plan();
        let mut view = view_for(&plan);
        let direct = plan.topology().link_between(0, 1).unwrap();
        fill(&mut view, direct, 100);
        let run = |seed: u64| {
            let mut sel =
                BestOfDSelector::new(&plan, 2, StreamFactory::new(seed).stream(u64::MAX - 1));
            let mut outcomes = Vec::new();
            for _ in 0..20 {
                outcomes.push(sel.select(0, 1, 0.0, &view, &Uncontrolled, 1));
            }
            (outcomes, sel.samples())
        };
        assert_eq!(run(3), run(3));
        assert_eq!(run(3).1, 40, "two draws per overflow");
    }

    #[test]
    #[should_panic(expected = "best-of-d needs d >= 1")]
    fn best_of_zero_is_rejected() {
        let plan = k4_plan();
        BestOfDSelector::new(&plan, 0, StreamFactory::new(9).stream(u64::MAX - 1));
    }

    #[test]
    fn dar_is_deterministic_per_stream_seed() {
        let plan = k4_plan();
        let mut view = view_for(&plan);
        let direct = plan.topology().link_between(0, 1).unwrap();
        fill(&mut view, direct, 100);
        // Congest one two-hop alternate so resampling has to happen.
        let via2 = plan.topology().link_between(0, 2).unwrap();
        fill(&mut view, via2, 100);
        let run = |seed: u64| {
            let mut sel = DarStickySelector::new(&plan, StreamFactory::new(seed).stream(u64::MAX));
            let mut outcomes = Vec::new();
            for _ in 0..20 {
                outcomes.push(sel.select(0, 1, 0.0, &view, &Uncontrolled, 1));
            }
            (outcomes, sel.resamples())
        };
        assert_eq!(run(1), run(1));
        // Different stream seeds may legitimately coincide on such a tiny
        // topology, but the mechanism itself must be exercised.
        assert!(run(1).1 > 0);
    }
}
