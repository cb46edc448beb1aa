//! Conformance oracles for the lazy candidate-path store.
//!
//! Two families of guarantees, checked on randomized instances:
//!
//! * **Parity** — the store-backed `RoutingPlan::candidates` is
//!   byte-identical to the historical eager enumeration (the golden
//!   traces already pin this end-to-end; here it is pinned directly at
//!   the path-set level over the fuzzer's instance distribution).
//! * **Incremental equals full** — after any sequence of link (or
//!   SRLG-group) failures and revivals, the incrementally-invalidated
//!   store yields exactly the candidate sets a from-scratch store built
//!   against the same link states would: targeted eviction loses
//!   nothing.

use altroute_core::plan::RoutingPlan;
use altroute_netgraph::paths::{loop_free_paths, loop_free_paths_capped};
use altroute_netgraph::store::PathStore;
use altroute_netgraph::topologies::{power_law_mesh, random_instance, srlg_groups};
use altroute_netgraph::Topology;
use proptest::prelude::*;

/// A from-scratch store with the given links already down: the full
/// re-enumeration baseline the incremental path must match.
fn fresh_store(topo: &Topology, max_hops: usize, cap: Option<usize>, down: &[usize]) -> PathStore {
    let mut store = match cap {
        Some(c) => PathStore::with_cap(topo.clone(), max_hops, c),
        None => PathStore::new(topo.clone(), max_hops),
    };
    for &l in down {
        store.set_link_state(l, false);
    }
    store
}

fn assert_stores_agree(incremental: &PathStore, full: &PathStore) {
    let topo = incremental.topology();
    for (i, j) in topo.ordered_pairs() {
        assert_eq!(
            incremental.candidates(i, j),
            full.candidates(i, j),
            "pair {i}->{j} diverged from full re-enumeration"
        );
    }
}

/// Hop distances to (`reverse`) or from `start` over the links `live`
/// accepts, by a plain breadth-first search over every link.
fn hop_distances(
    topo: &Topology,
    start: usize,
    reverse: bool,
    live: impl Fn(usize) -> bool,
) -> Vec<Option<usize>> {
    let mut dist = vec![None; topo.num_nodes()];
    dist[start] = Some(0);
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(x) = queue.pop_front() {
        for (id, l) in topo.links().iter().enumerate() {
            let (from, to) = if reverse {
                (l.dst, l.src)
            } else {
                (l.src, l.dst)
            };
            if from == x && live(id) && dist[to].is_none() {
                dist[to] = Some(dist[x].unwrap() + 1);
                queue.push_back(to);
            }
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Store-backed plans produce exactly the sets the eager per-pair
    /// enumerators produce, capped and uncapped.
    #[test]
    fn plan_candidates_match_eager_enumeration(seed in 0u64..500, cap_sel in 0usize..4) {
        let inst = random_instance(seed);
        let h = inst.max_hops as usize;
        let cap = [None, Some(1), Some(2), Some(5)][cap_sel];
        let plan = match cap {
            None => RoutingPlan::min_hop(inst.topology.clone(), &inst.traffic, inst.max_hops),
            Some(c) => RoutingPlan::min_hop_capped(
                inst.topology.clone(),
                &inst.traffic,
                inst.max_hops,
                c,
            ),
        };
        for (i, j) in inst.topology.ordered_pairs() {
            let expect = match cap {
                None => loop_free_paths(&inst.topology, i, j, h),
                Some(c) => loop_free_paths_capped(&inst.topology, i, j, h, c),
            };
            prop_assert_eq!(plan.candidates(i, j), expect.as_slice(), "pair {}->{}", i, j);
        }
    }

    /// After any random sequence of single-link failures, the
    /// incrementally-invalidated store equals a from-scratch store built
    /// against the same surviving links.
    #[test]
    fn incremental_equals_full_under_link_failures(
        seed in 0u64..500,
        fail_sel in proptest::collection::vec(0usize..1000, 1..4),
        cap_sel in 0usize..3,
    ) {
        let inst = random_instance(seed);
        let topo = inst.topology;
        let h = inst.max_hops as usize;
        let cap = [None, Some(2), Some(4)][cap_sel];
        let mut store = fresh_store(&topo, h, cap, &[]);
        // Warm the whole cache so eviction has maximal opportunity to be
        // wrong.
        for (i, j) in topo.ordered_pairs() {
            store.candidates(i, j);
        }
        let mut down = Vec::new();
        for sel in fail_sel {
            let link = sel % topo.num_links();
            if !down.contains(&link) {
                down.push(link);
            }
            store.set_link_state(link, false);
            assert_stores_agree(&store, &fresh_store(&topo, h, cap, &down));
        }
    }

    /// Failing an entire SRLG group as a unit and later reviving it
    /// round-trips: mid-outage the store equals a from-scratch build on
    /// the surviving links, and after revival it equals the all-up build.
    #[test]
    fn srlg_group_failure_and_revival_round_trip(
        seed in 0u64..300,
        group_sel in 0usize..100,
        warm_first in any::<bool>(),
    ) {
        let inst = random_instance(seed);
        let topo = inst.topology;
        let h = inst.max_hops as usize;
        let units = topo.num_links() / 2;
        let groups = srlg_groups(&topo, units.clamp(1, 3), seed);
        let group = &groups[group_sel % groups.len()];

        let mut store = fresh_store(&topo, h, None, &[]);
        if warm_first {
            for (i, j) in topo.ordered_pairs() {
                store.candidates(i, j);
            }
        }
        for &l in group {
            store.set_link_state(l, false);
        }
        assert_stores_agree(&store, &fresh_store(&topo, h, None, group));
        // The agreement check cached every ordered pair. Each revival must
        // evict exactly the cached pairs (s, t) with
        // dist(s, u) + 1 + dist(v, t) <= H over the links then live.
        let mut cached: Vec<(usize, usize)> = topo.ordered_pairs().collect();
        prop_assert_eq!(store.cached_pairs(), cached.len());
        for (k, &l) in group.iter().enumerate() {
            let live = |id: usize| !group[k + 1..].contains(&id);
            let link = topo.link(l);
            let to_u = hop_distances(&topo, link.src, true, live);
            let from_v = hop_distances(&topo, link.dst, false, live);
            let before = cached.len();
            cached.retain(|&(s, t)| match (to_u[s], from_v[t]) {
                (Some(ds), Some(dt)) => ds + 1 + dt > h,
                _ => true,
            });
            prop_assert_eq!(store.set_link_state(l, true), before - cached.len(), "link {}", l);
            prop_assert_eq!(store.cached_pairs(), cached.len());
        }
        assert_stores_agree(&store, &fresh_store(&topo, h, None, &[]));
    }
}

/// One larger deterministic case off the proptest path: a power-law mesh
/// with capped enumeration under a rolling two-group SRLG outage, checked
/// against full re-enumeration at every step.
#[test]
fn power_law_rolling_srlg_matches_full_recompute() {
    let topo = power_law_mesh(80, 32, 0xD1CE);
    let groups = srlg_groups(&topo, 6, 0xD1CE);
    let (h, cap) = (4, Some(6));
    let mut store = fresh_store(&topo, h, cap, &[]);
    for (i, j) in topo.ordered_pairs() {
        store.candidates(i, j);
    }
    let mut down: Vec<usize> = Vec::new();
    for window in groups.windows(2).take(3) {
        for &l in &window[0] {
            store.set_link_state(l, false);
            down.push(l);
        }
        for &l in &window[1] {
            store.set_link_state(l, false);
            down.push(l);
        }
        assert_stores_agree(&store, &fresh_store(&topo, h, cap, &down));
        // Roll the first group back up.
        for &l in &window[0] {
            store.set_link_state(l, true);
            down.retain(|&d| d != l);
        }
        assert_stores_agree(&store, &fresh_store(&topo, h, cap, &down));
    }
}
