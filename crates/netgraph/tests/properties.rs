//! Property-based tests of the graph substrate on randomized meshes.

use altroute_netgraph::cuts::{cut_load, erlang_bound, ErlangBound};
use altroute_netgraph::estimate::nsfnet_nominal_traffic;
use altroute_netgraph::graph::Topology;
use altroute_netgraph::paths::{dijkstra, loop_free_paths, min_hop_path};
use altroute_netgraph::topologies::{nsfnet, power_law_mesh, random_mesh, srlg_groups};
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_teletraffic::bound::cut_bound;
use proptest::prelude::*;

/// Strategy: a connected random mesh of 4–10 nodes.
fn mesh() -> impl Strategy<Value = altroute_netgraph::graph::Topology> {
    (4usize..=10, 0usize..6, 1u64..1000).prop_map(|(n, extra, seed)| {
        let max_chords = n * (n - 1) / 2 - n;
        random_mesh(n, extra.min(max_chords), 10, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Min-hop paths are genuinely minimal: no enumerated loop-free path
    /// is shorter.
    #[test]
    fn min_hop_is_minimal(topo in mesh(), src_sel in 0usize..100, dst_sel in 0usize..100) {
        let n = topo.num_nodes();
        let (src, dst) = (src_sel % n, dst_sel % n);
        prop_assume!(src != dst);
        let min = min_hop_path(&topo, src, dst).expect("ring base keeps meshes connected");
        let all = loop_free_paths(&topo, src, dst, n - 1);
        prop_assert!(!all.is_empty());
        prop_assert_eq!(all[0].hops(), min.hops());
        for p in &all {
            prop_assert!(p.hops() >= min.hops());
        }
    }

    /// Every enumerated path is loop-free, connects the endpoints, and
    /// respects the hop cap; the list is sorted by length then nodes.
    #[test]
    fn enumeration_invariants(topo in mesh(), src_sel in 0usize..100, dst_sel in 0usize..100, cap in 1usize..9) {
        let n = topo.num_nodes();
        let (src, dst) = (src_sel % n, dst_sel % n);
        prop_assume!(src != dst);
        let paths = loop_free_paths(&topo, src, dst, cap);
        for p in &paths {
            prop_assert_eq!(p.src(), src);
            prop_assert_eq!(p.dst(), dst);
            prop_assert!(p.hops() <= cap);
            // Loop-free: all nodes distinct.
            let mut nodes = p.nodes().to_vec();
            nodes.sort_unstable();
            nodes.dedup();
            prop_assert_eq!(nodes.len(), p.nodes().len());
            // Links consistent with nodes.
            prop_assert_eq!(p.links().len() + 1, p.nodes().len());
        }
        for w in paths.windows(2) {
            prop_assert!(
                w[0].hops() < w[1].hops()
                    || (w[0].hops() == w[1].hops() && w[0].nodes() < w[1].nodes())
            );
        }
        // No duplicates.
        for i in 0..paths.len() {
            for j in (i + 1)..paths.len() {
                prop_assert_ne!(&paths[i], &paths[j]);
            }
        }
    }

    /// The ISP-scale generators are deterministic per seed and emit valid
    /// topologies: power-law meshes are strongly connected with the exact
    /// preferential-attachment link budget, and SRLG groups partition the
    /// links with duplex mates kept together.
    #[test]
    fn isp_scale_generators_are_deterministic_and_valid(
        n in 5usize..60,
        groups in 1usize..8,
        seed in 1u64..10_000,
    ) {
        let a = power_law_mesh(n, 16, seed);
        let b = power_law_mesh(n, 16, seed);
        prop_assert_eq!(a.num_links(), b.num_links());
        for l in 0..a.num_links() {
            prop_assert_eq!(
                (a.link(l).src, a.link(l).dst),
                (b.link(l).src, b.link(l).dst)
            );
        }
        prop_assert!(a.is_strongly_connected());
        prop_assert_eq!(a.num_links(), 2 * (4 + 2 * (n - 4)));

        let units = a.num_links() / 2;
        let groups = groups.min(units);
        let sg = srlg_groups(&a, groups, seed);
        prop_assert_eq!(&sg, &srlg_groups(&a, groups, seed));
        prop_assert_eq!(sg.len(), groups);
        let mut seen = vec![0usize; a.num_links()];
        for g in &sg {
            prop_assert!(!g.is_empty());
            for &l in g {
                seen[l] += 1;
                let link = a.link(l);
                let rev = a.link_between(link.dst, link.src).expect("duplex");
                prop_assert!(g.contains(&rev));
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    /// Dijkstra under unit weights equals BFS hop count.
    #[test]
    fn dijkstra_unit_weight_is_min_hop(topo in mesh(), src_sel in 0usize..100, dst_sel in 0usize..100) {
        let n = topo.num_nodes();
        let (src, dst) = (src_sel % n, dst_sel % n);
        prop_assume!(src != dst);
        let d = dijkstra(&topo, src, dst, |_| 1.0).unwrap();
        let b = min_hop_path(&topo, src, dst).unwrap();
        prop_assert_eq!(d.hops(), b.hops());
    }

    /// Complementary cuts have mirrored loads, and the Erlang bound is a
    /// probability no larger than 1.
    #[test]
    fn cut_symmetry_and_bound_range(topo in mesh(), per_pair in 0.1f64..40.0, mask_sel in 1u32..1000) {
        let n = topo.num_nodes();
        let m = TrafficMatrix::uniform(n, per_pair);
        let full: u32 = (1 << n) - 1;
        let mask = (mask_sel % (full - 1)) + 1; // non-trivial cut
        let a = cut_load(&topo, &m, mask);
        let b = cut_load(&topo, &m, full & !mask);
        prop_assert_eq!(a.capacity_out, b.capacity_in);
        prop_assert_eq!(a.capacity_in, b.capacity_out);
        prop_assert!((a.traffic_out - b.traffic_in).abs() < 1e-9);
        let eb = erlang_bound(&topo, &m);
        prop_assert!((0.0..=1.0).contains(&eb.bound));
    }
}

/// The Erlang bound by evaluating every cut `erlang_bound` enumerates,
/// with no pruning: the reference its pruned search must reproduce.
fn exhaustive_erlang_bound(topo: &Topology, traffic: &TrafficMatrix) -> ErlangBound {
    let mut best = ErlangBound {
        bound: 0.0,
        cut_mask: 0,
    };
    for rest in 1..1u32 << (topo.num_nodes() - 1) {
        let mask = rest << 1;
        let b = cut_bound(cut_load(topo, traffic, mask), traffic.total());
        if b > best.bound {
            best = ErlangBound {
                bound: b,
                cut_mask: mask,
            };
        }
    }
    best
}

/// Asserts the pruned and the exhaustive search agree bit for bit.
fn assert_same_bound(topo: &Topology, traffic: &TrafficMatrix) {
    let pruned = erlang_bound(topo, traffic);
    let exhaustive = exhaustive_erlang_bound(topo, traffic);
    assert_eq!(pruned.bound.to_bits(), exhaustive.bound.to_bits());
    assert_eq!(pruned.cut_mask, exhaustive.cut_mask);
}

#[test]
fn pruned_erlang_bound_is_exhaustive_on_the_nsfnet_sweep() {
    // Fig. 6's loads and beyond, from nearly idle to heavily overloaded.
    let nominal = nsfnet_nominal_traffic().traffic;
    for load in [0.05, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 20.0, 40.0] {
        assert_same_bound(&nsfnet(100), &nominal.scaled(load / 10.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// On random meshes under random per-pair loads (idle pairs, light
    /// and overloaded ones), skipping the cuts that cannot beat the best
    /// leaves the Erlang bound and its cut exactly as the full search.
    #[test]
    fn pruned_erlang_bound_is_exhaustive(
        topo in mesh(),
        loads in proptest::collection::vec(prop_oneof![Just(0.0f64), 0.0f64..1.0, 0.0f64..40.0], 100),
        scale in prop_oneof![Just(1.0f64), 1e-3f64..1.0],
    ) {
        let n = topo.num_nodes();
        let mut m = TrafficMatrix::zero(n);
        for (k, &load) in loads.iter().enumerate() {
            let (i, j) = (k / n % n, k % n);
            if i != j {
                m.set(i, j, load * scale);
            }
        }
        assert_same_bound(&topo, &m);
    }
}
