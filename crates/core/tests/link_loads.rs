//! Eq. 1 on the primary table: `Λ^k = Σ T(i, j)·f` over the primary paths
//! crossing link `k`. Total load is demand-weighted hop count, loads scale
//! linearly with traffic, a demand with no primary is refused, and the
//! NNLS traffic fit reproduces loads the table generated.

use altroute_core::primary::PrimaryAssignment;
use altroute_netgraph::estimate::{fit_traffic_to_loads, FitOptions};
use altroute_netgraph::graph::Topology;
use altroute_netgraph::paths::{loop_free_paths, min_hop_primaries, Path};
use altroute_netgraph::topologies::{self, random_mesh};
use altroute_netgraph::traffic::TrafficMatrix;
use proptest::prelude::*;

/// Strategy: a connected random mesh of 4–10 nodes.
fn mesh() -> impl Strategy<Value = Topology> {
    (4usize..=10, 0usize..6, 1u64..1000).prop_map(|(n, extra, seed)| {
        let max_chords = n * (n - 1) / 2 - n;
        random_mesh(n, extra.min(max_chords), 10, seed)
    })
}

/// Splits every pair evenly over its (at most two) shortest loop-free
/// paths. The ring under every [`mesh`] keeps hop counts within `n / 2`.
fn halved(topo: &Topology) -> PrimaryAssignment {
    let n = topo.num_nodes();
    let mut splits: Vec<Vec<(Path, f64)>> = vec![Vec::new(); n * n];
    for (i, j) in topo.ordered_pairs() {
        let mut paths = loop_free_paths(topo, i, j, n / 2 + 1);
        paths.truncate(2);
        let f = 1.0 / paths.len() as f64;
        splits[i * n + j] = paths.into_iter().map(|p| (p, f)).collect();
    }
    PrimaryAssignment::from_splits(topo, splits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: total link load equals demand-weighted primary hop
    /// count, on the min-hop table and on a bifurcated one; doubling the
    /// traffic doubles every link's load.
    #[test]
    fn link_loads_conserve_demand_hops_and_scale_linearly(
        topo in mesh(),
        per_pair in 0.1f64..20.0,
    ) {
        let m = TrafficMatrix::uniform(topo.num_nodes(), per_pair);
        for table in [PrimaryAssignment::min_hop(&topo), halved(&topo)] {
            let loads = table.link_loads(&topo, &m);
            let total: f64 = loads.iter().sum();
            let expect: f64 = m
                .demands()
                .map(|(i, j, t)| t * table.split(i, j).map(|(p, f)| f * p.len() as f64).sum::<f64>())
                .sum();
            prop_assert!((total - expect).abs() < 1e-6 * expect.max(1.0));
            let doubled = table.link_loads(&topo, &m.scaled(2.0));
            for (a, b) in loads.iter().zip(&doubled) {
                prop_assert!((2.0 * a - b).abs() < 1e-9);
            }
        }
    }
}

/// On the line 0-1-2 the middle node's links carry the transit pair too.
#[test]
fn transit_pairs_load_every_link_they_cross() {
    let topo = topologies::line(3, 10);
    let m = TrafficMatrix::uniform(3, 1.0);
    let loads = PrimaryAssignment::min_hop(&topo).link_loads(&topo, &m);
    // Link 0->1 carries (0,1) and (0,2); link 1->2 carries (1,2), (0,2).
    assert_eq!(loads[topo.link_between(0, 1).unwrap()], 2.0);
    assert_eq!(loads[topo.link_between(1, 2).unwrap()], 2.0);
}

#[test]
#[should_panic(expected = "demand but no primary path")]
fn demand_without_a_primary_panics() {
    let mut topo = Topology::new();
    topo.add_nodes(3);
    topo.add_link(0, 1, 5);
    let mut m = TrafficMatrix::zero(3);
    m.set(1, 0, 1.0);
    PrimaryAssignment::min_hop(&topo).link_loads(&topo, &m);
}

/// Loads generated from a known matrix are exactly achievable, so the
/// NNLS fit must reproduce them.
#[test]
fn traffic_fit_recovers_the_loads_it_was_fit_to() {
    let topo = topologies::nsfnet(100);
    let table = PrimaryAssignment::min_hop(&topo);
    let targets = table.link_loads(&topo, &TrafficMatrix::uniform(12, 3.0));
    let primaries = min_hop_primaries(&topo);
    let fit = fit_traffic_to_loads(&topo, &primaries, &targets, FitOptions::default());
    assert!(
        fit.relative_residual < 1e-8,
        "residual {}",
        fit.relative_residual
    );
    let achieved = table.link_loads(&topo, &fit.traffic);
    for (a, b) in achieved.iter().zip(&targets) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }
}
