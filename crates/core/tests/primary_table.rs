//! The flat primary table against the nested splits it is built from: the
//! same pick for every `u`, the same splits, and the same min-hop routes as
//! the per-pair path construction.

use altroute_core::primary::PrimaryAssignment;
use altroute_netgraph::paths::{loop_free_paths, min_hop_primaries, Path};
use altroute_netgraph::topologies::{power_law_mesh, random_mesh, ring};
use proptest::prelude::*;

/// The pick the nested table made: the first path whose running sum of
/// fractions exceeds `u`, else the last.
fn reference_choose(split: &[(Path, f64)], u: f64) -> Option<&[usize]> {
    let mut acc = 0.0;
    for (p, f) in split {
        acc += f;
        if u < acc {
            return Some(p.links());
        }
    }
    split.last().map(|(p, _)| p.links())
}

/// The smallest `f64` above a non-negative `x`.
fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// The largest `f64` below a positive `x`.
fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random bifurcated splits: `choose` picks what the nested loop
    /// picks at every running-sum boundary, on either side of it, past
    /// the final sum (the rounding fallback) and at a random `u`; `split`
    /// returns each pair's paths and fractions unchanged and in order.
    #[test]
    fn flat_table_picks_like_the_nested_splits(
        seed in 1u64..500,
        weights in proptest::collection::vec(1u32..=1000, 64),
        u in 0.0f64..1.0,
    ) {
        let topo = random_mesh(6, 4, 10, seed);
        let n = topo.num_nodes();
        let mut splits: Vec<Vec<(Path, f64)>> = vec![Vec::new(); n * n];
        for (i, j) in topo.ordered_pairs() {
            let idx = i * n + j;
            let paths = loop_free_paths(&topo, i, j, 4);
            let count = 1 + weights[idx % 64] as usize % paths.len().min(4);
            let w: Vec<f64> = (0..count).map(|k| f64::from(weights[(idx + k) % 64])).collect();
            let total: f64 = w.iter().sum();
            splits[idx] = paths.into_iter().zip(w).map(|(p, w)| (p, w / total)).collect();
        }
        let table = PrimaryAssignment::from_splits(&topo, splits.clone());
        for (i, j) in topo.ordered_pairs() {
            let split = &splits[i * n + j];
            let flat: Vec<(&[usize], f64)> = table.split(i, j).collect();
            let nested: Vec<(&[usize], f64)> =
                split.iter().map(|(p, f)| (p.links(), *f)).collect();
            prop_assert_eq!(&flat, &nested, "split of ({}, {})", i, j);
            let mut probes = vec![0.0, u, 1.0, next_down(1.0)];
            let mut acc = 0.0;
            for (_, f) in split {
                acc += f;
                probes.extend([acc, next_down(acc), next_up(acc)]);
            }
            for &p in &probes {
                prop_assert_eq!(
                    table.choose(i, j, p),
                    reference_choose(split, p),
                    "({}, {}) at u = {:e}", i, j, p
                );
            }
        }
        for i in 0..n {
            prop_assert!(table.choose(i, i, u).is_none());
            prop_assert_eq!(table.split(i, i).len(), 0);
        }
    }

    /// `min_hop` writes the tree walks straight into the table; every pair
    /// must get exactly the links of `min_hop_primaries`' path.
    #[test]
    fn min_hop_table_matches_min_hop_primaries(seed in 1u64..1000, n in 5usize..60) {
        for topo in [power_law_mesh(n, 10, seed), ring(n, 10)] {
            let table = PrimaryAssignment::min_hop(&topo);
            prop_assert!(!table.is_bifurcated());
            for (idx, path) in min_hop_primaries(&topo).iter().enumerate() {
                let (i, j) = (idx / n, idx % n);
                let flat: Vec<(&[usize], f64)> = table.split(i, j).collect();
                let expect: Vec<(&[usize], f64)> =
                    path.iter().map(|p| (p.links(), 1.0)).collect();
                prop_assert_eq!(flat, expect, "pair ({}, {})", i, j);
                prop_assert_eq!(table.choose(i, j, 0.5), path.as_ref().map(Path::links));
            }
        }
    }
}

/// Fractions whose left-to-right sum rounds below 1 leave a sliver of `u`
/// past the last running sum; it falls to the last path, as it did in the
/// nested table.
#[test]
fn rounding_sliver_falls_to_the_last_path() {
    let topo = altroute_netgraph::topologies::full_mesh(4, 10);
    let mut splits: Vec<Vec<(Path, f64)>> = vec![Vec::new(); 16];
    for (i, j) in topo.ordered_pairs() {
        let paths = loop_free_paths(&topo, i, j, 3);
        splits[i * 4 + j] = if (i, j) == (0, 1) {
            paths.into_iter().zip([0.7, 0.1, 0.1, 0.1]).collect()
        } else {
            vec![(paths[0].clone(), 1.0)]
        };
    }
    let (last_path, _) = splits[1].last().unwrap().clone();
    let sum = splits[1].iter().fold(0.0, |acc, (_, f)| acc + f);
    let table = PrimaryAssignment::from_splits(&topo, splits);
    assert!(sum < 1.0, "0.7 + 3 x 0.1 must round below 1, got {sum}");
    assert_eq!(table.choose(0, 1, sum), Some(last_path.links()));
    assert_eq!(table.choose(0, 1, next_down(1.0)), Some(last_path.links()));
}
