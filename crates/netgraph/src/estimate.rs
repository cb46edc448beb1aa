//! Traffic-matrix reconstruction from per-link primary loads.
//!
//! The paper's NSFNet experiments are driven by a traffic matrix `𝒯`
//! derived from Internet traffic projections, but the matrix itself is not
//! printed — only the per-link primary loads `Λ^k` it induces (Table 1).
//! This module recovers a matrix consistent with those loads by solving
//! the non-negative least-squares problem
//!
//! `minimise ‖A·t − Λ‖²  subject to  t ≥ 0`
//!
//! where `t` stacks the per-pair demands and `A` is the 0/1 incidence of
//! the (fixed) primary paths over links. The problem is underdetermined
//! (132 pairs vs 30 links for NSFNet), so among consistent matrices the
//! solver's multiplicative updates pick one close (in relative terms) to
//! its starting point; we start from a uniform matrix, yielding a smooth,
//! gravity-like solution. The *downstream* quantities the paper reports —
//! protection levels, blocking curves — depend on `𝒯` only through the
//! `Λ^k` (and the pair-level granularity of arrivals), so any consistent
//! reconstruction reproduces them.
//!
//! The solver is Lee–Seung style multiplicative NNLS: with `A ≥ 0` and
//! `Λ ≥ 0`, the iteration `t ← t ⊙ (Aᵀ Λ) ⊘ (Aᵀ A t)` monotonically
//! decreases the residual and preserves non-negativity.

use crate::graph::Topology;
use crate::paths::Path;
use crate::traffic::TrafficMatrix;

/// Options for [`fit_traffic_to_loads`].
#[derive(Debug, Clone, Copy)]
pub struct FitOptions {
    /// Maximum multiplicative-update sweeps.
    pub max_iterations: usize,
    /// Stop when the relative residual `‖A·t − Λ‖ / ‖Λ‖` falls below this.
    pub tolerance: f64,
    /// Initial demand for every ordered pair with a primary path.
    pub initial_demand: f64,
}

impl Default for FitOptions {
    fn default() -> Self {
        Self {
            max_iterations: 20_000,
            tolerance: 1e-10,
            initial_demand: 1.0,
        }
    }
}

/// Result of a traffic-matrix fit.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// The reconstructed matrix.
    pub traffic: TrafficMatrix,
    /// Per-link loads induced by the reconstruction (same order as
    /// `topo.links()`).
    pub achieved_loads: Vec<f64>,
    /// Relative residual `‖achieved − target‖ / ‖target‖`.
    pub relative_residual: f64,
    /// Iterations performed.
    pub iterations: usize,
}

/// Fits a non-negative traffic matrix whose primary-path link loads match
/// `target_loads` as closely as possible.
///
/// `primaries` is the row-major primary-path table from
/// [`crate::paths::min_hop_primaries`]. Pairs without a primary path keep
/// zero demand.
///
/// # Panics
///
/// Panics on size mismatches, non-finite/negative targets, or non-positive
/// options.
pub fn fit_traffic_to_loads(
    topo: &Topology,
    primaries: &[Option<Path>],
    target_loads: &[f64],
    opts: FitOptions,
) -> FitResult {
    let n = topo.num_nodes();
    let m = topo.num_links();
    assert_eq!(primaries.len(), n * n, "primary table size mismatch");
    assert_eq!(target_loads.len(), m, "one target load per link");
    assert!(
        target_loads.iter().all(|&l| l.is_finite() && l >= 0.0),
        "target loads must be finite and >= 0"
    );
    assert!(opts.max_iterations > 0 && opts.tolerance > 0.0 && opts.initial_demand > 0.0);

    // Active pairs and their link incidence.
    let mut pair_links: Vec<(usize, Vec<usize>)> = Vec::new();
    for (idx, p) in primaries.iter().enumerate() {
        if let Some(path) = p {
            pair_links.push((idx, path.links().to_vec()));
        }
    }
    let mut t: Vec<f64> = vec![opts.initial_demand; pair_links.len()];
    let target_norm = target_loads.iter().map(|l| l * l).sum::<f64>().sqrt();

    let mut achieved = vec![0.0; m];
    let mut iterations = 0;
    // Aᵀ·Λ is constant.
    let at_lambda: Vec<f64> = pair_links
        .iter()
        .map(|(_, links)| links.iter().map(|&l| target_loads[l]).sum())
        .collect();
    for it in 0..opts.max_iterations {
        iterations = it + 1;
        // achieved = A·t
        achieved.fill(0.0);
        for ((_, links), &tp) in pair_links.iter().zip(&t) {
            for &l in links {
                achieved[l] += tp;
            }
        }
        let residual = achieved
            .iter()
            .zip(target_loads)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let rel = if target_norm > 0.0 {
            residual / target_norm
        } else {
            residual
        };
        if rel < opts.tolerance {
            break;
        }
        // t ← t ⊙ (AᵀΛ) ⊘ (Aᵀ A t)
        for (p, (_, links)) in pair_links.iter().enumerate() {
            let denom: f64 = links.iter().map(|&l| achieved[l]).sum();
            if denom > 0.0 {
                t[p] *= at_lambda[p] / denom;
            } else {
                t[p] = 0.0;
            }
        }
    }
    // Final achieved loads for the returned t.
    achieved.fill(0.0);
    for ((_, links), &tp) in pair_links.iter().zip(&t) {
        for &l in links {
            achieved[l] += tp;
        }
    }
    let residual = achieved
        .iter()
        .zip(target_loads)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let relative_residual = if target_norm > 0.0 {
        residual / target_norm
    } else {
        residual
    };

    let mut traffic = TrafficMatrix::zero(n);
    for ((idx, _), &tp) in pair_links.iter().zip(&t) {
        traffic.set(idx / n, idx % n, tp);
    }
    FitResult {
        traffic,
        achieved_loads: achieved,
        relative_residual,
        iterations,
    }
}

/// The paper's Table 1: `(src, dst, Λ^k, r^k at H=6, r^k at H=11)` for the
/// 30 directed NSFNet links under the nominal load (loads rounded to the
/// nearest Erlang as printed).
pub const NSFNET_TABLE1: [(usize, usize, f64, u32, u32); 30] = [
    (0, 1, 74.0, 7, 10),
    (0, 11, 77.0, 8, 12),
    (1, 0, 71.0, 6, 8),
    (1, 2, 37.0, 2, 3),
    (1, 5, 46.0, 3, 4),
    (2, 1, 34.0, 2, 3),
    (2, 3, 16.0, 1, 2),
    (3, 2, 16.0, 1, 2),
    (3, 4, 49.0, 3, 4),
    (4, 3, 54.0, 3, 4),
    (4, 5, 63.0, 4, 6),
    (4, 11, 103.0, 56, 100),
    (5, 1, 49.0, 3, 4),
    (5, 4, 65.0, 5, 6),
    (5, 6, 81.0, 11, 15),
    (6, 5, 87.0, 16, 26),
    (6, 7, 74.0, 7, 10),
    (7, 6, 73.0, 7, 9),
    (7, 8, 71.0, 6, 8),
    (7, 9, 43.0, 3, 3),
    (8, 7, 76.0, 8, 11),
    (8, 10, 124.0, 100, 100),
    (9, 7, 39.0, 2, 3),
    (9, 10, 49.0, 3, 4),
    (10, 8, 107.0, 70, 100),
    (10, 9, 48.0, 3, 4),
    (10, 11, 167.0, 100, 100),
    (11, 0, 85.0, 14, 22),
    (11, 4, 104.0, 60, 100),
    (11, 10, 154.0, 100, 100),
];

/// The nominal-load link targets of Table 1, ordered by the given
/// topology's link ids.
///
/// # Panics
///
/// Panics if `topo` is not the NSFNet topology of
/// [`crate::topologies::nsfnet`].
pub fn nsfnet_table1_loads(topo: &Topology) -> Vec<f64> {
    let mut loads = vec![f64::NAN; topo.num_links()];
    for &(s, d, lambda, _, _) in &NSFNET_TABLE1 {
        let l = topo
            .link_between(s, d)
            .unwrap_or_else(|| panic!("topology is missing NSFNet link {s}->{d}"));
        loads[l] = lambda;
    }
    assert!(
        loads.iter().all(|l| l.is_finite()),
        "topology has links beyond the 30 of Table 1"
    );
    loads
}

/// Reconstructs the paper's nominal NSFNet traffic matrix from Table 1.
///
/// Returns the fit over the minimum-hop primaries of the standard
/// [`crate::topologies::nsfnet`] topology.
pub fn nsfnet_nominal_traffic() -> FitResult {
    let topo = crate::topologies::nsfnet(100);
    let primaries = crate::paths::min_hop_primaries(&topo);
    let targets = nsfnet_table1_loads(&topo);
    fit_traffic_to_loads(&topo, &primaries, &targets, FitOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::min_hop_primaries;
    use crate::topologies;

    #[test]
    fn fit_is_nonnegative_and_zero_where_no_primary() {
        let fit = nsfnet_nominal_traffic();
        let m = &fit.traffic;
        for i in 0..12 {
            for j in 0..12 {
                assert!(m.get(i, j) >= 0.0);
            }
            assert_eq!(m.get(i, i), 0.0);
        }
    }

    #[test]
    fn nsfnet_reconstruction_matches_table1_loads() {
        // The published loads must be (nearly) achievable over min-hop
        // primaries: this is the core substitution of DESIGN.md and the
        // basis of every NSFNet experiment.
        let fit = nsfnet_nominal_traffic();
        assert!(
            fit.relative_residual < 0.02,
            "Table 1 loads should be fit to ~1%: residual {}",
            fit.relative_residual
        );
        let topo = topologies::nsfnet(100);
        let targets = nsfnet_table1_loads(&topo);
        for (link, (a, b)) in fit.achieved_loads.iter().zip(&targets).enumerate() {
            assert!(
                (a - b).abs() < 3.0,
                "link {link}: achieved {a} vs Table 1 {b}"
            );
        }
    }

    #[test]
    fn table1_loads_indexable_by_link() {
        let topo = topologies::nsfnet(100);
        let loads = nsfnet_table1_loads(&topo);
        let l = topo.link_between(10, 11).unwrap();
        assert_eq!(loads[l], 167.0);
        let l = topo.link_between(2, 3).unwrap();
        assert_eq!(loads[l], 16.0);
    }

    #[test]
    fn protection_levels_from_reconstruction_match_table1() {
        // Recompute r^k from the *achieved* loads and compare with the
        // paper's printed values; allow ±2 for the overloaded links where
        // Table 1's printed (rounded) Λ and the reconstruction differ in
        // the steep region of the r(Λ) curve.
        use altroute_teletraffic::reservation::protection_level;
        let topo = topologies::nsfnet(100);
        let fit = nsfnet_nominal_traffic();
        for &(s, d, _, r6, r11) in &NSFNET_TABLE1 {
            let l = topo.link_between(s, d).unwrap();
            let lambda = fit.achieved_loads[l];
            for (h, r_paper) in [(6u32, r6), (11u32, r11)] {
                let r = protection_level(lambda, 100, h);
                let diff = (i64::from(r) - i64::from(r_paper)).abs();
                assert!(
                    diff <= 2,
                    "link {s}->{d} H={h}: computed r={r}, Table 1 r={r_paper} (Λ={lambda:.2})"
                );
            }
        }
    }

    #[test]
    fn zero_targets_give_zero_matrix() {
        let topo = topologies::full_mesh(3, 10);
        let primaries = min_hop_primaries(&topo);
        let fit = fit_traffic_to_loads(&topo, &primaries, &[0.0; 6], FitOptions::default());
        assert_eq!(fit.traffic.total(), 0.0);
        assert!(fit.relative_residual < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one target load per link")]
    fn wrong_target_length_panics() {
        let topo = topologies::full_mesh(3, 10);
        let primaries = min_hop_primaries(&topo);
        fit_traffic_to_loads(&topo, &primaries, &[1.0], FitOptions::default());
    }
}
