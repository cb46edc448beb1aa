//! Property-based tests of the analytic kernels.

use altroute_netgraph::graph::MAX_CAPACITY;
use altroute_teletraffic::birth_death::BirthDeathChain;
use altroute_teletraffic::erlang::{
    carried_traffic, dimension_link, erlang_b, erlang_b_with_derivative, inverse_erlang_b_log_table,
};
use altroute_teletraffic::estimate::protection_levels_for;
use altroute_teletraffic::kaufman_roberts::{kaufman_roberts_blocking, TrafficClass};
use altroute_teletraffic::loss::{lost_traffic, lost_traffic_with_derivative};
use altroute_teletraffic::overflow::overflow_moments;
use altroute_teletraffic::reservation::{protection_level, shadow_price_bound, LevelSolver};
use altroute_teletraffic::shadow::ShadowPriceTable;
use proptest::prelude::*;

proptest! {
    /// B(a, C) is a probability for all valid inputs.
    #[test]
    fn erlang_b_is_probability(a in 0.0f64..500.0, c in 0u32..400) {
        let b = erlang_b(a, c);
        prop_assert!((0.0..=1.0).contains(&b), "B({a}, {c}) = {b}");
    }

    /// B is non-decreasing in load and non-increasing in capacity.
    #[test]
    fn erlang_b_monotonicity(a in 0.1f64..300.0, delta in 0.1f64..50.0, c in 1u32..300) {
        prop_assert!(erlang_b(a + delta, c) >= erlang_b(a, c) - 1e-12);
        prop_assert!(erlang_b(a, c + 1) <= erlang_b(a, c) + 1e-12);
    }

    /// The inverse log table agrees with the direct recursion.
    #[test]
    fn inverse_table_consistency(a in 0.5f64..200.0, c in 1u32..200) {
        let table = inverse_erlang_b_log_table(a, c);
        let b = erlang_b(a, c);
        let from_table = (-table[c as usize]).exp();
        prop_assert!((b - from_table).abs() < 1e-9 * b.max(1e-12),
            "a={a} c={c}: {b} vs {from_table}");
    }

    /// The derivative is non-negative and matches a finite difference.
    #[test]
    fn derivative_is_consistent(a in 1.0f64..200.0, c in 1u32..200) {
        let (_, db) = erlang_b_with_derivative(a, c);
        prop_assert!(db >= -1e-15);
        let h = 1e-5 * a;
        let fd = (erlang_b(a + h, c) - erlang_b(a - h, c)) / (2.0 * h);
        prop_assert!((db - fd).abs() < 1e-4 * db.abs().max(1e-8), "a={a} c={c}: {db} vs {fd}");
    }

    /// Carried traffic never exceeds capacity or offered load.
    #[test]
    fn carried_traffic_bounds(a in 0.0f64..500.0, c in 0u32..300) {
        let carried = carried_traffic(a, c);
        prop_assert!(carried <= a + 1e-9);
        prop_assert!(carried <= f64::from(c) + 1e-9);
        prop_assert!(carried >= -1e-12);
    }

    /// Dimensioning returns the minimal sufficient capacity.
    #[test]
    fn dimensioning_is_minimal(a in 0.5f64..150.0, target in 0.001f64..0.5) {
        if let Some(c) = dimension_link(a, target, 2000) {
            prop_assert!(erlang_b(a, c) <= target);
            if c > 0 {
                prop_assert!(erlang_b(a, c - 1) > target);
            }
        }
    }

    /// Eq. 15 minimality: r satisfies the inequality (when satisfiable)
    /// and r − 1 violates it.
    #[test]
    fn protection_level_minimality(a in 0.5f64..200.0, c in 2u32..200, h in 2u32..50) {
        let r = protection_level(a, c, h);
        prop_assert!(r <= c);
        let hinv = 1.0 / f64::from(h);
        if r < c {
            prop_assert!(shadow_price_bound(a, c, r) <= hinv + 1e-12);
        }
        if r > 0 && shadow_price_bound(a, c, c) <= hinv {
            // Satisfiable: minimality must hold.
            prop_assert!(shadow_price_bound(a, c, r - 1) > hinv);
        }
    }

    /// The Theorem-1 bound decreases in r and is 1 at r = 0.
    #[test]
    fn shadow_bound_monotone(a in 0.5f64..200.0, c in 2u32..150, r in 1u32..100) {
        let r = r.min(c);
        prop_assert!((shadow_price_bound(a, c, 0) - 1.0).abs() < 1e-12);
        prop_assert!(shadow_price_bound(a, c, r) <= shadow_price_bound(a, c, r - 1) + 1e-12);
    }

    /// Shadow prices are monotone in occupancy and end at exactly 1.
    #[test]
    fn shadow_prices_monotone(a in 0.5f64..200.0, c in 1u32..150) {
        let t = ShadowPriceTable::new(a, c);
        let mut prev = 0.0;
        for s in 0..c {
            let p = t.price(s);
            prop_assert!(p >= prev - 1e-15);
            prop_assert!(p <= 1.0 + 1e-12);
            prev = p;
        }
        prop_assert!((t.price(c - 1) - 1.0).abs() < 1e-9);
        prop_assert!(t.price(c).is_infinite());
    }

    /// Lost traffic is convex: midpoint test on random load pairs.
    #[test]
    fn lost_traffic_convexity(a1 in 0.0f64..300.0, a2 in 0.0f64..300.0, c in 1u32..150) {
        let mid = 0.5 * (a1 + a2);
        let lhs = lost_traffic(mid, c);
        let rhs = 0.5 * (lost_traffic(a1, c) + lost_traffic(a2, c));
        prop_assert!(lhs <= rhs + 1e-9, "convexity violated at ({a1}, {a2}, {c})");
    }

    /// The loss derivative lies in [0, 1]: each extra Erlang loses at
    /// most one call per unit time.
    #[test]
    fn loss_derivative_unit_interval(a in 0.0f64..400.0, c in 0u32..200) {
        let (_, d) = lost_traffic_with_derivative(a, c);
        prop_assert!((-1e-12..=1.0 + 1e-9).contains(&d), "d = {d}");
    }

    /// Stationary distributions are probability vectors, and the Erlang
    /// chain matches Erlang-B.
    #[test]
    fn stationary_is_distribution(a in 0.1f64..300.0, c in 1u32..200) {
        let chain = BirthDeathChain::erlang(a, c);
        let pi = chain.stationary();
        let sum: f64 = pi.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(pi.iter().all(|&p| p >= 0.0));
        prop_assert!((chain.time_congestion() - erlang_b(a, c)).abs() < 1e-9);
    }

    /// Protected chains: raising the protection level cannot increase
    /// the probability of being full when overflow traffic is present.
    #[test]
    fn protection_never_raises_time_congestion(
        nu in 10.0f64..90.0,
        over in 5.0f64..60.0,
        r in 0u32..50,
    ) {
        let overflow = vec![over; 100];
        let low = BirthDeathChain::protected_link(nu, &overflow, 100, r);
        let high = BirthDeathChain::protected_link(nu, &overflow, 100, r + 5);
        prop_assert!(high.time_congestion() <= low.time_congestion() + 1e-12);
    }

    /// Kaufman–Roberts blocking probabilities are valid and wider calls
    /// never block less than narrower ones.
    #[test]
    fn kaufman_roberts_ordering(
        a1 in 0.1f64..60.0,
        a2 in 0.0f64..20.0,
        b2 in 2u32..8,
        c in 10u32..120,
    ) {
        let classes = [
            TrafficClass { intensity: a1, bandwidth: 1 },
            TrafficClass { intensity: a2, bandwidth: b2.min(c) },
        ];
        let b = kaufman_roberts_blocking(c, &classes);
        prop_assert!(b.iter().all(|&p| (0.0..=1.0).contains(&p)));
        prop_assert!(b[1] >= b[0] - 1e-12, "wider class must block at least as much");
        // Single-class consistency with Erlang-B.
        let single = kaufman_roberts_blocking(c, &[classes[0]]);
        prop_assert!((single[0] - erlang_b(a1, c)).abs() < 1e-9);
    }

    /// Overflow moments: mean equals lost traffic, peakedness >= 1.
    #[test]
    fn overflow_moment_invariants(a in 0.1f64..300.0, c in 0u32..200) {
        let m = overflow_moments(a, c);
        prop_assert!((m.mean - a * erlang_b(a, c)).abs() < 1e-9);
        prop_assert!(m.peakedness() >= 1.0 - 1e-9, "z = {}", m.peakedness());
        prop_assert!(m.variance >= 0.0);
    }

    /// First-passage counts respect the Theorem-1 chain bound (Eq. 9)
    /// for arbitrary non-increasing overflow profiles.
    #[test]
    fn first_passage_bound_eq9(nu in 5.0f64..80.0, base in 0.0f64..50.0, c in 5u32..80) {
        let overflow: Vec<f64> = (0..c).map(|s| base / (1.0 + f64::from(s))).collect();
        let chain = BirthDeathChain::protected_link(nu, &overflow, c, 0);
        let xs = chain.first_passage_up_counts();
        for (s, &x) in xs.iter().enumerate() {
            // The comparison chain drops the overflow: its X values are
            // the Erlang inverse-blocking-like quantities at rate nu.
            let cap = 1.0 / erlang_b(nu, s as u32 + 1);
            prop_assert!(x <= cap * (1.0 + 1e-9), "s={s}: {x} > {cap}");
            prop_assert!(x >= 1.0 - 1e-12);
        }
    }
}

/// The Eq.-15 level by a scan of the log-space table `ln(1/B(Λ, k))`:
/// the solver the linear-space pass replaced, kept here as its oracle.
fn log_space_oracle(load: f64, c: u32, h: u32) -> u32 {
    if load == 0.0 {
        return 0;
    }
    let log_y = inverse_erlang_b_log_table(load, c);
    let log_h = f64::from(h).ln();
    let target = log_y[c as usize] - log_h;
    if log_y[c as usize] < log_h {
        return c;
    }
    let (mut lo, mut hi) = (0u32, c);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if log_y[(c - mid) as usize] <= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// A capacity log-uniform over `1..=MAX_CAPACITY`.
fn capacity_from(u: f64) -> u32 {
    (f64::from(MAX_CAPACITY).powf(u).round() as u32).clamp(1, MAX_CAPACITY)
}

/// The adjacent loads `lo < hi` at which the oracle's level changes,
/// bisected from `lo` and `hi` with different levels.
fn level_boundary(mut lo: f64, mut hi: f64, c: u32, h: u32) -> (f64, f64) {
    let r_lo = log_space_oracle(lo, c, h);
    assert_ne!(r_lo, log_space_oracle(hi, c, h));
    loop {
        let mid = lo + (hi - lo) / 2.0;
        if mid <= lo || mid >= hi {
            return (lo, hi);
        }
        if log_space_oracle(mid, c, h) == r_lo {
            lo = mid;
        } else {
            hi = mid;
        }
    }
}

/// `x` moved by `steps` ulps (x > 0).
fn ulps(x: f64, steps: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + steps) as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The linear-space solver returns the log-space oracle's level for
    /// zero, tiny (`1/B(Λ, C)` overflows at large C), moderate and
    /// overwhelming loads.
    #[test]
    fn protection_level_equals_log_space_oracle(
        cu in 0.0f64..=1.0,
        h in 1u32..=64,
        kind in 0u32..4,
        x in 0.0f64..1.0,
    ) {
        let c = capacity_from(cu);
        let load = match kind {
            0 => 0.0,
            1 => 10f64.powf(-2.0 - 10.0 * x),
            2 => f64::from(c) * (0.05 + 1.5 * x),
            _ => f64::from(c) * 10f64.powf(1.0 + 17.0 * x),
        };
        prop_assert_eq!(
            protection_level(load, c, h),
            log_space_oracle(load, c, h),
            "load={} c={} h={}", load, c, h
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Within a few ulp of a level boundary, where the linear pass cannot
    /// certify its decision and defers to the log-space comparison, the
    /// levels still agree.
    #[test]
    fn protection_level_equals_oracle_at_level_boundaries(
        cu in 0.0f64..=1.0,
        h in 2u32..=64,
        x in 0.0f64..1.0,
    ) {
        let c = capacity_from(cu);
        let (lo, hi) = (f64::from(c) * (0.05 + 0.9 * x), f64::from(c) * 4.0);
        prop_assume!(log_space_oracle(lo, c, h) != log_space_oracle(hi, c, h));
        let (below, above) = level_boundary(lo, hi, c, h);
        let mut solver = LevelSolver::new();
        for load in [below, above] {
            for steps in -3..=3 {
                let load = ulps(load, steps);
                prop_assert_eq!(
                    solver.level(load, c, h),
                    log_space_oracle(load, c, h),
                    "load={} c={} h={}", load, c, h
                );
            }
        }
    }
}

/// Tiny loads make `1/B(Λ, k)` overflow `f64` somewhere in the table
/// (at `C = 100` below about 0.031 Erlangs); the solver still agrees with
/// the oracle on both sides of that edge, up to the largest capacity
/// inputs may name.
#[test]
fn tiny_loads_match_the_oracle() {
    let mut solver = LevelSolver::new();
    let edge = (0..40).map(|i| 0.02 + 0.0005 * f64::from(i));
    let loads: Vec<f64> = [1e-310, 1e-25, 1e-12, 1e-5, 1e-2]
        .into_iter()
        .chain(edge)
        .collect();
    for c in [1, 2, 24, 99, 100, 101, 600, 1_000, MAX_CAPACITY] {
        for &load in &loads {
            for h in [1, 2, 11, 64] {
                assert_eq!(
                    solver.level(load, c, h),
                    log_space_oracle(load, c, h),
                    "load={load} c={c} h={h}"
                );
            }
        }
    }
}

/// The width of the lanes `protection_levels_for` solves links in.
const LANE: usize = 8;

/// A link of a batch from its draws: a capacity of 0, 1, 2,
/// `MAX_CAPACITY`, log-uniform in between, or near 24 (so lanes often
/// hold close but unequal capacities), and a load that is zero,
/// subnormal, far above `C`, ordinary, or one of the two adjacent floats
/// at which `(C, H)`'s level steps.
fn batch_link(h: u32, (c_kind, cu, load_kind, x): (u32, f64, u32, f64)) -> (f64, u32) {
    let c = match c_kind {
        0 => 0,
        1 => 1,
        2 => 2,
        3 => MAX_CAPACITY,
        4..=7 => capacity_from(cu),
        _ => 20 + (8.0 * cu) as u32,
    };
    let cf = f64::from(c.max(1));
    let ordinary = cf * (0.05 + 0.9 * x);
    let load = match load_kind {
        0 => 0.0,
        // Below 2^52 the bits are a subnormal's.
        1 => f64::from_bits(1 + (x * 4.5e15) as u64),
        2 => cf * 10f64.powf(1.0 + 17.0 * x),
        3..=5 => ordinary,
        _ if c > 0 && log_space_oracle(ordinary, c, h) != log_space_oracle(4.0 * cf, c, h) => {
            let (below, above) = level_boundary(ordinary, 4.0 * cf, c, h);
            if cu < 0.5 {
                below
            } else {
                above
            }
        }
        _ => ordinary,
    };
    (load, c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched re-solve gives every link `protection_level`'s level
    /// (0 on a zero-capacity link) whatever shares its lane: on slices
    /// shorter than, as long as and longer than a lane, with capacities
    /// mixed within a lane, and at every load where the linear pass
    /// defers to log space.
    #[test]
    fn protection_levels_for_equals_protection_level_per_link(
        draws in proptest::collection::vec(
            (0u32..16, 0.0f64..=1.0, 0u32..8, 0.0f64..1.0),
            LANE + 1..=10 * LANE,
        ),
        h in 1u32..=16,
    ) {
        let (loads, caps): (Vec<f64>, Vec<u32>) =
            draws.into_iter().map(|draw| batch_link(h, draw)).unzip();
        let want: Vec<u32> = loads
            .iter()
            .zip(&caps)
            .map(|(&load, &c)| if c == 0 { 0 } else { protection_level(load, c, h) })
            .collect();
        for n in [0, 1, LANE - 1, LANE, LANE + 1, loads.len()] {
            let levels = protection_levels_for(&loads[..n], &caps[..n], h);
            prop_assert_eq!(levels.len(), n);
            for (k, (&got, &want)) in levels.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    got, want,
                    "link {} of {}: load={} c={} h={}", k, n, loads[k], caps[k], h
                );
            }
        }
    }
}
