//! State-protection (trunk-reservation) level selection — the paper's Eq. 15.
//!
//! Theorem 1 of the paper bounds `L^k`, the expected increase in lost
//! primary calls on link `k` caused by accepting one alternate-routed call,
//! by the blocking ratio `B(Λ^k, C^k) / B(Λ^k, C^k − r^k)`. If every link
//! of an alternate path of at most `H` hops keeps that ratio below `1/H`,
//! the path-wide expected extra loss `Σ_k L^k` is below 1, so carrying the
//! call (worth exactly 1 completed call) always nets out positive versus
//! blocking it. The control rule is therefore: pick, per link, the
//! *smallest* protection level satisfying
//!
//! `B(Λ^k, C^k) / B(Λ^k, C^k − r^k) ≤ 1/H`.
//!
//! Smallest, because larger `r` needlessly suppresses alternate routing at
//! low loads, where it is most valuable.
//!
//! # Method
//!
//! With `y_k = 1/B(Λ, k)` the ratio is `y_{C−r} / y_C`, and `y` obeys the
//! linear recursion `y_0 = 1`, `y_k = 1 + (k/Λ)·y_{k−1}`. [`LevelSolver`]
//! runs that recursion with one reciprocal multiply and one add per
//! circuit (no `exp`, no `ln`) and takes `r` from the largest
//! `j = C − r` with `y_j ≤ y_C / H`. It runs eight links side by side:
//! each link's recursion is one chain of dependent steps, and eight
//! independent chains keep the core busy where one would wait on each
//! step. Every link gets the float operations of a pass over it alone,
//! in the same order, so its level does not depend on its neighbours;
//! links of different capacities share a pass that runs to the largest,
//! each reading only its own `y_0..=y_C`.
//!
//! The decision is *certified* when its relative margin at the boundary
//! (`y_{j+1}` above the threshold, `y_j` below it) exceeds
//! `2^−48·(C + 2)·(log2 y_C + log2 H + 5)`. That is about four times a
//! bound on the combined forward error of this pass (a few rounding
//! errors per circuit) and of the log-space table
//! [`crate::erlang::inverse_erlang_b_log_table`] (a few per circuit,
//! scaled by `ln y_C`). A certified level is therefore the exact Eq.-15
//! level, and so is the level the log-space comparison returns. What the
//! pass cannot certify is decided by that log-space comparison itself:
//! loads within a few ulp of a level boundary, `H = 1` with `Λ ≫ C`
//! (where `y_{C−1}` and `y_C` differ only by rounding), and loads so
//! light that `y_C` overflows `f64` (`C!/Λ^C > 2^1024`: below about
//! `1.4·10^−12` Erlangs at `C = 24`, 0.031 at `C = 100`, 228 at
//! `C = 1000`, 6,700 at `C = 10,000`). Either way the level equals the
//! log-space solver's by construction.
//!
//! On a 2-vCPU Xeon a 992-link re-solve at `C = 24`, `H = 2` (loads
//! spread over 4–16 Erlangs) takes about 27 µs in lanes of eight against
//! 56–60 µs one link at a time and about 800–950 µs in log space (one
//! `exp` and one `ln` per circuit and a table allocation per link); 30
//! links at `C = 100`, `H = 11` about 2.4 µs against 9 µs one at a time
//! and 95 µs in log space. A single link pays for a whole lane:
//! [`protection_level`] takes about 0.3 µs at `C = 24` and 68 µs at
//! `C = 10,000`, some 2.5 times the one-link pass. A link whose `y_C`
//! overflows costs one linear pass more than the log-space solve alone.

use crate::erlang::inverse_erlang_b_log_table;

/// `2^−48`: per circuit and per bit of `y_C · H`, the relative margin a
/// linear-space decision needs to be certified.
const MARGIN_PER_UNIT: f64 = 16.0 * f64::EPSILON;

/// Links one linear pass runs side by side. Each link's recursion is one
/// chain of dependent multiply-adds; a lane of independent chains lets
/// the core overlap them instead of waiting on each step's latency.
const LANES: usize = 8;

/// An Eq.-15 solver that keeps its scratch table between solves.
///
/// [`protection_level`] builds one per call; a caller solving many links
/// (the controller's re-solve, [`crate::estimate::protection_levels_for`])
/// keeps one and allocates its table only when a link outgrows it.
#[derive(Debug, Clone, Default)]
pub struct LevelSolver {
    /// `y_0..=y_C` of the last linear pass, one row of lanes per `k`.
    y: Vec<[f64; LANES]>,
}

impl LevelSolver {
    /// A solver with an empty scratch table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The Eq.-15 level; see [`protection_level`], which this computes.
    /// It is [`LevelSolver::levels_into`] on a batch of one link.
    ///
    /// # Panics
    ///
    /// As [`protection_level`].
    pub fn level(&mut self, load: f64, capacity: u32, max_alternate_hops: u32) -> u32 {
        assert!(capacity > 0, "capacity must be positive");
        let mut level = [0];
        self.levels_into(&[load], &[capacity], max_alternate_hops, &mut level);
        level[0]
    }

    /// Sets `levels[k]` to the Eq.-15 level of `loads[k]` on
    /// `capacities[k]`, each equal to [`protection_level`]'s. A
    /// zero-capacity link gets level 0 (see
    /// [`crate::estimate::protection_levels_for`]), as does a zero load.
    ///
    /// The links go through the linear pass eight at a time; a link
    /// the pass cannot certify is decided in log space, alone.
    ///
    /// # Panics
    ///
    /// Panics if the three slices disagree in length, or on
    /// [`protection_level`]'s domain violations (negative/non-finite
    /// load, `max_alternate_hops == 0`) at a link of positive capacity.
    pub fn levels_into(
        &mut self,
        loads: &[f64],
        capacities: &[u32],
        max_alternate_hops: u32,
        levels: &mut [u32],
    ) {
        assert_eq!(
            loads.len(),
            capacities.len(),
            "one capacity per estimated link load"
        );
        assert_eq!(loads.len(), levels.len(), "one level per link");
        let chunks = loads
            .chunks(LANES)
            .zip(capacities.chunks(LANES))
            .zip(levels.chunks_mut(LANES));
        for ((loads, capacities), levels) in chunks {
            // A link with no capacity or no load is an idle lane
            // (capacity 0): its level is 0 whatever the pass computes.
            let mut inv_load = [0.0; LANES];
            let mut lane_capacity = [0u32; LANES];
            for (l, (&load, &c)) in loads.iter().zip(capacities).enumerate() {
                if c == 0 {
                    continue;
                }
                assert!(max_alternate_hops > 0, "H must be positive");
                assert!(
                    load.is_finite() && load >= 0.0,
                    "load must be finite and >= 0, got {load}"
                );
                if load > 0.0 {
                    inv_load[l] = 1.0 / load;
                    lane_capacity[l] = c;
                }
            }
            let certified = self.linear_levels(&inv_load, &lane_capacity, max_alternate_hops);
            for (l, level) in levels.iter_mut().enumerate() {
                *level = match (lane_capacity[l], certified[l]) {
                    (0, _) => 0,
                    (_, Some(r)) => r,
                    (c, None) => log_space_level(loads[l], c, max_alternate_hops),
                };
            }
        }
    }

    /// The levels the linear pass certifies for a lane of links, given
    /// each link's `1/Λ` and capacity; `None` for an idle lane (capacity
    /// 0) and where the pass cannot certify: a near-tie, or a `y_C` that
    /// overflows (a subnormal load among them). Every lane takes exactly
    /// the float operations of a pass over its link alone, so its level
    /// does not depend on its neighbours. `H > 0` is checked by the
    /// caller.
    fn linear_levels(
        &mut self,
        inv_load: &[f64; LANES],
        capacity: &[u32; LANES],
        max_alternate_hops: u32,
    ) -> [Option<u32>; LANES] {
        // Every lane runs to the largest capacity and reads only its own
        // y_0..=y_C.
        let c_max = capacity.iter().copied().max().unwrap_or(0) as usize;
        if self.y.len() <= c_max {
            self.y.resize(c_max + 1, [0.0; LANES]);
        }
        let y = &mut self.y[..=c_max];
        let mut row = [1.0_f64; LANES];
        y[0] = row;
        let mut k = 0.0_f64;
        for next in &mut y[1..] {
            k += 1.0;
            for (yk, &inv) in row.iter_mut().zip(inv_load) {
                *yk = 1.0 + k * inv * *yk;
            }
            *next = row;
        }
        let c: [usize; LANES] = capacity.map(|c| c as usize);
        let threshold: [f64; LANES] =
            std::array::from_fn(|l| y[c[l]][l] / f64::from(max_alternate_hops));
        // Per lane, the largest j in 1..C meeting the threshold (0 if
        // none), branch-free, with j counted in f64 so that every lane
        // operation is a vector one. Rows below the lane's smallest
        // capacity lie in every busy lane's range; past it each lane
        // also checks j < C. (Rounding is monotone, so the computed y
        // never decreases and the entries meeting the threshold are a
        // prefix; the rule does not lean on that.)
        let c_min = capacity
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .min()
            .unwrap_or(0) as usize;
        let c_f = capacity.map(f64::from);
        let (mut largest, mut j) = ([0.0_f64; LANES], 0.0_f64);
        for row in y.iter().take(c_min).skip(1) {
            j += 1.0;
            for l in 0..LANES {
                let candidate = if row[l] <= threshold[l] { j } else { 0.0 };
                largest[l] = if candidate > largest[l] {
                    candidate
                } else {
                    largest[l]
                };
            }
        }
        for row in y.iter().take(c_max).skip(c_min.max(1)) {
            j += 1.0;
            for l in 0..LANES {
                let meets = (j < c_f[l]) & (row[l] <= threshold[l]);
                let candidate = if meets { j } else { 0.0 };
                largest[l] = if candidate > largest[l] {
                    candidate
                } else {
                    largest[l]
                };
            }
        }
        let largest = largest.map(|j| j as usize);
        // Upper bound on log2 H.
        let h_bits = f64::from(32 - max_alternate_hops.leading_zeros());
        let mut levels = [None; LANES];
        for (l, level) in levels.iter_mut().enumerate() {
            let (c, y_c, threshold) = (c[l], y[c[l]][l], threshold[l]);
            // The level, and the entries that must clear the threshold by
            // the margin for it to be certified: y[below] from below,
            // y[above] from above, each only where its flag is set. Every
            // index stays in 0..=C, so an idle lane reads y_0.
            let (r, below, check_below, above, check_above) = if max_alternate_hops == 1 {
                // r = 0 meets y_C ≤ y_C exactly; that tie needs no margin,
                // but every smaller entry must clear y_C for no r > 0 to
                // be chosen.
                (0, c.saturating_sub(1), true, c, false)
            } else {
                // r = C − j for the largest j in 1..C meeting the
                // threshold, or C. (j = C never does for H ≥ 2; j = 0
                // gives r = C either way.)
                let j = largest[l];
                (capacity[l] - j as u32, j, j > 0, (j + 1).min(c), true)
            };
            // Upper bound on log2 y_C (y_C ≥ 1 is normal when finite).
            let y_bits = (y_c.to_bits() >> 52) as f64 - 1022.0;
            let tol = MARGIN_PER_UNIT * (f64::from(capacity[l]) + 2.0) * (y_bits + h_bits + 5.0);
            // y grows with k, so a finite y_C means every entry is finite.
            let certified = (c > 0)
                & y_c.is_finite()
                & (tol < 1.0)
                & (!check_above | (y[above][l] >= threshold * (1.0 + tol)))
                & (!check_below | (y[below][l] * (1.0 + tol) <= threshold));
            *level = certified.then_some(r);
        }
        levels
    }
}

/// Eq. 15 in log space: the comparison that decides what the linear pass
/// cannot certify. `load > 0`, `capacity > 0` and `H > 0` are checked by
/// the caller.
fn log_space_level(load: f64, capacity: u32, max_alternate_hops: u32) -> u32 {
    let log_y = inverse_erlang_b_log_table(load, capacity);
    let log_h = f64::from(max_alternate_hops).ln();
    // Ratio B(Λ,C)/B(Λ,C−r) = y_{C−r}/y_C; require ln y_{C−r} ≤ ln y_C − ln H.
    let target = log_y[capacity as usize] - log_h;
    if log_y[capacity as usize] < log_h {
        // Even full protection cannot satisfy Eq. 15 (B(Λ,C) > 1/H alone):
        // the paper's convention is to protect the whole link.
        return capacity;
    }
    // ln y is non-decreasing in the state index: binary search for the
    // smallest r.
    let (mut lo, mut hi) = (0u32, capacity);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if log_y[(capacity - mid) as usize] <= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Smallest state-protection level `r` such that
/// `B(load, capacity) / B(load, capacity − r) ≤ 1/max_alternate_hops`
/// (the paper's Eq. 15).
///
/// Returns `capacity` (protect everything — never accept an alternate call)
/// when no smaller level satisfies the inequality, which is exactly the
/// behaviour the paper tabulates for overloaded links (Table 1 shows
/// `r = 100 = C` for links with `Λ > C`).
///
/// A zero `load` yields `r = 0`: a link carrying no primary traffic loses
/// nothing by accepting alternate calls. `max_alternate_hops = 1` yields
/// `r = 0` too (its bound `1/H = 1` holds at every level), except where
/// `Λ ≫ C` leaves a near-tie to the log-space comparison: there the level
/// is that comparison's, which can stop above 0.
///
/// The level comes from one linear-space pass over the link's `C + 1`
/// inverse blocking values (see the [module docs](self) for the method
/// and its tie rule); it allocates that table per call, so a caller
/// solving many links should keep a [`LevelSolver`] instead.
///
/// # Panics
///
/// Panics if `capacity == 0`, `max_alternate_hops == 0`, or `load` is
/// negative/non-finite.
///
/// # Examples
///
/// Values from Table 1 of the paper (`C = 100`):
///
/// ```
/// use altroute_teletraffic::reservation::protection_level;
/// assert_eq!(protection_level(74.0, 100, 6), 7);   // link 0->1, H = 6
/// assert_eq!(protection_level(74.0, 100, 11), 10); // link 0->1, H = 11
/// assert_eq!(protection_level(167.0, 100, 6), 100); // link 10->11 (overloaded)
/// ```
pub fn protection_level(load: f64, capacity: u32, max_alternate_hops: u32) -> u32 {
    LevelSolver::new().level(load, capacity, max_alternate_hops)
}

/// Theorem 1's bound on the expected extra primary-call loss caused by one
/// accepted alternate-routed call: `B(load, capacity) / B(load, capacity − r)`.
///
/// Returns a probability-like value in `(0, 1]`. For `r = 0` the bound is
/// exactly 1 (accepting an alternate call can at worst cost one primary
/// call).
///
/// # Panics
///
/// Panics if `r > capacity`, `capacity == 0`, or `load` is not strictly
/// positive and finite.
pub fn shadow_price_bound(load: f64, capacity: u32, r: u32) -> f64 {
    assert!(capacity > 0, "capacity must be positive");
    assert!(r <= capacity, "protection level cannot exceed capacity");
    assert!(
        load.is_finite() && load > 0.0,
        "load must be finite and > 0, got {load}"
    );
    let log_y = inverse_erlang_b_log_table(load, capacity);
    (log_y[(capacity - r) as usize] - log_y[capacity as usize]).exp()
}

/// The protection curve of the paper's Fig. 2: `r` as a function of the
/// primary load for a fixed capacity and hop bound.
///
/// Returns `(load, r)` pairs for `loads`.
pub fn protection_curve(loads: &[f64], capacity: u32, max_alternate_hops: u32) -> Vec<(f64, u32)> {
    loads
        .iter()
        .map(|&a| (a, protection_level(a, capacity, max_alternate_hops)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LevelSolver {
        /// The linear pass alone on one link: its certified level, or
        /// `None` where the pass defers to log space.
        fn linear_level(
            &mut self,
            load: f64,
            capacity: u32,
            max_alternate_hops: u32,
        ) -> Option<u32> {
            let (mut inv_load, mut lane_capacity) = ([0.0; LANES], [0; LANES]);
            (inv_load[0], lane_capacity[0]) = (1.0 / load, capacity);
            self.linear_levels(&inv_load, &lane_capacity, max_alternate_hops)[0]
        }
    }

    #[test]
    fn table1_spot_values() {
        // (load, r for H=6, r for H=11) — from Table 1 of the paper, C=100.
        // Table 1 prints Λ rounded to the nearest Erlang; recomputing r from
        // the rounded loads reproduces the paper's values everywhere except
        // three overloaded links where the rounding of Λ moves r by 1–2
        // (paper: 56, 70 and 60 for loads 103, 107 and 104 at H=6; the
        // rounded loads give 54, 69 and 58). The expectations below are the
        // exact values for the rounded loads.
        let cases = [
            (74.0, 7u32, 10u32),
            (77.0, 8, 12),
            (37.0, 2, 3),
            (16.0, 1, 2),
            (103.0, 54, 100),
            (87.0, 16, 26),
            (124.0, 100, 100),
            (167.0, 100, 100),
            (85.0, 14, 22),
            (107.0, 69, 100),
            (104.0, 58, 100),
        ];
        for (load, r6, r11) in cases {
            assert_eq!(protection_level(load, 100, 6), r6, "H=6, load={load}");
            assert_eq!(protection_level(load, 100, 11), r11, "H=11, load={load}");
        }
    }

    #[test]
    fn minimality_of_the_level() {
        // r satisfies Eq. 15 and r−1 does not.
        for &(load, c, h) in &[
            (74.0, 100u32, 6u32),
            (90.0, 100, 11),
            (50.0, 100, 120),
            (110.0, 120, 2),
        ] {
            let r = protection_level(load, c, h);
            let hinv = 1.0 / f64::from(h);
            if r < c {
                assert!(shadow_price_bound(load, c, r) <= hinv + 1e-12);
            }
            if r > 0 && r <= c {
                assert!(
                    shadow_price_bound(load, c, r - 1) > hinv,
                    "r−1 should violate Eq. 15 (load={load}, c={c}, h={h})"
                );
            }
        }
    }

    #[test]
    fn monotone_in_h_and_load() {
        // Fig. 2: r grows with H (more hops need a tighter guarantee) and
        // with load (busier links need more protection).
        let mut prev = 0;
        for h in [2u32, 6, 11, 120, 1000] {
            let r = protection_level(70.0, 100, h);
            assert!(r >= prev);
            prev = r;
        }
        let mut prev = 0;
        for load in [1.0, 10.0, 30.0, 50.0, 70.0, 90.0, 100.0, 130.0] {
            let r = protection_level(load, 100, 6);
            assert!(r >= prev, "r should not decrease with load (load={load})");
            prev = r;
        }
    }

    #[test]
    fn contained_growth_with_h() {
        // Paper §3.2: for H in [1000, 2000], r stays in [10, 20] at 50
        // Erlangs on a 100-circuit link — growth in H is "contained".
        for h in [1000u32, 1500, 2000] {
            let r = protection_level(50.0, 100, h);
            assert!((10..=20).contains(&r), "H={h} gave r={r}");
        }
    }

    #[test]
    fn zero_load_means_zero_protection() {
        assert_eq!(protection_level(0.0, 100, 6), 0);
    }

    #[test]
    fn light_load_means_little_protection() {
        // At r = 0 the Theorem-1 bound is exactly 1 > 1/H, so the minimum
        // protection at any positive load is 1 — but no more than that when
        // the link is nearly idle.
        assert_eq!(protection_level(1.0, 100, 11), 1);
        assert!(protection_level(30.0, 100, 6) <= 2);
    }

    #[test]
    fn overload_protects_everything() {
        assert_eq!(protection_level(300.0, 100, 6), 100);
        assert_eq!(protection_level(154.0, 100, 11), 100);
    }

    #[test]
    fn bound_is_one_at_zero_protection() {
        for &(load, c) in &[(10.0, 20u32), (74.0, 100), (167.0, 100)] {
            assert!((shadow_price_bound(load, c, 0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bound_decreases_with_protection() {
        let mut prev = f64::INFINITY;
        for r in 0..=50 {
            let b = shadow_price_bound(80.0, 100, r);
            assert!(b <= prev + 1e-15);
            assert!(b > 0.0 && b <= 1.0 + 1e-12);
            prev = b;
        }
    }

    #[test]
    fn curve_has_expected_shape_for_fig2() {
        let loads: Vec<f64> = (1..=100).map(f64::from).collect();
        for h in [2u32, 6, 120] {
            let curve = protection_curve(&loads, 100, h);
            assert_eq!(curve.len(), 100);
            // Non-decreasing in load.
            for w in curve.windows(2) {
                assert!(w[1].1 >= w[0].1);
            }
            // Small at light load (r = 1, 1, 3 for H = 2, 6, 120),
            // substantial near capacity (r = 11, 45, 100).
            assert!(curve[9].1 <= 3, "r at 10 Erlangs should be tiny (h={h})");
            assert!(
                curve[99].1 >= 11,
                "r at 100 Erlangs should be sizeable (h={h})"
            );
        }
    }

    #[test]
    fn mitra_gibbens_regime_values_are_moderate() {
        // §3.2: at C = 120, Λ in [110, 120], H = 2, our r differs from the
        // optimal trunk reservation of Mitra & Gibbens by at most ~2; their
        // published optima in that regime are small single digits.
        // Our exact values: r(110) = 7, r(115) = 9, r(120) = 12.
        assert_eq!(protection_level(110.0, 120, 2), 7);
        assert_eq!(protection_level(115.0, 120, 2), 9);
        assert_eq!(protection_level(120.0, 120, 2), 12);
    }

    #[test]
    fn ordinary_loads_are_certified_by_the_linear_pass() {
        let mut solver = LevelSolver::new();
        for (load, c, h, r) in [
            (74.0, 100u32, 6u32, 7u32),
            (167.0, 100, 6, 100),
            (1.0, 100, 11, 1),
            (20.0, 24, 2, 4),
            (1e-6, 24, 64, 1),
            (50.0, 100, 1, 0),
        ] {
            assert_eq!(log_space_level(load, c, h), r, "load={load} c={c} h={h}");
            assert_eq!(
                solver.linear_level(load, c, h),
                Some(r),
                "load={load} c={c} h={h}"
            );
        }
    }

    #[test]
    fn near_ties_go_to_log_space() {
        // Bisect to the adjacent loads where the level steps from 7 to 8
        // (C = 100, H = 6); within a few ulp of them the pass defers.
        let (c, h) = (100u32, 6u32);
        let (mut lo, mut hi) = (74.0_f64, 77.0_f64);
        assert_ne!(log_space_level(lo, c, h), log_space_level(hi, c, h));
        loop {
            let mid = lo + (hi - lo) / 2.0;
            if mid <= lo || mid >= hi {
                break;
            }
            if log_space_level(mid, c, h) == log_space_level(lo, c, h) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let mut solver = LevelSolver::new();
        let mut deferred = 0;
        for steps in -3i64..=4 {
            let load = f64::from_bits((lo.to_bits() as i64 + steps) as u64);
            let want = log_space_level(load, c, h);
            match solver.linear_level(load, c, h) {
                Some(r) => assert_eq!(r, want, "load={load}"),
                None => deferred += 1,
            }
            assert_eq!(solver.level(load, c, h), want, "load={load}");
        }
        assert!(deferred > 0, "no near-tie around load {lo}");
    }

    #[test]
    fn one_hop_bound_keeps_the_log_space_level_where_it_is_not_zero() {
        // With Λ ≫ C the log table's entries differ only by rounding, so
        // its binary search can stop above r = 0; the pass cannot certify
        // 0 there and defers.
        let mut solver = LevelSolver::new();
        let (load, c) = (9.01116469005904e17, 1494);
        assert_eq!(log_space_level(load, c, 1), 94);
        assert_eq!(solver.linear_level(load, c, 1), None);
        assert_eq!(solver.level(load, c, 1), 94);
    }

    #[test]
    fn overflowing_growth_goes_to_log_space() {
        // y_C = 1/B(Λ, C) overflows f64: C!/Λ^C past 2^1024, or 1/Λ
        // itself infinite for a subnormal load.
        let mut solver = LevelSolver::new();
        for (load, c) in [(1e-35, 10u32), (0.03, 100), (100.0, 10_000), (1e-310, 1)] {
            assert_eq!(solver.linear_level(load, c, 2), None, "load={load} c={c}");
            assert_eq!(solver.level(load, c, 2), log_space_level(load, c, 2));
        }
    }

    #[test]
    #[should_panic(expected = "H must be positive")]
    fn zero_h_panics() {
        protection_level(10.0, 100, 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        protection_level(10.0, 0, 6);
    }
}
