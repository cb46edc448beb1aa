//! Overflow-traffic moments: Riordan's variance and peakedness.
//!
//! The traffic a link refuses does not vanish — under alternate routing
//! it *is* the stream offered to other links. The paper's Theorem 1
//! assumes (A1) that alternate-routed calls arrive at a link in a Poisson
//! fashion; classical teletraffic says overflow streams are **burstier**
//! than Poisson: for Poisson traffic of intensity `a` offered to `C`
//! circuits, the overflow has mean
//!
//! `m = a·B(a, C)`
//!
//! and variance (Riordan)
//!
//! `v = m·(1 − m + a / (C + 1 − a + m))`,
//!
//! giving peakedness `z = v/m ≥ 1`, with `z = 1` only in the Poisson
//! limit. These moments quantify exactly how far A1 is from reality —
//! the `overflow_peakedness` experiment measures the simulated dispersion
//! of alternate-routed arrivals against this formula and shows the
//! control's robustness to the violation.

use crate::erlang::erlang_b;

/// Moments of the traffic overflowing a `capacity`-circuit link offered
/// `load` Erlangs of Poisson traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverflowMoments {
    /// Mean overflow intensity `m = a·B(a, C)` (Erlangs).
    pub mean: f64,
    /// Variance of the overflow (Riordan's formula).
    pub variance: f64,
}

impl OverflowMoments {
    /// Peakedness `z = variance / mean` (1 for Poisson; overflow is
    /// always ≥ 1). Returns 1 for a zero-mean stream.
    pub fn peakedness(&self) -> f64 {
        if self.mean == 0.0 {
            1.0
        } else {
            self.variance / self.mean
        }
    }
}

/// Riordan's overflow moments for Poisson `load` offered to `capacity`
/// circuits.
///
/// # Panics
///
/// Panics if `load` is negative/non-finite.
pub fn overflow_moments(load: f64, capacity: u32) -> OverflowMoments {
    assert!(
        load.is_finite() && load >= 0.0,
        "load must be finite and >= 0, got {load}"
    );
    if load == 0.0 {
        return OverflowMoments {
            mean: 0.0,
            variance: 0.0,
        };
    }
    let m = load * erlang_b(load, capacity);
    let v = m * (1.0 - m + load / (f64::from(capacity) + 1.0 - load + m));
    OverflowMoments {
        mean: m,
        variance: v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_lost_traffic() {
        for &(a, c) in &[(10.0, 10u32), (74.0, 100), (120.0, 100)] {
            let m = overflow_moments(a, c);
            assert!((m.mean - a * erlang_b(a, c)).abs() < 1e-12);
        }
    }

    #[test]
    fn peakedness_at_least_one() {
        for &(a, c) in &[
            (5.0, 10u32),
            (10.0, 10),
            (50.0, 60),
            (74.0, 100),
            (120.0, 100),
        ] {
            let z = overflow_moments(a, c).peakedness();
            assert!(z >= 1.0 - 1e-9, "a={a} c={c}: z={z}");
        }
    }

    #[test]
    fn zero_capacity_overflow_is_poisson() {
        // Everything overflows untouched: the overflow of a 0-circuit
        // link is the original Poisson stream, z = 1.
        let m = overflow_moments(20.0, 0);
        assert!((m.mean - 20.0).abs() < 1e-12);
        assert!((m.peakedness() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heavier_blocking_raises_peakedness_then_falls() {
        // Peakedness of overflow from C circuits peaks around a ≈ C.
        let z_light = overflow_moments(3.0, 10).peakedness();
        let z_crit = overflow_moments(10.0, 10).peakedness();
        let z_heavy = overflow_moments(100.0, 10).peakedness();
        assert!(z_crit > z_light);
        assert!(
            z_crit > 1.3,
            "critical overflow must be clearly bursty, z={z_crit}"
        );
        // In deep overload nearly everything overflows: stream tends back
        // towards the Poisson original.
        assert!(z_heavy < z_crit);
    }

    #[test]
    fn zero_load_degenerates() {
        let m = overflow_moments(0.0, 5);
        assert_eq!(m.mean, 0.0);
        assert_eq!(m.peakedness(), 1.0);
    }
}
