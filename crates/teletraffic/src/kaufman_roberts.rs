//! The Kaufman–Roberts recursion: per-class blocking of a multirate link.
//!
//! The paper restricts itself to calls of identical bandwidth and flags
//! "the support of multiple call types" as outside its preliminary study.
//! Extending the simulator to multirate calls needs the corresponding
//! analytic substrate: a link of `C` bandwidth units offered independent
//! Poisson classes, class `c` demanding `b_c` units at intensity `a_c`
//! Erlangs, has the product-form occupancy distribution
//!
//! `j · q(j) = Σ_c a_c · b_c · q(j − b_c)`
//!
//! (Kaufman 1981, Roberts 1981), and class-`c` blocking
//! `B_c = Σ_{j > C − b_c} q(j)`. With one unit-bandwidth class this
//! collapses to Erlang-B, which the tests verify.

/// One traffic class offered to a multirate link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficClass {
    /// Offered intensity in Erlangs (calls; each call holds `bandwidth`
    /// units for a unit-mean holding time).
    pub intensity: f64,
    /// Bandwidth units per call.
    pub bandwidth: u32,
}

/// Per-class blocking probabilities of a multirate Erlang link.
///
/// Returns one probability per input class, in order.
///
/// # Panics
///
/// Panics if `capacity == 0`, a class has zero bandwidth or bandwidth
/// exceeding the capacity, or an intensity is negative/non-finite.
pub fn kaufman_roberts_blocking(capacity: u32, classes: &[TrafficClass]) -> Vec<f64> {
    assert!(capacity > 0, "capacity must be positive");
    for (i, c) in classes.iter().enumerate() {
        assert!(c.bandwidth > 0, "class {i} has zero bandwidth");
        assert!(
            c.bandwidth <= capacity,
            "class {i} demands {} units on a {capacity}-unit link",
            c.bandwidth
        );
        assert!(
            c.intensity.is_finite() && c.intensity >= 0.0,
            "class {i} has invalid intensity {}",
            c.intensity
        );
    }
    let cap = capacity as usize;
    // Unnormalised occupancy weights with running rescale.
    let mut q = vec![0.0_f64; cap + 1];
    q[0] = 1.0;
    for j in 1..=cap {
        let mut acc = 0.0;
        for c in classes {
            let b = c.bandwidth as usize;
            if j >= b {
                acc += c.intensity * c.bandwidth as f64 * q[j - b];
            }
        }
        q[j] = acc / j as f64;
        if q[j] > 1e280 {
            let scale = 1e-280;
            for v in q.iter_mut().take(j + 1) {
                *v *= scale;
            }
        }
    }
    let total: f64 = q.iter().sum();
    classes
        .iter()
        .map(|c| {
            let b = c.bandwidth as usize;
            let blocked: f64 = q[cap + 1 - b..=cap].iter().sum();
            blocked / total
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erlang::erlang_b;

    #[test]
    fn single_unit_class_is_erlang_b() {
        for &(a, c) in &[(10.0, 10u32), (74.0, 100), (120.0, 100)] {
            let b = kaufman_roberts_blocking(
                c,
                &[TrafficClass {
                    intensity: a,
                    bandwidth: 1,
                }],
            );
            assert!((b[0] - erlang_b(a, c)).abs() < 1e-10, "a={a} c={c}");
        }
    }

    #[test]
    fn wideband_class_scaling_identity() {
        // One class of bandwidth b on capacity b*C behaves like unit
        // calls on capacity C.
        let b = kaufman_roberts_blocking(
            40,
            &[TrafficClass {
                intensity: 8.0,
                bandwidth: 4,
            }],
        );
        assert!((b[0] - erlang_b(8.0, 10)).abs() < 1e-10);
    }

    #[test]
    fn wider_calls_block_more() {
        let classes = [
            TrafficClass {
                intensity: 20.0,
                bandwidth: 1,
            },
            TrafficClass {
                intensity: 5.0,
                bandwidth: 4,
            },
        ];
        let b = kaufman_roberts_blocking(50, &classes);
        assert!(
            b[1] > b[0],
            "wideband blocking {} should exceed narrowband {}",
            b[1],
            b[0]
        );
        assert!(b.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn zero_intensity_class_never_blocks_others() {
        let with = kaufman_roberts_blocking(
            30,
            &[
                TrafficClass {
                    intensity: 15.0,
                    bandwidth: 1,
                },
                TrafficClass {
                    intensity: 0.0,
                    bandwidth: 6,
                },
            ],
        );
        let without = kaufman_roberts_blocking(
            30,
            &[TrafficClass {
                intensity: 15.0,
                bandwidth: 1,
            }],
        );
        assert!((with[0] - without[0]).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_total_load() {
        let mut prev = 0.0;
        for a in [5.0, 10.0, 15.0, 20.0, 25.0] {
            let b = kaufman_roberts_blocking(
                30,
                &[
                    TrafficClass {
                        intensity: a,
                        bandwidth: 1,
                    },
                    TrafficClass {
                        intensity: a / 4.0,
                        bandwidth: 4,
                    },
                ],
            );
            assert!(b[0] >= prev - 1e-12);
            prev = b[0];
        }
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_bandwidth_panics() {
        kaufman_roberts_blocking(
            10,
            &[TrafficClass {
                intensity: 1.0,
                bandwidth: 0,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "demands")]
    fn oversized_class_panics() {
        kaufman_roberts_blocking(
            10,
            &[TrafficClass {
                intensity: 1.0,
                bandwidth: 11,
            }],
        );
    }
}
