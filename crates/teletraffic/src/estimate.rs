//! Fresh Eq.-15 levels for every link at once.
//!
//! The paper computes the protection level `r^k` of Eq. 15 once, from the
//! *engineered* per-link primary loads `Λ^k`. A live controller instead
//! estimates `Λ^k` from an arrival stream (summed onto links by the primary
//! table in `altroute_core::primary`) and re-solves Eq. 15 over all links
//! each time the estimate moves. [`protection_levels_for`] is that
//! re-solve: deterministic, one linear-space pass over lanes of eight
//! links at once (no `exp` or `ln`; see [`crate::reservation`]), so the
//! control loop can be golden-tested end to end and re-solves a 992-link
//! mesh in about 30 µs. It allocates the levels and one scratch table per
//! call; a caller that re-solves again and again keeps a
//! [`LevelSolver`] and a levels buffer and calls
//! [`LevelSolver::levels_into`], as the online controller does.

use crate::reservation::LevelSolver;

/// Re-solves Eq. 15 for every link: `levels[k] = r^k(loads[k],
/// capacities[k], H)`, each equal to
/// [`protection_level`](crate::reservation::protection_level)'s.
///
/// Zero-capacity links get level 0 (nothing to protect — such links
/// carry no calls at all), rather than inheriting
/// [`protection_level`](crate::reservation::protection_level)'s panic; a
/// measured-load controller must not die on a degenerate link.
///
/// # Panics
///
/// Panics if `loads` and `capacities` disagree in length, or on the
/// [`protection_level`](crate::reservation::protection_level) domain
/// violations (negative/non-finite load, `max_alternate_hops == 0`).
pub fn protection_levels_for(
    loads: &[f64],
    capacities: &[u32],
    max_alternate_hops: u32,
) -> Vec<u32> {
    let mut levels = vec![0; loads.len()];
    LevelSolver::new().levels_into(loads, capacities, max_alternate_hops, &mut levels);
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::protection_level;

    #[test]
    fn zero_loads_give_zero_levels() {
        assert_eq!(protection_levels_for(&[0.0, 0.0], &[10, 10], 2), vec![0, 0]);
    }

    #[test]
    fn levels_match_scalar_solver_per_link() {
        let loads = [74.0, 90.0, 0.0, 250.0];
        let caps = [100, 100, 100, 100];
        let levels = protection_levels_for(&loads, &caps, 6);
        for (i, (&l, &c)) in loads.iter().zip(&caps).enumerate() {
            assert_eq!(levels[i], protection_level(l, c, 6));
        }
        assert_eq!(levels[0], 7); // Table 1, link 0->1
        assert_eq!(levels[3], 100); // overload clamps to capacity
    }

    #[test]
    fn zero_capacity_links_are_skipped_not_fatal() {
        assert_eq!(protection_levels_for(&[50.0], &[0], 2), vec![0]);
    }
}
