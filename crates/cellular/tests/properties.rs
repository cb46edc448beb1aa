//! Property-based tests of the cellular channel-borrowing model.

use altroute_cellular::grid::CellGrid;
use altroute_cellular::policy::{cell_protection_levels, BorrowPolicy};
use altroute_cellular::sim::{run_cellular, CellularParams, Fanout};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grid structure: neighbourhoods symmetric, co-cells same colour,
    /// borrow sets well-formed, for arbitrary grid shapes.
    #[test]
    fn grid_structure_invariants(rows in 3usize..7, cols in 3usize..7, cap in 1u32..60) {
        let g = CellGrid::new(rows, cols, cap);
        prop_assert_eq!(g.num_cells(), rows * cols);
        for cell in 0..g.num_cells() {
            for &nb in g.neighbors(cell) {
                prop_assert!(nb < g.num_cells());
                prop_assert!(g.neighbors(nb).contains(&cell));
            }
            let set = g.borrow_set(cell);
            prop_assert_eq!(set[0], cell);
            prop_assert_ne!(set[1], set[2]);
            prop_assert!(set[1] != cell && set[2] != cell);
        }
    }

    /// Protection levels are monotone in load and bounded by capacity.
    #[test]
    fn protection_levels_sane(loads in proptest::collection::vec(0.0f64..120.0, 1..30), cap in 5u32..80) {
        let levels = cell_protection_levels(&loads, cap);
        prop_assert_eq!(levels.len(), loads.len());
        for &r in &levels {
            prop_assert!(r <= cap);
        }
    }

    /// Simulation conservation: blocking is a probability, borrow
    /// fraction in [0, 1], and the no-borrowing policy never borrows.
    #[test]
    fn simulation_invariants(load in 1.0f64..60.0, seed in 1u64..200) {
        let grid = CellGrid::new(3, 4, 20);
        let loads = vec![load; grid.num_cells()];
        let params = CellularParams { warmup: 2.0, horizon: 15.0, seeds: 2, base_seed: seed };
        for policy in [BorrowPolicy::NoBorrowing, BorrowPolicy::Uncontrolled, BorrowPolicy::Controlled] {
            let r = run_cellular(&grid, &loads, policy, &params, &Fanout::default()).0;
            prop_assert!((0.0..=1.0).contains(&r.blocking_mean()), "{}", policy.name());
            prop_assert!((0.0..=1.0).contains(&r.borrow_fraction()));
            if policy == BorrowPolicy::NoBorrowing {
                prop_assert_eq!(r.borrow_fraction(), 0.0);
                for &(o, b, borrowed) in &r.per_seed {
                    prop_assert!(b <= o);
                    prop_assert_eq!(borrowed, 0);
                }
            }
        }
    }

    /// Controlled borrowing admits a subset of uncontrolled borrowing's
    /// borrows, so its borrow fraction can never exceed it.
    #[test]
    fn controlled_borrows_less(load in 10.0f64..50.0, seed in 1u64..200) {
        let grid = CellGrid::new(3, 4, 20);
        let loads = vec![load; grid.num_cells()];
        let params = CellularParams { warmup: 2.0, horizon: 20.0, seeds: 2, base_seed: seed };
        let unc = run_cellular(&grid, &loads, BorrowPolicy::Uncontrolled, &params, &Fanout::default()).0;
        let ctl = run_cellular(&grid, &loads, BorrowPolicy::Controlled, &params, &Fanout::default()).0;
        // Borrow *counts* per seed: controlled <= uncontrolled holds
        // state-by-state but trajectories diverge after the first refusal,
        // so compare the aggregate with slack.
        let unc_borrows: u64 = unc.per_seed.iter().map(|s| s.2).sum();
        let ctl_borrows: u64 = ctl.per_seed.iter().map(|s| s.2).sum();
        prop_assert!(
            ctl_borrows <= unc_borrows + unc_borrows / 4 + 8,
            "controlled borrowed {ctl_borrows} vs uncontrolled {unc_borrows}"
        );
    }
}
