//! Channel borrowing in a cellular network, controlled by state
//! protection — the paper's §3.2 generalization to other
//! Multiple-Service/Multiple-Resource models.
//!
//! Run with: `cargo run --release --example cellular_borrowing`

use altroute::cellular::grid::CellGrid;
use altroute::cellular::policy::{cell_protection_levels, BorrowPolicy};
use altroute::cellular::sim::{run_cellular, CellularParams, Fanout};

fn main() {
    let grid = CellGrid::new(5, 5, 50);
    let params = CellularParams::default();

    // A rush-hour pattern: a busy corridor through the middle of town.
    let mut loads = vec![20.0; grid.num_cells()];
    for cell in [10, 11, 12, 13, 14] {
        loads[cell] = 48.0;
    }

    let r = cell_protection_levels(&loads, grid.capacity());
    println!(
        "per-cell protection levels (H = 3): quiet cells r = {}, corridor r = {}",
        r[0], r[12]
    );

    println!(
        "\n{:<14} {:>10} {:>14}",
        "policy", "blocking", "borrow-fraction"
    );
    for policy in [
        BorrowPolicy::NoBorrowing,
        BorrowPolicy::Uncontrolled,
        BorrowPolicy::Controlled,
    ] {
        let result = run_cellular(&grid, &loads, policy, &params, &Fanout::default()).0;
        println!(
            "{:<14} {:>10.5} {:>14.4}",
            policy.name(),
            result.blocking_mean(),
            result.borrow_fraction()
        );
    }
    println!("\nBy the paper's Theorem 1 argument with H = 3 (a borrow consumes");
    println!("channels in a 3-cell co-cell set), controlled borrowing can never");
    println!("do worse than refusing to borrow.");
}
