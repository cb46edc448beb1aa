//! Channel borrowing in a cellular network, controlled by state
//! protection — the paper's §3.2 generalization to other
//! Multiple-Service/Multiple-Resource models.
//!
//! Run with: `cargo run --release --example cellular_borrowing`

use altroute::core::policy::PolicyKind;
use altroute::sim::cellular::{run_cellular, CellGrid};
use altroute::sim::{Fanout, SimParams};
use altroute::teletraffic::estimate::protection_levels_for;

fn main() {
    let grid = CellGrid::new(5, 5, 50);
    let params = SimParams {
        base_seed: 0xCE11,
        ..SimParams::default()
    };

    // A rush-hour pattern: a busy corridor through the middle of town.
    let mut loads = vec![20.0; grid.num_cells()];
    for cell in [10, 11, 12, 13, 14] {
        loads[cell] = 48.0;
    }

    let capacities = vec![grid.capacity(); grid.num_cells()];
    let r = protection_levels_for(&loads, &capacities, 3);
    println!(
        "per-cell protection levels (H = 3): quiet cells r = {}, corridor r = {}",
        r[0], r[12]
    );

    println!(
        "\n{:<14} {:>10} {:>14}",
        "policy", "blocking", "borrow-fraction"
    );
    // Single-path routing is no borrowing.
    for (policy, label) in [
        (PolicyKind::SinglePath, "no-borrowing"),
        (
            PolicyKind::UncontrolledAlternate { max_hops: 3 },
            "uncontrolled",
        ),
        (
            PolicyKind::ControlledAlternate { max_hops: 3 },
            "controlled",
        ),
    ] {
        let result = run_cellular(&grid, &loads, policy, &params, &Fanout::default()).0;
        println!(
            "{:<14} {:>10.5} {:>14.4}",
            label,
            result.blocking_mean(),
            result.borrow_fraction()
        );
    }
    println!("\nBy the paper's Theorem 1 argument with H = 3 (a borrow consumes");
    println!("channels in a 3-cell co-cell set), controlled borrowing can never");
    println!("do worse than refusing to borrow.");
}
