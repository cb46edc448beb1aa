//! §3.2 — channel borrowing in cellular telephony, controlled by state
//! protection with `H = 3`.
//!
//! The paper argues that with a 3-cell co-cell set, choosing each cell's
//! `r` from Eq. 15 at `H = 3` guarantees borrowing improves on
//! no-borrowing, and that with `C ≈ 50` the required `r` is small so the
//! scheme is near optimal. Sweep a uniform load on a 5×5 grid, plus a
//! hotspot scenario.

use altroute_cellular::grid::CellGrid;
use altroute_cellular::policy::BorrowPolicy;
use altroute_cellular::sim::{run_cellular, CellularParams, Fanout};
use altroute_experiments::output::fmt_prob;
use altroute_experiments::Table;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let params = if quick {
        CellularParams {
            warmup: 5.0,
            horizon: 30.0,
            seeds: 3,
            ..CellularParams::default()
        }
    } else {
        CellularParams::default()
    };
    let grid = CellGrid::new(5, 5, 50);
    let policies = [
        BorrowPolicy::NoBorrowing,
        BorrowPolicy::Uncontrolled,
        BorrowPolicy::Controlled,
    ];

    let mut table = Table::new([
        "load/cell",
        "no-borrowing",
        "uncontrolled",
        "controlled",
        "borrow_frac_ctl",
    ]);
    for load in [30.0, 38.0, 42.0, 46.0, 50.0, 55.0, 60.0] {
        let loads = vec![load; grid.num_cells()];
        let mut cells = vec![format!("{load:.0}")];
        let mut ctl_borrow = 0.0;
        for &p in &policies {
            let r = run_cellular(&grid, &loads, p, &params, &Fanout::default()).0;
            cells.push(fmt_prob(r.blocking_mean()));
            if p == BorrowPolicy::Controlled {
                ctl_borrow = r.borrow_fraction();
            }
        }
        cells.push(format!("{ctl_borrow:.4}"));
        table.row(cells);
    }
    println!("Channel borrowing on a 5x5 hex grid, C = 50/cell, H = 3 (paper §3.2)\n");
    println!("{}", table.render());

    // Hotspot: one cell at triple load.
    let mut loads = vec![25.0; grid.num_cells()];
    loads[12] = 75.0;
    let mut hotspot = Table::new(["policy", "blocking", "borrow_fraction"]);
    for &p in &policies {
        let r = run_cellular(&grid, &loads, p, &params, &Fanout::default()).0;
        hotspot.row([
            p.name().to_string(),
            fmt_prob(r.blocking_mean()),
            format!("{:.4}", r.borrow_fraction()),
        ]);
    }
    println!("Hotspot scenario (centre cell at 75 Erlangs, others 25):\n");
    println!("{}", hotspot.render());
    println!("expected: controlled <= no-borrowing everywhere (Theorem 1 with H = 3);");
    println!(
        "uncontrolled wins only under light/hotspot load and degrades under uniform overload."
    );
    if let Ok(path) = table.write_csv("channel_borrowing") {
        println!("wrote {}", path.display());
    }
}
