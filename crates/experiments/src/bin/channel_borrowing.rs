//! §3.2 — channel borrowing in cellular telephony, controlled by state
//! protection with `H = 3`.
//!
//! The paper argues that with a 3-cell co-cell set, choosing each cell's
//! `r` from Eq. 15 at `H = 3` guarantees borrowing improves on
//! no-borrowing, and that with `C ≈ 50` the required `r` is small so the
//! scheme is near optimal. Sweep a uniform load on a 5×5 grid, plus a
//! hotspot scenario.

use altroute_core::policy::PolicyKind;
use altroute_experiments::output::fmt_prob;
use altroute_experiments::{cli, Table};
use altroute_sim::cellular::{run_cellular, CellGrid};
use altroute_sim::{Fanout, SimParams};

/// The borrowing policies with their table labels: single-path routing
/// is no borrowing.
const POLICIES: [(PolicyKind, &str); 3] = [
    (PolicyKind::SinglePath, "no-borrowing"),
    (
        PolicyKind::UncontrolledAlternate { max_hops: 3 },
        "uncontrolled",
    ),
    (
        PolicyKind::ControlledAlternate { max_hops: 3 },
        "controlled",
    ),
];

fn main() {
    let params = cli::bin_flags(&[cli::Flag::Quick]).sim_params(SimParams {
        base_seed: 0xCE11,
        ..SimParams::default()
    });
    let grid = CellGrid::new(5, 5, 50);

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
        for (p, _) in POLICIES {
            let r = run_cellular(&grid, &loads, p, &params, &Fanout::default()).0;
            cells.push(fmt_prob(r.blocking_mean()));
            if matches!(p, PolicyKind::ControlledAlternate { .. }) {
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
    for (p, label) in POLICIES {
        let r = run_cellular(&grid, &loads, p, &params, &Fanout::default()).0;
        hotspot.row([
            label.to_string(),
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
