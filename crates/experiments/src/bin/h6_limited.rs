//! §4.2.2 "We have also investigated the effect of limiting the length of
//! the alternate paths" — NSFNet with `H = 6` versus `H = 11`.
//!
//! The paper reports a small improvement of controlled alternate routing
//! (smaller `r` values satisfy Eq. 15 at smaller `H`, so alternate routing
//! is freer) and little change for single-path and uncontrolled. Also
//! prints the alternate-path-count statistics at both caps.

use altroute_core::policy::PolicyKind;
use altroute_experiments::output::fmt_prob;
use altroute_experiments::{nsfnet_experiment, sweep, Table};
use altroute_netgraph::paths::{alternate_paths, min_hop_path};
use altroute_netgraph::topologies;
use altroute_sim::experiment::SimParams;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let params = if quick {
        SimParams {
            warmup: 5.0,
            horizon: 30.0,
            seeds: 3,
            ..SimParams::default()
        }
    } else {
        SimParams::default()
    };

    // Path availability at each cap.
    let topo = topologies::nsfnet(100);
    for h in [6usize, 11] {
        let (mut total, mut min, mut max, mut pairs) = (0usize, usize::MAX, 0usize, 0usize);
        for (i, j) in topo.ordered_pairs() {
            let primary = min_hop_path(&topo, i, j).unwrap();
            let alts = alternate_paths(&topo, i, j, h, &primary);
            total += alts.len();
            min = min.min(alts.len());
            max = max.max(alts.len());
            pairs += 1;
        }
        println!(
            "alternates per pair at H = {h}: avg {:.2}, min {min}, max {max}",
            total as f64 / pairs as f64
        );
    }
    println!();

    let loads: Vec<f64> = (4..=14).step_by(2).map(f64::from).collect();
    let h6 = sweep(
        &loads,
        &[
            PolicyKind::SinglePath,
            PolicyKind::UncontrolledAlternate { max_hops: 6 },
            PolicyKind::ControlledAlternate { max_hops: 6 },
        ],
        &params,
        None,
        nsfnet_experiment,
    );
    let h11 = sweep(
        &loads,
        &[PolicyKind::ControlledAlternate { max_hops: 11 }],
        &params,
        None,
        nsfnet_experiment,
    );

    let mut table = Table::new([
        "load",
        "single-path",
        "uncontrolled_H6",
        "controlled_H6",
        "controlled_H11",
        "erlang-bound",
    ]);
    for (a, b) in h6.iter().zip(&h11) {
        table.row([
            format!("{:.0}", a.load),
            fmt_prob(a.blocking[0].1),
            fmt_prob(a.blocking[1].1),
            fmt_prob(a.blocking[2].1),
            fmt_prob(b.blocking[0].1),
            fmt_prob(a.erlang_bound),
        ]);
    }
    println!("NSFNet with alternates limited to 6 hops (paper §4.2.2)\n");
    println!("{}", table.render());
    if let Ok(path) = table.write_csv("h6_limited") {
        println!("wrote {}", path.display());
    }
}
