//! Figs. 3 & 4 — blocking versus offered load on the fully connected
//! quadrangle (§4.1), linear (Fig. 3) and log (Fig. 4) scales.
//!
//! Four series: single-path, uncontrolled alternate, controlled alternate,
//! and the Erlang cut-set bound. `C = 100` per directed link, uniform
//! traffic with the x-axis value offered per ordered pair, `H = 3`
//! (N − 1 = unlimited loop-free alternates on K4), 10 seeds of 10 + 100
//! time units (paper parameters).

use altroute_experiments::cli::{self, Flag};
use altroute_experiments::output::fmt_prob;
use altroute_experiments::{policy_set, sweep, Table};
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::experiment::{Experiment, SimParams};

fn main() {
    let flags = cli::bin_flags(&[Flag::Quick, Flag::Progress]);
    let params = flags.sim_params(SimParams::default());
    let loads: Vec<f64> = (8..=22).map(|i| f64::from(i) * 5.0).collect(); // 40..110
    let policies = policy_set(3, false);
    let rows = sweep(&loads, &policies, &params, flags.progress, |load| {
        Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, load))
            .expect("quadrangle instance is valid")
    });

    let mut table = Table::new([
        "load",
        "single-path",
        "uncontrolled",
        "controlled",
        "erlang-bound",
        "log10_single",
        "log10_uncontrolled",
        "log10_controlled",
    ]);
    for row in &rows {
        let log10 = |p: f64| {
            if p > 0.0 {
                format!("{:.3}", p.log10())
            } else {
                "-inf".into()
            }
        };
        table.row([
            format!("{:.0}", row.load),
            fmt_prob(row.blocking[0].1),
            fmt_prob(row.blocking[1].1),
            fmt_prob(row.blocking[2].1),
            fmt_prob(row.erlang_bound),
            log10(row.blocking[0].1),
            log10(row.blocking[1].1),
            log10(row.blocking[2].1),
        ]);
    }
    println!("Blocking for the fully connected quadrangle (paper Figs. 3-4)");
    println!(
        "(C = 100/link, uniform load per ordered pair, H = 3, {} seeds x {} units)\n",
        params.seeds, params.horizon
    );
    println!("{}", table.render());

    // Fig. 3 as an ASCII chart (linear blocking).
    let series: Vec<altroute_experiments::Series> = ["single-path", "uncontrolled", "controlled"]
        .iter()
        .enumerate()
        .map(|(k, label)| altroute_experiments::Series {
            label: (*label).to_string(),
            points: rows.iter().map(|r| (r.load, r.blocking[k].1)).collect(),
        })
        .collect();
    println!(
        "{}",
        altroute_experiments::render_chart(&series, 64, 16, false)
    );
    if let Ok(path) = table.write_csv("fig3_fig4_quadrangle") {
        println!("wrote {}", path.display());
    }
}
