//! Figs. 6 & 7 — blocking versus load on the NSFNet T3 backbone model
//! with unlimited alternate path lengths (`H = 11`), linear (Fig. 6) and
//! log (Fig. 7) scales.
//!
//! Series: single-path, uncontrolled, controlled, the Ott–Krishnan
//! separable shadow-price baseline (which §4.2.2 reports performing
//! poorly on this sparse mesh), and the Erlang bound. The nominal traffic
//! matrix (reconstructed from Table 1) corresponds to `load = 10`; other
//! loads scale it linearly, as in the paper. Pass `--quick` for a fast
//! low-fidelity run, `--metrics-json` to print the sweep (blocking plus
//! per-policy engine metrics and link utilization) as JSON instead of
//! the tables, `--progress` for a replications-completed heartbeat on
//! stderr.

use altroute_experiments::output::{fmt_prob, metrics_json};
use altroute_experiments::{nsfnet_experiment, policy_set, sweep, Heartbeat, Table};
use altroute_json::{obj, Value};
use altroute_sim::experiment::{ProgressObserver, SimParams};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let as_json = std::env::args().any(|a| a == "--metrics-json");
    let progress = std::env::args().any(|a| a == "--progress");
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
    let loads: Vec<f64> = (2..=14).map(f64::from).collect();
    let policies = policy_set(11, true);
    let heartbeat =
        progress.then(|| Heartbeat::new(loads.len() * policies.len() * params.seeds as usize));
    let rows = sweep(
        &loads,
        &policies,
        &params,
        heartbeat.as_ref().map(|h| h as &dyn ProgressObserver),
        nsfnet_experiment,
    );

    if as_json {
        let json_rows: Vec<Value> = rows
            .iter()
            .map(|row| {
                let policies: Vec<Value> = row
                    .blocking
                    .iter()
                    .zip(&row.metrics)
                    .map(|(&(name, mean, se), m)| {
                        obj! {
                            "policy" => name,
                            "blocking_mean" => mean,
                            "blocking_std_error" => se,
                            "engine" => metrics_json(m),
                        }
                    })
                    .collect();
                obj! {
                    "load" => row.load,
                    "erlang_bound" => row.erlang_bound,
                    "policies" => Value::Array(policies),
                }
            })
            .collect();
        let doc = obj! {
            "label" => "fig6_fig7_nsfnet",
            "seeds" => params.seeds,
            "warmup" => params.warmup,
            "horizon" => params.horizon,
            "rows" => Value::Array(json_rows),
        };
        println!("{}", doc.to_string_pretty());
        return;
    }

    let mut table = Table::new([
        "load",
        "single-path",
        "uncontrolled",
        "controlled",
        "ott-krishnan",
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
            fmt_prob(row.blocking[3].1),
            fmt_prob(row.erlang_bound),
            log10(row.blocking[0].1),
            log10(row.blocking[1].1),
            log10(row.blocking[2].1),
        ]);
    }
    println!("Internet model, unlimited alternate path lengths (paper Figs. 6-7)");
    println!(
        "(NSFNet T3, C = 100/link, nominal load = 10, H = 11, {} seeds x {} units)\n",
        params.seeds, params.horizon
    );
    println!("{}", table.render());

    // Fig. 6 as an ASCII chart (linear blocking).
    let series: Vec<altroute_experiments::Series> =
        ["single-path", "uncontrolled", "controlled", "ott-krishnan"]
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
    if let Ok(path) = table.write_csv("fig6_fig7_nsfnet") {
        println!("wrote {}", path.display());
    }
}
