//! Extension — online `Λ^k` estimation versus the paper's oracle.
//!
//! The paper assumes links know their primary loads a priori and appeals
//! to the robustness of state protection for the estimation gap. This
//! binary quantifies that robustness: controlled alternate routing with
//! live EWMA estimates (recomputing `r^k` every few holding times) versus
//! the oracle-`Λ` controller and single-path routing, on NSFNet around
//! the nominal load.

use altroute_core::policy::PolicyKind;
use altroute_experiments::output::fmt_prob;
use altroute_experiments::{cli, nsfnet_experiment, Table};
use altroute_sim::adaptive::{replicate_adaptive, InitialLevels, ADAPTIVE_TUNING};
use altroute_sim::experiment::{Fanout, SimParams};
use altroute_sim::failures::FailureSchedule;

fn main() {
    let params = cli::bin_flags(&[cli::Flag::Quick]).sim_params(SimParams::default());
    let failures = FailureSchedule::none();
    let mut table = Table::new([
        "load",
        "single-path",
        "oracle-controlled",
        "adaptive-controlled",
        "adaptive-coldstart-full",
    ]);
    for load in [8.0, 10.0, 12.0] {
        let exp = nsfnet_experiment(load);
        let plan = exp.plan_for(PolicyKind::ControlledAlternate { max_hops: 11 });
        let single = exp.run(PolicyKind::SinglePath, &params).blocking_mean();
        let oracle = exp
            .run(PolicyKind::ControlledAlternate { max_hops: 11 }, &params)
            .blocking_mean();
        let run_adaptive = |initial: InitialLevels| {
            let (per_seed, _, _) = replicate_adaptive(
                &plan,
                exp.traffic(),
                &params,
                &failures,
                &ADAPTIVE_TUNING,
                initial,
                &Fanout::default(),
            );
            let blocked: u64 = per_seed.iter().map(|r| r.blocked).sum();
            let offered: u64 = per_seed.iter().map(|r| r.offered).sum();
            blocked as f64 / offered as f64
        };
        let adaptive = run_adaptive(InitialLevels::Zero);
        let cold = run_adaptive(InitialLevels::Full);
        table.row([
            format!("{load:.0}"),
            fmt_prob(single),
            fmt_prob(oracle),
            fmt_prob(adaptive),
            fmt_prob(cold),
        ]);
    }
    println!("Online Lambda estimation vs oracle (extension; paper assumes oracle Λ)\n");
    println!("{}", table.render());
    println!("expected: adaptive within a few tenths of a percent of the oracle —");
    println!("the robustness of state protection the paper cites (Key §2.2).");
    if let Ok(path) = table.write_csv("adaptive_estimation") {
        println!("wrote {}", path.display());
    }
}
