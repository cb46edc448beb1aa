//! §4.2.2 "Primary paths chosen to minimize link loss" — bifurcated
//! min-loss primaries versus minimum-hop primaries.
//!
//! The paper reports that without alternate routing the min-loss primaries
//! do better, but once controlled alternate routing is added the two
//! primary rules are nearly coincident — the control is robust to how the
//! primaries are chosen.

use altroute_core::policy::PolicyKind;
use altroute_core::primary::{
    expected_primary_loss, min_loss_splits, MinLossOptions, PrimaryAssignment,
};
use altroute_experiments::output::fmt_prob;
use altroute_experiments::{cli, nsfnet_experiment, Table};
use altroute_sim::experiment::SimParams;

fn main() {
    let flags = cli::bin_flags(&[cli::Flag::Quick]);
    let params = flags.sim_params(SimParams::default());
    let loads = [8.0, 10.0, 12.0];
    let mut table = Table::new([
        "load",
        "single_minhop",
        "single_minloss",
        "controlled_minhop",
        "controlled_minloss",
    ]);
    for &load in &loads {
        let exp = nsfnet_experiment(load);
        let splits = min_loss_splits(
            exp.topology(),
            exp.traffic(),
            MinLossOptions {
                max_hops: 11,
                iterations: if flags.quick { 80 } else { 300 },
                prune_below: 1e-3,
            },
        );
        let min_hop = PrimaryAssignment::min_hop(exp.topology());
        let analytic_mh = expected_primary_loss(
            exp.topology(),
            &min_hop.link_loads(exp.topology(), exp.traffic()),
        );
        let analytic_ml = expected_primary_loss(
            exp.topology(),
            &splits.link_loads(exp.topology(), exp.traffic()),
        );
        println!(
            "load {load:.0}: analytic expected primary loss  min-hop {analytic_mh:.2}  min-loss {analytic_ml:.2}"
        );
        let exp_ml = exp.clone().with_primaries(splits);

        let single_mh = exp.run(PolicyKind::SinglePath, &params).blocking_mean();
        let single_ml = exp_ml.run(PolicyKind::SinglePath, &params).blocking_mean();
        let ctl_mh = exp
            .run(PolicyKind::ControlledAlternate { max_hops: 11 }, &params)
            .blocking_mean();
        let ctl_ml = exp_ml
            .run(PolicyKind::ControlledAlternate { max_hops: 11 }, &params)
            .blocking_mean();
        table.row([
            format!("{load:.0}"),
            fmt_prob(single_mh),
            fmt_prob(single_ml),
            fmt_prob(ctl_mh),
            fmt_prob(ctl_ml),
        ]);
    }
    println!("\nMin-loss vs min-hop primaries (paper §4.2.2)\n");
    println!("{}", table.render());
    println!("expected: single_minloss < single_minhop; controlled_minloss ~ controlled_minhop.");
    if let Ok(path) = table.write_csv("minloss_primaries") {
        println!("wrote {}", path.display());
    }
}
