//! §4.2.2 "Blocking on an O-D pair basis" — the skewness of per-pair
//! blocking at `H = 6`.
//!
//! The paper reports the blocking most skewed for single-path routing and
//! least skewed for uncontrolled alternate routing — the fairness property
//! of freer resource sharing. We report the coefficient of variation (and
//! the worst pair) of per-pair blocking for each policy at nominal load,
//! plus the ten worst pairs under single-path routing against their
//! blocking under the other policies.

use altroute_experiments::output::fmt_prob;
use altroute_experiments::{cli, nsfnet_experiment, policy_set, Table};
use altroute_sim::experiment::SimParams;

fn main() {
    let params = cli::bin_flags(&[cli::Flag::Quick]).sim_params(SimParams::default());
    let exp = nsfnet_experiment(10.0);
    let policies = policy_set(6, false);

    let mut summary = Table::new([
        "policy",
        "mean_pair_blocking",
        "std_dev",
        "cv",
        "worst_pair",
    ]);
    let mut per_policy = Vec::new();
    for &kind in &policies {
        let r = exp.run(kind, &params);
        let spread = r.pair_blocking_spread();
        summary.row([
            kind.name().to_string(),
            fmt_prob(spread.mean),
            fmt_prob(spread.std_dev),
            format!("{:.3}", spread.coefficient_of_variation),
            fmt_prob(spread.max),
        ]);
        per_policy.push((kind.name(), r.per_pair_blocking()));
    }
    println!("Per-O-D-pair blocking skewness at H = 6, nominal load (paper §4.2.2)\n");
    println!("{}", summary.render());
    println!("expected ordering of skew (cv): single-path > controlled > uncontrolled\n");

    // The worst pairs under single-path, compared across policies.
    let n = exp.topology().num_nodes();
    let single = &per_policy[0].1;
    let mut pairs: Vec<(usize, f64)> = single
        .iter()
        .enumerate()
        .filter(|(_, &b)| b > 0.0)
        .map(|(i, &b)| (i, b))
        .collect();
    pairs.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut worst = Table::new(["pair", "single-path", "uncontrolled", "controlled"]);
    for &(idx, _) in pairs.iter().take(10) {
        worst.row([
            format!("{}->{}", idx / n, idx % n),
            fmt_prob(per_policy[0].1[idx]),
            fmt_prob(per_policy[1].1[idx]),
            fmt_prob(per_policy[2].1[idx]),
        ]);
    }
    println!("{}", worst.render());
    if let Ok(path) = summary.write_csv("od_skewness") {
        println!("wrote {}", path.display());
    }
}
