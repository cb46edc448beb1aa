//! §4.2.2 "Link failures" — NSFNet with links 2↔3 disabled, then 7↔9
//! disabled.
//!
//! The paper reports that blocking rises but the relative position of the
//! policy curves is maintained. Run at a few loads around nominal.

use altroute_experiments::output::fmt_prob;
use altroute_experiments::{cli, nsfnet_experiment, policy_set, Table};
use altroute_sim::experiment::SimParams;
use altroute_sim::failures::FailureSchedule;

fn main() {
    let params = cli::bin_flags(&[cli::Flag::Quick]).sim_params(SimParams::default());
    let scenarios: [(&str, &[(usize, usize)]); 3] = [
        ("healthy", &[]),
        ("2<->3 down", &[(2, 3), (3, 2)]),
        ("7<->9 down", &[(7, 9), (9, 7)]),
    ];
    let loads = [8.0, 10.0, 12.0];
    let policies = policy_set(11, false);

    let mut table = Table::new([
        "scenario",
        "load",
        "single-path",
        "uncontrolled",
        "controlled",
        "erlang-bound",
    ]);
    for (name, downs) in scenarios {
        for &load in &loads {
            let base = nsfnet_experiment(load);
            let links: Vec<usize> = downs
                .iter()
                .map(|&(s, d)| base.topology().link_between(s, d).expect("link exists"))
                .collect();
            let exp = base.with_failures(FailureSchedule::static_down(links));
            let mut cells = vec![name.to_string(), format!("{load:.0}")];
            for &kind in &policies {
                let r = exp.run(kind, &params);
                cells.push(fmt_prob(r.blocking_mean()));
            }
            cells.push(fmt_prob(exp.erlang_bound()));
            table.row(cells);
        }
    }
    println!("NSFNet link-failure experiments (paper §4.2.2 'Link failures')\n");
    println!("{}", table.render());
    println!(
        "expected: blocking rises under failures; the ordering \
         single-path >= controlled and controlled ~ best is preserved."
    );
    if let Ok(path) = table.write_csv("failures") {
        println!("wrote {}", path.display());
    }
}
