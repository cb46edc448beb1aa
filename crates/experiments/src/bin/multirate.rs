//! Extension — multirate calls (the paper's excluded "multiple call
//! types").
//!
//! Two bandwidth classes (a 1-unit narrowband prototype call and a 4-unit
//! wideband video call) share the quadrangle under a load sweep. Links
//! admit by bandwidth fit; the controlled policy protects the last
//! `r` units per link with `r` from Eq. 15 on the bandwidth-weighted
//! primary load. The single-link behaviour of the same engine is
//! validated against the exact Kaufman–Roberts recursion in the crate's
//! tests.

use altroute_core::policy::PolicyKind;
use altroute_experiments::output::fmt_prob;
use altroute_experiments::{cli, Table};
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::failures::FailureSchedule;
use altroute_sim::multirate::{self, run_multirate, BandwidthClass};
use altroute_sim::{Fanout, SimParams};

fn main() {
    let params = cli::bin_flags(&[cli::Flag::Quick]).sim_params(SimParams {
        base_seed: 0x11BA,
        ..SimParams::default()
    });
    let topo = topologies::quadrangle();
    let failures = FailureSchedule::none();

    let mut table = Table::new([
        "narrow_load",
        "policy",
        "call_blocking",
        "bw_blocking",
        "narrowband",
        "wideband",
    ]);
    for narrow in [50.0, 60.0, 70.0, 80.0] {
        // Keep the wideband class at 1/10 the narrowband call rate: the
        // bandwidth split is then ~60/40 narrow/wide.
        let classes = [
            BandwidthClass {
                bandwidth: 1,
                traffic: TrafficMatrix::uniform(4, narrow),
            },
            BandwidthClass {
                bandwidth: 4,
                traffic: TrafficMatrix::uniform(4, narrow / 10.0),
            },
        ];
        let plan = multirate::plan(&topo, &classes, 3);
        for policy in [
            PolicyKind::SinglePath,
            PolicyKind::UncontrolledAlternate { max_hops: 3 },
            PolicyKind::ControlledAlternate { max_hops: 3 },
        ] {
            let (r, _) = run_multirate(
                &plan,
                &classes,
                policy,
                &params,
                &failures,
                &Fanout::default(),
            );
            table.row([
                format!("{narrow:.0}"),
                policy.name().to_string(),
                fmt_prob(r.blocking_mean()),
                fmt_prob(r.bandwidth_blocking.mean()),
                fmt_prob(r.per_class_blocking[0]),
                fmt_prob(r.per_class_blocking[1]),
            ]);
        }
    }
    println!("Multirate extension: 1-unit + 4-unit classes on the quadrangle (C = 100)\n");
    println!("{}", table.render());
    println!("expected: wideband blocking exceeds narrowband everywhere; controlled");
    println!("tracks the better of single-path/uncontrolled as in the single-rate study.");
    if let Ok(path) = table.write_csv("multirate") {
        println!("wrote {}", path.display());
    }
}
