//! Extension — call-setup signaling with propagation delay.
//!
//! The paper models call set-up as instantaneous; its §1 protocol
//! (forward admission check, book on the return pass, crankback) is
//! implemented here with a real per-hop delay. Sweeping the delay shows
//! what the idealisation abstracts away: stale forward checks collide at
//! booking time (races), set-up latency grows with attempts, and
//! blocking rises slightly — while the policy ordering is unchanged.

use altroute_core::policy::PolicyKind;
use altroute_experiments::output::fmt_prob;
use altroute_experiments::{cli, nsfnet_experiment, Table};
use altroute_sim::failures::FailureSchedule;
use altroute_sim::signaling::{replicate_signaling, SignalingConfig};
use altroute_sim::{Fanout, SimParams};

fn main() {
    // Under --quick the shared horizon and seeds, but the full warm-up.
    let params = SimParams {
        warmup: 10.0,
        ..cli::bin_flags(&[cli::Flag::Quick]).sim_params(SimParams {
            base_seed: 0,
            ..SimParams::default()
        })
    };
    let exp = nsfnet_experiment(10.0);
    let plan = exp.plan_for(PolicyKind::ControlledAlternate { max_hops: 11 });
    let failures = FailureSchedule::none();

    let mut table = Table::new([
        "hop_delay",
        "policy",
        "blocking",
        "booking_races",
        "mean_setup_latency",
        "mean_attempts",
    ]);
    // Delays in mean holding times: a 3-minute call over a continental
    // link (~30 ms one-way) is ~1.7e-4; sweep beyond that to stress.
    for delay in [0.0, 0.0002, 0.002, 0.02] {
        for policy in [
            PolicyKind::SinglePath,
            PolicyKind::UncontrolledAlternate { max_hops: 11 },
            PolicyKind::ControlledAlternate { max_hops: 11 },
        ] {
            let config = SignalingConfig {
                hop_delay: delay,
                policy,
            };
            let (per_seed, _, _) = replicate_signaling(
                &plan,
                exp.traffic(),
                &failures,
                &config,
                &params,
                &Fanout::default(),
            );
            let (mut blocked, mut offered, mut races) = (0u64, 0u64, 0u64);
            let mut latency = 0.0;
            let mut attempts = 0.0;
            for r in &per_seed {
                blocked += r.blocked;
                offered += r.offered;
                races += r.booking_races;
                latency += r.mean_setup_latency;
                attempts += r.mean_attempts;
            }
            table.row([
                format!("{delay}"),
                policy.name().to_string(),
                fmt_prob(blocked as f64 / offered as f64),
                races.to_string(),
                format!("{:.5}", latency / f64::from(params.seeds)),
                format!("{:.3}", attempts / f64::from(params.seeds)),
            ]);
        }
    }
    println!("Call-setup signaling with propagation delay (extension; NSFNet, nominal load)\n");
    println!("{}", table.render());
    println!("expected: at realistic delays (<= 2e-4 holding times) results match the");
    println!("idealised model; races and blocking grow only at exaggerated delays.");
    if let Ok(path) = table.write_csv("signaling_delay") {
        println!("wrote {}", path.display());
    }
}
