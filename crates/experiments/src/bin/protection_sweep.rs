//! Ablation — how good is Eq. 15's choice of `r`?
//!
//! The paper picks the smallest `r` satisfying the Theorem 1 budget; Key
//! (§2.2 of \[21\]) argues trunk reservation is robust near its optimum.
//! This ablation sweeps a *uniform* protection level `r` across all links
//! of the quadrangle at three loads and marks where Eq. 15's per-link
//! choice lands: it should sit in the flat bottom of each blocking curve.

use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_core::select::TieredSelector;
use altroute_experiments::output::fmt_prob;
use altroute_experiments::{cli, Table};
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::experiment::SimParams;
use altroute_sim::{FailureSchedule, Run, RunConfig};
use altroute_simcore::kernel::TrunkReservation;

fn main() {
    let params = cli::bin_flags(&[cli::Flag::Quick]).sim_params(SimParams::default());
    let loads = [85.0, 90.0, 95.0];
    let rs: Vec<u32> = vec![0, 1, 2, 3, 5, 8, 12, 16, 20, 30, 50, 100];
    let mut table = Table::new(["r", "load85", "load90", "load95"]);
    let mut eq15 = Vec::new();
    let mut curves: Vec<Vec<f64>> = vec![Vec::new(); loads.len()];
    for (li, &load) in loads.iter().enumerate() {
        let traffic = TrafficMatrix::uniform(4, load);
        let plan = RoutingPlan::min_hop(topologies::quadrangle(), &traffic, 3);
        eq15.push(plan.protection(0));
        for &r in &rs {
            curves[li].push(sweep_uniform(&plan, &traffic, r, &params));
        }
    }
    for (i, &r) in rs.iter().enumerate() {
        table.row([
            r.to_string(),
            fmt_prob(curves[0][i]),
            fmt_prob(curves[1][i]),
            fmt_prob(curves[2][i]),
        ]);
    }
    println!("Ablation: uniform protection level r on the quadrangle (H = 3)\n");
    println!("{}", table.render());
    println!(
        "Eq. 15 chooses r = {}, {}, {} at loads 85, 90, 95 — it should sit in the",
        eq15[0], eq15[1], eq15[2]
    );
    println!("flat bottom of each column (robustness of state protection).");
    if let Ok(path) = table.write_csv("protection_sweep") {
        println!("wrote {}", path.display());
    }
}

/// Simulates the controlled policy with every link's protection forced to
/// `r`: the production tiered selector under trunk reservation with a
/// uniform level vector, one kernel run per seed.
fn sweep_uniform(plan: &RoutingPlan, traffic: &TrafficMatrix, r: u32, params: &SimParams) -> f64 {
    let failures = FailureSchedule::none();
    let (mut blocked_total, mut offered_total) = (0u64, 0u64);
    for s in 0..params.seeds {
        let config = RunConfig {
            plan,
            policy: PolicyKind::ControlledAlternate {
                max_hops: plan.max_alternate_hops(),
            },
            traffic,
            warmup: params.warmup,
            horizon: params.horizon,
            seed: params.base_seed + u64::from(s),
            failures: &failures,
        };
        let result = Run::new(&config).execute_with(
            &mut TrunkReservation::new(vec![r; plan.topology().num_links()]),
            &mut TieredSelector::new(plan),
        );
        offered_total += result.offered;
        blocked_total += result.blocked;
    }
    blocked_total as f64 / offered_total as f64
}
