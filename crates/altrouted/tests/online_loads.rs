//! Online `Λ^k` equals offline `Λ^k`: one estimator window whose per-pair
//! arrival counts are a traffic matrix (width 1, unit holding) estimates
//! exactly that matrix, so the controller's loads must be bit-equal to
//! the plan's and its levels equal to the plan's Eq.-15 levels — on
//! min-hop primaries and on a bifurcated assignment.

use altroute_core::plan::RoutingPlan;
use altroute_core::primary::{min_loss_splits, MinLossOptions, PrimaryAssignment};
use altroute_netgraph::estimate::nsfnet_nominal_traffic;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altrouted::control::{ControlPlane, Controller, ControllerTuning};

/// NSFNet's nominal matrix rounded to whole calls per pair.
fn whole_calls() -> TrafficMatrix {
    let nominal = nsfnet_nominal_traffic().traffic;
    TrafficMatrix::from_fn(12, |i, j| nominal.get(i, j).round())
}

/// Feeds one window of `traffic`'s counts to a controller on `primaries`
/// and compares it with the plan built from the same table.
fn online_matches_offline(primaries: PrimaryAssignment, traffic: &TrafficMatrix) {
    let topo = topologies::nsfnet(100);
    let h = 6;
    let plan = RoutingPlan::with_primaries(topo.clone(), traffic, primaries.clone(), h);
    let mut controller = Controller::new(
        ControlPlane::from_primaries(&topo, primaries, h),
        ControllerTuning::default(),
    );
    let counts: Vec<u64> = (0..144)
        .map(|idx| traffic.get(idx / 12, idx % 12) as u64)
        .collect();
    controller.ingest_window(&counts);
    let bits = |loads: &[f64]| loads.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(controller.loads()), bits(plan.link_loads()));
    assert_eq!(controller.levels(), plan.protection_levels());
    assert!(controller.levels().iter().any(|&r| r > 0));
}

#[test]
fn min_hop_loads_match_the_plan_bit_for_bit() {
    let topo = topologies::nsfnet(100);
    online_matches_offline(PrimaryAssignment::min_hop(&topo), &whole_calls());
}

#[test]
fn bifurcated_loads_match_the_plan_bit_for_bit() {
    let topo = topologies::nsfnet(100);
    let traffic = whole_calls();
    let primaries = min_loss_splits(
        &topo,
        &traffic,
        MinLossOptions {
            iterations: 60,
            ..MinLossOptions::default()
        },
    );
    assert!(primaries.is_bifurcated());
    online_matches_offline(primaries, &traffic);
}
