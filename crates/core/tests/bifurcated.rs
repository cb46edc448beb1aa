//! Integration tests of routing with bifurcated (min-loss) primaries.

use altroute_core::plan::RoutingPlan;
use altroute_core::primary::{min_loss_splits, MinLossOptions};
use altroute_core::select::TieredSelector;
use altroute_netgraph::graph::Topology;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_simcore::kernel::{
    LinkOccupancy, RouteSelector, Selection, Tier, TrunkReservation, Uncontrolled,
};

fn idle_view(plan: &RoutingPlan) -> LinkOccupancy {
    let caps: Vec<u32> = plan.topology().links().iter().map(|l| l.capacity).collect();
    LinkOccupancy::new(&caps)
}

/// A 3-node network engineered to bifurcate: a small direct link and a
/// large two-hop detour.
fn bifurcating_instance() -> (RoutingPlan, TrafficMatrix) {
    let mut topo = Topology::new();
    topo.add_nodes(3);
    topo.add_duplex(0, 1, 20);
    topo.add_duplex(0, 2, 100);
    topo.add_duplex(2, 1, 100);
    let mut m = TrafficMatrix::zero(3);
    m.set(0, 1, 40.0);
    let splits = min_loss_splits(
        &topo,
        &m,
        MinLossOptions {
            max_hops: 2,
            ..Default::default()
        },
    );
    assert!(splits.is_bifurcated(), "instance must bifurcate");
    let plan = RoutingPlan::with_primaries(topo, &m, splits, 2);
    (plan, m)
}

#[test]
fn primary_pick_follows_the_split_probability() {
    let (plan, _) = bifurcating_instance();
    let reservation = TrunkReservation::new(plan.protection_levels().to_vec());
    let mut selector = TieredSelector::new(&plan);
    let view = idle_view(&plan);
    // Sample the primary pick across the unit interval; both paths must
    // appear as Primary-tier routes on an idle network.
    let mut direct = 0;
    let mut detour = 0;
    for k in 0..100 {
        let u = f64::from(k) / 100.0;
        match selector.select(0, 1, u, &view, &reservation, 1) {
            Selection::Route { links, tier } => {
                assert_eq!(tier, Tier::Primary, "idle network routes primaries");
                if links.len() == 1 {
                    direct += 1;
                } else {
                    detour += 1;
                }
            }
            Selection::Blocked => panic!("idle network cannot block"),
        }
    }
    assert!(direct > 0 && detour > 0, "both split branches must be used");
    // The detour carries the larger share in this instance.
    assert!(detour > direct, "detour {detour} vs direct {direct}");
}

#[test]
fn blocked_split_branch_overflows_to_alternates() {
    let (plan, _) = bifurcating_instance();
    let mut selector = TieredSelector::new(&plan);
    // Fill the direct link: a call whose sampled primary is the direct
    // path must overflow onto the detour as an Alternate.
    let direct_link = plan.topology().link_between(0, 1).unwrap();
    let mut view = idle_view(&plan);
    view.book(&[direct_link], 20);
    // Find a u that picks the direct branch.
    let mut found = false;
    for k in 0..100 {
        let u = f64::from(k) / 100.0;
        let picked = plan.primaries().choose(0, 1, u).unwrap();
        if picked.len() == 1 {
            match selector.select(0, 1, u, &view, &Uncontrolled, 1) {
                Selection::Route { links, tier } => {
                    assert_eq!(tier, Tier::Alternate);
                    assert_eq!(links.len(), 2);
                    found = true;
                }
                Selection::Blocked => panic!("detour has room"),
            }
            break;
        }
    }
    assert!(found, "some u must sample the direct branch");
}

#[test]
fn protection_levels_use_bifurcated_loads() {
    let (plan, _) = bifurcating_instance();
    // The direct link's primary load is the *split* share of the 40
    // Erlangs, not the whole demand.
    let direct_link = plan.topology().link_between(0, 1).unwrap();
    let load = plan.link_loads()[direct_link];
    assert!(
        load < 40.0,
        "split must offload the direct link, got {load}"
    );
    assert!(load > 0.0);
    // And the detour links carry the complement.
    let via = plan.topology().link_between(0, 2).unwrap();
    assert!((plan.link_loads()[via] + load - 40.0).abs() < 1e-9);
}
