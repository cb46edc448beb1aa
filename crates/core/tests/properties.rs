//! Property-based tests of the routing policies: safety invariants under
//! arbitrary occupancy patterns, checked against the kernel selectors and
//! admission policies the simulator runs.

use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_core::select::{OttKrishnanSelector, TieredSelector};
use altroute_netgraph::topologies::{nsfnet, random_mesh};
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_simcore::kernel::{
    LinkOccupancy, RouteSelector, Selection, Tier, TrunkReservation, Uncontrolled,
};
use proptest::prelude::*;

/// Link state with the given occupancies, then the given links failed.
fn view(plan: &RoutingPlan, occ: &[u32], down: &[bool]) -> LinkOccupancy {
    let caps: Vec<u32> = plan.topology().links().iter().map(|l| l.capacity).collect();
    let mut view = LinkOccupancy::new(&caps);
    for (l, (&units, &down)) in occ.iter().zip(down).enumerate() {
        view.book(&[l], units);
        if down {
            view.set_down(l);
        }
    }
    view
}

/// Routes one call under `kind`, as the simulator pairs selector and
/// admission for the plan-driven policies.
fn decide<'p>(
    plan: &'p RoutingPlan,
    kind: PolicyKind,
    src: usize,
    dst: usize,
    view: &LinkOccupancy,
    pick: f64,
) -> Selection<'p> {
    let reservation = TrunkReservation::new(plan.protection_levels().to_vec());
    match kind {
        PolicyKind::SinglePath => {
            TieredSelector::single_path(plan).select(src, dst, pick, view, &Uncontrolled, 1)
        }
        PolicyKind::UncontrolledAlternate { .. } => {
            TieredSelector::new(plan).select(src, dst, pick, view, &Uncontrolled, 1)
        }
        PolicyKind::ControlledAlternate { .. } => {
            TieredSelector::new(plan).select(src, dst, pick, view, &reservation, 1)
        }
        PolicyKind::OttKrishnan { .. } => {
            OttKrishnanSelector::new(plan).select(src, dst, pick, view, &Uncontrolled, 1)
        }
        other => panic!("{other:?} is not a plan-driven policy"),
    }
}

fn policies(h: u32) -> [PolicyKind; 4] {
    [
        PolicyKind::SinglePath,
        PolicyKind::UncontrolledAlternate { max_hops: h },
        PolicyKind::ControlledAlternate { max_hops: h },
        PolicyKind::OttKrishnan { max_hops: h },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Safety: no policy ever routes over a full or down link, and
    /// controlled alternates never intrude into the protected band.
    #[test]
    fn decisions_respect_link_state(
        seed in 1u64..500,
        occupancies in proptest::collection::vec(0u32..=10, 40),
        downs in proptest::collection::vec(any::<bool>(), 40),
        u in 0.0f64..1.0,
    ) {
        let topo = random_mesh(6, 3, 10, seed);
        let traffic = TrafficMatrix::uniform(6, 6.0);
        let h = 5;
        let plan = RoutingPlan::min_hop(topo, &traffic, h);
        let m = plan.topology().num_links();
        let down: Vec<bool> = downs[..m].iter().map(|&d| d && seed % 3 == 0).collect();
        let view = view(&plan, &occupancies[..m], &down);
        for kind in policies(h) {
            for (i, j) in plan.topology().ordered_pairs() {
                if let Selection::Route { links, tier } = decide(&plan, kind, i, j, &view, u) {
                    prop_assert!(
                        plan.candidates(i, j).iter().any(|p| p.links() == links),
                        "{}: ({i}, {j}) routed off its candidate paths", kind.name()
                    );
                    for &l in links {
                        let cap = plan.topology().link(l).capacity;
                        prop_assert!(view.is_up(l), "{}: routed over down link", kind.name());
                        prop_assert!(view.occupancy(l) < cap, "{}: routed over full link", kind.name());
                        if kind == (PolicyKind::ControlledAlternate { max_hops: h })
                            && tier == Tier::Alternate
                        {
                            let r = plan.protection(l);
                            prop_assert!(
                                cap > r && view.occupancy(l) < cap - r,
                                "protected band violated on link {l}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Monotone admission: relieving congestion (lowering occupancy on
    /// one link) never turns a routed call into a blocked one for the
    /// tiered policies.
    #[test]
    fn relieving_a_link_cannot_block(
        seed in 1u64..500,
        occupancies in proptest::collection::vec(0u32..=10, 40),
        relieved in 0usize..40,
    ) {
        let topo = random_mesh(6, 3, 10, seed);
        let traffic = TrafficMatrix::uniform(6, 6.0);
        let h = 5;
        let plan = RoutingPlan::min_hop(topo, &traffic, h);
        let m = plan.topology().num_links();
        let view_before = view(&plan, &occupancies[..m], &vec![false; m]);
        let mut view_after = view_before.clone();
        let relieved = relieved % m;
        if view_after.occupancy(relieved) > 0 {
            view_after.release(&[relieved], 1);
        }
        // Note: this monotonicity holds for SinglePath (a single fixed
        // path) but NOT in general for the alternate policies, whose
        // chosen path can shift. Verify the single-path case exactly.
        for (i, j) in plan.topology().ordered_pairs() {
            let before = decide(&plan, PolicyKind::SinglePath, i, j, &view_before, 0.0);
            let after = decide(&plan, PolicyKind::SinglePath, i, j, &view_after, 0.0);
            if matches!(before, Selection::Route { .. }) {
                prop_assert!(
                    matches!(after, Selection::Route { .. }),
                    "relieving link {relieved} blocked pair ({i}, {j})"
                );
            }
        }
    }

    /// On an idle network every policy routes every pair on its primary.
    #[test]
    fn idle_network_routes_primaries(seed in 1u64..500) {
        let topo = random_mesh(5, 2, 10, seed);
        let traffic = TrafficMatrix::uniform(5, 3.0);
        let h = 4;
        let plan = RoutingPlan::min_hop(topo, &traffic, h);
        let m = plan.topology().num_links();
        let view = view(&plan, &vec![0; m], &vec![false; m]);
        for kind in policies(h) {
            for (i, j) in plan.topology().ordered_pairs() {
                match decide(&plan, kind, i, j, &view, 0.0) {
                    Selection::Route { links, tier } => {
                        // Tiered policies take the primary itself. The
                        // Ott-Krishnan policy may legitimately prefer a
                        // longer path whose links carry less primary load
                        // (lower shadow prices) even on an idle network.
                        if kind != (PolicyKind::OttKrishnan { max_hops: h }) {
                            prop_assert_eq!(tier, Tier::Primary, "{}", kind.name());
                            let (primary, _) = plan.primaries().split(i, j).next().unwrap();
                            prop_assert_eq!(links, primary);
                        }
                    }
                    Selection::Blocked => prop_assert!(false, "{} blocked on idle network", kind.name()),
                }
            }
        }
    }

    /// Uncontrolled admits a superset of controlled: whenever controlled
    /// routes a call, uncontrolled also routes it (not necessarily on the
    /// same path).
    #[test]
    fn uncontrolled_admits_superset(
        occupancies in proptest::collection::vec(0u32..=100, 30),
        u in 0.0f64..1.0,
    ) {
        let topo = nsfnet(100);
        let traffic = TrafficMatrix::uniform(12, 10.0);
        let h = 11;
        let plan = RoutingPlan::min_hop(topo, &traffic, h);
        let view = view(&plan, &occupancies, &[false; 30]);
        let controlled = PolicyKind::ControlledAlternate { max_hops: h };
        let uncontrolled = PolicyKind::UncontrolledAlternate { max_hops: h };
        for (i, j) in plan.topology().ordered_pairs() {
            if matches!(decide(&plan, controlled, i, j, &view, u), Selection::Route { .. }) {
                prop_assert!(
                    matches!(decide(&plan, uncontrolled, i, j, &view, u), Selection::Route { .. }),
                    "controlled routed ({i}, {j}) but uncontrolled blocked it"
                );
            }
        }
    }
}
