//! Cross-crate integration tests of the paper's central guarantee:
//! controlled alternate routing never does worse than single-path
//! routing, at any load, and the supporting analytic relationships hold
//! end to end.

use altroute::core::policy::PolicyKind;
use altroute::netgraph::{topologies, traffic::TrafficMatrix};
use altroute::sim::experiment::{Experiment, SimParams};
use altroute::teletraffic::reservation::{protection_level, shadow_price_bound};

fn params(seeds: u32, horizon: f64) -> SimParams {
    SimParams {
        warmup: 10.0,
        horizon,
        seeds,
        base_seed: 0xBEEF,
    }
}

/// The headline guarantee on the quadrangle across the whole load range,
/// including deep overload: controlled <= single-path (within noise).
#[test]
fn controlled_never_worse_than_single_path_quadrangle() {
    for load in [70.0, 85.0, 90.0, 100.0, 120.0] {
        let exp = Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, load))
            .expect("valid instance");
        let p = params(5, 60.0);
        let single = exp.run(PolicyKind::SinglePath, &p);
        let controlled = exp.run(PolicyKind::ControlledAlternate { max_hops: 3 }, &p);
        // Tolerance: twice the sum of the two policies' standard errors,
        // each taken on its own (unpaired); the sum bounds the standard
        // error of their difference whatever the correlation between runs.
        let tol = 2.0 * (single.blocking_std_error() + controlled.blocking_std_error()) + 1e-4;
        assert!(
            controlled.blocking_mean() <= single.blocking_mean() + tol,
            "load {load}: controlled {} vs single {} (tol {tol})",
            controlled.blocking_mean(),
            single.blocking_mean()
        );
    }
}

/// Same guarantee on the sparse NSFNet mesh at and above nominal load.
#[test]
fn controlled_never_worse_than_single_path_nsfnet() {
    let nominal = altroute::netgraph::estimate::nsfnet_nominal_traffic().traffic;
    for scale in [0.8, 1.0, 1.3] {
        let exp = Experiment::new(topologies::nsfnet(100), nominal.scaled(scale))
            .expect("valid instance");
        let p = params(4, 50.0);
        let single = exp.run(PolicyKind::SinglePath, &p);
        let controlled = exp.run(PolicyKind::ControlledAlternate { max_hops: 11 }, &p);
        let tol = 2.0 * (single.blocking_std_error() + controlled.blocking_std_error()) + 2e-3;
        assert!(
            controlled.blocking_mean() <= single.blocking_mean() + tol,
            "scale {scale}: controlled {} vs single {}",
            controlled.blocking_mean(),
            single.blocking_mean()
        );
    }
}

/// The uncontrolled avalanche: past the critical load the uncontrolled
/// policy does markedly worse than single-path; the controlled policy
/// does not.
#[test]
fn uncontrolled_avalanche_beyond_critical_load() {
    let exp = Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 100.0))
        .expect("valid instance");
    let p = params(5, 60.0);
    let single = exp.run(PolicyKind::SinglePath, &p).blocking_mean();
    let uncontrolled = exp
        .run(PolicyKind::UncontrolledAlternate { max_hops: 3 }, &p)
        .blocking_mean();
    let controlled = exp
        .run(PolicyKind::ControlledAlternate { max_hops: 3 }, &p)
        .blocking_mean();
    assert!(
        uncontrolled > single * 1.5,
        "expected the avalanche: uncontrolled {uncontrolled} vs single {single}"
    );
    assert!(
        controlled <= single * 1.1,
        "controlled {controlled} vs single {single}"
    );
}

/// At low load the controlled scheme behaves like uncontrolled alternate
/// routing — both carry essentially everything, far better than
/// single-path.
#[test]
fn controlled_mimics_uncontrolled_at_low_load() {
    let exp = Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 80.0))
        .expect("valid instance");
    let p = params(5, 60.0);
    let single = exp.run(PolicyKind::SinglePath, &p).blocking_mean();
    let uncontrolled = exp
        .run(PolicyKind::UncontrolledAlternate { max_hops: 3 }, &p)
        .blocking_mean();
    let controlled = exp
        .run(PolicyKind::ControlledAlternate { max_hops: 3 }, &p)
        .blocking_mean();
    assert!(
        uncontrolled < single * 0.5,
        "alternates must pay off at 80 Erlangs"
    );
    assert!(
        controlled < single * 0.5,
        "controlled must keep most of the benefit"
    );
}

/// Simulated blocking always respects the Erlang cut-set lower bound.
#[test]
fn erlang_bound_holds_for_every_policy() {
    let nominal = altroute::netgraph::estimate::nsfnet_nominal_traffic().traffic;
    let exp = Experiment::new(topologies::nsfnet(100), nominal).expect("valid instance");
    let bound = exp.erlang_bound();
    let p = params(4, 50.0);
    for kind in [
        PolicyKind::SinglePath,
        PolicyKind::UncontrolledAlternate { max_hops: 11 },
        PolicyKind::ControlledAlternate { max_hops: 11 },
        PolicyKind::OttKrishnan { max_hops: 11 },
    ] {
        let b = exp.run(kind, &p).blocking_mean();
        assert!(
            b > bound - 0.02,
            "{}: blocking {b} violates the Erlang bound {bound}",
            kind.name()
        );
    }
}

/// The Eq. 15 protection levels used by the simulator satisfy the
/// Theorem 1 inequality path-wide: for any alternate path of length <= H,
/// the summed bound is below 1.
#[test]
fn pathwide_shadow_price_budget_below_one() {
    let nominal = altroute::netgraph::estimate::nsfnet_nominal_traffic().traffic;
    let exp = Experiment::new(topologies::nsfnet(100), nominal).expect("valid instance");
    let h = 11u32;
    let plan = exp.plan_for(PolicyKind::ControlledAlternate { max_hops: h });
    let topo = plan.topology();
    for (i, j) in topo.ordered_pairs() {
        for path in plan.candidates(i, j) {
            let total: f64 = path
                .links()
                .iter()
                .map(|&l| {
                    let load = plan.link_loads()[l];
                    let r = plan.protection(l);
                    if load == 0.0 {
                        0.0
                    } else if r >= topo.link(l).capacity {
                        // Fully protected links never accept alternates;
                        // their contribution to an *accepted* call is nil,
                        // but for the budget check use the bound at full
                        // protection, which is <= 1/H by construction
                        // whenever acceptance is possible at all.
                        1.0 / f64::from(h)
                    } else {
                        shadow_price_bound(load, topo.link(l).capacity, r)
                    }
                })
                .sum();
            assert!(
                total <= 1.0 + 1e-9,
                "path {:?} has shadow budget {total} > 1",
                path.nodes()
            );
        }
    }
}

/// Protection levels are consistent between the plan and a direct
/// Eq. 15 evaluation, for both networks.
#[test]
fn plans_wire_protection_levels_correctly() {
    for (topo, traffic, h) in [
        (
            topologies::quadrangle(),
            TrafficMatrix::uniform(4, 90.0),
            3u32,
        ),
        (
            topologies::nsfnet(100),
            altroute::netgraph::estimate::nsfnet_nominal_traffic().traffic,
            6u32,
        ),
    ] {
        let exp = Experiment::new(topo, traffic).expect("valid instance");
        let plan = exp.plan_for(PolicyKind::ControlledAlternate { max_hops: h });
        for (l, (&load, &r)) in plan
            .link_loads()
            .iter()
            .zip(plan.protection_levels())
            .enumerate()
        {
            assert_eq!(
                r,
                protection_level(load, plan.topology().link(l).capacity, h),
                "link {l}"
            );
        }
    }
}
