//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! * **Protection on/off** — the runtime cost of the threshold check
//!   (controlled) versus the capacity check (uncontrolled): the paper's
//!   control is designed to be free at decision time, and this pins it.
//! * **Hop bound `H`** — candidate-set size drives both plan construction
//!   and per-call decision cost; `H = 6` vs `H = 11` on NSFNet.
//! * **Decision rule** — threshold admission (the paper) versus summed
//!   shadow prices (Ott–Krishnan): the paper's rule needs no per-link
//!   table lookups and no floating-point accumulation on the hot path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use altroute_bench::bench_params;
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_core::select::{OttKrishnanSelector, TieredSelector};
use altroute_netgraph::estimate::nsfnet_nominal_traffic;
use altroute_netgraph::topologies;
use altroute_sim::experiment::Experiment;
use altroute_simcore::kernel::{
    AdmissionPolicy, LinkOccupancy, RouteSelector, Selection, TrunkReservation, Uncontrolled,
};

/// Routes every ordered pair once against a fixed link state; returns
/// how many calls found a path.
fn route_all<'p, A: AdmissionPolicy>(
    selector: &mut impl RouteSelector<'p>,
    admission: &A,
    view: &LinkOccupancy,
    pairs: &[(usize, usize)],
) -> usize {
    pairs
        .iter()
        .filter(|&&(i, j)| {
            matches!(
                selector.select(i, j, black_box(0.3), view, admission, 1),
                Selection::Route { .. }
            )
        })
        .count()
}

fn decision_cost(c: &mut Criterion) {
    let traffic = nsfnet_nominal_traffic().traffic;
    let plan = RoutingPlan::min_hop(topologies::nsfnet(100), &traffic, 11);
    // Primaries busy, alternates partially busy: decisions must walk the
    // candidate lists.
    let caps: Vec<u32> = plan.topology().links().iter().map(|l| l.capacity).collect();
    let mut view = LinkOccupancy::new(&caps);
    for (l, &load) in plan.link_loads().iter().enumerate() {
        view.book(&[l], load.min(100.0) as u32);
    }
    let pairs: Vec<(usize, usize)> = plan.topology().ordered_pairs().collect();
    let reservation = TrunkReservation::new(plan.protection_levels().to_vec());

    let mut g = c.benchmark_group("ablation_decision_cost");
    let mut single = TieredSelector::single_path(&plan);
    g.bench_function("all_pairs_single-path", |b| {
        b.iter(|| route_all(&mut single, &Uncontrolled, &view, &pairs))
    });
    let mut tiered = TieredSelector::new(&plan);
    g.bench_function("all_pairs_uncontrolled", |b| {
        b.iter(|| route_all(&mut tiered, &Uncontrolled, &view, &pairs))
    });
    g.bench_function("all_pairs_controlled", |b| {
        b.iter(|| route_all(&mut tiered, &reservation, &view, &pairs))
    });
    let mut ott_krishnan = OttKrishnanSelector::new(&plan);
    g.bench_function("all_pairs_ott-krishnan", |b| {
        b.iter(|| route_all(&mut ott_krishnan, &Uncontrolled, &view, &pairs))
    });
    g.finish();
}

fn hop_bound_ablation(c: &mut Criterion) {
    let traffic = nsfnet_nominal_traffic().traffic;
    let mut g = c.benchmark_group("ablation_hop_bound");
    g.sample_size(10);
    for h in [4u32, 6, 8, 11] {
        g.bench_function(format!("plan_build_h{h}"), |b| {
            b.iter(|| RoutingPlan::min_hop(topologies::nsfnet(100), &traffic, h))
        });
    }
    let params = bench_params();
    let exp = Experiment::new(topologies::nsfnet(100), traffic).unwrap();
    for h in [6u32, 11] {
        g.bench_function(format!("simulate_controlled_h{h}"), |b| {
            b.iter(|| {
                exp.run(PolicyKind::ControlledAlternate { max_hops: h }, &params)
                    .blocking_mean()
            })
        });
    }
    g.finish();
}

fn seed_parallelism(c: &mut Criterion) {
    // Crossbeam-parallel replications vs. serial equivalents: the runner
    // spawns one scoped thread per seed.
    let traffic = nsfnet_nominal_traffic().traffic;
    let exp = Experiment::new(topologies::nsfnet(100), traffic).unwrap();
    let mut g = c.benchmark_group("ablation_seed_parallelism");
    g.sample_size(10);
    for seeds in [1u32, 4] {
        let params = altroute_sim::experiment::SimParams {
            warmup: 5.0,
            horizon: 20.0,
            seeds,
            base_seed: 1,
        };
        g.bench_function(format!("seeds_{seeds}"), |b| {
            b.iter(|| exp.run(PolicyKind::ControlledAlternate { max_hops: 11 }, &params))
        });
    }
    g.finish();
}

criterion_group!(benches, decision_cost, hop_bound_ablation, seed_parallelism);
criterion_main!(benches);
