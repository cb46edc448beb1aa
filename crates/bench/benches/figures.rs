//! One bench per paper table/figure, at reduced fidelity.
//!
//! Each bench exercises exactly the code path of the corresponding
//! experiment binary (`crates/experiments/src/bin/`), so `cargo bench`
//! provides a per-artifact performance regression check while the
//! binaries provide the full-fidelity numbers.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use altroute_bench::bench_params;
use altroute_cellular::grid::CellGrid;
use altroute_cellular::policy::BorrowPolicy;
use altroute_cellular::sim::{run_cellular, CellularParams, Fanout};
use altroute_core::policy::PolicyKind;
use altroute_core::primary::{min_loss_splits, MinLossOptions};
use altroute_netgraph::estimate::nsfnet_nominal_traffic;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::experiment::Experiment;
use altroute_sim::failures::FailureSchedule;
use altroute_teletraffic::birth_death::BirthDeathChain;
use altroute_teletraffic::reservation::protection_curve;

fn fig1_chain(c: &mut Criterion) {
    let overflow: Vec<f64> = (0..100).map(|s| 10.0 + 0.2 * f64::from(s as u32)).collect();
    c.bench_function("fig1_protected_chain", |b| {
        b.iter(|| {
            let chain = BirthDeathChain::protected_link(black_box(74.0), &overflow, 100, 7);
            (chain.stationary(), chain.first_passage_up_counts())
        })
    });
}

fn fig2_curves(c: &mut Criterion) {
    let loads: Vec<f64> = (1..=100).map(f64::from).collect();
    c.bench_function("fig2_protection_curves", |b| {
        b.iter(|| [2u32, 6, 120].map(|h| protection_curve(black_box(&loads), 100, h)))
    });
}

fn fig3_quadrangle(c: &mut Criterion) {
    let params = bench_params();
    let exp = Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 90.0)).unwrap();
    let mut g = c.benchmark_group("fig3_fig4_quadrangle");
    g.sample_size(10);
    g.bench_function("one_load_point_three_policies", |b| {
        b.iter(|| {
            (
                exp.run(PolicyKind::SinglePath, &params).blocking_mean(),
                exp.run(PolicyKind::UncontrolledAlternate { max_hops: 3 }, &params)
                    .blocking_mean(),
                exp.run(PolicyKind::ControlledAlternate { max_hops: 3 }, &params)
                    .blocking_mean(),
            )
        })
    });
    g.finish();
}

fn fig5_topology(c: &mut Criterion) {
    c.bench_function("fig5_topology_build_and_paths", |b| {
        b.iter(|| {
            let topo = topologies::nsfnet(100);
            altroute_netgraph::paths::min_hop_primaries(&topo)
        })
    });
}

fn table1(c: &mut Criterion) {
    c.bench_function("table1_reconstruction_and_levels", |b| {
        b.iter(|| {
            let fit = nsfnet_nominal_traffic();
            let levels: u32 = fit
                .achieved_loads
                .iter()
                .map(|&l| altroute_teletraffic::reservation::protection_level(l, 100, 6))
                .sum();
            (fit.relative_residual, levels)
        })
    });
}

fn fig6_nsfnet(c: &mut Criterion) {
    let params = bench_params();
    let exp = Experiment::new(topologies::nsfnet(100), nsfnet_nominal_traffic().traffic).unwrap();
    let mut g = c.benchmark_group("fig6_fig7_nsfnet");
    g.sample_size(10);
    g.bench_function("nominal_point_four_policies", |b| {
        b.iter(|| {
            (
                exp.run(PolicyKind::SinglePath, &params).blocking_mean(),
                exp.run(PolicyKind::UncontrolledAlternate { max_hops: 11 }, &params)
                    .blocking_mean(),
                exp.run(PolicyKind::ControlledAlternate { max_hops: 11 }, &params)
                    .blocking_mean(),
                exp.run(PolicyKind::OttKrishnan { max_hops: 11 }, &params)
                    .blocking_mean(),
            )
        })
    });
    g.bench_function("erlang_bound", |b| b.iter(|| exp.erlang_bound()));
    g.finish();
}

fn h6_limited(c: &mut Criterion) {
    let params = bench_params();
    let exp = Experiment::new(topologies::nsfnet(100), nsfnet_nominal_traffic().traffic).unwrap();
    let mut g = c.benchmark_group("h6_limited");
    g.sample_size(10);
    g.bench_function("controlled_h6_nominal", |b| {
        b.iter(|| {
            exp.run(PolicyKind::ControlledAlternate { max_hops: 6 }, &params)
                .blocking_mean()
        })
    });
    g.finish();
}

fn failures(c: &mut Criterion) {
    let params = bench_params();
    let base = Experiment::new(topologies::nsfnet(100), nsfnet_nominal_traffic().traffic).unwrap();
    let l23 = base.topology().link_between(2, 3).unwrap();
    let l32 = base.topology().link_between(3, 2).unwrap();
    let exp = base.with_failures(FailureSchedule::static_down([l23, l32]));
    let mut g = c.benchmark_group("failures");
    g.sample_size(10);
    g.bench_function("links_2_3_down_controlled", |b| {
        b.iter(|| {
            exp.run(PolicyKind::ControlledAlternate { max_hops: 11 }, &params)
                .blocking_mean()
        })
    });
    g.finish();
}

fn od_skewness(c: &mut Criterion) {
    let params = bench_params();
    let exp = Experiment::new(topologies::nsfnet(100), nsfnet_nominal_traffic().traffic).unwrap();
    let mut g = c.benchmark_group("od_skewness");
    g.sample_size(10);
    g.bench_function("per_pair_blocking_h6", |b| {
        b.iter(|| {
            let r = exp.run(PolicyKind::ControlledAlternate { max_hops: 6 }, &params);
            r.pair_blocking_spread()
        })
    });
    g.finish();
}

fn minloss_primaries(c: &mut Criterion) {
    let traffic = nsfnet_nominal_traffic().traffic;
    let topo = topologies::nsfnet(100);
    let mut g = c.benchmark_group("minloss_primaries");
    g.sample_size(10);
    g.bench_function("frank_wolfe_100_iters", |b| {
        b.iter(|| {
            min_loss_splits(
                &topo,
                &traffic,
                MinLossOptions {
                    max_hops: 11,
                    iterations: 100,
                    prune_below: 1e-3,
                },
            )
        })
    });
    g.finish();
}

fn channel_borrowing(c: &mut Criterion) {
    let grid = CellGrid::new(5, 5, 50);
    let loads = vec![42.0; grid.num_cells()];
    let params = CellularParams {
        warmup: 5.0,
        horizon: 20.0,
        seeds: 2,
        base_seed: 1,
    };
    let mut g = c.benchmark_group("channel_borrowing");
    g.sample_size(10);
    for policy in [BorrowPolicy::NoBorrowing, BorrowPolicy::Controlled] {
        g.bench_function(policy.name(), |b| {
            b.iter(|| {
                run_cellular(&grid, &loads, policy, &params, &Fanout::default())
                    .0
                    .blocking_mean()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    fig1_chain,
    fig2_curves,
    fig3_quadrangle,
    fig5_topology,
    table1,
    fig6_nsfnet,
    h6_limited,
    failures,
    od_skewness,
    minloss_primaries,
    channel_borrowing
);
criterion_main!(benches);
