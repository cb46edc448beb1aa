//! Telemetry overhead: the same replication with a no-op recorder, with
//! full [`RunTelemetry`] recording, and through the plain `run_seed`
//! entry point (which must monomorphize to the no-op cost exactly).
//!
//! The quadrangle scenario at critical load processes ~100k events per
//! replication, so per-event recording costs dominate; the measured gap
//! between `plain` and `full` is the number DESIGN.md quotes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::engine::{run_seed, Run, RunConfig};
use altroute_sim::failures::FailureSchedule;
use altroute_telemetry::{NullRecorder, RunTelemetry};

fn bench_recorder_overhead(c: &mut Criterion) {
    let failures = FailureSchedule::none();
    let traffic = TrafficMatrix::uniform(4, 90.0);
    let plan = RoutingPlan::min_hop(topologies::quadrangle(), &traffic, 3);
    let num_links = plan.topology().num_links();
    let config = |seed: u64| RunConfig {
        plan: &plan,
        policy: PolicyKind::ControlledAlternate { max_hops: 3 },
        traffic: &traffic,
        warmup: 5.0,
        horizon: 20.0,
        seed,
        failures: &failures,
    };

    let mut g = c.benchmark_group("telemetry_overhead");
    g.sample_size(10);
    g.bench_function("plain_run_seed", |b| {
        b.iter(|| run_seed(&config(black_box(1))))
    });
    g.bench_function("null_recorder", |b| {
        b.iter(|| {
            Run::new(&config(black_box(1)))
                .recorder(NullRecorder)
                .execute()
        })
    });
    g.bench_function("full_telemetry", |b| {
        b.iter(|| {
            let mut t = RunTelemetry::new(5.0, 20.0, 1.0, vec![100; num_links]);
            Run::new(&config(black_box(1))).recorder(&mut t).execute()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_recorder_overhead);
criterion_main!(benches);
