//! Throughput benchmarks of the simulation engine.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::engine::{run_seed, RunConfig};
use altroute_sim::failures::FailureSchedule;
use altroute_simcore::queue::EventQueue;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u32 {
                q.schedule(f64::from(i % 97), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc += u64::from(e);
            }
            acc
        })
    });
}

fn bench_run_seed(c: &mut Criterion) {
    let failures = FailureSchedule::none();
    let mut g = c.benchmark_group("run_seed");
    g.sample_size(10);

    // Quadrangle at the critical load: ~ 12 pairs x 90 Erlangs x 25 units.
    let quad_traffic = TrafficMatrix::uniform(4, 90.0);
    let quad_plan = RoutingPlan::min_hop(topologies::quadrangle(), &quad_traffic, 3);
    for kind in [
        PolicyKind::SinglePath,
        PolicyKind::UncontrolledAlternate { max_hops: 3 },
        PolicyKind::ControlledAlternate { max_hops: 3 },
        PolicyKind::OttKrishnan { max_hops: 3 },
    ] {
        g.bench_function(format!("quadrangle_{}", kind.name()), |b| {
            b.iter(|| {
                run_seed(&RunConfig {
                    plan: &quad_plan,
                    policy: kind,
                    traffic: &quad_traffic,
                    warmup: 5.0,
                    horizon: 20.0,
                    seed: black_box(1),
                    failures: &failures,
                })
            })
        });
    }

    // NSFNet at nominal load.
    let nsf_traffic = altroute_netgraph::estimate::nsfnet_nominal_traffic().traffic;
    let nsf_plan = RoutingPlan::min_hop(topologies::nsfnet(100), &nsf_traffic, 11);
    for kind in [
        PolicyKind::SinglePath,
        PolicyKind::ControlledAlternate { max_hops: 11 },
    ] {
        g.bench_function(format!("nsfnet_{}", kind.name()), |b| {
            b.iter(|| {
                run_seed(&RunConfig {
                    plan: &nsf_plan,
                    policy: kind,
                    traffic: &nsf_traffic,
                    warmup: 5.0,
                    horizon: 20.0,
                    seed: black_box(1),
                    failures: &failures,
                })
            })
        });
    }
    g.finish();
}

/// The scalability stress the per-link teardown index was built for: a
/// long horizon (millions of offered calls) with a brief outage every
/// 2.5 time units. With teardown scanning the whole call table, each
/// outage costs O(total calls offered so far) and the run goes
/// quadratic in horizon; with the per-link index each outage only walks
/// that link's live calls.
fn bench_outage_churn(c: &mut Criterion) {
    let traffic = TrafficMatrix::uniform(4, 90.0);
    let plan = RoutingPlan::min_hop(topologies::quadrangle(), &traffic, 3);
    let link01 = plan
        .topology()
        .link_between(0, 1)
        .expect("quadrangle has 0-1");
    let horizon = 3000.0;
    let mut failures = FailureSchedule::none();
    let mut down = 10.0;
    while down + 1.0 < horizon {
        failures = failures.with_outage(link01, down, down + 1.0);
        down += 2.5;
    }

    let mut g = c.benchmark_group("outage_churn");
    g.sample_size(10);
    g.bench_function("quadrangle_controlled_3000u_1196_outages", |b| {
        b.iter(|| {
            run_seed(&RunConfig {
                plan: &plan,
                policy: PolicyKind::ControlledAlternate { max_hops: 3 },
                traffic: &traffic,
                warmup: 5.0,
                horizon,
                seed: black_box(1),
                failures: &failures,
            })
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_run_seed,
    bench_outage_churn
);
criterion_main!(benches);
