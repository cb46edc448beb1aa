//! Telemetry must be a pure observation: recording everything changes
//! nothing, and the snapshot is a deterministic function of the run's
//! inputs regardless of how replications are scheduled onto workers.

use altroute_core::policy::PolicyKind;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::experiment::{Experiment, ExperimentResult, Fanout, SimParams};
use altroute_sim::failures::FailureSchedule;
use altroute_sim::multirate::{self, run_multirate, BandwidthClass};
use altroute_sim::{run_seed, Run, RunConfig};
use altroute_telemetry::{NullRecorder, RunTelemetry};

fn quad(load: f64) -> Experiment {
    Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, load))
        .expect("quadrangle instance is valid")
}

/// The fan-out of `workers` threads recording on `window`-wide windows.
fn recording(window: f64, workers: usize) -> Fanout<'static> {
    Fanout {
        workers,
        window: Some(window),
        ..Fanout::default()
    }
}

/// `exp.replicate` with telemetry on `window`-wide windows over
/// `workers` threads.
fn recorded(
    exp: &Experiment,
    kind: PolicyKind,
    params: &SimParams,
    window: f64,
    workers: usize,
) -> (ExperimentResult, RunTelemetry) {
    let (r, t) = exp.replicate(kind, params, &recording(window, workers));
    (r, t.expect("a window records telemetry"))
}

#[test]
fn recorders_do_not_perturb_seed_results() {
    let exp = quad(85.0);
    let kind = PolicyKind::ControlledAlternate { max_hops: 3 };
    let plan = exp.plan_for(kind);
    let failures = FailureSchedule::none();
    for seed in [1u64, 99, 0xBEEF] {
        let config = RunConfig {
            plan: &plan,
            policy: kind,
            traffic: exp.traffic(),
            warmup: 3.0,
            horizon: 20.0,
            seed,
            failures: &failures,
        };
        let plain = run_seed(&config);
        let with_null = Run::new(&config).recorder(NullRecorder).execute();
        let mut telemetry =
            RunTelemetry::new(3.0, 20.0, 2.0, vec![100; exp.topology().num_links()]);
        let with_full = Run::new(&config).recorder(&mut telemetry).execute();
        assert_eq!(plain, with_null, "null recorder changed the run");
        assert_eq!(plain, with_full, "full recorder changed the run");
        assert_eq!(plain.metrics, with_full.metrics);
        assert!(telemetry.is_finished());
        // The recorder saw every measured arrival the engine counted.
        assert_eq!(telemetry.offered, plain.offered);
        assert_eq!(telemetry.blocked, plain.blocked);
        assert_eq!(telemetry.carried_primary, plain.carried_primary);
        assert_eq!(telemetry.carried_alternate, plain.carried_alternate);
        assert_eq!(telemetry.dropped, plain.dropped);
        // Series cover warm-up too, so they count at least the measured
        // calls; every offered call landed in some window.
        assert!(telemetry.offered_series.total() >= plain.offered);
        assert_eq!(
            telemetry.offered_series.total(),
            telemetry.holding_time.count() + telemetry.blocked_series.total()
        );
    }
}

#[test]
fn telemetry_is_bit_identical_across_worker_counts() {
    let exp = quad(85.0);
    let params = SimParams {
        warmup: 2.0,
        horizon: 15.0,
        seeds: 8,
        base_seed: 0xF00D,
    };
    for kind in [
        PolicyKind::SinglePath,
        PolicyKind::ControlledAlternate { max_hops: 3 },
    ] {
        let (r1, t1) = recorded(&exp, kind, &params, 2.5, 1);
        for workers in [2, 4, 16] {
            let (rn, tn) = recorded(&exp, kind, &params, 2.5, workers);
            assert_eq!(r1.per_seed, rn.per_seed, "{kind:?}: results diverged");
            assert_eq!(t1, tn, "{kind:?}: telemetry diverged at {workers} workers");
        }
        // Telemetry collection itself must not perturb results either.
        let fanout = Fanout {
            workers: 4,
            ..Fanout::default()
        };
        let (plain, none) = exp.replicate(kind, &params, &fanout);
        assert_eq!(plain.per_seed, r1.per_seed);
        assert!(none.is_none(), "no window, no telemetry");
    }
    // The multirate simulator takes the same fan-out: its worker count
    // reaches the pool (with or without telemetry) and changes nothing.
    let topo = topologies::quadrangle();
    let classes = [
        BandwidthClass {
            bandwidth: 1,
            traffic: TrafficMatrix::uniform(4, 40.0),
        },
        BandwidthClass {
            bandwidth: 4,
            traffic: TrafficMatrix::uniform(4, 5.0),
        },
    ];
    let params = SimParams {
        warmup: 2.0,
        horizon: 15.0,
        seeds: 8,
        base_seed: 0xF00D,
    };
    let plan = multirate::plan(&topo, &classes, 3);
    let failures = FailureSchedule::none();
    for policy in [
        PolicyKind::SinglePath,
        PolicyKind::ControlledAlternate { max_hops: 3 },
    ] {
        let run = |fanout: Fanout<'_>| {
            run_multirate(&plan, &classes, policy, &params, &failures, &fanout)
        };
        let (r1, t1) = run(recording(2.5, 1));
        let t1 = t1.expect("a window records telemetry");
        assert!(t1.offered > 0);
        for workers in [2, 4, 16] {
            let (rn, tn) = run(recording(2.5, workers));
            assert_eq!(r1, rn, "{policy:?}: results diverged at {workers} workers");
            assert_eq!(
                Some(&t1),
                tn.as_ref(),
                "{policy:?}: telemetry diverged at {workers} workers"
            );
        }
        let (plain, _) = run(Fanout {
            workers: 4,
            ..Fanout::default()
        });
        assert_eq!(plain, r1, "{policy:?}: telemetry perturbed the results");
    }
}

#[test]
fn windows_align_with_warmup_and_horizon_edges() {
    let exp = quad(70.0);
    let params = SimParams {
        warmup: 4.0,
        horizon: 10.0,
        seeds: 2,
        base_seed: 11,
    };
    let window = 2.0;
    let (_, t) = recorded(
        &exp,
        PolicyKind::ControlledAlternate { max_hops: 3 },
        &params,
        window,
        2,
    );
    let grid = t.grid();
    assert_eq!(grid.end(), 14.0);
    assert_eq!(grid.num_windows(), 7);
    // The warm-up boundary falls exactly between windows 1 and 2.
    assert_eq!(grid.window_range(2).0, params.warmup);
    // Measured counters equal the sum of the post-warm-up windows: no
    // arrival leaked across the warm-up edge.
    let measured_offered: u64 = (2..7).map(|k| t.offered_series.counts()[k]).sum();
    let measured_blocked: u64 = (2..7).map(|k| t.blocked_series.counts()[k]).sum();
    assert_eq!(measured_offered, t.offered);
    assert_eq!(measured_blocked, t.blocked);
    // Occupancy integrals cover the full horizon for every link.
    for l in 0..t.capacities.len() {
        let covered: f64 = (0..7).map(|k| grid.window_len(k)).sum();
        assert!((covered - 14.0).abs() < 1e-12);
        let u = t.overall_utilization(l);
        assert!((0.0..=1.0).contains(&u), "link {l} utilization {u}");
    }
}

#[test]
fn outage_window_shows_elevated_blocking() {
    // The acceptance scenario: quadrangle under uniform load with the
    // 0<->1 duplex pair down over [40, 70). Per-window blocking must be
    // visibly elevated during the outage and recover after repair.
    let l01 = topologies::quadrangle().link_between(0, 1).unwrap();
    let l10 = topologies::quadrangle().link_between(1, 0).unwrap();
    let exp = quad(85.0).with_failures(
        FailureSchedule::none()
            .with_outage(l01, 40.0, 70.0)
            .with_outage(l10, 40.0, 70.0),
    );
    let params = SimParams {
        warmup: 10.0,
        horizon: 100.0,
        seeds: 3,
        base_seed: 42,
    };
    let (_, t) = recorded(
        &exp,
        PolicyKind::ControlledAlternate { max_hops: 3 },
        &params,
        5.0,
        4,
    );
    let grid = t.grid();
    let mean_blocking = |lo: f64, hi: f64| {
        let ks: Vec<usize> = (0..grid.num_windows())
            .filter(|&k| grid.window_range(k).0 >= lo && grid.window_range(k).1 <= hi)
            .collect();
        assert!(!ks.is_empty());
        ks.iter().map(|&k| t.window_blocking(k)).sum::<f64>() / ks.len() as f64
    };
    let during = mean_blocking(40.0, 70.0);
    let after = mean_blocking(75.0, 110.0);
    assert!(
        during > 3.0 * after + 0.01,
        "outage blocking {during} not elevated over post-repair {after}"
    );
    // The teardown series fires only at the outage onset.
    let onset = grid.index(40.0);
    assert!(t.teardown_series.counts()[onset] > 0);
    let teardowns_elsewhere: u64 = (0..grid.num_windows())
        .filter(|&k| k != onset)
        .map(|k| t.teardown_series.counts()[k])
        .sum();
    assert_eq!(teardowns_elsewhere, 0);
}

#[test]
fn spans_cover_every_experiment_phase() {
    let exp = quad(60.0);
    let params = SimParams {
        warmup: 2.0,
        horizon: 8.0,
        seeds: 3,
        base_seed: 5,
    };
    let (_, t) = recorded(&exp, PolicyKind::SinglePath, &params, 2.0, 2);
    for phase in [
        "plan_build",
        "seed_warmup",
        "seed_measurement",
        "replication_fan_out",
        "aggregation",
    ] {
        let s = t
            .spans
            .get(phase)
            .unwrap_or_else(|| panic!("missing span {phase}"));
        assert!(s.secs >= 0.0);
        assert!(s.count >= 1);
    }
    // Per-seed spans were recorded once per replication.
    assert_eq!(t.spans.get("seed_measurement").unwrap().count, 3);
    assert_eq!(t.spans.get("plan_build").unwrap().count, 1);
}
