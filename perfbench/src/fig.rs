//! The paper-figure sweeps: Fig. 3 on the fully connected quadrangle and
//! Fig. 6 on NSFNet.
//!
//! One work unit produces one figure: every policy at every load point,
//! the replications of each (load, policy) cell fanned over the
//! `simcore::pool` workers exactly as `Experiment::run` fans them, plus
//! the Erlang cut-set bound of each point. Set-up builds every cell's
//! `RoutingPlan` and warms its PathStore, so the unit's wall time is
//! the figure's own.

use crate::layers::{fingerprint, ns_since, reach, traced_replication, Trace, Twin};
use crate::{Unit, Workload};
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_experiments::{nsfnet_experiment, policy_set};
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::engine::{run_seed_pooled, RunConfig, SeedResult};
use altroute_sim::experiment::{Experiment, SimParams};
use altroute_sim::failures::FailureSchedule;
use altroute_simcore::kernel::KernelScratch;
use altroute_simcore::pool::{pool_run_with, ProgressObserver};
use altroute_simcore::stats::Replications;
use altroute_teletraffic::estimate::protection_levels_for;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// A blocking-versus-load sweep.
pub struct Fig {
    make: fn(f64) -> Experiment,
    loads: Vec<f64>,
    policies: Vec<PolicyKind>,
    params: SimParams,
    workers: usize,
    no_failures: FailureSchedule,
    /// Fingerprints of the first unit's replications, which every later
    /// unit must reproduce.
    first: Mutex<Option<Vec<u64>>>,
}

/// One load point: its instance and one warmed plan per policy.
pub struct Point {
    exp: Experiment,
    plans: Vec<RoutingPlan>,
}

/// Set-up output plus the previous unit's replications, which a traced
/// unit must reproduce.
pub struct FigState {
    points: Vec<Point>,
    /// Replications of the latest untraced unit, in (load, policy,
    /// seed) order.
    last: Vec<Twin>,
}

fn quadrangle_experiment(load: f64) -> Experiment {
    Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, load))
        .expect("the quadrangle instance is valid")
}

/// Replication seeds derived from `--seed`; nearby values never share a
/// replication seed.
fn base_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 8
}

/// Fills the candidate sets of every demanded pair.
fn warm(plan: &RoutingPlan, traffic: &TrafficMatrix) {
    for (i, j, _) in traffic.demands() {
        black_box(plan.candidates(i, j));
    }
}

/// Remembers when the last replication of a pool run finished.
struct Completions(Mutex<Option<Instant>>);

impl ProgressObserver for Completions {
    fn replication_done(&self, _completed: usize, _total: usize) {
        *self.0.lock().expect("no panic while holding the lock") = Some(Instant::now());
    }
}

impl Fig {
    /// Fig. 3: K4, C = 100, H = 3, load 40…110 step 5; single-path,
    /// uncontrolled, and controlled.
    pub fn quadrangle(seed: u64, workers: usize) -> Self {
        Self::new(
            quadrangle_experiment,
            (8..=22).map(|i| f64::from(i) * 5.0).collect(),
            policy_set(3, false),
            (4.0, 20.0, 4),
            seed,
            workers,
        )
    }

    /// Fig. 6: NSFNet, H = 11, load 2…14; the three policies plus
    /// Ott–Krishnan.
    pub fn nsfnet(seed: u64, workers: usize) -> Self {
        Self::new(
            nsfnet_experiment,
            (2..=14).map(f64::from).collect(),
            policy_set(11, true),
            (2.0, 10.0, 3),
            seed,
            workers,
        )
    }

    /// A two-point quadrangle sweep, for probing the kernel, pool, and
    /// store layers from workloads that do not reach them.
    pub fn probe(seed: u64, workers: usize) -> Self {
        Self::new(
            quadrangle_experiment,
            vec![70.0, 100.0],
            policy_set(3, false),
            (2.0, 10.0, 2),
            seed,
            workers,
        )
    }

    fn new(
        make: fn(f64) -> Experiment,
        loads: Vec<f64>,
        policies: Vec<PolicyKind>,
        (warmup, horizon, seeds_per_worker): (f64, f64, usize),
        seed: u64,
        workers: usize,
    ) -> Self {
        let seeds = u32::try_from(seeds_per_worker * workers).expect("seed count fits u32");
        Self {
            make,
            loads,
            policies,
            params: SimParams {
                warmup,
                horizon,
                seeds,
                base_seed: base_seed(seed),
            },
            workers,
            no_failures: FailureSchedule::none(),
            first: Mutex::new(None),
        }
    }

    fn build(&self) -> Vec<Point> {
        self.loads
            .iter()
            .map(|&load| {
                let exp = (self.make)(load);
                let plans = self.policies.iter().map(|&k| exp.plan_for(k)).collect();
                Point { exp, plans }
            })
            .collect()
    }

    fn config<'a>(&'a self, point: &'a Point, k: usize, i: usize) -> RunConfig<'a> {
        RunConfig {
            plan: &point.plans[k],
            policy: self.policies[k],
            traffic: point.exp.traffic(),
            warmup: self.params.warmup,
            horizon: self.params.horizon,
            seed: self.params.base_seed + i as u64,
            failures: &self.no_failures,
        }
    }

    fn seeds(&self) -> usize {
        self.params.seeds as usize
    }

    /// Checks one unit's results; returns the number of failed
    /// replications. A replication fails if its counters do not add
    /// up, if it differs from the first unit's, or if it belongs to a
    /// controlled cell whose mean blocking falls below the Erlang bound
    /// by more than its 95% CI (plus one blocked call's worth, the
    /// smallest blocking a replication can resolve).
    fn check(&self, results: &[SeedResult], bounds: &[f64]) -> u64 {
        let seeds = self.seeds();
        let mut bad: Vec<bool> = results
            .iter()
            .map(|r| {
                r.offered == 0
                    || r.offered != r.blocked + r.carried_primary + r.carried_alternate
                    || r.metrics.events_processed == 0
            })
            .collect();
        let prints: Vec<u64> = results.iter().map(fingerprint).collect();
        let mut first = self.first.lock().expect("no panic while holding the lock");
        match &*first {
            Some(first) => {
                for (b, (p, f)) in bad.iter_mut().zip(prints.iter().zip(first)) {
                    *b |= p != f;
                }
            }
            None => *first = Some(prints),
        }
        let controlled = self
            .policies
            .iter()
            .position(|p| matches!(p, PolicyKind::ControlledAlternate { .. }))
            .expect("every sweep runs the controlled policy");
        for (p, &bound) in bounds.iter().enumerate() {
            let cell = (p * self.policies.len() + controlled) * seeds;
            let blocking: Vec<f64> = results[cell..cell + seeds]
                .iter()
                .map(SeedResult::blocking)
                .collect();
            let summary = Replications::summarize(&blocking);
            let offered = results[cell..cell + seeds].iter().map(|r| r.offered).min();
            let resolution = 1.0 / offered.unwrap_or(1).max(1) as f64;
            if summary.mean + summary.ci95_half_width + resolution < bound {
                bad[cell..cell + seeds].iter_mut().for_each(|b| *b = true);
            }
        }
        bad.iter().filter(|&&b| b).count() as u64
    }
}

impl Workload for Fig {
    type State = FigState;
    const REACH: u8 = reach::KERNEL | reach::POOL | reach::STORE | reach::EQ15;

    fn setup(&self) -> FigState {
        let points = self.build();
        for point in &points {
            for plan in &point.plans {
                warm(plan, point.exp.traffic());
            }
        }
        FigState {
            points,
            last: Vec::new(),
        }
    }

    fn run(&self, state: &mut FigState) -> Unit {
        let started = Instant::now();
        let mut results = Vec::new();
        let mut ops = Vec::new();
        let mut bounds = Vec::new();
        for point in &state.points {
            for k in 0..self.policies.len() {
                let cell = pool_run_with(
                    self.seeds(),
                    self.workers,
                    None,
                    KernelScratch::new,
                    |scratch, i| {
                        let t = Instant::now();
                        let r = run_seed_pooled(&self.config(point, k, i), scratch);
                        (r, t.elapsed().as_secs_f64())
                    },
                );
                let blocking: Vec<f64> = cell.iter().map(|(r, _)| r.blocking()).collect();
                black_box(Replications::summarize(&blocking));
                for (r, wall) in cell {
                    results.push(r);
                    ops.push(wall);
                }
            }
            bounds.push(point.exp.erlang_bound());
        }
        let wall_s = started.elapsed().as_secs_f64();
        let failed = self.check(&results, &bounds);
        let unit = Unit {
            wall_s,
            events: results.iter().map(|r| r.metrics.events_processed).sum(),
            ops,
            attempted: results.len() as u64,
            failed,
        };
        state.last = results.iter().map(Twin::of).collect();
        unit
    }

    fn trace_setup(&self, trace: &mut Trace) {
        let mut points = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            points = self.build();
            trace.plan_build_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            for point in &points {
                for plan in &point.plans {
                    warm(plan, point.exp.traffic());
                }
            }
            trace.fill_s.push(t.elapsed().as_secs_f64());
        }
        let (mut lookups, t) = (0u64, Instant::now());
        while lookups < 200_000 {
            for point in &points {
                for plan in &point.plans {
                    for (i, j, _) in point.exp.traffic().demands() {
                        black_box(plan.candidates(i, j));
                        lookups += 1;
                    }
                }
            }
        }
        trace.lookup_ns.push(ns_since(t) as f64 / lookups as f64);
        let (mut solves, t) = (0u64, Instant::now());
        while solves < 2_000 {
            for point in &points {
                for (plan, policy) in point.plans.iter().zip(&self.policies) {
                    let Some(h) = policy.max_hops() else { continue };
                    let caps: Vec<u32> =
                        plan.topology().links().iter().map(|l| l.capacity).collect();
                    black_box(protection_levels_for(plan.link_loads(), &caps, h));
                    solves += 1;
                }
            }
        }
        trace.eq15_us.push(ns_since(t) as f64 / solves as f64 / 1e3);
    }

    fn traced(&self, state: &mut FigState, trace: &mut Trace) -> Unit {
        let started = Instant::now();
        let unit_span = trace.span("unit", String::new(), None, started, 0, Vec::new());
        let seeds = self.seeds();
        let last_point = state.points.len() - 1;
        let controlled = self
            .policies
            .iter()
            .position(|p| matches!(p, PolicyKind::ControlledAlternate { .. }));
        let (mut failed, mut attempted, mut events) = (0u64, 0u64, 0u64);
        let mut ops = Vec::new();
        for (p, point) in state.points.iter().enumerate() {
            let point_start = Instant::now();
            let load = self.loads[p];
            let point_span = trace.span(
                "point",
                format!("load={load}"),
                unit_span,
                point_start,
                0,
                Vec::new(),
            );
            for k in 0..self.policies.len() {
                // The event stream of the heaviest controlled cell's first
                // seed feeds the queue replay.
                let record_cell = p == last_point && Some(k) == controlled;
                let completions = Completions(Mutex::new(None));
                let pool_start = Instant::now();
                let cell = pool_run_with(
                    seeds,
                    self.workers,
                    Some(&completions),
                    || (),
                    |(), i| {
                        let start = Instant::now();
                        let (r, rep) =
                            traced_replication(&self.config(point, k, i), record_cell && i == 0);
                        (r, rep, start)
                    },
                );
                let done = completions
                    .0
                    .into_inner()
                    .expect("no panic while holding the lock");
                let pool_wall = done.map_or(0.0, |d| d.duration_since(pool_start).as_secs_f64());
                trace.pool_capacity_s += pool_wall * self.workers.min(seeds) as f64;
                for (i, (r, rep, start)) in cell.into_iter().enumerate() {
                    let twin = &state.last[(p * self.policies.len() + k) * seeds + i];
                    attempted += 1;
                    failed += u64::from(fingerprint(&r) != twin.print);
                    trace.pool_busy_s += rep.wall_s;
                    events += r.metrics.events_processed;
                    ops.push(rep.wall_s);
                    if let Some(stream) = &rep.stream {
                        failed += u64::from(!trace.add_stream(stream));
                    }
                    trace.add_replication(
                        &rep,
                        &r,
                        twin.kernel_s,
                        format!("load={load} policy={} seed={i}", self.policies[k].name()),
                        point_span,
                        start,
                    );
                }
            }
            black_box(point.exp.erlang_bound());
            if let Some(s) = point_span {
                trace.spans[s].dur_ns = ns_since(point_start);
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        if let Some(s) = unit_span {
            trace.spans[s].dur_ns = ns_since(started);
        }
        Unit {
            wall_s,
            events,
            ops,
            attempted,
            failed,
        }
    }
}
