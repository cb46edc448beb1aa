//! Online estimation of primary loads with live protection levels.
//!
//! The paper assumes each link knows its primary traffic demand `Λ^k` a
//! priori ("we simply assumed that a link knew Λ^k"), remarking that in
//! deployment "the estimate can be found from the primary call set-ups
//! that fly past the link" and leaning on the robustness of state
//! protection (Key) for the gap. This module closes that gap with the
//! resident control law of [`altrouted`]: the offered set-ups of each
//! ordered pair are counted, each pair's rate folds into an
//! exponentially weighted moving average, the per-pair estimates are
//! summed onto the links of each pair's primary path, and every
//! protection level is recomputed from the estimate via Eq. 15.
//!
//! Estimation counts *offered* set-ups (a set-up packet carries the full
//! source route, so every link of the primary learns of the attempt even
//! when an upstream link blocks it) — matching the unreduced `Λ^k` of
//! Eq. 1 that the paper's oracle uses. With unit-mean holding times the
//! offered rate in calls per unit time *is* the offered load in Erlangs.
//!
//! On the simulation kernel the controller rides a [`RouteSelector`]
//! wrapper, [`ControlledSelector`]: `observe_arrival` tallies set-ups
//! per pair, and the kernel's periodic tick hands the window to
//! [`Controller::ingest_window`] and pushes the controller's levels into
//! the [`TrunkReservation`] admission policy via `set_levels` — the
//! state-dependent tier reads them on the very next call.

use crate::engine::{Run, RunConfig};
use crate::failures::FailureSchedule;
use crate::trace::NullTraceSink;
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_core::select::TieredSelector;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_simcore::kernel::{
    AdmissionPolicy, LinkOccupancy, RouteSelector, Selection, TrunkReservation,
};
use altroute_simcore::pool::Fanout;
use altroute_simcore::stats::BlockingSummary;
use altroute_telemetry::{Recorder, RunTelemetry};
use altrouted::control::{ControlPlane, Controller, ControllerTuning, LevelsUpdate};

/// Configuration of the adaptive controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// How often (simulation time units, i.e. mean holding times) the
    /// controller re-estimates the loads and recomputes `r`.
    pub update_interval: f64,
    /// EWMA weight of the newest interval's measured rate (0 < α ≤ 1).
    pub ewma_alpha: f64,
    /// Protection levels used before the first update completes.
    pub initial: InitialLevels,
}

/// What the links assume before any measurement exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialLevels {
    /// Start at `r = 0` everywhere (behave like uncontrolled routing
    /// until the first estimate lands).
    Zero,
    /// Start fully protected (behave like single-path routing at first).
    Full,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            update_interval: 5.0,
            ewma_alpha: 0.4,
            initial: InitialLevels::Zero,
        }
    }
}

/// Outcome of one adaptive replication.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveSeedResult {
    /// Calls offered / blocked in the measurement window.
    pub offered: u64,
    /// Blocked calls.
    pub blocked: u64,
    /// Final per-link load estimates (Erlangs).
    pub final_estimates: Vec<f64>,
    /// Final per-link protection levels.
    pub final_levels: Vec<u32>,
}

impl AdaptiveSeedResult {
    /// Average network blocking.
    pub fn blocking(&self) -> f64 {
        altroute_simcore::stats::blocking_ratio(self.blocked, self.offered)
    }
}

/// A selector `S` with a resident [`Controller`] riding the kernel tick:
/// arrivals are tallied per ordered pair between ticks, and each tick
/// hands the completed window to [`Controller::ingest_window`] and
/// pushes the controller's levels into the admission policy. Routing,
/// arrivals and ticks are forwarded to `S` unchanged.
///
/// The kernel's tick interval should equal the controller's window, so
/// each tick closes exactly one estimator window.
pub struct ControlledSelector<S> {
    inner: S,
    controller: Controller,
    counts: Vec<u64>,
    updates: Vec<LevelsUpdate>,
}

impl<S> ControlledSelector<S> {
    /// Wraps `inner` with `controller`.
    pub fn new(inner: S, controller: Controller) -> Self {
        let nodes = controller.plane().nodes;
        Self {
            inner,
            controller,
            counts: vec![0; nodes * nodes],
            updates: Vec::new(),
        }
    }

    /// The controller, as of the last tick.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Every level update the controller emitted, in tick order.
    pub fn updates(&self) -> &[LevelsUpdate] {
        &self.updates
    }
}

impl<'p, S: RouteSelector<'p>> RouteSelector<'p> for ControlledSelector<S> {
    fn select<A: AdmissionPolicy>(
        &mut self,
        src: usize,
        dst: usize,
        pick: f64,
        view: &LinkOccupancy,
        admission: &A,
        bandwidth: u32,
    ) -> Selection<'p> {
        self.inner
            .select(src, dst, pick, view, admission, bandwidth)
    }

    fn observe_arrival(&mut self, src: usize, dst: usize, pick: f64) {
        // Count the set-up whatever the routing outcome: the estimate is
        // of offered load.
        self.counts[src * self.controller.plane().nodes + dst] += 1;
        self.inner.observe_arrival(src, dst, pick);
    }

    fn tick<A: AdmissionPolicy>(&mut self, now: f64, admission: &mut A) {
        if let Some(update) = self.controller.ingest_window(&self.counts) {
            self.updates.push(update);
        }
        self.counts.fill(0);
        admission.set_levels(self.controller.levels());
        self.inner.tick(now, admission);
    }
}

/// Runs one replication of controlled alternate routing with *online*
/// `Λ^k` estimation instead of the oracle loads.
///
/// The plan supplies topology, primaries and candidate paths; its oracle
/// protection levels are ignored.
///
/// # Panics
///
/// Panics on inconsistent sizes, invalid configuration, or a plan whose
/// primary for some pair is split over several paths (see
/// [`ControlPlane::from_primaries`]).
pub fn run_adaptive_seed(
    plan: &RoutingPlan,
    traffic: &TrafficMatrix,
    warmup: f64,
    horizon: f64,
    seed: u64,
    failures: &FailureSchedule,
    config: &AdaptiveConfig,
) -> AdaptiveSeedResult {
    let run = RunConfig {
        plan,
        policy: adaptive_policy(plan),
        traffic,
        warmup,
        horizon,
        seed,
        failures,
    };
    adaptive_seed(Run::new(&run), plan, config)
}

/// Runs `seeds` adaptive replications (seed `i` uses `base_seed + i`)
/// as `fanout` directs and summarises their blocking — the module's one
/// replication entry. Per-seed results come back in seed order and are
/// identical for every `fanout`; with `fanout.window` set, every
/// replication also records time-resolved telemetry, merged in seed
/// order.
///
/// # Panics
///
/// As [`run_adaptive_seed`]; additionally if `seeds == 0`,
/// `fanout.workers == 0`, or a telemetry window is not positive.
#[allow(clippy::too_many_arguments)]
pub fn replicate_adaptive(
    plan: &RoutingPlan,
    traffic: &TrafficMatrix,
    warmup: f64,
    horizon: f64,
    base_seed: u64,
    seeds: u32,
    failures: &FailureSchedule,
    config: &AdaptiveConfig,
    fanout: &Fanout<'_>,
) -> (
    Vec<AdaptiveSeedResult>,
    BlockingSummary,
    Option<RunTelemetry>,
) {
    assert!(seeds > 0, "need at least one replication");
    let capacities: Vec<u32> = plan.topology().links().iter().map(|l| l.capacity).collect();
    let (per_seed, telemetry) = fanout.replicate(
        seeds as usize,
        |window| RunTelemetry::new(warmup, horizon, window, capacities.clone()),
        RunTelemetry::merge,
        |scratch, i, telemetry| {
            let config_i = RunConfig {
                plan,
                policy: adaptive_policy(plan),
                traffic,
                warmup,
                horizon,
                seed: base_seed + i as u64,
                failures,
            };
            let run = Run::new(&config_i).scratch(scratch);
            match telemetry {
                Some(t) => adaptive_seed(run.recorder(t), plan, config),
                None => adaptive_seed(run, plan, config),
            }
        },
    );
    let summary = BlockingSummary::from_counts(per_seed.iter().map(|r| (r.offered, r.blocked)));
    (per_seed, summary, telemetry)
}

/// The named policy an adaptive run stands in for: controlled alternate
/// routing at the plan's hop bound (its levels come from the controller).
fn adaptive_policy(plan: &RoutingPlan) -> PolicyKind {
    PolicyKind::ControlledAlternate {
        max_hops: plan.max_alternate_hops(),
    }
}

/// The body of every adaptive entry point: `run` (a replication on
/// `plan`) driven by a [`ControlledSelector`] over the plan's tiered
/// routing, ticking every update interval.
fn adaptive_seed<R: Recorder>(
    run: Run<'_, NullTraceSink, R>,
    plan: &RoutingPlan,
    config: &AdaptiveConfig,
) -> AdaptiveSeedResult {
    assert!(
        config.update_interval > 0.0,
        "update interval must be positive"
    );
    let plane =
        ControlPlane::from_primaries(plan.topology(), plan.primaries(), plan.max_alternate_hops());
    let mut admission = TrunkReservation::new(match config.initial {
        InitialLevels::Zero => vec![0; plane.capacities.len()],
        InitialLevels::Full => plane.capacities.clone(),
    });
    // Re-solve every window; unit mean holding, as the kernel's holds.
    let tuning = ControllerTuning {
        window: config.update_interval,
        alpha: config.ewma_alpha,
        ..ControllerTuning::default()
    };
    let mut selector =
        ControlledSelector::new(TieredSelector::new(plan), Controller::new(plane, tuning));
    let result = run
        .ticks(config.update_interval)
        .execute_with(&mut admission, &mut selector);
    AdaptiveSeedResult {
        offered: result.offered,
        blocked: result.blocked,
        final_estimates: selector.controller().loads().to_vec(),
        final_levels: admission.levels().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altroute_netgraph::estimate::nsfnet_nominal_traffic;
    use altroute_netgraph::topologies;

    fn nsfnet_plan(scale: f64) -> (RoutingPlan, TrafficMatrix) {
        let traffic = nsfnet_nominal_traffic().traffic.scaled(scale);
        let plan = RoutingPlan::min_hop(topologies::nsfnet(100), &traffic, 11);
        (plan, traffic)
    }

    #[test]
    fn estimates_converge_to_true_loads() {
        let (plan, traffic) = nsfnet_plan(1.0);
        let failures = FailureSchedule::none();
        let r = run_adaptive_seed(
            &plan,
            &traffic,
            10.0,
            100.0,
            7,
            &failures,
            &AdaptiveConfig::default(),
        );
        // Final EWMA estimates should sit near the true Λ^k.
        let mut rel_err_sum = 0.0;
        let mut counted = 0;
        for (est, &truth) in r.final_estimates.iter().zip(plan.link_loads()) {
            if truth > 20.0 {
                rel_err_sum += (est - truth).abs() / truth;
                counted += 1;
            }
        }
        let mean_rel_err = rel_err_sum / f64::from(counted);
        assert!(
            mean_rel_err < 0.15,
            "mean relative estimate error {mean_rel_err}"
        );
    }

    #[test]
    fn adaptive_blocking_tracks_oracle() {
        // The robustness claim: adaptive controlled routing performs
        // close to the oracle-Λ controlled scheme.
        let (plan, traffic) = nsfnet_plan(1.0);
        let failures = FailureSchedule::none();
        let mut adaptive_blocked = 0u64;
        let mut adaptive_offered = 0u64;
        let mut oracle_blocked = 0u64;
        let mut oracle_offered = 0u64;
        for seed in 0..4 {
            let a = run_adaptive_seed(
                &plan,
                &traffic,
                10.0,
                60.0,
                seed,
                &failures,
                &AdaptiveConfig::default(),
            );
            adaptive_blocked += a.blocked;
            adaptive_offered += a.offered;
            let o = crate::engine::run_seed(&crate::engine::RunConfig {
                plan: &plan,
                policy: PolicyKind::ControlledAlternate { max_hops: 11 },
                traffic: &traffic,
                warmup: 10.0,
                horizon: 60.0,
                seed,
                failures: &failures,
            });
            oracle_blocked += o.blocked;
            oracle_offered += o.offered;
        }
        assert_eq!(
            adaptive_offered, oracle_offered,
            "common random numbers hold"
        );
        let adaptive = adaptive_blocked as f64 / adaptive_offered as f64;
        let oracle = oracle_blocked as f64 / oracle_offered as f64;
        assert!(
            (adaptive - oracle).abs() < 0.03,
            "adaptive {adaptive} vs oracle {oracle}"
        );
    }

    #[test]
    fn pinned_outcomes_for_one_nsfnet_seed() {
        // Exact counters and levels of one replication under both
        // initial-level modes, so a change to the control law that moves
        // any call or level shows up here rather than in a tolerance.
        // Same arrivals, slightly different blocking, and the same final
        // levels: the initial levels are forgotten once estimates land.
        let (plan, traffic) = nsfnet_plan(1.0);
        let failures = FailureSchedule::none();
        let levels = vec![
            10, 8, 10, 32, 3, 3, 4, 4, 2, 2, 4, 4, 6, 6, 92, 100, 14, 27, 10, 9, 8, 12, 4, 3, 100,
            100, 4, 4, 100, 100,
        ];
        for (initial, blocked) in [(InitialLevels::Zero, 6733), (InitialLevels::Full, 6724)] {
            let r = run_adaptive_seed(
                &plan,
                &traffic,
                10.0,
                60.0,
                5,
                &failures,
                &AdaptiveConfig {
                    initial,
                    ..Default::default()
                },
            );
            assert_eq!(
                (r.offered, r.blocked, &r.final_levels),
                (55839, blocked, &levels),
                "{initial:?}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (plan, traffic) = nsfnet_plan(0.8);
        let failures = FailureSchedule::none();
        let cfg = AdaptiveConfig::default();
        let a = run_adaptive_seed(&plan, &traffic, 5.0, 30.0, 11, &failures, &cfg);
        let b = run_adaptive_seed(&plan, &traffic, 5.0, 30.0, 11, &failures, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_recorder_sees_adaptive_run() {
        // The kernel port threads the Recorder through: a real recorder
        // must observe arrivals without perturbing the result, on any
        // worker count.
        let (plan, traffic) = nsfnet_plan(0.8);
        let failures = FailureSchedule::none();
        let cfg = AdaptiveConfig::default();
        let plain: Vec<_> = (11..14)
            .map(|seed| run_adaptive_seed(&plan, &traffic, 5.0, 30.0, seed, &failures, &cfg))
            .collect();
        for workers in [1, 3] {
            let fanout = Fanout {
                workers,
                window: Some(5.0),
                ..Fanout::default()
            };
            let (recorded, summary, telemetry) =
                replicate_adaptive(&plan, &traffic, 5.0, 30.0, 11, 3, &failures, &cfg, &fanout);
            assert_eq!(recorded, plain, "recorder must be a pure observer");
            assert_eq!(summary.replications(), 3);
            let offered: u64 = plain.iter().map(|r| r.offered).sum();
            assert_eq!(
                telemetry.expect("a window records telemetry").offered,
                offered,
                "recorder counted the measured arrivals"
            );
        }
    }

    #[test]
    #[should_panic(expected = "update interval")]
    fn zero_interval_panics() {
        let (plan, traffic) = nsfnet_plan(1.0);
        run_adaptive_seed(
            &plan,
            &traffic,
            1.0,
            5.0,
            0,
            &FailureSchedule::none(),
            &AdaptiveConfig {
                update_interval: 0.0,
                ..Default::default()
            },
        );
    }
}
