//! The closed-loop demonstration: online Eq.-15 recomputation inside a
//! running simulation.
//!
//! The metastability tier ([`crate::metastability`]) shows that Eq.-15
//! trunk reservation rescues a saturated start — but there the
//! protection levels are *provisioned*, computed offline from the known
//! offered matrix. This tier closes the loop the paper's control story
//! implies: the run starts saturated with **all-zero** levels and an
//! [`altrouted`] [`Controller`] riding the kernel's periodic tick. The
//! controller estimates per-pair arrival rates from the arrivals it
//! observes, re-solves Eq. 15 at every window boundary, and pushes the
//! fresh `r^k` through [`AdmissionPolicy::set_levels`] mid-run. No level
//! is ever set by hand.
//!
//! Two arms, same seeds, same saturated start, same best-of-`d`
//! selector:
//!
//! | arm    | levels                       | expected mode        |
//! |--------|------------------------------|----------------------|
//! | static | `r = 0` for the whole run    | high (stuck)         |
//! | online | re-estimated every window    | low (escapes)        |
//!
//! The online arm's escape is detector-visible (a recorded high → low
//! switch), which is what the `altrouted-smoke` CI stage asserts.

use crate::metastability::MetastabilityConfig;
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_core::select::BestOfDSelector;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::engine::{Run, RunConfig, BOD_SAMPLE_STREAM};
use altroute_sim::failures::FailureSchedule;
use altroute_simcore::kernel::{
    AdmissionPolicy, LinkOccupancy, RouteSelector, Selection, TrunkReservation,
};
use altroute_simcore::rng::StreamFactory;
use altroute_telemetry::serve::{LiveRecorder, MetricsServer};
use altroute_telemetry::{ModeReport, RunTelemetry};
use altrouted::config::mesh_plane;
use altrouted::control::{Controller, ControllerTuning, LevelsUpdate};

/// Parameters of the closed-loop demonstration. The mesh, load, seeds,
/// and detector come from the metastability configuration; only the
/// controller cadence is new.
#[derive(Debug, Clone)]
pub struct ControlledConfig {
    /// The shared instance (both arms run it saturated).
    pub meta: MetastabilityConfig,
    /// Controller re-solve cadence, in completed estimator windows.
    pub recompute_every: u32,
    /// Controller EWMA weight on the newest window.
    pub alpha: f64,
}

impl ControlledConfig {
    /// The CI-sized instance: the metastability smoke mesh, re-solving
    /// at every telemetry window boundary.
    pub fn smoke() -> Self {
        Self {
            meta: MetastabilityConfig::smoke(),
            recompute_every: 1,
            alpha: 1.0,
        }
    }

    /// Looks up a named preset (`smoke`).
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            _ => None,
        }
    }
}

/// A best-of-`d` selector with a resident [`Controller`] riding the
/// kernel tick: arrivals are tallied per ordered pair between ticks,
/// and each tick hands the completed window to the controller, pushing
/// any resulting level change into the admission policy mid-run.
struct ControlledSelector<'p> {
    inner: BestOfDSelector<'p>,
    controller: Controller,
    counts: Vec<u64>,
    updates: Vec<LevelsUpdate>,
}

impl<'p> RouteSelector<'p> for ControlledSelector<'p> {
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
        let n = self.controller.plane().nodes;
        self.counts[src * n + dst] += 1;
        self.inner.observe_arrival(src, dst, pick);
    }

    fn tick<A: AdmissionPolicy>(&mut self, now: f64, admission: &mut A) {
        if let Some(update) = self.controller.ingest_window(&self.counts) {
            admission.set_levels(&update.levels);
            self.updates.push(update);
        }
        self.counts.fill(0);
        self.inner.tick(now, admission);
    }
}

/// One arm of the closed-loop demonstration.
#[derive(Debug, Clone)]
pub struct ControlledArm {
    /// `static` (levels frozen at zero) or `online` (controller active).
    pub name: &'static str,
    /// Network blocking over the whole horizon, summed across seeds.
    pub blocking: f64,
    /// Fraction of carried calls routed on two-link alternates.
    pub alternate_fraction: f64,
    /// The mode detector's account of the merged occupancy series.
    pub modes: ModeReport,
    /// Mean network utilization over the final quarter of the horizon.
    pub tail_utilization: f64,
    /// The merged across-seed telemetry snapshot.
    pub telemetry: RunTelemetry,
}

/// The two-arm closed-loop report.
#[derive(Debug, Clone)]
pub struct ControlledReport {
    /// The configuration that produced it.
    pub config: ControlledConfig,
    /// The frozen `r = 0` baseline.
    pub static_arm: ControlledArm,
    /// The controller-driven arm.
    pub online_arm: ControlledArm,
    /// The first replication's level-update sequence (all replications
    /// contribute to `update_count`).
    pub updates: Vec<LevelsUpdate>,
    /// Level updates emitted across every replication of the online arm.
    pub update_count: u64,
    /// The online arm's levels after its final replication.
    pub final_levels: Vec<u32>,
}

struct ArmTotals {
    offered: u64,
    blocked: u64,
    alternate: u64,
    telemetry: RunTelemetry,
}

fn finish_arm(name: &'static str, cfg: &MetastabilityConfig, t: ArmTotals) -> ControlledArm {
    let modes = t.telemetry.mode_report(cfg.thresholds);
    let windows = t.telemetry.grid().num_windows();
    let tail = windows - (windows / 4).max(1);
    let tail_utilization = (tail..windows)
        .map(|k| t.telemetry.window_network_utilization(k))
        .sum::<f64>()
        / (windows - tail) as f64;
    let carried = t.offered - t.blocked;
    ControlledArm {
        name,
        blocking: altroute_simcore::stats::blocking_ratio(t.blocked, t.offered),
        alternate_fraction: if carried == 0 {
            0.0
        } else {
            t.alternate as f64 / carried as f64
        },
        modes,
        tail_utilization,
        telemetry: t.telemetry,
    }
}

/// Runs the closed-loop demonstration.
pub fn run_controlled(cfg: &ControlledConfig) -> ControlledReport {
    run_controlled_served(cfg, None)
}

/// As [`run_controlled`], publishing live window snapshots and phase
/// progress to `server`. The report is byte-identical with or without a
/// server.
pub fn run_controlled_served(
    cfg: &ControlledConfig,
    server: Option<&MetricsServer>,
) -> ControlledReport {
    let meta = &cfg.meta;
    let topo = topologies::full_mesh(meta.nodes, meta.capacity);
    let traffic = TrafficMatrix::uniform(meta.nodes, meta.load_per_pair);
    let base_plan = RoutingPlan::min_hop_capped(topo, &traffic, 2, meta.candidate_cap);
    let num_links = base_plan.topology().num_links();
    // Both arms route on the unprotected plan: every level either stays
    // zero (static) or comes from the controller (online) — never from
    // provisioning.
    let plan = base_plan.with_protection_levels(vec![0u32; num_links]);
    let capacities: Vec<u32> = plan.topology().links().iter().map(|l| l.capacity).collect();
    let initial = capacities.clone(); // saturated start, both arms
    let failures = FailureSchedule::none();
    let tuning = ControllerTuning {
        window: meta.window,
        recompute_every: cfg.recompute_every,
        alpha: cfg.alpha,
        mean_holding: 1.0, // the kernel's unit-mean exponential holds
    };
    if let Some(server) = server {
        let total = 2 * meta.seeds as usize;
        server.update_status(|s| {
            s.replications_total = total;
            s.sim_end = meta.horizon;
        });
    }

    let mut updates: Vec<LevelsUpdate> = Vec::new();
    let mut update_count = 0u64;
    let mut final_levels: Vec<u32> = vec![0; num_links];
    let mut arms: Vec<ControlledArm> = Vec::with_capacity(2);
    let mut replications_done = 0usize;
    for name in ["static", "online"] {
        if let Some(server) = server {
            server.update_status(|s| {
                s.phase = format!("controlled:{name}");
                s.sim_time = 0.0;
                s.mode = None;
            });
        }
        let mut totals: Option<ArmTotals> = None;
        for s in 0..meta.seeds {
            let seed = meta.base_seed + u64::from(s);
            let config = RunConfig {
                plan: &plan,
                policy: PolicyKind::BestOfD {
                    max_hops: 2,
                    d: meta.d,
                },
                traffic: &traffic,
                warmup: 0.0,
                horizon: meta.horizon,
                seed,
                failures: &failures,
            };
            let mut telemetry =
                RunTelemetry::new(0.0, meta.horizon, meta.window, capacities.clone());
            let rng = StreamFactory::new(seed).stream(BOD_SAMPLE_STREAM);
            let mut admission = TrunkReservation::new(vec![0; num_links]);
            let r = {
                let mut live = LiveRecorder::new(&mut telemetry, server, None);
                match name {
                    "static" => Run::new(&config)
                        .warm(&initial)
                        .recorder(&mut live)
                        .execute_with(
                            &mut admission,
                            &mut BestOfDSelector::new(&plan, meta.d, rng),
                        ),
                    _ => {
                        let mut selector = ControlledSelector {
                            inner: BestOfDSelector::new(&plan, meta.d, rng),
                            controller: Controller::new(
                                mesh_plane(meta.nodes, meta.capacity, 2),
                                tuning,
                            ),
                            counts: vec![0; meta.nodes * meta.nodes],
                            updates: Vec::new(),
                        };
                        let r = Run::new(&config)
                            .warm(&initial)
                            .ticks(meta.window)
                            .recorder(&mut live)
                            .execute_with(&mut admission, &mut selector);
                        update_count += selector.updates.len() as u64;
                        if s == 0 {
                            updates = selector.updates;
                        }
                        final_levels = selector.controller.levels().to_vec();
                        r
                    }
                }
            };
            match &mut totals {
                None => {
                    totals = Some(ArmTotals {
                        offered: r.offered,
                        blocked: r.blocked,
                        alternate: r.carried_alternate,
                        telemetry,
                    })
                }
                Some(t) => {
                    t.offered += r.offered;
                    t.blocked += r.blocked;
                    t.alternate += r.carried_alternate;
                    t.telemetry.merge(&telemetry);
                }
            }
            replications_done += 1;
            if let Some(server) = server {
                let done = replications_done;
                server.update_status(|st| st.replications_done = done);
            }
        }
        arms.push(finish_arm(name, meta, totals.expect("at least one seed")));
    }
    let online_arm = arms.pop().expect("two arms");
    let static_arm = arms.pop().expect("two arms");
    ControlledReport {
        config: cfg.clone(),
        static_arm,
        online_arm,
        updates,
        update_count,
        final_levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altroute_telemetry::Mode;

    /// The checked-in closed-loop demonstration: from the same saturated
    /// start, frozen `r = 0` stays stuck in the high-blocking mode while
    /// the online controller — starting from zero levels it was never
    /// handed — re-estimates, raises protection, and escapes.
    #[test]
    fn online_recomputation_escapes_where_static_levels_stay_stuck() {
        let cfg = ControlledConfig::smoke();
        let report = run_controlled(&cfg);

        let stuck = &report.static_arm;
        assert_eq!(
            stuck.modes.final_mode(),
            Mode::High,
            "static arm must stay high"
        );
        assert_eq!(stuck.modes.num_switches(), 0, "stuck means zero switches");
        assert!(
            stuck.modes.fraction_high() > 0.75,
            "static arm spent only {} high",
            stuck.modes.fraction_high()
        );

        let online = &report.online_arm;
        assert_eq!(
            online.modes.final_mode(),
            Mode::Low,
            "online arm must escape"
        );
        assert!(
            online.modes.num_switches() >= 1,
            "the detector should record the online arm's escape"
        );
        assert!(
            online.tail_utilization < stuck.tail_utilization,
            "the controller must drain the saturated start ({} vs {})",
            online.tail_utilization,
            stuck.tail_utilization
        );
        assert!(online.blocking < stuck.blocking, "escaping must pay off");

        // The rescue came from the controller, not provisioning: levels
        // started at zero, and the emitted updates raised them.
        assert!(report.update_count >= 1, "the controller must have acted");
        assert!(!report.updates.is_empty());
        assert!(
            report.final_levels.iter().any(|&r| r > 0),
            "escape requires nonzero protection"
        );
        assert!(
            report.updates[0].at >= cfg.meta.window,
            "no update can precede the first window boundary"
        );

        // Determinism: a second run reproduces the update sequence and
        // both arms' telemetry exactly.
        let again = run_controlled(&cfg);
        assert_eq!(again.updates, report.updates);
        assert_eq!(again.final_levels, report.final_levels);
        assert_eq!(again.online_arm.telemetry, online.telemetry);
        assert_eq!(again.static_arm.telemetry, stuck.telemetry);
    }
}
