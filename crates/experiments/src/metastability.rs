//! Hysteresis experiments on fully-connected networks.
//!
//! Alternate routing on a symmetric mesh is *bistable* near critical
//! load: the same offered traffic supports a good mode (calls on
//! one-link primaries, low blocking) and a bad mode (overflow onto
//! two-link alternates, each carried call burning two circuits, high
//! blocking). Which mode the network settles in depends on where it
//! *starts* — the defining signature of metastability, invisible to any
//! steady-state average. The paper's Eq.-15 trunk reservation exists
//! precisely to destroy the bad fixed point.
//!
//! This tier runs the controlled four-arm demonstration on `K_N`:
//!
//! | reservation | start      | expected mode |
//! |-------------|------------|---------------|
//! | r = 0       | empty      | low           |
//! | r = 0       | saturated  | high (stuck)  |
//! | Eq. 15      | empty      | low           |
//! | Eq. 15      | saturated  | low (escapes) |
//!
//! Each arm is the same load, the same seeds, the same best-of-`d`
//! selector — only the initial occupancy (the kernel warm-start hook)
//! and the protection levels differ. The windowed network-occupancy
//! telemetry is classified by the hysteresis mode detector
//! ([`altroute_telemetry::mode`]), and the report exposes the
//! start-state gap with and without reservation.
//!
//! The arm runner here is the one both hysteresis tiers use: an arm
//! supplies its plan, start state and per-seed execution (these arms
//! call [`Run::execute`]; the closed-loop arms of [`crate::controlled`]
//! drive an online controller), and the runner owns the serial seed
//! loop, the live recorder and flight ring, the in-order merge and the
//! [`ArmResult`] measurements.

use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::engine::{Run, RunConfig, SeedResult};
use altroute_sim::failures::FailureSchedule;
use altroute_sim::trace::{encode_flight, FlightSink};
use altroute_simcore::pool::merge_in_order;
use altroute_telemetry::flight::{FlightRing, FlightTrigger, TriggerReason};
use altroute_telemetry::serve::{LiveRecorder, MetricsServer};
use altroute_telemetry::{export, ModeReport, ModeThresholds, RunTelemetry};
use std::cell::RefCell;

/// Events held by each arm's anomaly flight ring. At the smoke preset's
/// event rate this is a few hundredths of a sim-time unit of lead-up —
/// the microscopic approach to the mode boundary, which is exactly what
/// the windowed series cannot show.
pub const FLIGHT_RING_CAPACITY: usize = 4096;

/// Initial network state of one hysteresis arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartState {
    /// Every link empty at `t = 0` (the usual cold start).
    Empty,
    /// Every link full at `t = 0`: the warm-start hook seeds
    /// `capacity` single-link calls per link with fresh exponential
    /// residual holding times.
    Saturated,
}

impl StartState {
    /// Display name (`empty` / `saturated`).
    pub fn name(self) -> &'static str {
        match self {
            StartState::Empty => "empty",
            StartState::Saturated => "saturated",
        }
    }
}

/// Parameters of one hysteresis experiment on `K_nodes`.
#[derive(Debug, Clone)]
pub struct MetastabilityConfig {
    /// Mesh size `N` (every ordered pair is a demand).
    pub nodes: usize,
    /// Circuits per directed link.
    pub capacity: u32,
    /// Offered Erlangs per ordered pair (bistability wants this close
    /// to, but under, `capacity`).
    pub load_per_pair: f64,
    /// Candidate cap handed to [`RoutingPlan::min_hop_capped`] — on
    /// `K_N` the two-hop tandems are `N - 2` per pair, quadratically
    /// many network-wide, and the selector samples them anyway.
    pub candidate_cap: usize,
    /// Tandems sampled per overflow (best-of-`d`).
    pub d: u32,
    /// Measured horizon per replication (sim-time units; warm-up is 0 —
    /// the transient *is* the observable).
    pub horizon: f64,
    /// Telemetry window width.
    pub window: f64,
    /// Replications per arm.
    pub seeds: u32,
    /// Base seed (replication `s` uses `base_seed + s`).
    pub base_seed: u64,
    /// Hysteresis band on network utilization for the mode detector.
    pub thresholds: ModeThresholds,
}

impl MetastabilityConfig {
    /// The CI-sized instance: small enough for seconds-scale runs,
    /// large enough that the unreserved saturated arm stays stuck in
    /// the bad mode for the whole horizon.
    ///
    /// Bistability needs trunks large enough that fluctuations cannot
    /// tip the network between modes on their own (`C = 200` here;
    /// `C = 10` relaxes in one window) and loads in a narrow band just
    /// under capacity — on this instance roughly 175–179 Erlangs per
    /// pair. Below the band the saturated start drains; above it the
    /// empty start nucleates into the bad mode mid-run.
    pub fn smoke() -> Self {
        Self {
            nodes: 16,
            capacity: 200,
            load_per_pair: 177.0,
            candidate_cap: 16,
            d: 2,
            horizon: 24.0,
            window: 2.0,
            seeds: 1,
            base_seed: 1,
            thresholds: ModeThresholds::new(0.93, 0.91),
        }
    }

    /// The paper-scale instance: `K_100` (9 900 directed links), the
    /// fixed-`K`, large-`N` regime the metastability literature
    /// studies. Same per-link operating point as [`smoke`](Self::smoke);
    /// minutes-scale, never run by the test suite.
    pub fn paper() -> Self {
        Self {
            nodes: 100,
            capacity: 200,
            load_per_pair: 177.0,
            candidate_cap: 32,
            d: 2,
            horizon: 40.0,
            window: 2.0,
            seeds: 2,
            base_seed: 1,
            thresholds: ModeThresholds::new(0.93, 0.91),
        }
    }

    /// Looks up a named preset (`smoke` | `paper`).
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }
}

/// One frozen flight-recorder capture: the ring's contents at the moment
/// a trigger fired, encoded as a version-1 binary trace
/// ([`altroute_sim::trace::decode_trace`] replays it).
#[derive(Debug, Clone)]
pub struct FlightCapture {
    /// Why the ring froze.
    pub reason: TriggerReason,
    /// The replication seed the capture came from.
    pub seed: u64,
    /// The encoded trace (header label names the arm).
    pub bytes: Vec<u8>,
}

/// Display name of a metastability arm — doubles as its telemetry file
/// stem.
fn arm_name(reserved: bool, start: StartState) -> &'static str {
    match (reserved, start) {
        (false, StartState::Empty) => "r0_empty",
        (false, StartState::Saturated) => "r0_saturated",
        (true, StartState::Empty) => "eq15_empty",
        (true, StartState::Saturated) => "eq15_saturated",
    }
}

/// The four metastability arms as `(reserved, start)`, in report order.
pub const ARMS: [(bool, StartState); 4] = [
    (false, StartState::Empty),
    (false, StartState::Saturated),
    (true, StartState::Empty),
    (true, StartState::Saturated),
];

/// One arm of a hysteresis demonstration — a metastability arm or a
/// closed-loop ([`crate::controlled`]) arm.
#[derive(Debug, Clone)]
pub struct ArmResult {
    /// The arm's name: `{r0|eq15}_{empty|saturated}` for the
    /// metastability arms, `static` / `online` for the closed-loop ones.
    pub name: &'static str,
    /// Network blocking over the whole horizon, summed across seeds.
    pub blocking: f64,
    /// Fraction of carried calls routed on two-link alternates.
    pub alternate_fraction: f64,
    /// The mode detector's account of the merged occupancy series.
    pub modes: ModeReport,
    /// Mean network utilization over the final quarter of the horizon —
    /// where the arm *ends up*, transient excluded.
    pub tail_utilization: f64,
    /// The merged across-seed telemetry snapshot.
    pub telemetry: RunTelemetry,
    /// The anomaly flight dump, when a live trigger (mode switch) fired
    /// during the arm: on the smoke preset the Eq.-15 saturated arm and
    /// the closed-loop online arm each freeze one (their escape from the
    /// high mode).
    pub flight: Option<FlightCapture>,
}

/// The full four-arm hysteresis report.
#[derive(Debug, Clone)]
pub struct HysteresisReport {
    /// The configuration that produced it.
    pub config: MetastabilityConfig,
    /// Arms in [`ARMS`] order.
    pub arms: Vec<ArmResult>,
}

impl HysteresisReport {
    /// The arm with the given reservation and start state.
    ///
    /// # Panics
    ///
    /// Panics if the arm is missing (reports always carry all four).
    pub fn arm(&self, reserved: bool, start: StartState) -> &ArmResult {
        let name = arm_name(reserved, start);
        self.arms
            .iter()
            .find(|a| a.name == name)
            .expect("report carries all four arms")
    }

    /// Start-state gap in time-fraction-congested at the given
    /// reservation setting: `fraction_high(saturated) −
    /// fraction_high(empty)`. Large without reservation (hysteresis),
    /// near zero with Eq. 15 (the bad mode is destroyed).
    pub fn mode_gap(&self, reserved: bool) -> f64 {
        self.arm(reserved, StartState::Saturated)
            .modes
            .fraction_high()
            - self.arm(reserved, StartState::Empty).modes.fraction_high()
    }

    /// Start-state gap in whole-run blocking at the given reservation
    /// setting.
    pub fn blocking_gap(&self, reserved: bool) -> f64 {
        self.arm(reserved, StartState::Saturated).blocking
            - self.arm(reserved, StartState::Empty).blocking
    }
}

/// The instance every hysteresis arm runs: uniform traffic on `K_N` and
/// its capped two-hop plan carrying the Eq.-15 protection levels.
pub(crate) fn instance(cfg: &MetastabilityConfig) -> (TrafficMatrix, RoutingPlan) {
    let topo = topologies::full_mesh(cfg.nodes, cfg.capacity);
    let traffic = TrafficMatrix::uniform(cfg.nodes, cfg.load_per_pair);
    let plan = RoutingPlan::min_hop_capped(topo, &traffic, 2, cfg.candidate_cap);
    (traffic, plan)
}

/// `plan` with every protection level zeroed — the unreserved `r = 0`
/// routing.
pub(crate) fn unreserved(plan: RoutingPlan) -> RoutingPlan {
    let zero = vec![0u32; plan.topology().num_links()];
    plan.with_protection_levels(zero)
}

/// One replication as a hysteresis arm hands it to its per-seed
/// execution: warm-started, feeding the arm's flight ring and live
/// recorder, not yet executed.
pub(crate) type ArmRun<'a> = Run<'a, FlightSink<'a>, LiveRecorder<'a>>;

/// Runs hysteresis arms one after another. Each arm supplies only its
/// per-seed execution; the serial seed loop, the live recorder, the
/// flight ring and its trigger, the server status, the in-order merge,
/// and the arm's measurements are shared.
pub(crate) struct ArmRunner<'a> {
    cfg: &'a MetastabilityConfig,
    traffic: &'a TrafficMatrix,
    server: Option<&'a MetricsServer>,
    replications_done: usize,
}

impl<'a> ArmRunner<'a> {
    /// A runner for `arms` arms of `cfg`, announcing the replication
    /// total to `server`.
    pub(crate) fn new(
        cfg: &'a MetastabilityConfig,
        traffic: &'a TrafficMatrix,
        server: Option<&'a MetricsServer>,
        arms: usize,
    ) -> Self {
        if let Some(server) = server {
            let total = arms * cfg.seeds as usize;
            server.update_status(|s| {
                s.replications_total = total;
                s.sim_end = cfg.horizon;
            });
        }
        Self {
            cfg,
            traffic,
            server,
            replications_done: 0,
        }
    }

    /// Runs arm `name` on `plan` from `start`, every seed through
    /// `execute(run, seed)`, then publishes the arm's merged exposition
    /// (run aggregates plus mode families) to the server.
    pub(crate) fn run(
        &mut self,
        plan: &RoutingPlan,
        name: &'static str,
        start: StartState,
        mut execute: impl FnMut(ArmRun<'_>, u64) -> SeedResult,
    ) -> ArmResult {
        let (cfg, server) = (self.cfg, self.server);
        let capacities: Vec<u32> = plan.topology().links().iter().map(|l| l.capacity).collect();
        let initial: Vec<u32> = match start {
            StartState::Empty => Vec::new(),
            StartState::Saturated => capacities.clone(),
        };
        if let Some(server) = server {
            server.update_status(|s| {
                s.phase = name.to_string();
                s.sim_time = 0.0;
                s.sim_end = cfg.horizon;
                s.mode = None;
            });
        }
        let failures = FailureSchedule::none();
        // The flight ring spans the whole arm: the first trigger (a mode
        // switch on any seed's live occupancy series) freezes it, and later
        // seeds' events are dropped, so the dump shows exactly one anomaly.
        let ring = RefCell::new(FlightRing::new(FLIGHT_RING_CAPACITY));
        let mut flight: Option<FlightCapture> = None;
        let mut per_seed: Vec<RunTelemetry> = Vec::with_capacity(cfg.seeds as usize);
        let (mut offered, mut blocked, mut alternate) = (0u64, 0u64, 0u64);
        for s in 0..cfg.seeds {
            let seed = cfg.base_seed + u64::from(s);
            let config = RunConfig {
                plan,
                policy: PolicyKind::BestOfD {
                    max_hops: 2,
                    d: cfg.d,
                },
                traffic: self.traffic,
                warmup: 0.0,
                horizon: cfg.horizon,
                seed,
                failures: &failures,
            };
            let mut telemetry = RunTelemetry::new(0.0, cfg.horizon, cfg.window, capacities.clone());
            // The trigger's hysteresis state restarts with each seed (each
            // replication's series starts at t = 0); the ring persists.
            let mut trigger = FlightTrigger::new(Some(cfg.thresholds), None);
            let live = LiveRecorder::new(&mut telemetry, server, Some((&ring, &mut trigger)));
            let run = Run::new(&config)
                .warm(&initial)
                .sink(FlightSink::new(&ring))
                .recorder(live);
            let r = execute(run, seed);
            if flight.is_none() {
                if let Some(reason) = ring.borrow().trigger() {
                    flight = Some(FlightCapture {
                        reason,
                        seed,
                        bytes: encode_flight(&ring.borrow(), seed, &format!("flight:{name}")),
                    });
                }
            }
            offered += r.offered;
            blocked += r.blocked;
            alternate += r.carried_alternate;
            per_seed.push(telemetry);
            self.replications_done += 1;
            if let Some(server) = server {
                let done = self.replications_done;
                server.update_status(|st| st.replications_done = done);
            }
        }
        let telemetry = merge_in_order(per_seed, RunTelemetry::merge).expect("at least one seed");
        let modes = telemetry.mode_report(cfg.thresholds);
        if let Some(server) = server {
            let mut text = export::prometheus(&telemetry);
            text.push_str(&export::mode_prometheus(&modes));
            server.publish_metrics(text);
        }
        let windows = telemetry.grid().num_windows();
        let tail = windows - (windows / 4).max(1);
        let tail_utilization = (tail..windows)
            .map(|k| telemetry.window_network_utilization(k))
            .sum::<f64>()
            / (windows - tail) as f64;
        let carried = offered - blocked;
        ArmResult {
            name,
            blocking: altroute_simcore::stats::blocking_ratio(blocked, offered),
            alternate_fraction: if carried == 0 {
                0.0
            } else {
                alternate as f64 / carried as f64
            },
            modes,
            tail_utilization,
            telemetry,
            flight,
        }
    }
}

/// Runs the four-arm hysteresis demonstration, publishing live progress
/// to `server` when one is given: per-window `/metrics` snapshots of the
/// in-flight replication, `/status` phase and replication progress, and
/// — after each arm completes — the arm's merged exposition, so the
/// final `/metrics` body equals the last arm's end-of-run export. The
/// report is byte-identical with or without a server (the observers are
/// pure).
///
/// Both reservation settings share one capped plan build (the
/// protection levels are the only difference), and every arm shares the
/// same seeds, so the arms are common-random-number comparable.
pub fn run_metastability(
    cfg: &MetastabilityConfig,
    server: Option<&MetricsServer>,
) -> HysteresisReport {
    let (traffic, reserved_plan) = instance(cfg);
    let unreserved_plan = unreserved(reserved_plan.clone());
    let mut runner = ArmRunner::new(cfg, &traffic, server, ARMS.len());
    let arms = ARMS
        .iter()
        .map(|&(reserved, start)| {
            let plan = if reserved {
                &reserved_plan
            } else {
                &unreserved_plan
            };
            runner.run(plan, arm_name(reserved, start), start, |run, _| {
                run.execute()
            })
        })
        .collect();
    HysteresisReport {
        config: cfg.clone(),
        arms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_by_name() {
        assert_eq!(MetastabilityConfig::preset("smoke").unwrap().nodes, 16);
        assert_eq!(MetastabilityConfig::preset("paper").unwrap().nodes, 100);
        assert!(MetastabilityConfig::preset("nope").is_none());
    }

    /// The checked-in hysteresis demonstration (seed-deterministic):
    /// without reservation the starting state decides the mode — the
    /// empty start stays good, the saturated start stays bad — and
    /// Eq.-15 trunk reservation collapses the gap.
    #[test]
    fn hysteresis_appears_without_reservation_and_eq15_collapses_it() {
        let report = run_metastability(&MetastabilityConfig::smoke(), None);

        // r = 0: the two starts land in different modes for most of the
        // horizon (the detector separates them by at least one full
        // mode), and the saturated start blocks far more.
        let cold = report.arm(false, StartState::Empty);
        let hot = report.arm(false, StartState::Saturated);
        assert!(
            cold.modes.fraction_high() < 0.25,
            "empty start should stay in the low mode, spent {}",
            cold.modes.fraction_high()
        );
        assert!(
            hot.modes.fraction_high() > 0.75,
            "saturated start should stay stuck high, spent {}",
            hot.modes.fraction_high()
        );
        assert!(
            report.mode_gap(false) > 0.5,
            "unreserved mode gap {}",
            report.mode_gap(false)
        );
        assert!(
            report.blocking_gap(false) > 0.05,
            "unreserved blocking gap {}",
            report.blocking_gap(false)
        );
        assert!(
            hot.alternate_fraction > cold.alternate_fraction,
            "the bad mode runs on alternates"
        );

        // Eq. 15: both starts end in the same (low) mode — the
        // saturated arm escapes — and the gaps collapse.
        let r_cold = report.arm(true, StartState::Empty);
        let r_hot = report.arm(true, StartState::Saturated);
        assert_eq!(
            r_cold.modes.final_mode(),
            r_hot.modes.final_mode(),
            "reservation must send both starts to the same mode"
        );
        assert_eq!(hot.modes.num_switches(), 0, "stuck means zero switches");
        assert!(
            r_hot.modes.num_switches() >= 1,
            "the detector should record the reserved arm's escape"
        );
        assert!(
            report.mode_gap(true) < 0.2,
            "reserved mode gap {}",
            report.mode_gap(true)
        );
        assert!(
            report.blocking_gap(true).abs() < 0.05,
            "reserved blocking gap {}",
            report.blocking_gap(true)
        );
        assert!(
            r_hot.tail_utilization < hot.tail_utilization,
            "reservation must drain the saturated start"
        );

        // Determinism: re-running one arm reproduces its telemetry
        // byte for byte (the other arms share the same machinery).
        let cfg = MetastabilityConfig::smoke();
        let (traffic, plan) = instance(&cfg);
        let again = ArmRunner::new(&cfg, &traffic, None, 1).run(
            &unreserved(plan),
            "r0_saturated",
            StartState::Saturated,
            |run, _| run.execute(),
        );
        assert_eq!(again.telemetry, hot.telemetry);
        assert_eq!(again.modes, hot.modes);
    }

    /// The anomaly flight recorder freezes exactly where a live mode
    /// switch happens: on the smoke preset that is the Eq.-15 saturated
    /// arm (its escape from the high mode) and nowhere else, and the
    /// dump is a well-formed version-1 trace the replay machinery
    /// accepts.
    #[test]
    fn flight_recorder_captures_the_reserved_arms_escape() {
        use altroute_sim::trace::{decode_trace, diff_traces};
        use altroute_telemetry::Mode;

        let report = run_metastability(&MetastabilityConfig::smoke(), None);
        for arm in &report.arms {
            let expect_capture = arm.name == "eq15_saturated";
            assert_eq!(
                arm.flight.is_some(),
                expect_capture,
                "arm {}: live mode switches and captures must coincide",
                arm.name
            );
        }
        let capture = report
            .arm(true, StartState::Saturated)
            .flight
            .as_ref()
            .expect("checked above");
        match capture.reason {
            TriggerReason::ModeSwitch { to, at } => {
                assert_eq!(to, Mode::Low, "the escape is high -> low");
                assert!(at > 0.0);
            }
            ref other => panic!("expected a mode-switch trigger, got {other:?}"),
        }
        assert_eq!(capture.seed, report.config.base_seed);

        let (header, records) = decode_trace(&capture.bytes).expect("dump must decode");
        assert_eq!(header.label, "flight:eq15_saturated");
        assert_eq!(header.seed, capture.seed);
        assert_eq!(
            records.len(),
            FLIGHT_RING_CAPACITY,
            "the ring fills long before the escape"
        );
        assert!(
            diff_traces(&capture.bytes, &capture.bytes)
                .unwrap()
                .is_identical(),
            "the dump replays through the golden-trace differ"
        );
        // Event times are nondecreasing: the ring preserved stream order.
        for pair in records.windows(2) {
            assert!(pair[0].time() <= pair[1].time());
        }
    }
}
