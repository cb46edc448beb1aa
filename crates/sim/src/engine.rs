//! The event-driven call-by-call simulation engine.
//!
//! One [`Run`] reproduces one of the paper's sample runs: start from an
//! idle network, generate Poisson call arrivals (or, via
//! [`Run::arrivals`], H2 renewal arrivals) per origin–destination
//! pair with exponential unit-mean holding times, warm up for `warmup`
//! time units, measure for `horizon`, and count offered and blocked
//! calls (network-wide and per pair). [`run_seed`] is the plain case.
//!
//! This module is a thin instantiation of [`altroute_simcore::kernel`]:
//! the event loop, call table, link index, and metrics live there, and
//! this module contributes only the mesh source layout (one arrival
//! source per pair, or per (bandwidth class, pair) for
//! [`crate::multirate`]), the policy dispatch — mapping each
//! [`PolicyKind`] to its (`AdmissionPolicy`, `RouteSelector`) pair, for
//! this engine and multirate alike — and the adapter that feeds kernel
//! observations to the [`TraceSink`] and [`Recorder`] hooks. Everything
//! else a run can vary (warm start, selector ticks, inter-arrival law,
//! scratch reuse, observers) is an option on the one [`Run`] value, not
//! a separate entry point. The conformance crate's golden traces pin
//! the event stream and every counter.
//!
//! **Common random numbers.** Each pair draws its inter-arrival times,
//! holding times, and primary-split picks from its own seed-derived
//! stream, in a fixed order per arrival, *independent of routing
//! decisions*. Two runs with the same seed therefore offer byte-identical
//! call sequences to any two policies — the paper's "each algorithm was
//! run with identical call arrivals and call holding times".

use crate::failures::FailureSchedule;
use crate::trace::{NullTraceSink, TraceDecision, TraceSink};
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::{CallClass, PolicyKind};
use altroute_core::select::{
    BestOfDSelector, DarStickySelector, OttKrishnanSelector, TieredSelector,
};
use altroute_netgraph::graph::Topology;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_simcore::kernel::{
    self, AdmissionPolicy, ArrivalSource, InterArrival, KernelConfig, KernelObserver,
    KernelOutcome, KernelScratch, KernelSpec, LinkEvent, RouteSelector, Tier, TrunkReservation,
    Uncontrolled,
};
use altroute_simcore::metrics::EngineMetrics;
use altroute_simcore::rng::StreamFactory;
use altroute_telemetry::{ArrivalOutcome, NullRecorder, Recorder};

/// The RNG stream id of the DAR selector's private resampling stream.
/// Arrival streams use pair ids (`< n²`), so the top of the id space can
/// never collide with them — DAR resampling leaves the common random
/// numbers untouched.
const DAR_RESAMPLE_STREAM: u64 = u64::MAX;

/// The RNG stream id of the best-of-d selector's private sampling
/// stream, one below DAR's so neither can collide with arrival streams
/// nor with each other. (`u64::MAX - 2` is the kernel's warm-start
/// stream.) Public so conformance harnesses can rebuild the exact
/// stream the named [`PolicyKind::BestOfD`] dispatch uses.
pub const BOD_SAMPLE_STREAM: u64 = u64::MAX - 1;

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig<'a> {
    /// The precomputed routing plan (topology, primaries, alternates,
    /// protection levels).
    pub plan: &'a RoutingPlan,
    /// The policy deciding each call.
    pub policy: PolicyKind,
    /// Offered traffic in Erlangs per ordered pair.
    pub traffic: &'a TrafficMatrix,
    /// Warm-up duration discarded from statistics.
    pub warmup: f64,
    /// Measured duration after warm-up.
    pub horizon: f64,
    /// Master seed of this replication.
    pub seed: u64,
    /// Link failures to apply.
    pub failures: &'a FailureSchedule,
}

/// Counters from one replication (one seed).
#[derive(Debug, Clone, PartialEq)]
pub struct SeedResult {
    /// The replication's seed.
    pub seed: u64,
    /// Calls offered during the measurement window.
    pub offered: u64,
    /// Calls blocked during the measurement window.
    pub blocked: u64,
    /// Calls carried on their primary path.
    pub carried_primary: u64,
    /// Calls carried on an alternate path.
    pub carried_alternate: u64,
    /// Calls torn down mid-service by a link failure (dynamic outages
    /// only; not counted as blocked).
    pub dropped: u64,
    /// Offered calls per ordered pair (row-major `n × n`).
    pub per_pair_offered: Vec<u64>,
    /// Blocked calls per ordered pair (row-major `n × n`).
    pub per_pair_blocked: Vec<u64>,
    /// Engine gauges: event counts, queue/call-table peaks, per-link
    /// utilization, wall clock (wall clock is excluded from equality).
    pub metrics: EngineMetrics,
}

impl SeedResult {
    /// Average network blocking: blocked / offered (0 if nothing offered).
    pub fn blocking(&self) -> f64 {
        altroute_simcore::stats::blocking_ratio(self.blocked, self.offered)
    }

    /// Fraction of carried calls that used an alternate path.
    pub fn alternate_fraction(&self) -> f64 {
        let carried = self.carried_primary + self.carried_alternate;
        if carried == 0 {
            0.0
        } else {
            self.carried_alternate as f64 / carried as f64
        }
    }
}

/// Adapts the kernel's observation hooks onto the engine's historical
/// observers: every hook forwards to the [`TraceSink`] first and the
/// [`Recorder`] second, at exactly the pre-kernel call sites (the golden
/// traces encode this ordering). Shared by every kernel-backed simulator
/// in this crate.
pub(crate) struct Instruments<'a, S, R> {
    pub(crate) sink: &'a mut S,
    pub(crate) recorder: &'a mut R,
}

impl<S: TraceSink, R: Recorder> KernelObserver for Instruments<'_, S, R> {
    fn arrival_routed(
        &mut self,
        now: f64,
        tag: u32,
        tier: Tier,
        links: &[usize],
        hold: f64,
        measured: bool,
    ) {
        let class = match tier {
            Tier::Primary => CallClass::Primary,
            Tier::Alternate => CallClass::Alternate,
        };
        self.sink
            .arrival(now, tag, TraceDecision::Routed { class, links });
        let outcome = match tier {
            Tier::Primary => ArrivalOutcome::Primary,
            Tier::Alternate => ArrivalOutcome::Alternate,
        };
        self.recorder
            .arrival(now, measured, outcome, links.len() as u8, hold);
    }

    fn arrival_blocked(&mut self, now: f64, tag: u32, hold: f64, measured: bool) {
        self.sink.arrival(now, tag, TraceDecision::Blocked);
        self.recorder
            .arrival(now, measured, ArrivalOutcome::Blocked, 0, hold);
    }

    fn occupancy_changed(&mut self, now: f64, link: usize, occupancy: u32) {
        self.recorder.occupancy(now, link as u32, occupancy);
    }

    fn departure(&mut self, now: f64, call: u32, gen: u32, stale: bool) {
        self.sink.departure(now, call, gen, stale);
        self.recorder.departure(now, stale);
    }

    fn teardown(&mut self, now: f64, call: u32, gen: u32, measured: bool) {
        self.sink.teardown(now, call, gen);
        self.recorder.teardown(now, measured);
    }

    fn link_change(&mut self, now: f64, link: u32, up: bool) {
        self.sink.link_change(now, link, up);
        self.recorder.link_state(now, link, up);
    }

    fn event_processed(&mut self, now: f64, queue_len: usize) {
        self.recorder.event(now, queue_len);
    }
}

/// One replication, described once: a [`RunConfig`] plus the optional
/// execution details of the run — a warm start, a selector tick, an
/// inter-arrival law, a recycled scratch arena, a [`TraceSink`], and a
/// [`Recorder`]. Every way the workspace runs a seed goes through this
/// one value and its two executors: [`Run::execute`] for a named
/// [`PolicyKind`] and [`Run::execute_with`] for an explicit
/// `(admission, selector)` pair.
///
/// Sink and recorder are pure observers and the scratch arena recycles
/// capacity and never state, so the [`SeedResult`] is byte-identical
/// under every combination (the conformance crate's run-parity suite
/// pins this). Only a warm start, a tick interval, and the arrivals
/// change what is simulated.
///
/// Sink and recorder are type parameters, so the default
/// ([`NullTraceSink`], [`NullRecorder`]) monomorphizes to nothing and a
/// plain run compiles to the bare event loop.
///
/// ```
/// use altroute_core::{plan::RoutingPlan, policy::PolicyKind};
/// use altroute_netgraph::{topologies, traffic::TrafficMatrix};
/// use altroute_sim::engine::{Run, RunConfig};
/// use altroute_sim::failures::FailureSchedule;
/// use altroute_telemetry::RunTelemetry;
///
/// let traffic = TrafficMatrix::uniform(4, 80.0);
/// let plan = RoutingPlan::min_hop(topologies::quadrangle(), &traffic, 3);
/// let failures = FailureSchedule::none();
/// let config = RunConfig {
///     plan: &plan,
///     policy: PolicyKind::ControlledAlternate { max_hops: 3 },
///     traffic: &traffic,
///     warmup: 2.0,
///     horizon: 10.0,
///     seed: 7,
///     failures: &failures,
/// };
/// let mut telemetry = RunTelemetry::new(2.0, 10.0, 1.0, vec![100; 12]);
/// let recorded = Run::new(&config).recorder(&mut telemetry).execute();
/// assert_eq!(recorded, Run::new(&config).execute());
/// assert_eq!(telemetry.offered, recorded.offered);
/// ```
#[must_use = "a Run does nothing until executed"]
pub struct Run<'a, S = NullTraceSink, R = NullRecorder> {
    config: RunConfig<'a>,
    initial_occupancy: &'a [u32],
    tick_interval: Option<f64>,
    arrivals: InterArrival,
    scratch: Option<&'a mut KernelScratch>,
    sink: S,
    recorder: R,
}

impl<'a> Run<'a> {
    /// A cold, unobserved replication of `config` on a fresh scratch
    /// arena.
    pub fn new(config: &RunConfig<'a>) -> Self {
        Self {
            config: *config,
            initial_occupancy: &[],
            tick_interval: None,
            arrivals: InterArrival::default(),
            scratch: None,
            sink: NullTraceSink,
            recorder: NullRecorder,
        }
    }
}

impl<'a, S: TraceSink, R: Recorder> Run<'a, S, R> {
    /// Warm-starts the run: `initial_occupancy` (one entry per link;
    /// empty means cold) is booked at `t = 0` as real single-link calls
    /// with fresh unit-mean exponential residual holding times from the
    /// kernel's dedicated warm-start stream, so the seeded state decays
    /// naturally. Arrival streams and policy dispatch are untouched, and
    /// an all-zero vector is byte-identical to a cold start. A recorder
    /// sees the seeded occupancy as `occupancy` hooks at `t = 0`.
    ///
    /// This is the initial-condition hook behind the metastability
    /// experiments: the same load from an empty vs. a saturated network
    /// can land in different blocking modes (hysteresis).
    pub fn warm(mut self, initial_occupancy: &'a [u32]) -> Self {
        self.initial_occupancy = initial_occupancy;
        self
    }

    /// Calls [`RouteSelector::tick`] every `interval` time units — the
    /// hook an *online controller* uses to re-estimate loads and push
    /// fresh levels through [`AdmissionPolicy::set_levels`]. Unused, the
    /// hook is byte-inert, which is what keeps the golden traces valid.
    pub fn ticks(mut self, interval: f64) -> Self {
        self.tick_interval = Some(interval);
        self
    }

    /// Draws every pair's inter-arrival gaps from `arrivals` instead of
    /// the exponential (Poisson) law, from the same per-pair streams —
    /// the hook behind the bursty-arrival (assumption A2) experiment.
    pub fn arrivals(mut self, arrivals: InterArrival) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Recycles `scratch` (event-queue buckets, call table, link index,
    /// RNG streams) instead of allocating a fresh arena — what the
    /// replication pools hand each worker's scratch to.
    pub fn scratch(mut self, scratch: &'a mut KernelScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Reports every event to `sink` — the deterministic replay hook
    /// behind the golden traces. Pass `&mut sink` to keep ownership.
    pub fn sink<S2: TraceSink>(self, sink: S2) -> Run<'a, S2, R> {
        Run {
            config: self.config,
            initial_occupancy: self.initial_occupancy,
            tick_interval: self.tick_interval,
            arrivals: self.arrivals,
            scratch: self.scratch,
            sink,
            recorder: self.recorder,
        }
    }

    /// Feeds time-resolved telemetry to `recorder`; its wall-clock spans
    /// and end-of-run flush are closed out when the run finishes. Pass
    /// `&mut recorder` to keep ownership.
    pub fn recorder<R2: Recorder>(self, recorder: R2) -> Run<'a, S, R2> {
        Run {
            config: self.config,
            initial_occupancy: self.initial_occupancy,
            tick_interval: self.tick_interval,
            arrivals: self.arrivals,
            scratch: self.scratch,
            sink: self.sink,
            recorder,
        }
    }

    /// Runs the replication under the configured [`PolicyKind`] and
    /// returns its counters.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (sizes, negative durations,
    /// a policy hop bound other than the plan's `H`, a warm start not
    /// one entry per link or over capacity) or if an internal invariant
    /// breaks (a policy admitting over a full link).
    pub fn execute(self) -> SeedResult {
        let RunConfig { plan, policy, .. } = self.config;
        self.drive(|spec, observer, scratch| run_named(plan, policy, spec, observer, scratch))
    }

    /// Runs the replication with an explicit `(admission, selector)`
    /// pair instead of the configured [`PolicyKind`] — the extension
    /// point for policies that are not named variants (online
    /// controllers, instrumented wrappers).
    ///
    /// # Panics
    ///
    /// As [`Run::execute`], except that the policy's hop bound is not
    /// checked; additionally if a tick interval is non-positive.
    pub fn execute_with<'p, A, Sel>(self, admission: &mut A, selector: &mut Sel) -> SeedResult
    where
        A: AdmissionPolicy,
        Sel: RouteSelector<'p>,
    {
        self.drive(|spec, observer, scratch| {
            kernel::run_pooled(spec, admission, selector, observer, scratch)
        })
    }

    /// The body every execution shares: build the kernel spec, attach
    /// the observers, run `kernel` on the caller's or a fresh scratch
    /// arena, and assemble the [`SeedResult`].
    fn drive(
        mut self,
        kernel: impl FnOnce(
            &KernelSpec<'_>,
            &mut Instruments<'_, S, R>,
            &mut KernelScratch,
        ) -> KernelOutcome,
    ) -> SeedResult {
        let config = &self.config;
        let (capacities, sources, link_events, mut kernel_config) = mesh_spec(
            config.plan.topology(),
            &[(1, config.traffic)],
            config.failures,
            (config.warmup, config.horizon, config.seed),
            self.arrivals,
        );
        kernel_config.tick_interval = self.tick_interval;
        let spec = KernelSpec {
            config: kernel_config,
            capacities: &capacities,
            static_down: config.failures.statically_down(),
            sources: &sources,
            link_events: &link_events,
            initial_occupancy: self.initial_occupancy,
        };
        let mut fresh = None;
        let scratch = match self.scratch {
            Some(scratch) => scratch,
            None => fresh.insert(KernelScratch::new()),
        };
        let mut observer = Instruments {
            sink: &mut self.sink,
            recorder: &mut self.recorder,
        };
        let outcome = kernel(&spec, &mut observer, scratch);
        finish_seed(config, outcome, &mut self.recorder)
    }
}

/// Runs one cold, serial, unobserved replication and returns its
/// counters — [`Run::new`]`(config).`[`execute`](Run::execute)`()`.
///
/// # Panics
///
/// As [`Run::execute`].
pub fn run_seed(config: &RunConfig<'_>) -> SeedResult {
    Run::new(config).execute()
}

/// As [`run_seed`], recycling `scratch` across calls. Results are
/// byte-identical to [`run_seed`].
///
/// # Panics
///
/// As [`Run::execute`].
pub fn run_seed_pooled(config: &RunConfig<'_>, scratch: &mut KernelScratch) -> SeedResult {
    Run::new(config).scratch(scratch).execute()
}

/// Runs one replication with an explicit `(admission, selector)` pair
/// and both observers attached — [`Run::execute_with`] with a sink and
/// a recorder.
///
/// # Panics
///
/// As [`Run::execute_with`].
pub fn run_seed_with_policy<'p, A, Sel, S, R>(
    config: &RunConfig<'_>,
    admission: &mut A,
    selector: &mut Sel,
    sink: &mut S,
    recorder: &mut R,
) -> SeedResult
where
    A: AdmissionPolicy,
    Sel: RouteSelector<'p>,
    S: TraceSink,
    R: Recorder,
{
    Run::new(config)
        .sink(sink)
        .recorder(recorder)
        .execute_with(admission, selector)
}

/// Asserts that `policy`'s hop bound, if it has one, is `plan`'s `H` —
/// a policy cannot route on candidate sets built for another bound.
pub(crate) fn assert_plan_hops(plan: &RoutingPlan, policy: PolicyKind) {
    if let Some(h) = policy.max_hops() {
        assert_eq!(
            h,
            plan.max_alternate_hops(),
            "policy hop bound must match the plan's H"
        );
    }
}

/// Runs `spec` under the `(admission, selector)` pair that the named
/// `policy` dispatches to over `plan` — the one way a mesh simulator
/// turns a [`PolicyKind`] into a kernel run, reached by [`Run::execute`]
/// and the multirate simulator. The randomized selectors draw from
/// private streams of the spec's seed. Each policy is a pair on the
/// same kernel:
///
/// | policy        | admission                    | selector              |
/// |---------------|------------------------------|-----------------------|
/// | single-path   | capacity only                | tiered, no alternates |
/// | uncontrolled  | capacity only                | tiered                |
/// | controlled    | trunk reservation (Eq. 15)   | tiered                |
/// | ott-krishnan  | (internal to the price test) | shadow-price argmin   |
/// | dar           | trunk reservation (Eq. 15)   | sticky random         |
/// | bod           | trunk reservation (Eq. 15)   | best-of-d sampling    |
///
/// # Panics
///
/// If the policy's hop bound is not the plan's `H`, or as
/// [`kernel::run_pooled`].
pub(crate) fn run_named<O: KernelObserver>(
    plan: &RoutingPlan,
    policy: PolicyKind,
    spec: &KernelSpec<'_>,
    observer: &mut O,
    scratch: &mut KernelScratch,
) -> KernelOutcome {
    assert_plan_hops(plan, policy);
    let seed = spec.config.seed;
    let reservation = || TrunkReservation::new(plan.protection_levels().to_vec());
    match policy {
        PolicyKind::SinglePath => {
            let selector = &mut TieredSelector::single_path(plan);
            kernel::run_pooled(spec, &mut Uncontrolled, selector, observer, scratch)
        }
        PolicyKind::UncontrolledAlternate { .. } => {
            let selector = &mut TieredSelector::new(plan);
            kernel::run_pooled(spec, &mut Uncontrolled, selector, observer, scratch)
        }
        PolicyKind::ControlledAlternate { .. } => {
            let selector = &mut TieredSelector::new(plan);
            kernel::run_pooled(spec, &mut reservation(), selector, observer, scratch)
        }
        PolicyKind::OttKrishnan { .. } => {
            let selector = &mut OttKrishnanSelector::new(plan);
            kernel::run_pooled(spec, &mut Uncontrolled, selector, observer, scratch)
        }
        PolicyKind::DarSticky { .. } => {
            let rng = StreamFactory::new(seed).stream(DAR_RESAMPLE_STREAM);
            let selector = &mut DarStickySelector::new(plan, rng);
            kernel::run_pooled(spec, &mut reservation(), selector, observer, scratch)
        }
        PolicyKind::BestOfD { d, .. } => {
            let rng = StreamFactory::new(seed).stream(BOD_SAMPLE_STREAM);
            let selector = &mut BestOfDSelector::new(plan, d, rng);
            kernel::run_pooled(spec, &mut reservation(), selector, observer, scratch)
        }
    }
}

/// Builds the kernel's static description of one mesh replication on
/// `topo`: one arrival source per demand of each `(bandwidth, traffic)`
/// class, class-major in `demands()` order (the source order breaks
/// event-queue ties, so it is part of the determinism contract), with
/// stream id `class·n² + pair` and `arrivals` gaps; `classes·n²` tally
/// slots; the per-link capacities; and the failure schedule's timed
/// events. A single unit-bandwidth class is the plain engine's layout
/// (stream = pair id), and every class keeps its own common random
/// numbers across policies.
///
/// # Panics
///
/// Panics if a class's matrix is not sized for `topo`.
pub(crate) fn mesh_spec(
    topo: &Topology,
    classes: &[(u32, &TrafficMatrix)],
    failures: &FailureSchedule,
    (warmup, horizon, seed): (f64, f64, u64),
    arrivals: InterArrival,
) -> (Vec<u32>, Vec<ArrivalSource>, Vec<LinkEvent>, KernelConfig) {
    let n = topo.num_nodes();
    let capacities: Vec<u32> = topo.links().iter().map(|l| l.capacity).collect();
    let mut sources = Vec::new();
    for (class, &(bandwidth, traffic)) in classes.iter().enumerate() {
        assert_eq!(traffic.num_nodes(), n, "traffic matrix size mismatch");
        sources.extend(traffic.demands().map(|(i, j, t)| ArrivalSource {
            stream: (class * n * n + i * n + j) as u64,
            src: i,
            dst: j,
            rate: t,
            bandwidth,
            gaps: arrivals,
        }));
    }
    let link_events: Vec<LinkEvent> = failures
        .events()
        .iter()
        .map(|ev| LinkEvent {
            at: ev.at,
            link: ev.link,
            up: ev.up,
        })
        .collect();
    let kernel_config = KernelConfig {
        warmup,
        horizon,
        seed,
        draw_pick: true,
        tick_interval: None,
        tally_slots: classes.len() * n * n,
    };
    (capacities, sources, link_events, kernel_config)
}

/// Pushes a schedule's *static* outages into the plan's candidate-path
/// store, so selectors see post-outage candidate sets (paths through the
/// downed links disappear from `plan.candidates()`) instead of burning
/// attempts on links the kernel will refuse anyway. Returns the number
/// of O-D pairs whose cached sets were evicted (each recomputes lazily).
///
/// This is deliberately opt-in rather than part of `run_seed`: the
/// historical contract — and every checked-in golden trace — has blocked
/// calls *attempt* paths through statically-down links and overflow past
/// them, so rewriting candidate sets implicitly would change traces.
/// Large-mesh tiers under rolling correlated failures call this per
/// round (and revive with [`RoutingPlan::set_link_state`]) to keep
/// attempt sequences proportional to the surviving topology.
pub fn apply_static_failures(plan: &mut RoutingPlan, failures: &FailureSchedule) -> usize {
    failures
        .statically_down()
        .iter()
        .map(|&l| plan.set_link_state(l, false))
        .sum()
}

/// Assembles a [`SeedResult`] from a kernel outcome and closes out the
/// recorder (wall-clock spans, end-of-run flush).
fn finish_seed<R: Recorder>(
    config: &RunConfig<'_>,
    outcome: KernelOutcome,
    recorder: &mut R,
) -> SeedResult {
    let total_wall = outcome.metrics.wall_clock_secs;
    recorder.span("seed_warmup", outcome.warmup_wall);
    recorder.span("seed_measurement", total_wall - outcome.warmup_wall);
    recorder.finish(config.warmup + config.horizon);
    SeedResult {
        seed: config.seed,
        offered: outcome.offered,
        blocked: outcome.blocked,
        carried_primary: outcome.carried_primary,
        carried_alternate: outcome.carried_alternate,
        dropped: outcome.dropped,
        per_pair_offered: outcome.tally_offered,
        per_pair_blocked: outcome.tally_blocked,
        metrics: outcome.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altroute_netgraph::topologies;
    use altroute_simcore::{CalendarQueue, EventQueue};
    use altroute_teletraffic::erlang::erlang_b;

    fn single_link_plan(capacity: u32, load: f64) -> (RoutingPlan, TrafficMatrix) {
        let mut topo = altroute_netgraph::graph::Topology::new();
        topo.add_nodes(2);
        topo.add_duplex(0, 1, capacity);
        let mut m = TrafficMatrix::zero(2);
        m.set(0, 1, load);
        let plan = RoutingPlan::min_hop(topo, &m, 1);
        (plan, m)
    }

    #[test]
    fn single_link_blocking_matches_erlang_b() {
        // M/M/C/C sanity check: simulated blocking ≈ B(a, C).
        let (plan, m) = single_link_plan(20, 16.0);
        let failures = FailureSchedule::none();
        let mut total_blocked = 0u64;
        let mut total_offered = 0u64;
        for seed in 0..8 {
            let r = run_seed(&RunConfig {
                plan: &plan,
                policy: PolicyKind::SinglePath,
                traffic: &m,
                warmup: 20.0,
                horizon: 500.0,
                seed,
                failures: &failures,
            });
            total_blocked += r.blocked;
            total_offered += r.offered;
        }
        let simulated = total_blocked as f64 / total_offered as f64;
        let analytic = erlang_b(16.0, 20);
        assert!(
            (simulated - analytic).abs() < 0.012,
            "simulated {simulated} vs Erlang-B {analytic}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 85.0);
        let plan = RoutingPlan::min_hop(topo, &m, 3);
        let failures = FailureSchedule::none();
        let cfg = RunConfig {
            plan: &plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            traffic: &m,
            warmup: 5.0,
            horizon: 30.0,
            seed: 1234,
            failures: &failures,
        };
        let a = run_seed(&cfg);
        let b = run_seed(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn exponential_arrivals_are_a_plain_run() {
        let m = TrafficMatrix::uniform(4, 85.0);
        let plan = RoutingPlan::min_hop(topologies::quadrangle(), &m, 3);
        let failures = FailureSchedule::none();
        let cfg = RunConfig {
            plan: &plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            traffic: &m,
            warmup: 5.0,
            horizon: 30.0,
            seed: 1234,
            failures: &failures,
        };
        let plain = run_seed(&cfg);
        let exp = Run::new(&cfg).arrivals(InterArrival::Exponential);
        assert_eq!(exp.execute(), plain);
        // H2 gaps redraw every pair's arrivals from the same streams.
        let h2 = || Run::new(&cfg).arrivals(InterArrival::Hyperexponential { cv2: 4.0 });
        let bursty = h2().execute();
        assert_ne!(bursty, plain);
        assert_eq!(bursty, h2().execute());
    }

    #[test]
    #[should_panic(expected = "hop bound must match")]
    fn mismatched_hop_bound_panics() {
        let m = TrafficMatrix::uniform(4, 85.0);
        let plan = RoutingPlan::min_hop(topologies::quadrangle(), &m, 3);
        run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 5 },
            traffic: &m,
            warmup: 0.0,
            horizon: 1.0,
            seed: 1,
            failures: &FailureSchedule::none(),
        });
    }

    #[test]
    fn identical_arrivals_across_policies() {
        // Common random numbers: per-pair offered counts must match
        // between policies for the same seed — DAR included, because its
        // resampling stream is separate from every arrival stream.
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 90.0);
        let failures = FailureSchedule::none();
        let mut offered = Vec::new();
        for kind in [
            PolicyKind::SinglePath,
            PolicyKind::UncontrolledAlternate { max_hops: 3 },
            PolicyKind::ControlledAlternate { max_hops: 3 },
            PolicyKind::OttKrishnan { max_hops: 3 },
            PolicyKind::DarSticky { max_hops: 3 },
        ] {
            let plan = RoutingPlan::min_hop(topo.clone(), &m, 3);
            let r = run_seed(&RunConfig {
                plan: &plan,
                policy: kind,
                traffic: &m,
                warmup: 5.0,
                horizon: 40.0,
                seed: 99,
                failures: &failures,
            });
            offered.push((r.offered, r.per_pair_offered.clone()));
        }
        for w in offered.windows(2) {
            assert_eq!(w[0], w[1], "policies must see identical arrivals");
        }
    }

    #[test]
    fn dar_routes_alternates_and_stays_deterministic() {
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 95.0);
        let plan = RoutingPlan::min_hop(topo, &m, 3);
        let failures = FailureSchedule::none();
        let cfg = RunConfig {
            plan: &plan,
            policy: PolicyKind::DarSticky { max_hops: 3 },
            traffic: &m,
            warmup: 5.0,
            horizon: 40.0,
            seed: 17,
            failures: &failures,
        };
        let a = run_seed(&cfg);
        let b = run_seed(&cfg);
        assert_eq!(a, b);
        assert!(a.carried_alternate > 0, "DAR must use alternates at 95 E");
        assert!(a.blocking() < 0.5, "blocking {}", a.blocking());
        // DAR with trunk reservation must not collapse versus the paper's
        // controlled scheme at this load.
        let controlled = run_seed(&RunConfig {
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            ..cfg
        });
        assert!(
            a.blocking() < controlled.blocking() + 0.1,
            "dar {} vs controlled {}",
            a.blocking(),
            controlled.blocking()
        );
    }

    #[test]
    fn warmup_discards_early_calls() {
        let (plan, m) = single_link_plan(5, 3.0);
        let failures = FailureSchedule::none();
        let with_warmup = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &m,
            warmup: 50.0,
            horizon: 50.0,
            seed: 7,
            failures: &failures,
        });
        let without = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &m,
            warmup: 0.0,
            horizon: 100.0,
            seed: 7,
            failures: &failures,
        });
        assert!(with_warmup.offered < without.offered);
        // Expected arrivals in the 50-unit window ≈ 150.
        assert!((with_warmup.offered as f64 - 150.0).abs() < 60.0);
    }

    #[test]
    fn static_failure_blocks_single_path_pair() {
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 10.0);
        let plan = RoutingPlan::min_hop(topo, &m, 3);
        let direct = plan.topology().link_between(0, 1).unwrap();
        let failures = FailureSchedule::static_down([direct]);
        let r = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &m,
            warmup: 2.0,
            horizon: 30.0,
            seed: 3,
            failures: &failures,
        });
        let n = 4;
        // Every offered (0,1) call blocks; other pairs barely block at all.
        assert_eq!(r.per_pair_offered[1], r.per_pair_blocked[1]);
        assert!(r.per_pair_offered[1] > 0);
        assert_eq!(r.per_pair_blocked[2 * n + 3], 0);
        // Alternate routing rescues the pair entirely at this light load.
        let r2 = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            traffic: &m,
            warmup: 2.0,
            horizon: 30.0,
            seed: 3,
            failures: &failures,
        });
        assert_eq!(r2.per_pair_blocked[1], 0);
        assert!(r2.carried_alternate > 0);
    }

    #[test]
    fn static_failures_can_be_pushed_into_the_path_store() {
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 10.0);
        let mut plan = RoutingPlan::min_hop(topo, &m, 3);
        let direct = plan.topology().link_between(0, 1).unwrap();
        // Force the cache so there is something to invalidate.
        for (i, j) in [(0usize, 1usize), (2, 3)] {
            plan.candidates(i, j);
        }
        let failures = FailureSchedule::static_down([direct]);
        let evicted = apply_static_failures(&mut plan, &failures);
        assert!(evicted > 0);
        assert!(plan.candidates(0, 1).iter().all(|p| !p.uses_link(direct)));
        // Re-applying is a no-op (the store tracks link state).
        assert_eq!(apply_static_failures(&mut plan, &failures), 0);
        // The store-aware plan runs fine: alternates still rescue (0, 1)
        // without ever attempting the dead direct link.
        let r = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            traffic: &m,
            warmup: 2.0,
            horizon: 30.0,
            seed: 3,
            failures: &failures,
        });
        assert_eq!(r.per_pair_blocked[1], 0);
        assert!(r.carried_alternate > 0);
    }

    #[test]
    fn dynamic_outage_drops_calls_and_recovers() {
        let (plan, m) = single_link_plan(50, 40.0);
        let link01 = plan.topology().link_between(0, 1).unwrap();
        let failures = FailureSchedule::none().with_outage(link01, 30.0, 60.0);
        let r = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &m,
            warmup: 10.0,
            horizon: 90.0,
            seed: 11,
            failures: &failures,
        });
        assert!(r.dropped > 0, "calls in progress at t=30 must be dropped");
        // During [30, 60) every arrival blocks: roughly 30 % of the
        // measured window.
        assert!(r.blocking() > 0.2, "blocking {}", r.blocking());
        // After recovery calls complete again: blocked < offered.
        assert!(r.blocked < r.offered);
    }

    #[test]
    fn no_traffic_means_no_events() {
        let (plan, _) = single_link_plan(5, 1.0);
        let empty = TrafficMatrix::zero(2);
        let failures = FailureSchedule::none();
        let r = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &empty,
            warmup: 1.0,
            horizon: 10.0,
            seed: 0,
            failures: &failures,
        });
        assert_eq!(r.offered, 0);
        assert_eq!(r.blocking(), 0.0);
        assert_eq!(r.alternate_fraction(), 0.0);
        assert_eq!(r.metrics.events_processed, 0);
        assert_eq!(r.metrics.peak_queue_len, 0);
        assert_eq!(r.metrics.peak_concurrent_calls, 0);
        assert_eq!(r.metrics.call_table_high_water, 0);
    }

    #[test]
    fn call_table_high_water_tracks_peak_concurrency_not_total_calls() {
        // Long horizon: tens of thousands of calls are offered, but the
        // generational free list keeps the table at the concurrent peak.
        let (plan, m) = single_link_plan(20, 16.0);
        let failures = FailureSchedule::none();
        let r = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &m,
            warmup: 10.0,
            horizon: 2000.0,
            seed: 21,
            failures: &failures,
        });
        assert!(r.offered > 10_000, "long horizon should offer many calls");
        // A slot is only allocated when every existing slot is busy, so
        // the high-water mark equals the peak concurrent population.
        assert_eq!(
            r.metrics.call_table_high_water,
            r.metrics.peak_concurrent_calls
        );
        // The link caps concurrency at 20; the table must not grow with
        // offered-call count the way the old push-only table did.
        assert!(
            r.metrics.peak_concurrent_calls <= 20,
            "peak {} exceeds link capacity",
            r.metrics.peak_concurrent_calls
        );
        assert!(
            r.metrics.events_processed > r.offered,
            "arrivals plus departures"
        );
        assert!(r.metrics.peak_queue_len > 0);
    }

    #[test]
    fn utilization_matches_carried_traffic() {
        // M/M/C/C: mean occupancy is the carried load a(1 - B), so the
        // time-weighted utilization gauge must read a(1 - B)/C.
        let (plan, m) = single_link_plan(20, 16.0);
        let failures = FailureSchedule::none();
        let r = run_seed(&RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &m,
            warmup: 20.0,
            horizon: 2000.0,
            seed: 5,
            failures: &failures,
        });
        let expected = 16.0 * (1.0 - erlang_b(16.0, 20)) / 20.0;
        let l01 = plan.topology().link_between(0, 1).unwrap();
        let measured = r.metrics.link_utilization[l01];
        assert!(
            (measured - expected).abs() < 0.03,
            "utilization {measured} vs analytic {expected}"
        );
        // The reverse link carries nothing.
        let l10 = plan.topology().link_between(1, 0).unwrap();
        assert_eq!(r.metrics.link_utilization[l10], 0.0);
    }

    #[test]
    fn reused_slot_rejects_stale_departure_handle() {
        // Direct regression for the generational call table (now owned by
        // the kernel): a call torn down by a link failure frees its slot;
        // a later call reuses it; the torn-down call's departure event —
        // still in the queue with the old generation — must not be able
        // to release the new call.
        use altroute_simcore::kernel::CallTable;
        let path_a: Vec<usize> = vec![0, 1];
        let path_b: Vec<usize> = vec![2];
        let mut out = Vec::new();
        let mut table = CallTable::new();
        let (slot_a, gen_a) = table.insert(&path_a, 1);
        // Failure teardown ends call A through its handle.
        assert_eq!(table.take_into(slot_a, gen_a, &mut out), Some(1));
        assert_eq!(out, path_a);
        // Call B reuses the same slot with a bumped generation.
        let (slot_b, gen_b) = table.insert(&path_b, 1);
        assert_eq!(slot_b, slot_a, "free list must hand the slot back");
        assert_ne!(gen_b, gen_a, "reuse must bump the generation");
        // Call A's scheduled departure fires: it must be rejected and
        // must leave call B (and the caller's path buffer) untouched.
        assert_eq!(table.take_into(slot_a, gen_a, &mut out), None);
        assert_eq!(out, path_a, "stale take must not clobber the buffer");
        assert!(table.is_live(slot_b, gen_b), "stale take must not end B");
        assert_eq!(table.live(), 1);
        // Call B's own departure still works.
        assert_eq!(table.take_into(slot_b, gen_b, &mut out), Some(1));
        assert_eq!(out, path_b);
        assert_eq!(table.live(), 0);
    }

    /// The deep-queue outage instance: the quadrangle shape at C=1000
    /// under 900 Erlang/pair with link 0-1 down 1.0 of every 2.5, where
    /// ~10k concurrent calls keep the event queue deep while mass
    /// teardowns and re-arrivals churn it — the calendar's resize and
    /// bucket-width paths at a depth the queue-level proptests never
    /// reach. Returns `(plan, traffic, failures, H, (warmup, horizon))`.
    fn deep_outage() -> (RoutingPlan, TrafficMatrix, FailureSchedule, u32, (f64, f64)) {
        let traffic = TrafficMatrix::uniform(4, 900.0);
        let plan = RoutingPlan::min_hop(topologies::full_mesh(4, 1000), &traffic, 3);
        let link01 = plan.topology().link_between(0, 1).unwrap();
        let mut failures = FailureSchedule::none();
        for down in [1.0, 3.5] {
            failures = failures.with_outage(link01, down, down + 1.0);
        }
        (plan, traffic, failures, 3, (0.5, 4.5))
    }

    #[test]
    fn every_run_option_matches_the_serial_oracle_for_every_policy() {
        // Differential check across the whole policy dispatch: a scratch
        // arena recycled across policies and recorder-only runs must
        // reproduce the plain run's counters exactly. Two instances: the
        // quadrangle with an outage (teardown hooks reach the recorder),
        // and the deep-queue outage instance.
        use altroute_telemetry::RunTelemetry;

        let quadrangle = {
            let traffic = TrafficMatrix::uniform(4, 60.0);
            let plan = RoutingPlan::min_hop(topologies::quadrangle(), &traffic, 3);
            let link01 = plan.topology().link_between(0, 1).unwrap();
            let failures = FailureSchedule::none().with_outage(link01, 8.0, 14.0);
            (plan, traffic, failures, 3, (5.0, 30.0))
        };
        let mut scratch = KernelScratch::new();
        for (plan, traffic, failures, h, (warmup, horizon)) in [quadrangle, deep_outage()] {
            let capacities: Vec<u32> = plan.topology().links().iter().map(|l| l.capacity).collect();
            for policy in [
                PolicyKind::SinglePath,
                PolicyKind::UncontrolledAlternate { max_hops: h },
                PolicyKind::ControlledAlternate { max_hops: h },
                PolicyKind::OttKrishnan { max_hops: h },
                PolicyKind::DarSticky { max_hops: h },
                PolicyKind::BestOfD { max_hops: h, d: 2 },
            ] {
                let config = RunConfig {
                    plan: &plan,
                    policy,
                    traffic: &traffic,
                    warmup,
                    horizon,
                    seed: 2026,
                    failures: &failures,
                };
                let oracle = run_seed(&config);
                let window = (horizon - warmup) / 5.0;
                let mut oracle_t = RunTelemetry::new(warmup, horizon, window, capacities.clone());
                let recorded = Run::new(&config).recorder(&mut oracle_t).execute();
                assert_eq!(oracle, recorded, "{policy:?} recorded");
                assert!(
                    failures.events().is_empty() || oracle_t.dropped > 0,
                    "{policy:?}: the outage must reach the recorder"
                );
                assert_eq!(
                    oracle,
                    run_seed_pooled(&config, &mut scratch),
                    "{policy:?} pooled"
                );
            }
        }
    }

    /// What a popped event was, as far as rebuilding its schedules needs.
    #[derive(Debug, Clone, Copy)]
    enum Popped {
        /// An arrival of a source stream; `Some(hold)` when it was routed
        /// (and so scheduled its departure at `now + hold`).
        Arrival(u32, Option<f64>),
        Departure,
        Link,
    }

    /// The kernel's pop stream through its observer hooks: per pop, the
    /// time, the pending-event count after it, and what it was.
    #[derive(Default)]
    struct PopStream {
        pending: Option<Popped>,
        pops: Vec<(f64, usize, Popped)>,
    }

    impl KernelObserver for PopStream {
        fn arrival_routed(
            &mut self,
            _now: f64,
            stream: u32,
            _tier: Tier,
            _links: &[usize],
            hold: f64,
            _measured: bool,
        ) {
            self.pending = Some(Popped::Arrival(stream, Some(hold)));
        }
        fn arrival_blocked(&mut self, _now: f64, stream: u32, _hold: f64, _measured: bool) {
            self.pending = Some(Popped::Arrival(stream, None));
        }
        fn departure(&mut self, _now: f64, _call: u32, _gen: u32, _stale: bool) {
            self.pending = Some(Popped::Departure);
        }
        fn link_change(&mut self, _now: f64, _link: u32, _up: bool) {
            self.pending = Some(Popped::Link);
        }
        fn event_processed(&mut self, now: f64, queue_len: usize) {
            let popped = self.pending.take().expect("every pop reaches a hook");
            self.pops.push((now, queue_len, popped));
        }
    }

    #[test]
    fn deep_outage_pop_stream_replays_identically_on_both_queues() {
        // Record the kernel's pop stream on the deep-queue outage instance,
        // rebuild every schedule it made, and replay it through the
        // calendar queue and the binary heap in lockstep: the two must
        // pop the same times and hold the same number of events at every
        // step, matching the kernel's own stream. Only this depth
        // (>8192 pending, so >=8192 buckets) reaches the calendar's
        // largest resizes.
        let (plan, traffic, failures, h, (warmup, horizon)) = deep_outage();
        let config = RunConfig {
            plan: &plan,
            policy: PolicyKind::ControlledAlternate { max_hops: h },
            traffic: &traffic,
            warmup,
            horizon,
            seed: 2026,
            failures: &failures,
        };
        let mut stream = PopStream::default();
        Run::new(&config)
            .drive(|spec, _, scratch| run_named(&plan, config.policy, spec, &mut stream, scratch));
        let pops = stream.pops;
        let peak = pops.iter().map(|&(_, len, _)| len).max().unwrap_or(0);
        assert!(
            peak >= 10_000,
            "the instance must keep the queue deep: peak {peak}"
        );

        // Each arrival scheduled its source's next arrival (the next
        // popped arrival of the same stream) and, if routed, its
        // departure. Whatever no pop scheduled was scheduled up front:
        // every source's first arrival and every link event.
        let mut next_of_stream = std::collections::BTreeMap::new();
        let mut children = vec![Vec::new(); pops.len()];
        for (i, &(now, _, popped)) in pops.iter().enumerate().rev() {
            if let Popped::Arrival(stream, hold) = popped {
                children[i].extend(next_of_stream.insert(stream, now));
                children[i].extend(hold.map(|hold| now + hold));
            }
        }
        let mut initial: Vec<f64> = next_of_stream.into_values().collect();
        initial.extend(
            pops.iter()
                .filter(|p| matches!(p.2, Popped::Link))
                .map(|p| p.0),
        );

        let mut heap = EventQueue::new();
        let mut calendar = CalendarQueue::new();
        for &t in &initial {
            heap.schedule(t, ());
            calendar.schedule(t, ());
        }
        for (i, &(now, len, _)) in pops.iter().enumerate() {
            let popped = heap.pop().map(|(t, ())| t);
            assert_eq!(
                calendar.pop().map(|(t, ())| t),
                popped,
                "pop {i}: calendar vs heap"
            );
            assert_eq!(popped, Some(now), "pop {i}: heap vs kernel");
            for &t in &children[i] {
                heap.schedule(t, ());
                calendar.schedule(t, ());
            }
            assert_eq!(
                calendar.len(),
                heap.len(),
                "pop {i}: calendar vs heap length"
            );
            assert_eq!(heap.len(), len, "pop {i}: heap vs kernel length");
        }
    }

    #[test]
    fn outage_trace_shows_teardowns_then_stale_departures() {
        // End-to-end over the trace hook: with an outage that tears calls
        // down and slots that get reused, every torn-down call's original
        // departure must surface as a *stale* departure record, never as
        // a live release of the reused slot.
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 60.0);
        let plan = RoutingPlan::min_hop(topo, &m, 3);
        let link01 = plan.topology().link_between(0, 1).unwrap();
        let failures = FailureSchedule::none().with_outage(link01, 10.0, 20.0);
        let cfg = RunConfig {
            plan: &plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            traffic: &m,
            warmup: 0.0,
            horizon: 40.0,
            seed: 4242,
            failures: &failures,
        };
        let mut writer = crate::trace::BinaryTraceWriter::new(cfg.seed, "outage-regression");
        let r = Run::new(&cfg).sink(&mut writer).execute();
        assert!(r.dropped > 0);
        let (_, records) = crate::trace::decode_trace(&writer.finish()).unwrap();
        use crate::trace::TraceRecordKind as K;
        let torn: Vec<(u32, u32)> = records
            .iter()
            .filter_map(|rec| match rec.kind {
                K::Teardown { call, gen } => Some((call, gen)),
                _ => None,
            })
            .collect();
        assert!(!torn.is_empty(), "outage must tear down calls");
        // Each teardown's handle must later fire as a stale departure
        // (the handle can never match again once the generation bumps).
        for &(call, gen) in &torn {
            let mut saw_teardown = false;
            for rec in &records {
                match rec.kind {
                    K::Teardown { call: c, gen: g } if (c, g) == (call, gen) => {
                        saw_teardown = true;
                    }
                    K::Departure {
                        call: c,
                        gen: g,
                        stale,
                    } if (c, g) == (call, gen) && saw_teardown => {
                        assert!(
                            stale,
                            "departure for torn-down handle ({call},{gen}) must be stale"
                        );
                    }
                    _ => {}
                }
            }
        }
        // Slots were actually reused after teardown (the hazardous case).
        let reused = records.iter().any(|rec| {
            matches!(rec.kind, K::Departure { call, gen, stale: false }
                if torn.iter().any(|&(c, g)| c == call && gen > g))
        });
        assert!(reused, "scenario must exercise slot reuse after teardown");
    }

    #[test]
    fn stale_departures_cannot_touch_reused_slots() {
        // Regression for the generational call table: an outage tears
        // down calls early, their slots are reused by later calls, and
        // the original calls' departure events are still in the queue.
        // Without generation tags those stale departures would release
        // the *new* calls' circuits; the occupancy asserts
        // (double-release, negative occupancy) would abort the run.
        let topo = topologies::quadrangle();
        let m = TrafficMatrix::uniform(4, 60.0);
        let plan = RoutingPlan::min_hop(topo, &m, 3);
        let link01 = plan.topology().link_between(0, 1).unwrap();
        // Repeated short outages maximise teardown/reuse churn.
        let mut failures = FailureSchedule::none();
        for k in 0..6 {
            let down = 10.0 + 10.0 * f64::from(k);
            failures = failures.with_outage(link01, down, down + 5.0);
        }
        let cfg = RunConfig {
            plan: &plan,
            policy: PolicyKind::ControlledAlternate { max_hops: 3 },
            traffic: &m,
            warmup: 5.0,
            horizon: 80.0,
            seed: 77,
            failures: &failures,
        };
        let a = run_seed(&cfg);
        assert!(a.dropped > 0, "outages must tear down calls in progress");
        assert!(a.offered > 0 && a.blocked < a.offered);
        // Slot reuse happened: more calls were carried than table slots.
        let carried = a.carried_primary + a.carried_alternate;
        assert!(
            (a.metrics.call_table_high_water as u64) < carried,
            "high water {} vs carried {carried}",
            a.metrics.call_table_high_water
        );
        // And the whole run is reproducible, metrics included.
        let b = run_seed(&cfg);
        assert_eq!(a, b);
    }
}
