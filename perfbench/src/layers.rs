//! Tracing from the benchmark's own code.
//!
//! Nothing here changes the program: every number comes from wrappers
//! and observers the benchmark hands to public entry points.
//!
//! * [`TimedSelector`] and [`CountingAdmission`] wrap the real
//!   `core::select` selector and `simcore::kernel` admission policy that
//!   `sim::engine::run_seed_with_policy` drives. Every call is counted;
//!   every [`SAMPLE_EVERY`]-th selection is timed together with the
//!   admission probes it makes, so selection self time is measured
//!   without paying two clock reads on every call.
//! * [`TagSink`] and [`KernelRecorder`] ride the engine's trace-sink and
//!   recorder hooks: departures, stale departures, teardowns, and — for
//!   one replication per work unit — the popped event stream, which
//!   [`EventStream::hold_ns`] replays through both event-queue backends.
//! * [`Trace`] keeps every counter and span in memory; the report is
//!   written once, when the benchmark ends.

use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_core::select::{OttKrishnanSelector, TieredSelector};
use altroute_sim::engine::{run_seed_with_policy, RunConfig, SeedResult};
use altroute_sim::trace::{TraceDecision, TraceSink};
use altroute_simcore::kernel::{
    AdmissionPolicy, Link, LinkOccupancy, RouteSelector, Selection, Tier, TrunkReservation,
    Uncontrolled,
};
use altroute_simcore::queue::EventSchedule;
use altroute_simcore::{CalendarQueue, EventQueue};
use altroute_telemetry::{ArrivalOutcome, Recorder};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Every `SAMPLE_EVERY`-th call of a per-call layer is timed; every call
/// is counted.
pub const SAMPLE_EVERY: u64 = 8;

/// Longest event stream recorded for the queue replay (24 bytes each).
const MAX_STREAM: usize = 2_000_000;

/// Most spans kept in memory; later ones are counted as dropped.
const MAX_SPANS: usize = 20_000;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A replication's deterministic outputs hashed: equal results (wall
/// clock excluded, as in `SeedResult`'s own equality) hash equal.
pub fn fingerprint(r: &SeedResult) -> u64 {
    let mut h = DefaultHasher::new();
    (
        r.seed,
        r.offered,
        r.blocked,
        r.carried_primary,
        r.carried_alternate,
        r.dropped,
    )
        .hash(&mut h);
    r.per_pair_offered.hash(&mut h);
    r.per_pair_blocked.hash(&mut h);
    let m = &r.metrics;
    (
        m.events_processed,
        m.peak_queue_len,
        m.peak_concurrent_calls,
        m.call_table_high_water,
    )
        .hash(&mut h);
    for u in &m.link_utilization {
        u.to_bits().hash(&mut h);
    }
    h.finish()
}

/// An untraced replication as a later traced one must reproduce it.
#[derive(Debug, Clone, Copy)]
pub struct Twin {
    /// [`fingerprint`] of its result.
    pub print: u64,
    /// Its kernel wall time.
    pub kernel_s: f64,
}

impl Twin {
    /// The twin of `r`.
    pub fn of(r: &SeedResult) -> Self {
        Self {
            print: fingerprint(r),
            kernel_s: r.metrics.wall_clock_secs,
        }
    }
}

/// Counters the selector and admission wrappers of one replication
/// share. One replication runs on one thread, so plain cells suffice.
#[derive(Debug, Default)]
pub struct Tap {
    sampling: Cell<bool>,
    admission_ns: Cell<u64>,
    probes: Cell<u64>,
    accepts: Cell<u64>,
}

/// An [`AdmissionPolicy`] that counts path probes and admits, and times
/// the probes made inside a sampled selection.
pub struct CountingAdmission<'t, A> {
    inner: A,
    tap: &'t Tap,
}

impl<A: AdmissionPolicy> AdmissionPolicy for CountingAdmission<'_, A> {
    fn admits(&self, view: &LinkOccupancy, link: Link, tier: Tier, bandwidth: u32) -> bool {
        self.inner.admits(view, link, tier, bandwidth)
    }

    fn path_admits(&self, view: &LinkOccupancy, path: &[Link], tier: Tier, bandwidth: u32) -> bool {
        let tap = self.tap;
        tap.probes.set(tap.probes.get() + 1);
        let ok = if tap.sampling.get() {
            let t = Instant::now();
            let ok = self.inner.path_admits(view, path, tier, bandwidth);
            tap.admission_ns.set(tap.admission_ns.get() + ns_since(t));
            ok
        } else {
            self.inner.path_admits(view, path, tier, bandwidth)
        };
        if ok {
            tap.accepts.set(tap.accepts.get() + 1);
        }
        ok
    }

    fn set_levels(&mut self, levels: &[u32]) {
        self.inner.set_levels(levels);
    }
}

/// Selection counts and sampled timings of one or more replications.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelectStats {
    /// `select` calls (one per arrival).
    pub calls: u64,
    /// Calls routed on an alternate path.
    pub alternate: u64,
    /// Calls blocked.
    pub blocked: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Wall time of the timed calls.
    pub sampled_ns: u64,
    /// Admission time inside the timed calls.
    pub sampled_admission_ns: u64,
    /// Path probes made by the admission policy (all calls).
    pub probes: u64,
    /// Probes the admission policy accepted.
    pub accepts: u64,
}

impl SelectStats {
    fn absorb(&mut self, o: &SelectStats) {
        self.calls += o.calls;
        self.alternate += o.alternate;
        self.blocked += o.blocked;
        self.sampled += o.sampled;
        self.sampled_ns += o.sampled_ns;
        self.sampled_admission_ns += o.sampled_admission_ns;
        self.probes += o.probes;
        self.accepts += o.accepts;
    }

    /// Estimated total selection time of all calls, in seconds.
    fn total_s(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        self.sampled_ns as f64 / self.sampled as f64 * self.calls as f64 * 1e-9
    }
}

/// A [`RouteSelector`] that counts outcomes and times sampled calls.
pub struct TimedSelector<'t, S> {
    inner: S,
    tap: &'t Tap,
    stats: SelectStats,
}

impl<'p, S: RouteSelector<'p>> RouteSelector<'p> for TimedSelector<'_, S> {
    fn select<A: AdmissionPolicy>(
        &mut self,
        src: usize,
        dst: usize,
        pick: f64,
        view: &LinkOccupancy,
        admission: &A,
        bandwidth: u32,
    ) -> Selection<'p> {
        self.stats.calls += 1;
        let selection = if self.stats.calls.is_multiple_of(SAMPLE_EVERY) {
            self.tap.sampling.set(true);
            self.tap.admission_ns.set(0);
            let t = Instant::now();
            let s = self
                .inner
                .select(src, dst, pick, view, admission, bandwidth);
            self.stats.sampled_ns += ns_since(t);
            self.tap.sampling.set(false);
            self.stats.sampled += 1;
            self.stats.sampled_admission_ns += self.tap.admission_ns.get();
            s
        } else {
            self.inner
                .select(src, dst, pick, view, admission, bandwidth)
        };
        match selection {
            Selection::Route {
                tier: Tier::Alternate,
                ..
            } => self.stats.alternate += 1,
            Selection::Blocked => self.stats.blocked += 1,
            Selection::Route { .. } => {}
        }
        selection
    }

    fn observe_arrival(&mut self, src: usize, dst: usize, pick: f64) {
        self.inner.observe_arrival(src, dst, pick);
    }

    fn tick<A: AdmissionPolicy>(&mut self, now: f64, admission: &mut A) {
        self.inner.tick(now, admission);
    }

    fn shardable(&self) -> bool {
        self.inner.shardable()
    }
}

/// The engine's trace-sink hook, used only for the pair tag of each
/// arrival while the event stream is being recorded.
struct TagSink {
    recording: bool,
    tags: Vec<u32>,
}

impl TraceSink for TagSink {
    fn arrival(&mut self, _time: f64, pair: u32, _decision: TraceDecision<'_>) {
        if self.recording {
            self.tags.push(pair);
        }
    }
    fn departure(&mut self, _: f64, _: u32, _: u32, _: bool) {}
    fn teardown(&mut self, _: f64, _: u32, _: u32) {}
    fn link_change(&mut self, _: f64, _: u32, _: bool) {}
}

/// What a popped event was, as far as the queue replay needs to know.
#[derive(Debug, Clone, Copy)]
enum Popped {
    /// An arrival; `Some(hold)` when it was routed (and so scheduled its
    /// departure at `now + hold`).
    Arrival(Option<f64>),
    Departure,
    Link,
}

#[derive(Debug, Clone, Copy)]
struct Rec {
    time: f64,
    queue_len: u32,
    what: Popped,
}

/// The engine's recorder hook: departure and teardown counts for every
/// traced replication, and the popped event stream for recorded ones.
struct KernelRecorder {
    recording: bool,
    overflow: bool,
    pending: Popped,
    recs: Vec<Rec>,
    departures: u64,
    stale: u64,
    teardowns: u64,
}

impl Recorder for KernelRecorder {
    fn event(&mut self, now: f64, queue_len: usize) {
        if !self.recording {
            return;
        }
        if self.recs.len() == MAX_STREAM {
            self.overflow = true;
            self.recording = false;
            return;
        }
        self.recs.push(Rec {
            time: now,
            queue_len: u32::try_from(queue_len).unwrap_or(u32::MAX),
            what: self.pending,
        });
    }

    fn arrival(
        &mut self,
        _now: f64,
        _measured: bool,
        outcome: ArrivalOutcome,
        _hops: u8,
        hold: f64,
    ) {
        self.pending = Popped::Arrival(match outcome {
            ArrivalOutcome::Blocked => None,
            _ => Some(hold),
        });
    }

    fn departure(&mut self, _now: f64, stale: bool) {
        self.departures += 1;
        self.stale += u64::from(stale);
        self.pending = Popped::Departure;
    }

    fn link_state(&mut self, _now: f64, _link: u32, _up: bool) {
        self.pending = Popped::Link;
    }

    fn teardown(&mut self, _now: f64, _measured: bool) {
        self.teardowns += 1;
    }
}

/// Everything one traced replication measured. `Send`, so pool workers
/// can hand it back.
#[derive(Debug)]
pub struct RepTrace {
    /// Selection and admission counts.
    pub select: SelectStats,
    /// Departure events that fired.
    pub departures: u64,
    /// Departure events of calls already torn down.
    pub stale: u64,
    /// Calls torn down by link failures.
    pub teardowns: u64,
    /// The recorded event stream, if this replication recorded one.
    pub stream: Option<EventStream>,
    /// Wall time of the traced replication.
    pub wall_s: f64,
}

/// Runs one replication of `config` through `run_seed_with_policy` with
/// the real admission policy and selector for its policy wrapped in
/// counting and timing layers. `record` also captures the event stream.
///
/// # Panics
///
/// Panics for a policy no benchmark workload uses.
pub fn traced_replication(config: &RunConfig<'_>, record: bool) -> (SeedResult, RepTrace) {
    let plan: &RoutingPlan = config.plan;
    let tap = Tap::default();
    let mut sink = TagSink {
        recording: record,
        tags: Vec::new(),
    };
    let mut rec = KernelRecorder {
        recording: record,
        overflow: false,
        pending: Popped::Link,
        recs: Vec::new(),
        departures: 0,
        stale: 0,
        teardowns: 0,
    };
    let started = Instant::now();
    // The engine's policy table, for the policies the workloads run.
    let (result, mut select) = match config.policy {
        PolicyKind::SinglePath => run_wrapped(
            config,
            &tap,
            Uncontrolled,
            TieredSelector::single_path(plan),
            &mut sink,
            &mut rec,
        ),
        PolicyKind::UncontrolledAlternate { .. } => run_wrapped(
            config,
            &tap,
            Uncontrolled,
            TieredSelector::new(plan),
            &mut sink,
            &mut rec,
        ),
        PolicyKind::ControlledAlternate { .. } => run_wrapped(
            config,
            &tap,
            TrunkReservation::new(plan.protection_levels().to_vec()),
            TieredSelector::new(plan),
            &mut sink,
            &mut rec,
        ),
        PolicyKind::OttKrishnan { .. } => run_wrapped(
            config,
            &tap,
            Uncontrolled,
            OttKrishnanSelector::new(plan),
            &mut sink,
            &mut rec,
        ),
        other => panic!(
            "policy {} is not part of a benchmark workload",
            other.name()
        ),
    };
    let wall_s = started.elapsed().as_secs_f64();
    select.probes = tap.probes.get();
    select.accepts = tap.accepts.get();
    let stream = (record && !rec.overflow).then_some(EventStream {
        recs: rec.recs,
        tags: sink.tags,
    });
    let trace = RepTrace {
        select,
        departures: rec.departures,
        stale: rec.stale,
        teardowns: rec.teardowns,
        stream,
        wall_s,
    };
    (result, trace)
}

fn run_wrapped<'p, A: AdmissionPolicy, S: RouteSelector<'p>>(
    config: &RunConfig<'_>,
    tap: &Tap,
    admission: A,
    selector: S,
    sink: &mut TagSink,
    rec: &mut KernelRecorder,
) -> (SeedResult, SelectStats) {
    let mut admission = CountingAdmission {
        inner: admission,
        tap,
    };
    let mut selector = TimedSelector {
        inner: selector,
        tap,
        stats: SelectStats::default(),
    };
    let result = run_seed_with_policy(config, &mut admission, &mut selector, sink, rec);
    (result, selector.stats)
}

/// The popped event stream of one replication, with enough structure to
/// rebuild every `schedule` the kernel made: an arrival schedules the
/// pair's next arrival (the next arrival with the same tag) and, when
/// routed, its own departure at `now + hold`.
#[derive(Debug)]
pub struct EventStream {
    recs: Vec<Rec>,
    tags: Vec<u32>,
}

/// The replay's inputs, precomputed so the timed loop does queue work
/// only.
struct Replay {
    initial: Vec<f64>,
    times: Vec<f64>,
    queue_lens: Vec<u32>,
    /// Per popped event: (next arrival of the pair, departure), NaN for
    /// none.
    children: Vec<(f64, f64)>,
}

impl EventStream {
    /// Deepest pending-event count the replication reached.
    pub fn peak_len(&self) -> u64 {
        self.recs
            .iter()
            .map(|r| u64::from(r.queue_len))
            .max()
            .unwrap_or(0)
    }

    fn replay_plan(&self) -> Replay {
        let n = self.recs.len();
        let mut tag_of = vec![u32::MAX; n];
        let mut tags = self.tags.iter();
        for (i, r) in self.recs.iter().enumerate() {
            if let Popped::Arrival(_) = r.what {
                tag_of[i] = *tags.next().expect("one tag per recorded arrival");
            }
        }
        let slots = self.tags.iter().max().map_or(0, |&t| t as usize + 1);
        let mut next_time = vec![f64::NAN; slots];
        let mut children = vec![(f64::NAN, f64::NAN); n];
        for i in (0..n).rev() {
            let r = &self.recs[i];
            if let Popped::Arrival(hold) = r.what {
                let tag = tag_of[i] as usize;
                let departure = hold.map_or(f64::NAN, |h| r.time + h);
                children[i] = (next_time[tag], departure);
                next_time[tag] = r.time;
            }
        }
        // Whatever was never scheduled by an earlier pop was scheduled
        // before the first: each pair's first arrival and every link
        // event.
        let mut initial: Vec<f64> = next_time.into_iter().filter(|t| !t.is_nan()).collect();
        initial.extend(
            self.recs
                .iter()
                .filter(|r| matches!(r.what, Popped::Link))
                .map(|r| r.time),
        );
        Replay {
            initial,
            times: self.recs.iter().map(|r| r.time).collect(),
            queue_lens: self.recs.iter().map(|r| r.queue_len).collect(),
            children,
        }
    }

    /// Replays the stream through the calendar queue and the binary-heap
    /// queue, `reps` times each, alternating. Returns the median ns per
    /// pop (with its schedules) for each backend and whether every pop
    /// time and queue length matched the recorded ones.
    pub fn hold_ns(&self, reps: usize) -> (f64, f64, bool) {
        let plan = self.replay_plan();
        let (mut calendar, mut heap) = (Vec::new(), Vec::new());
        let mut exact = true;
        for _ in 0..reps {
            let (ns, ok) = replay(&plan, CalendarQueue::new());
            calendar.push(ns);
            exact &= ok;
            let (ns, ok) = replay(&plan, EventQueue::new());
            heap.push(ns);
            exact &= ok;
        }
        (
            crate::stats::median(&calendar),
            crate::stats::median(&heap),
            exact,
        )
    }
}

/// One timed replay; the payload mimics the kernel's 12-byte event.
fn replay<Q: EventSchedule<(u32, u32, u32)>>(plan: &Replay, mut queue: Q) -> (f64, bool) {
    for &t in &plan.initial {
        queue.schedule(t, (0, 0, 0));
    }
    let mut exact = true;
    let started = Instant::now();
    for (i, &(next, departure)) in plan.children.iter().enumerate() {
        let popped = queue.peek_time().and_then(|_| queue.pop());
        let Some((t, _)) = popped else {
            return (f64::NAN, false);
        };
        exact &= t == plan.times[i];
        if !next.is_nan() {
            queue.schedule(next, (i as u32, 0, 0));
        }
        if !departure.is_nan() {
            queue.schedule(departure, (i as u32, 1, 0));
        }
        exact &= queue.len() == plan.queue_lens[i] as usize;
    }
    let ns = ns_since(started) as f64 / plan.children.len().max(1) as f64;
    std::hint::black_box(&queue);
    (ns, exact)
}

/// Count and total time of one sampled per-call layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sampled {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub timed: u64,
    /// Total time of the timed calls.
    pub ns: u64,
}

impl Sampled {
    /// Mean ns per timed call (0 if none was timed).
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.ns as f64 / self.timed as f64
        }
    }
}

/// Which layer groups a traced workload reaches on its own.
pub mod reach {
    /// Event queue, route selection, admission, and the kernel loop.
    pub const KERNEL: u8 = 1;
    /// The replication worker pool.
    pub const POOL: u8 = 2;
    /// Routing-plan build and PathStore fill and lookup.
    pub const STORE: u8 = 4;
    /// PathStore invalidation and refill under link churn.
    pub const CHURN: u8 = 8;
    /// The Eq.-15 solver.
    pub const EQ15: u8 = 16;
    /// Feed parsing, the controller, and update rendering.
    pub const FEED: u8 = 32;
    /// Every group.
    pub const ALL: u8 = 63;
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span kind: `unit`, `point`, `round`, `replication`, or a layer.
    pub name: &'static str,
    /// What it covered (load, policy, seed, round, ...).
    pub detail: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Counters aggregated over the span (per-call layers: count and
    /// total ns).
    pub counters: Vec<(&'static str, u64)>,
}

/// Every number the traced run collects, kept in memory until the end.
#[derive(Debug)]
pub struct Trace {
    /// Layer groups measured by the traced workload itself.
    pub reach: u8,
    /// Traced work units.
    pub units: u64,
    /// Selection and admission, all traced replications.
    pub select: SelectStats,
    /// Kernel events of the traced replications.
    pub events: u64,
    /// Kernel wall of the matching untraced replications.
    pub untraced_kernel_s: f64,
    /// Departure events, stale ones, and teardowns.
    pub departures: u64,
    /// Departure events of calls already torn down.
    pub stale: u64,
    /// Calls torn down by link failures.
    pub teardowns: u64,
    /// ns per pop+schedule on the calendar queue, per replay.
    pub calendar_hold_ns: Vec<f64>,
    /// ns per pop+schedule on the binary heap, per replay.
    pub heap_hold_ns: Vec<f64>,
    /// Deepest recorded queue.
    pub queue_peak_len: u64,
    /// Sum of replication walls inside the pool.
    pub pool_busy_s: f64,
    /// Workers × pool wall.
    pub pool_capacity_s: f64,
    /// Routing-plan construction per set-up.
    pub plan_build_s: Vec<f64>,
    /// PathStore warm-up per set-up.
    pub fill_s: Vec<f64>,
    /// Warm `candidates()` lookups.
    pub lookup_ns: Vec<f64>,
    /// Eq.-15 solves over the workload's loads.
    pub eq15_us: Vec<f64>,
    /// Invalidation (failure + revival) per churn report.
    pub invalidate_s: Vec<f64>,
    /// Refill of the demanded pairs per churn report.
    pub refill_s: Vec<f64>,
    /// Pairs evicted per churn report.
    pub evicted_pairs: Vec<f64>,
    /// `telemetry::feed::parse_line`.
    pub parse: Sampled,
    /// `Controller::push` calls that closed no window.
    pub push: Sampled,
    /// `Controller::push` calls that closed a window.
    pub window_push: Sampled,
    /// `altrouted::service::render_update`.
    pub render: Sampled,
    /// Eq.-15 re-solves and the updates they emitted.
    pub solves: u64,
    /// Level updates emitted.
    pub updates: u64,
    /// Traced wall over untraced wall, minus one, per unit pair.
    pub overhead: Vec<f64>,
    /// Spans, in closing order.
    pub spans: Vec<Span>,
    /// Spans not kept because of the cap.
    pub dropped_spans: u64,
    epoch: Instant,
}

impl Trace {
    /// An empty trace for a workload reaching `reach`.
    pub fn new(reach: u8) -> Self {
        Self {
            reach,
            units: 0,
            select: SelectStats::default(),
            events: 0,
            untraced_kernel_s: 0.0,
            departures: 0,
            stale: 0,
            teardowns: 0,
            calendar_hold_ns: Vec::new(),
            heap_hold_ns: Vec::new(),
            queue_peak_len: 0,
            pool_busy_s: 0.0,
            pool_capacity_s: 0.0,
            plan_build_s: Vec::new(),
            fill_s: Vec::new(),
            lookup_ns: Vec::new(),
            eq15_us: Vec::new(),
            invalidate_s: Vec::new(),
            refill_s: Vec::new(),
            evicted_pairs: Vec::new(),
            parse: Sampled::default(),
            push: Sampled::default(),
            window_push: Sampled::default(),
            render: Sampled::default(),
            solves: 0,
            updates: 0,
            overhead: Vec::new(),
            spans: Vec::new(),
            dropped_spans: 0,
            epoch: Instant::now(),
        }
    }

    /// Ns from the trace's start to `t`.
    pub fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a closed span that started at `start` and returns its
    /// index (for children), or `None` once the cap is reached.
    pub fn span(
        &mut self,
        name: &'static str,
        detail: String,
        parent: Option<usize>,
        start: Instant,
        dur_ns: u64,
        counters: Vec<(&'static str, u64)>,
    ) -> Option<usize> {
        if self.spans.len() == MAX_SPANS {
            self.dropped_spans += 1;
            return None;
        }
        let start_ns = self.offset_ns(start);
        self.spans.push(Span {
            name,
            detail,
            parent,
            start_ns,
            dur_ns,
            counters,
        });
        Some(self.spans.len() - 1)
    }

    /// Folds one traced replication in (its untraced twin took
    /// `untraced_s` of kernel wall) and records its span.
    pub fn add_replication(
        &mut self,
        rep: &RepTrace,
        result: &SeedResult,
        untraced_s: f64,
        detail: String,
        parent: Option<usize>,
        start: Instant,
    ) {
        self.select.absorb(&rep.select);
        self.events += result.metrics.events_processed;
        self.untraced_kernel_s += untraced_s;
        self.departures += rep.departures;
        self.stale += rep.stale;
        self.teardowns += rep.teardowns;
        let s = &rep.select;
        let est_select_ns = (s.total_s() * 1e9) as u64;
        let est_admission_ns = (s.sampled_admission_ns * s.calls)
            .checked_div(s.sampled)
            .unwrap_or(0);
        self.span(
            "replication",
            detail,
            parent,
            start,
            (rep.wall_s * 1e9) as u64,
            vec![
                ("events", result.metrics.events_processed),
                ("select.calls", s.calls),
                ("select.ns", est_select_ns),
                ("admission.probes", s.probes),
                ("admission.ns", est_admission_ns),
                ("teardowns", rep.teardowns),
            ],
        );
    }

    /// Replays a recorded event stream through both queue backends.
    /// Returns whether the replay reproduced the recorded stream.
    pub fn add_stream(&mut self, stream: &EventStream) -> bool {
        let (calendar, heap, exact) = stream.hold_ns(5);
        self.calendar_hold_ns.push(calendar);
        self.heap_hold_ns.push(heap);
        self.queue_peak_len = self.queue_peak_len.max(stream.peak_len());
        exact
    }

    /// The per-layer metrics of the groups in `groups`, in report order:
    /// `(name, value, unit)`.
    pub fn metrics(&self, groups: u8) -> Vec<(&'static str, f64, &'static str)> {
        use crate::stats::median;
        let per_unit = |x: u64| x as f64 / self.units.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut out = Vec::new();
        if groups & reach::KERNEL != 0 {
            let s = &self.select;
            let self_ns = if s.sampled == 0 {
                0.0
            } else {
                (s.sampled_ns - s.sampled_admission_ns.min(s.sampled_ns)) as f64 / s.sampled as f64
            };
            let kernel_self =
                (self.untraced_kernel_s - s.total_s()).max(0.0) * 1e9 / self.events.max(1) as f64;
            out.extend([
                ("calendar.hold_ns", median(&self.calendar_hold_ns), "ns"),
                ("heap.hold_ns", median(&self.heap_hold_ns), "ns"),
                ("queue.peak_len", self.queue_peak_len as f64, "count"),
                ("select.calls", per_unit(s.calls), "count"),
                ("select.self_ns", self_ns, "ns"),
                (
                    "select.alternate_share",
                    ratio(s.alternate, s.calls),
                    "ratio",
                ),
                ("select.blocked_share", ratio(s.blocked, s.calls), "ratio"),
                (
                    "admission.probes_per_call",
                    ratio(s.probes, s.calls),
                    "probes/call",
                ),
                (
                    "admission.accept_share",
                    ratio(s.accepts, s.probes),
                    "ratio",
                ),
                ("kernel.self_ns_per_event", kernel_self, "ns"),
                ("kernel.teardowns", per_unit(self.teardowns), "count"),
                (
                    "kernel.stale_departure_share",
                    ratio(self.stale, self.departures),
                    "ratio",
                ),
            ]);
        }
        if groups & reach::STORE != 0 {
            out.extend([
                ("plan.build_s", median(&self.plan_build_s), "s"),
                ("pathstore.fill_s", median(&self.fill_s), "s"),
                ("pathstore.lookup_ns", median(&self.lookup_ns), "ns"),
            ]);
        }
        if groups & reach::CHURN != 0 {
            out.extend([
                ("pathstore.invalidate_s", median(&self.invalidate_s), "s"),
                ("pathstore.refill_s", median(&self.refill_s), "s"),
                (
                    "pathstore.evicted_pairs",
                    median(&self.evicted_pairs),
                    "count",
                ),
            ]);
        }
        if groups & reach::EQ15 != 0 {
            out.push(("eq15.solve_us", median(&self.eq15_us), "us"));
        }
        if groups & reach::FEED != 0 {
            out.extend([
                ("feed.parse_ns", self.parse.mean_ns(), "ns"),
                ("control.push_ns", self.push.mean_ns(), "ns"),
                (
                    "control.window_push_us",
                    self.window_push.mean_ns() / 1e3,
                    "us",
                ),
                (
                    "control.update_share",
                    ratio(self.updates, self.solves),
                    "ratio",
                ),
                ("service.render_ns", self.render.mean_ns(), "ns"),
            ]);
        }
        if groups & reach::POOL != 0 {
            let busy = if self.pool_capacity_s > 0.0 {
                self.pool_busy_s / self.pool_capacity_s
            } else {
                0.0
            };
            out.push(("pool.busy_share", busy, "ratio"));
        }
        out
    }

    /// The span list as one JSON object.
    pub fn spans_json(&self) -> String {
        let mut s = String::from("{\"spans\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"detail\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{}",
                span.name,
                span.detail,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.start_ns,
                span.dur_ns
            );
            for (k, v) in &span.counters {
                let _ = write!(s, ",\"{k}\":{v}");
            }
            s.push('}');
        }
        let _ = write!(s, "],\"dropped\":{}}}", self.dropped_spans);
        s
    }
}
