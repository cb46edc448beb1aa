//! The shared discrete-event simulation kernel.
//!
//! Every simulator in this repository is the same machine wearing a
//! different policy: renewal arrival sources (Poisson unless a source
//! asks for [`InterArrival::Hyperexponential`] gaps) drawing (holding
//! time, routing pick, next gap) from per-source seed-derived streams,
//! one stable event queue (the [`CalendarQueue`]) driven with *peek*
//! semantics (the clock never passes the end of the measurement window),
//! a generational call table with a per-link teardown index, warm-up-aware
//! counters, and the [`EngineMetrics`] gauges. This module owns that
//! machine once; the five historical engines (single-rate mesh, adaptive
//! estimation, multirate, signaling, cellular borrowing) instantiate it
//! with two small strategy objects:
//!
//! * [`AdmissionPolicy`] — per-link accept/reject given occupancy,
//!   capacity, and protection level ([`Uncontrolled`] capacity-only
//!   admission, or [`TrunkReservation`] for the paper's Eq. 15 state
//!   protection, bandwidth-weighted for the multirate extension);
//! * [`RouteSelector`] — which path an admitted call takes (primary
//!   then alternates in Eq. 15 order, shadow-price minimisation, sticky
//!   DAR resampling, cellular channel borrowing, …). Selectors are
//!   stateful: they may keep sticky choices, online estimators (fed via
//!   [`RouteSelector::observe_arrival`] and the periodic
//!   [`RouteSelector::tick`]), and private RNG streams.
//!
//! Observability is threaded through [`KernelObserver`]: one adapter
//! maps the hooks onto the simulator's trace sinks and telemetry
//! recorders, so every policy instantiation gains tracing and telemetry
//! without touching the loop. The no-op [`NullObserver`] monomorphizes
//! to nothing.
//!
//! **Determinism contract.** For a fixed [`KernelSpec`], admission
//! policy, and selector, the event stream — and therefore the
//! [`KernelOutcome`] — is a pure function of the configuration. Draws
//! per arrival happen in a fixed order (holding time, routing pick,
//! next inter-arrival gap — an H2 gap draws its phase uniform, then its
//! exponential), independent of routing decisions, so two runs with the
//! same seed offer byte-identical call sequences to any two policies
//! (the paper's common random numbers).

use crate::calendar::CalendarQueue;
use crate::metrics::EngineMetrics;
use crate::rng::{RngStream, StreamFactory};
use crate::timeweighted::TimeWeighted;

/// A link identifier (index into the kernel's link state).
pub type Link = usize;

/// Which admission tier a call occupies on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The call is on its primary (directly offered) path.
    Primary,
    /// The call is alternate-routed (overflow), subject to protection.
    Alternate,
}

/// Live link state: capacities, occupancies, and up/down flags.
///
/// The single source of truth the kernel books against and policies
/// read from. Booking is strict: admitting over a full or down link is
/// a policy bug and panics immediately rather than corrupting counters.
#[derive(Debug, Clone, Default)]
pub struct LinkOccupancy {
    capacity: Vec<u32>,
    occupancy: Vec<u32>,
    up: Vec<bool>,
}

impl LinkOccupancy {
    /// An idle, fully-up network with the given per-link capacities.
    pub fn new(capacities: &[u32]) -> Self {
        let mut links = Self {
            capacity: Vec::new(),
            occupancy: Vec::new(),
            up: Vec::new(),
        };
        links.reset(capacities);
        links
    }

    /// Reinitializes to an idle, fully-up network with the given
    /// capacities, reusing the existing allocations (the scratch-arena
    /// path: replications recycle one `LinkOccupancy` instead of
    /// reallocating three vectors per seed).
    pub fn reset(&mut self, capacities: &[u32]) {
        self.capacity.clear();
        self.capacity.extend_from_slice(capacities);
        self.occupancy.clear();
        self.occupancy.resize(capacities.len(), 0);
        self.up.clear();
        self.up.resize(capacities.len(), true);
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.capacity.len()
    }

    /// The link's capacity in circuit (bandwidth) units.
    pub fn capacity(&self, link: Link) -> u32 {
        self.capacity[link]
    }

    /// Units currently booked on the link.
    pub fn occupancy(&self, link: Link) -> u32 {
        self.occupancy[link]
    }

    /// Whether the link is operational.
    pub fn is_up(&self, link: Link) -> bool {
        self.up[link]
    }

    /// Idle units on the link (0 while down).
    pub fn free(&self, link: Link) -> u32 {
        if self.up[link] {
            self.capacity[link] - self.occupancy[link]
        } else {
            0
        }
    }

    /// Marks the link operational.
    pub fn set_up(&mut self, link: Link) {
        self.up[link] = true;
    }

    /// Marks the link failed. In-progress calls are the caller's
    /// problem (the kernel tears them down via its link index).
    pub fn set_down(&mut self, link: Link) {
        self.up[link] = false;
    }

    /// Books `bandwidth` units on every link of `path`. A link listed
    /// `k` times books `k × bandwidth` units on it, and the precheck
    /// accounts for that: a path revisiting a link must fit the summed
    /// booking, not just one traversal at a time.
    ///
    /// # Panics
    ///
    /// Panics if any link is down or lacks the capacity for every
    /// traversal of it in `path` — the admission decision and the
    /// booking must agree.
    pub fn book(&mut self, path: &[Link], bandwidth: u32) {
        for (i, &l) in path.iter().enumerate() {
            assert!(self.up[l], "booked over a down link {l}");
            // Count this link's earlier occurrences in the path so the
            // precheck sums repeated traversals instead of approving
            // each one against the same pre-booking occupancy.
            let traversals = 1 + path[..i].iter().filter(|&&p| p == l).count() as u32;
            assert!(
                self.occupancy[l] + traversals * bandwidth <= self.capacity[l],
                "link {l} over capacity: {} + {traversals}x{bandwidth} > {}",
                self.occupancy[l],
                self.capacity[l]
            );
        }
        for &l in path {
            self.occupancy[l] += bandwidth;
        }
    }

    /// Releases `bandwidth` units on every link of `path`.
    ///
    /// # Panics
    ///
    /// Panics on releasing more than is booked (double release).
    pub fn release(&mut self, path: &[Link], bandwidth: u32) {
        for &l in path {
            assert!(
                self.occupancy[l] >= bandwidth,
                "released idle capacity on link {l}"
            );
            self.occupancy[l] -= bandwidth;
        }
    }
}

/// Per-link accept/reject for one call, given occupancy, capacity, and
/// (for alternates) the link's protection level.
///
/// Implementations must be pure functions of the view and their own
/// state: the kernel may probe many links per arrival.
pub trait AdmissionPolicy {
    /// May a call of `bandwidth` units at `tier` take link `link`?
    fn admits(&self, view: &LinkOccupancy, link: Link, tier: Tier, bandwidth: u32) -> bool;

    /// Whether every link of `path` admits the call.
    fn path_admits(&self, view: &LinkOccupancy, path: &[Link], tier: Tier, bandwidth: u32) -> bool {
        path.iter().all(|&l| self.admits(view, l, tier, bandwidth))
    }

    /// Installs new per-link protection levels (adaptive controllers
    /// re-estimate mid-run). Policies without protection ignore it.
    fn set_levels(&mut self, levels: &[u32]) {
        let _ = levels;
    }
}

/// Capacity-only admission: any up link with room admits, both tiers.
///
/// This is "uncontrolled alternate routing" — equivalently
/// [`TrunkReservation`] with every protection level at zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uncontrolled;

impl AdmissionPolicy for Uncontrolled {
    fn admits(&self, view: &LinkOccupancy, link: Link, _tier: Tier, bandwidth: u32) -> bool {
        view.is_up(link) && view.occupancy(link) + bandwidth <= view.capacity(link)
    }
}

/// The paper's state protection (Eq. 15), bandwidth-weighted: link `k`
/// admits a primary call while `occupancy + b ≤ C^k` and an
/// alternate-routed call only while `occupancy + b ≤ C^k − r^k` (never
/// when `r^k ≥ C^k`). This is classical trunk reservation with `r^k`
/// circuits reserved for directly offered traffic.
#[derive(Debug, Clone, Default)]
pub struct TrunkReservation {
    levels: Vec<u32>,
}

impl TrunkReservation {
    /// Reserves `levels[k]` circuits on link `k` against alternates. A
    /// short (or empty) vector means zero protection on the tail links.
    pub fn new(levels: Vec<u32>) -> Self {
        Self { levels }
    }

    /// The current protection levels.
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }
}

impl AdmissionPolicy for TrunkReservation {
    fn admits(&self, view: &LinkOccupancy, link: Link, tier: Tier, bandwidth: u32) -> bool {
        if !view.is_up(link) {
            return false;
        }
        let cap = view.capacity(link);
        let occ = view.occupancy(link);
        match tier {
            Tier::Primary => occ + bandwidth <= cap,
            Tier::Alternate => {
                let r = self.levels.get(link).copied().unwrap_or(0);
                cap > r && occ + bandwidth <= cap - r
            }
        }
    }

    fn set_levels(&mut self, levels: &[u32]) {
        self.levels.clear();
        self.levels.extend_from_slice(levels);
    }
}

/// The route selected for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection<'p> {
    /// Carry the call over `links` at `tier`.
    Route {
        /// The links of the selected path, in path order (borrowed from
        /// the selector's plan — the kernel never allocates per call).
        links: &'p [Link],
        /// Primary or alternate, for class accounting and protection.
        tier: Tier,
    },
    /// Block (lose) the call.
    Blocked,
}

/// Chooses the path (if any) for each arriving call.
///
/// Selectors may hold mutable state — sticky alternates, online load
/// estimators, private RNG streams — which is what distinguishes them
/// from the pure [`AdmissionPolicy`]. The lifetime `'p` ties returned
/// paths to the routing structures the selector borrows from.
pub trait RouteSelector<'p> {
    /// Decides the route for a call `src → dst` of `bandwidth` units.
    ///
    /// `pick` is the arrival's routing-pick uniform in `[0, 1)` (used
    /// e.g. to sample among bifurcated primaries); it is drawn from the
    /// arrival's own stream whether or not the selector uses it, so
    /// selection strategies never perturb the arrival processes.
    fn select<A: AdmissionPolicy>(
        &mut self,
        src: usize,
        dst: usize,
        pick: f64,
        view: &LinkOccupancy,
        admission: &A,
        bandwidth: u32,
    ) -> Selection<'p>;

    /// Called for every arrival (measured or not) before [`select`]
    /// — the hook online estimators count set-ups through. Default:
    /// nothing.
    ///
    /// [`select`]: RouteSelector::select
    fn observe_arrival(&mut self, src: usize, dst: usize, pick: f64) {
        let _ = (src, dst, pick);
    }

    /// Periodic hook at the configured
    /// [`tick_interval`](KernelConfig::tick_interval); adaptive
    /// controllers re-estimate here and push new levels through
    /// [`AdmissionPolicy::set_levels`]. Default: nothing.
    fn tick<A: AdmissionPolicy>(&mut self, now: f64, admission: &mut A) {
        let _ = (now, admission);
    }

    /// Unused: nothing in the workspace reads it, and every replication
    /// runs on the serial kernel. It stays only because the perfbench
    /// harness's timing selector overrides it.
    fn shardable(&self) -> bool {
        false
    }
}

/// Observer of the kernel's event stream, called at the same points the
/// historical engine called its trace sink and telemetry recorder.
/// The default methods do nothing; [`NullObserver`] monomorphizes away.
pub trait KernelObserver {
    /// An arrival of the source with stream id `stream` was routed over
    /// `links` at `tier`, about to be booked; `hold` is its drawn holding
    /// time.
    fn arrival_routed(
        &mut self,
        now: f64,
        stream: u32,
        tier: Tier,
        links: &[Link],
        hold: f64,
        measured: bool,
    ) {
        let _ = (now, stream, tier, links, hold, measured);
    }

    /// An arrival of the source with stream id `stream` was blocked.
    fn arrival_blocked(&mut self, now: f64, stream: u32, hold: f64, measured: bool) {
        let _ = (now, stream, hold, measured);
    }

    /// Link `link` now carries `occupancy` units (after a booking,
    /// release, or teardown touched it).
    fn occupancy_changed(&mut self, now: f64, link: Link, occupancy: u32) {
        let _ = (now, link, occupancy);
    }

    /// A departure event fired for call handle `(call, gen)`; `stale`
    /// when the generational table rejected it.
    fn departure(&mut self, now: f64, call: u32, gen: u32, stale: bool) {
        let _ = (now, call, gen, stale);
    }

    /// A link failure tore down in-progress call `(call, gen)`.
    fn teardown(&mut self, now: f64, call: u32, gen: u32, measured: bool) {
        let _ = (now, call, gen, measured);
    }

    /// Link `link` changed operational state.
    fn link_change(&mut self, now: f64, link: u32, up: bool) {
        let _ = (now, link, up);
    }

    /// An event finished processing; `queue_len` is the pending count.
    fn event_processed(&mut self, now: f64, queue_len: usize) {
        let _ = (now, queue_len);
    }
}

/// A [`KernelObserver`] that records nothing (the unobserved fast path).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl KernelObserver for NullObserver {}

/// The law of a source's inter-arrival gaps, drawn from its own stream.
#[derive(Debug, Clone, Copy, Default)]
pub enum InterArrival {
    /// Exponential gaps (a Poisson source): one `exp` draw per gap.
    #[default]
    Exponential,
    /// Balanced-means two-phase hyperexponential (H2) gaps of squared
    /// coefficient of variation `cv2`: one phase uniform, then one
    /// `exp` draw per gap. `cv2 <= 1` draws as `Exponential`.
    Hyperexponential {
        /// Squared coefficient of variation of the gaps.
        cv2: f64,
    },
}

impl InterArrival {
    /// Draws one gap of a source with mean rate `rate` from `stream`.
    pub fn draw(self, stream: &mut RngStream, rate: f64) -> f64 {
        match self {
            Self::Hyperexponential { cv2 } if cv2 > 1.0 => {
                // Balanced means: p/r1 = (1-p)/r2 = 1/(2 rate).
                let p = 0.5 * (1.0 + ((cv2 - 1.0) / (cv2 + 1.0)).sqrt());
                let phase = if stream.uniform() < p { p } else { 1.0 - p };
                stream.exp(2.0 * phase * rate)
            }
            _ => stream.exp(rate),
        }
    }
}

/// One arrival source (an O–D pair, a (class, pair), a cell): a renewal
/// process of rate `rate` whose gaps follow `gaps`.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalSource {
    /// Seed-derived RNG stream id. Stream ids are the common-random-
    /// numbers contract: keep them stable across policies. The id is
    /// also the source's identity: observers see it on every arrival,
    /// and the kernel counts its offered and blocked calls in tally slot
    /// `stream` (e.g. the pair id, or `class·n² + pair`).
    pub stream: u64,
    /// Origin handed to the selector.
    pub src: usize,
    /// Destination handed to the selector.
    pub dst: usize,
    /// Arrival rate (Erlangs, with unit-mean holding times).
    pub rate: f64,
    /// Bandwidth units each call books on every link of its path.
    pub bandwidth: u32,
    /// The law of the source's inter-arrival gaps.
    pub gaps: InterArrival,
}

/// A scheduled link state change.
#[derive(Debug, Clone, Copy)]
pub struct LinkEvent {
    /// When the change happens.
    pub at: f64,
    /// The link.
    pub link: Link,
    /// `true` for repair, `false` for failure.
    pub up: bool,
}

/// Clock and accounting configuration of one replication.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Warm-up duration discarded from statistics.
    pub warmup: f64,
    /// Measured duration after warm-up.
    pub horizon: f64,
    /// Master seed of this replication.
    pub seed: u64,
    /// Whether each arrival draws a routing-pick uniform between its
    /// holding time and next gap (the mesh simulators do; the cellular
    /// simulator and the overflow-peakedness binary historically do
    /// not, and flipping this would shift their streams).
    pub draw_pick: bool,
    /// Interval of the selector's periodic [`RouteSelector::tick`], if
    /// any.
    pub tick_interval: Option<f64>,
    /// Length of the per-tally offered/blocked vectors (e.g. `n²` for
    /// per-pair accounting); every source's `stream` must be below it.
    pub tally_slots: usize,
}

/// The static description of one replication: clock, links, sources,
/// and scheduled outages.
#[derive(Debug, Clone, Copy)]
pub struct KernelSpec<'a> {
    /// Clock and accounting configuration.
    pub config: KernelConfig,
    /// Per-link capacities.
    pub capacities: &'a [u32],
    /// Links down for the whole run.
    pub static_down: &'a [Link],
    /// The arrival sources, in a fixed order (scheduling order breaks
    /// event-queue ties, so the order is part of the determinism
    /// contract).
    pub sources: &'a [ArrivalSource],
    /// Timed link failures/repairs.
    pub link_events: &'a [LinkEvent],
    /// Per-link occupancy seeded at `t = 0` (warm start). Empty means a
    /// cold start; otherwise one entry per link, each at most the link's
    /// capacity and zero on statically-down links. Seeded units become
    /// *real* single-link calls with fresh unit-mean exponential
    /// residual holding times drawn from the dedicated
    /// [`WARM_START_STREAM`], so the seeded state decays naturally —
    /// exactly what metastability experiments need from a saturated
    /// start.
    pub initial_occupancy: &'a [u32],
}

/// Stream id of the warm-start residual holding times. Arrival streams
/// use small pair ids and selector-private streams count down from
/// `u64::MAX`, so the id space cannot collide.
pub const WARM_START_STREAM: u64 = u64::MAX - 2;

/// Counters and gauges from one kernel replication.
///
/// Equality compares the deterministic fields only: `warmup_wall` (and
/// the wall clock inside [`EngineMetrics`]) is measured, not simulated.
#[derive(Debug, Clone)]
pub struct KernelOutcome {
    /// Calls offered during the measurement window.
    pub offered: u64,
    /// Calls blocked during the measurement window.
    pub blocked: u64,
    /// Calls carried at [`Tier::Primary`].
    pub carried_primary: u64,
    /// Calls carried at [`Tier::Alternate`].
    pub carried_alternate: u64,
    /// Calls torn down mid-service by a link failure (not blocked).
    pub dropped: u64,
    /// Offered calls per tally slot.
    pub tally_offered: Vec<u64>,
    /// Blocked calls per tally slot.
    pub tally_blocked: Vec<u64>,
    /// Engine gauges (wall clock excluded from equality).
    pub metrics: EngineMetrics,
    /// Wall-clock seconds spent before the sim clock crossed the
    /// warm-up cut (equal to the total wall time if it never did).
    pub warmup_wall: f64,
}

impl PartialEq for KernelOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.offered == other.offered
            && self.blocked == other.blocked
            && self.carried_primary == other.carried_primary
            && self.carried_alternate == other.carried_alternate
            && self.dropped == other.dropped
            && self.tally_offered == other.tally_offered
            && self.tally_blocked == other.tally_blocked
            && self.metrics == other.metrics
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival { source: u32 },
    Departure { call: u32, gen: u32 },
    Link { link: u32, up: bool },
    Tick,
}

/// In-progress calls in a generational free-list table.
///
/// Slots are reused after calls end, so the table's size tracks the
/// *concurrent* call population instead of growing with every call ever
/// offered. Each slot carries a generation counter, bumped on free; a
/// departure event whose generation does not match is stale (its call
/// was torn down by an outage and the slot possibly reassigned) and is
/// ignored.
///
/// Paths live in one flat arena (structure-of-arrays: per-slot region
/// start/capacity/length alongside bandwidth and generation columns),
/// copied in on [`insert`](CallTable::insert) and copied out on
/// [`take_into`](CallTable::take_into). The table owns its storage —
/// no borrowed lifetimes — so a [`KernelScratch`] can recycle it across
/// replications; a freed slot keeps its arena region and reuses it for
/// the next call whose path fits.
#[derive(Debug, Default)]
pub struct CallTable {
    arena: Vec<Link>,
    start: Vec<usize>,
    region: Vec<u32>,
    path_len: Vec<u32>,
    occupied: Vec<bool>,
    bandwidth: Vec<u32>,
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
}

impl CallTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the table for a fresh replication, keeping the arena and
    /// column allocations (slot regions are rebuilt as calls arrive).
    pub fn reset(&mut self) {
        self.arena.clear();
        self.start.clear();
        self.region.clear();
        self.path_len.clear();
        self.occupied.clear();
        self.bandwidth.clear();
        self.gens.clear();
        self.free.clear();
        self.live = 0;
    }

    /// Registers a call, copying its path into the arena; returns its
    /// `(slot, generation)` handle.
    pub fn insert(&mut self, links: &[Link], bandwidth: u32) -> (u32, u32) {
        let plen = u32::try_from(links.len()).expect("path shorter than 2^32 links");
        self.live += 1;
        match self.free.pop() {
            Some(id) => {
                let slot = id as usize;
                debug_assert!(!self.occupied[slot], "free list held a live slot");
                if self.region[slot] < plen {
                    // The recycled region is too small: park the call in
                    // a fresh region at the arena's end. The old region
                    // leaks until reset — bounded, since regions only
                    // grow to the longest path a slot ever carried.
                    self.start[slot] = self.arena.len();
                    self.region[slot] = plen;
                    self.arena.resize(self.arena.len() + links.len(), 0);
                }
                let at = self.start[slot];
                self.arena[at..at + links.len()].copy_from_slice(links);
                self.path_len[slot] = plen;
                self.occupied[slot] = true;
                self.bandwidth[slot] = bandwidth;
                (id, self.gens[slot])
            }
            None => {
                let id = u32::try_from(self.start.len()).expect("fewer than 2^32 concurrent calls");
                self.start.push(self.arena.len());
                self.region.push(plen);
                self.path_len.push(plen);
                self.occupied.push(true);
                self.bandwidth.push(bandwidth);
                self.gens.push(0);
                self.arena.extend_from_slice(links);
                (id, 0)
            }
        }
    }

    /// Ends the call `(id, gen)`, copies its path into `path` (replacing
    /// the previous contents), and returns its booked bandwidth — or
    /// `None`, leaving `path` untouched, if the handle is stale (already
    /// ended, slot possibly reused).
    pub fn take_into(&mut self, id: u32, gen: u32, path: &mut Vec<Link>) -> Option<u32> {
        let slot = id as usize;
        if self.gens[slot] != gen || !self.occupied[slot] {
            return None;
        }
        let at = self.start[slot];
        path.clear();
        path.extend_from_slice(&self.arena[at..at + self.path_len[slot] as usize]);
        self.occupied[slot] = false;
        // Invalidate every outstanding handle to this slot before reuse.
        self.gens[slot] = gen.wrapping_add(1);
        self.free.push(id);
        self.live -= 1;
        Some(self.bandwidth[slot])
    }

    /// Whether the handle still refers to a call in progress.
    pub fn is_live(&self, id: u32, gen: u32) -> bool {
        self.gens[id as usize] == gen && self.occupied[id as usize]
    }

    /// Calls currently in progress.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Most slots ever allocated (≈ peak concurrent calls).
    pub fn high_water(&self) -> usize {
        self.start.len()
    }
}

/// Per-link index of the calls traversing each link, with lazy deletion.
///
/// Failure teardown must find every call on the failed link; scanning
/// the whole call table would make each outage O(all concurrent calls).
/// This index keeps, per link, the `(slot, generation)` handles of
/// calls that booked it. Departures only decrement a live counter (O(1)
/// per link of the path); stale handles are purged amortized, whenever
/// a link's entry list grows past twice its live count.
#[derive(Debug, Default)]
pub struct LinkIndex {
    entries: Vec<Vec<(u32, u32)>>,
    live: Vec<usize>,
}

impl LinkIndex {
    /// An empty index over `num_links` links.
    pub fn new(num_links: usize) -> Self {
        let mut index = Self {
            entries: Vec::new(),
            live: Vec::new(),
        };
        index.reset(num_links);
        index
    }

    /// Empties the index and resizes it to `num_links` links, keeping
    /// the per-link entry allocations where the link count allows.
    pub fn reset(&mut self, num_links: usize) {
        for entries in &mut self.entries {
            entries.clear();
        }
        self.entries.resize_with(num_links, Vec::new);
        self.entries.truncate(num_links);
        self.live.clear();
        self.live.resize(num_links, 0);
    }

    /// Registers a routed call on every link of its path.
    pub fn add(&mut self, links: &[Link], id: u32, gen: u32) {
        for &l in links {
            self.entries[l].push((id, gen));
            self.live[l] += 1;
        }
    }

    /// Notes that the call held by a handle left `link` (departure or
    /// teardown); compacts the link's entries when stale handles
    /// dominate.
    pub fn remove_one(&mut self, link: Link, table: &CallTable) {
        self.live[link] -= 1;
        // The +8 slack keeps tiny lists from compacting on every call.
        if self.entries[link].len() > 2 * self.live[link] + 8 {
            self.entries[link].retain(|&(id, gen)| table.is_live(id, gen));
        }
    }

    /// Moves the failed link's full handle list (live and stale mixed;
    /// the caller validates each against the call table) into `out`,
    /// replacing its contents. The two buffers swap, so both the index
    /// entry and the caller's buffer keep their allocations across
    /// outages.
    pub fn drain_into(&mut self, link: Link, out: &mut Vec<(u32, u32)>) {
        self.live[link] = 0;
        out.clear();
        std::mem::swap(out, &mut self.entries[link]);
    }
}

/// Reusable per-replication scratch: the calendar event queue, link
/// state, call table, link index, and every working buffer one kernel
/// run needs. [`run_pooled`] resets and reuses a scratch instead of
/// reallocating it, so a worker thread replaying many seeds touches the
/// allocator only when a run outgrows every previous one.
///
/// A freshly reset scratch behaves identically to a fresh one — reuse
/// recycles capacity, never state — so pooled results stay
/// byte-identical to [`run`].
#[derive(Debug, Default)]
pub struct KernelScratch {
    queue: CalendarQueue<Event>,
    state: LoopState,
}

impl KernelScratch {
    /// An empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Warm-up-aware call counters and per-tally vectors, accumulated by
/// the event handlers and assembled into a [`KernelOutcome`] exactly
/// once at the end of a run.
#[derive(Debug, Default)]
struct Counters {
    offered: u64,
    blocked: u64,
    carried_primary: u64,
    carried_alternate: u64,
    dropped: u64,
    tally_offered: Vec<u64>,
    tally_blocked: Vec<u64>,
}

impl Counters {
    /// Zeroed counters with `slots` tally entries.
    fn new(slots: usize) -> Self {
        Self {
            tally_offered: vec![0; slots],
            tally_blocked: vec![0; slots],
            ..Self::default()
        }
    }
}

/// Everything [`run_pooled`] recycles besides the event queue, reset
/// from each run's spec by [`prepare`](LoopState::prepare).
#[derive(Debug, Default)]
struct LoopState {
    links: LinkOccupancy,
    calls: CallTable,
    index: LinkIndex,
    /// Time-weighted occupancy per link, for the utilization gauge.
    occupancy: Vec<TimeWeighted>,
    streams: Vec<RngStream>,
    /// The path of the call currently being torn down or departing.
    path_buf: Vec<Link>,
    /// Handles drained from a failed link's index entry.
    torn: Vec<(u32, u32)>,
}

impl LoopState {
    /// Resets every piece of per-replication state from `spec`,
    /// recycling allocations: link occupancies and up/down flags, the
    /// call table, the link index, and the per-link time-weighted
    /// gauges. RNG streams are cleared here and rebuilt by
    /// [`seed_sources`](LoopState::seed_sources).
    fn prepare(&mut self, spec: &KernelSpec<'_>) {
        self.links.reset(spec.capacities);
        for &l in spec.static_down {
            self.links.set_down(l);
        }
        self.calls.reset();
        self.index.reset(self.links.num_links());
        self.occupancy.clear();
        let initial_occupancy = {
            let mut tw = TimeWeighted::new(spec.config.warmup);
            tw.record(0.0, 0.0);
            tw
        };
        self.occupancy
            .resize(self.links.num_links(), initial_occupancy);
        self.streams.clear();
    }

    /// Books the spec's `initial_occupancy` as real calls at `t = 0`:
    /// each seeded unit on link `l` is a single-link, bandwidth-1 call
    /// whose residual holding time is a fresh unit-mean exponential
    /// drawn from [`WARM_START_STREAM`], in link-major order. The calls
    /// live in the call table and the link index like any other, so
    /// departures free circuits and link failures tear them down; links
    /// with zero seeded units are untouched, which makes an all-zero
    /// warm start byte-identical to a cold one (observer stream
    /// included).
    fn seed_warm_start<O: KernelObserver>(
        &mut self,
        spec: &KernelSpec<'_>,
        queue: &mut CalendarQueue<Event>,
        observer: &mut O,
        metrics: &mut EngineMetrics,
    ) {
        let initial = spec.initial_occupancy;
        if initial.is_empty() {
            return;
        }
        assert_eq!(
            initial.len(),
            self.links.num_links(),
            "initial occupancy length mismatch"
        );
        let end = spec.config.warmup + spec.config.horizon;
        let mut stream = StreamFactory::new(spec.config.seed).stream(WARM_START_STREAM);
        for (l, &units) in initial.iter().enumerate() {
            if units == 0 {
                continue;
            }
            assert!(self.links.is_up(l), "cannot seed occupancy on a down link");
            assert!(
                units <= self.links.capacity(l),
                "initial occupancy exceeds capacity on link {l}"
            );
            let path = [l];
            for _ in 0..units {
                let hold = stream.holding_time();
                self.links.book(&path, 1);
                let (id, gen) = self.calls.insert(&path, 1);
                self.index.add(&path, id, gen);
                if hold < end {
                    queue.schedule(hold, Event::Departure { call: id, gen });
                }
            }
            let occ = self.links.occupancy(l);
            self.occupancy[l].record(0.0, f64::from(occ));
            observer.occupancy_changed(0.0, l, occ);
        }
        metrics.observe_concurrent_calls(self.calls.live());
    }

    /// Builds the per-source RNG streams, drawing every source's first
    /// inter-arrival gap, and schedules each first arrival inside the
    /// window.
    fn seed_sources(&mut self, spec: &KernelSpec<'_>, queue: &mut CalendarQueue<Event>) {
        let config = &spec.config;
        let end = config.warmup + config.horizon;
        let factory = StreamFactory::new(config.seed);
        for (i, source) in spec.sources.iter().enumerate() {
            assert!(
                source.stream < config.tally_slots as u64,
                "source stream out of tally range"
            );
            let mut stream = factory.stream(source.stream);
            let first = source.gaps.draw(&mut stream, source.rate);
            self.streams.push(stream);
            if first < end {
                queue.schedule(first, Event::Arrival { source: i as u32 });
            }
        }
    }

    /// Handles one arrival of `source`: draws (hold, pick, gap) in the
    /// fixed order, schedules the next arrival of the source, consults
    /// the selector, and books or blocks — exactly the historical
    /// arrival arm of the event loop.
    #[allow(clippy::too_many_arguments)]
    fn arrival<'p, A, R, O>(
        &mut self,
        now: f64,
        source: u32,
        spec: &KernelSpec<'_>,
        admission: &A,
        selector: &mut R,
        observer: &mut O,
        queue: &mut CalendarQueue<Event>,
        counters: &mut Counters,
        metrics: &mut EngineMetrics,
    ) where
        A: AdmissionPolicy,
        R: RouteSelector<'p>,
        O: KernelObserver,
    {
        let config = &spec.config;
        let end = config.warmup + config.horizon;
        let s = &spec.sources[source as usize];
        // Fixed draw order per arrival keeps streams aligned across
        // policies: holding time, routing pick, next gap.
        let stream = &mut self.streams[source as usize];
        let hold = stream.holding_time();
        let pick = if config.draw_pick {
            stream.uniform()
        } else {
            0.0
        };
        let gap = s.gaps.draw(stream, s.rate);
        if now + gap < end {
            queue.schedule(now + gap, Event::Arrival { source });
        }
        selector.observe_arrival(s.src, s.dst, pick);
        let measured = now >= config.warmup;
        if measured {
            counters.offered += 1;
            counters.tally_offered[s.stream as usize] += 1;
        }
        match selector.select(s.src, s.dst, pick, &self.links, admission, s.bandwidth) {
            Selection::Route { links: path, tier } => {
                observer.arrival_routed(now, s.stream as u32, tier, path, hold, measured);
                self.links.book(path, s.bandwidth);
                for &l in path {
                    self.occupancy[l].record(now, f64::from(self.links.occupancy(l)));
                    observer.occupancy_changed(now, l, self.links.occupancy(l));
                }
                let (id, gen) = self.calls.insert(path, s.bandwidth);
                self.index.add(path, id, gen);
                metrics.observe_concurrent_calls(self.calls.live());
                queue.schedule(now + hold, Event::Departure { call: id, gen });
                if measured {
                    match tier {
                        Tier::Primary => counters.carried_primary += 1,
                        Tier::Alternate => counters.carried_alternate += 1,
                    }
                }
            }
            Selection::Blocked => {
                observer.arrival_blocked(now, s.stream as u32, hold, measured);
                if measured {
                    counters.blocked += 1;
                    counters.tally_blocked[s.stream as usize] += 1;
                }
            }
        }
    }

    /// Handles one departure event for call handle `(call, gen)` —
    /// exactly the historical departure arm (stale handles from
    /// outage teardowns are observed and dropped).
    fn departure<O: KernelObserver>(&mut self, now: f64, call: u32, gen: u32, observer: &mut O) {
        let Self {
            links,
            calls,
            index,
            occupancy,
            path_buf,
            ..
        } = self;
        // A call torn down by a failure leaves a stale departure; the
        // generation check also rejects it if the slot has been
        // reassigned to a newer call since.
        if let Some(bandwidth) = calls.take_into(call, gen, path_buf) {
            observer.departure(now, call, gen, false);
            links.release(path_buf, bandwidth);
            for &l in path_buf.iter() {
                occupancy[l].record(now, f64::from(links.occupancy(l)));
                observer.occupancy_changed(now, l, links.occupancy(l));
                index.remove_one(l, calls);
            }
        } else {
            observer.departure(now, call, gen, true);
        }
    }

    /// Handles one link state change — exactly the historical link
    /// arm: a repair just raises the flag; a failure tears down every
    /// in-progress call over the link via the link index.
    fn link_change<O: KernelObserver>(
        &mut self,
        now: f64,
        link: Link,
        up: bool,
        warmup: f64,
        observer: &mut O,
        counters: &mut Counters,
    ) {
        observer.link_change(now, link as u32, up);
        if up {
            self.links.set_up(link);
            return;
        }
        self.links.set_down(link);
        let Self {
            links,
            calls,
            index,
            occupancy,
            path_buf,
            torn,
            ..
        } = self;
        // Tear down calls in progress over the failed link — only that
        // link's entries, not the whole call table.
        index.drain_into(link, torn);
        for &(id, gen) in torn.iter() {
            let Some(bandwidth) = calls.take_into(id, gen, path_buf) else {
                continue;
            };
            observer.teardown(now, id, gen, now >= warmup);
            links.release(path_buf, bandwidth);
            for &l in path_buf.iter() {
                occupancy[l].record(now, f64::from(links.occupancy(l)));
                observer.occupancy_changed(now, l, links.occupancy(l));
                if l != link {
                    index.remove_one(l, calls);
                }
            }
            if now >= warmup {
                counters.dropped += 1;
            }
        }
    }
}

/// Panics on inconsistent clock configuration.
fn validate_config(config: &KernelConfig) {
    // A zero horizon is legal (warm-start tests freeze the seeded state
    // by running no window at all); only negative durations are not.
    assert!(
        config.warmup >= 0.0 && config.horizon >= 0.0,
        "invalid durations"
    );
    if let Some(interval) = config.tick_interval {
        assert!(interval > 0.0, "tick interval must be positive");
    }
}

/// Schedules every timed link failure/repair inside the window into
/// `queue`.
fn seed_link_events(spec: &KernelSpec<'_>, queue: &mut CalendarQueue<Event>) {
    let end = spec.config.warmup + spec.config.horizon;
    for ev in spec.link_events {
        if ev.at < end {
            queue.schedule(
                ev.at,
                Event::Link {
                    link: ev.link as u32,
                    up: ev.up,
                },
            );
        }
    }
}

/// Runs one replication of the kernel with the given admission policy,
/// route selector, and observer.
///
/// # Panics
///
/// Panics on inconsistent configuration (negative durations, a source
/// stream out of tally range) or if an internal invariant breaks (a selector
/// returning a path its admission policy rejects at booking time).
pub fn run<'p, A, R, O>(
    spec: &KernelSpec<'_>,
    admission: &mut A,
    selector: &mut R,
    observer: &mut O,
) -> KernelOutcome
where
    A: AdmissionPolicy,
    R: RouteSelector<'p>,
    O: KernelObserver,
{
    run_pooled(
        spec,
        admission,
        selector,
        observer,
        &mut KernelScratch::new(),
    )
}

/// As [`run`], but recycling `scratch` across calls: all per-replication
/// state is reset, not reallocated. The outcome is byte-identical to
/// [`run`] for any scratch history (see [`KernelScratch`]).
pub fn run_pooled<'p, A, R, O>(
    spec: &KernelSpec<'_>,
    admission: &mut A,
    selector: &mut R,
    observer: &mut O,
    scratch: &mut KernelScratch,
) -> KernelOutcome
where
    A: AdmissionPolicy,
    R: RouteSelector<'p>,
    O: KernelObserver,
{
    let KernelScratch { queue, state } = scratch;
    queue.reset();
    let started = std::time::Instant::now();
    let config = &spec.config;
    validate_config(config);
    let end = config.warmup + config.horizon;

    let mut metrics = EngineMetrics::default();
    state.prepare(spec);
    state.seed_warm_start(spec, queue, observer, &mut metrics);
    state.seed_sources(spec, queue);
    seed_link_events(spec, queue);
    if let Some(interval) = config.tick_interval {
        if interval < end {
            queue.schedule(interval, Event::Tick);
        }
    }

    metrics.observe_queue_len(queue.len());
    // Counters the handlers accumulate; the outcome is assembled exactly
    // once at the end, so a counter and the result can't drift apart.
    let mut counters = Counters::new(config.tally_slots);
    // Wall clock at which the sim clock first crossed the warm-up cut,
    // splitting the run's wall time into warmup/measurement spans.
    let mut warmup_wall: Option<f64> = None;

    // Peek before popping so the clock (`queue.now()`) never advances
    // past `end`: the first event at or beyond the end of the
    // measurement window stays in the queue instead of being consumed.
    while queue.peek_time().is_some_and(|t| t < end) {
        let (now, event) = queue.pop().expect("peeked event exists");
        metrics.events_processed += 1;
        if warmup_wall.is_none() && now >= config.warmup {
            warmup_wall = Some(started.elapsed().as_secs_f64());
        }
        match event {
            Event::Arrival { source } => state.arrival(
                now,
                source,
                spec,
                &*admission,
                selector,
                observer,
                queue,
                &mut counters,
                &mut metrics,
            ),
            Event::Departure { call, gen } => state.departure(now, call, gen, observer),
            Event::Link { link, up } => state.link_change(
                now,
                link as usize,
                up,
                config.warmup,
                observer,
                &mut counters,
            ),
            Event::Tick => {
                selector.tick(now, admission);
                let interval = config
                    .tick_interval
                    .expect("tick events exist only with an interval");
                if now + interval < end {
                    queue.schedule(now + interval, Event::Tick);
                }
            }
        }
        metrics.observe_queue_len(queue.len());
        observer.event_processed(now, queue.len());
    }

    metrics.call_table_high_water = state.calls.high_water();
    let links = &state.links;
    metrics.link_utilization = state
        .occupancy
        .iter_mut()
        .enumerate()
        .map(|(l, tw)| {
            tw.finish(end);
            tw.mean() / f64::from(links.capacity(l))
        })
        .collect();
    let total_wall = started.elapsed().as_secs_f64();
    metrics.wall_clock_secs = total_wall;
    // A run whose clock never reached the warm-up cut spent all its
    // wall time warming up.
    let warmup_wall = warmup_wall.unwrap_or(total_wall);
    let Counters {
        offered,
        blocked,
        carried_primary,
        carried_alternate,
        dropped,
        tally_offered,
        tally_blocked,
    } = counters;
    KernelOutcome {
        offered,
        blocked,
        carried_primary,
        carried_alternate,
        dropped,
        tally_offered,
        tally_blocked,
        metrics,
        warmup_wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A selector that always routes over link 0 while admitted.
    struct OneLink;

    impl RouteSelector<'static> for OneLink {
        fn select<A: AdmissionPolicy>(
            &mut self,
            _src: usize,
            _dst: usize,
            _pick: f64,
            view: &LinkOccupancy,
            admission: &A,
            bandwidth: u32,
        ) -> Selection<'static> {
            const PATH: &[Link] = &[0];
            if admission.path_admits(view, PATH, Tier::Primary, bandwidth) {
                Selection::Route {
                    links: PATH,
                    tier: Tier::Primary,
                }
            } else {
                Selection::Blocked
            }
        }
    }

    fn single_link_spec(capacities: &[u32], sources: &[ArrivalSource]) -> KernelOutcome {
        let spec = KernelSpec {
            config: KernelConfig {
                warmup: 10.0,
                horizon: 200.0,
                seed: 42,
                draw_pick: true,
                tick_interval: None,
                tally_slots: 8,
            },
            capacities,
            static_down: &[],
            sources,
            link_events: &[],
            initial_occupancy: &[],
        };
        run(&spec, &mut Uncontrolled, &mut OneLink, &mut NullObserver)
    }

    #[test]
    fn single_server_blocking_is_plausible() {
        // M/M/C/C with a = 8, C = 10: blocking ≈ 12%.
        let sources = [ArrivalSource {
            stream: 0,
            src: 0,
            dst: 1,
            rate: 8.0,
            bandwidth: 1,
            gaps: InterArrival::Exponential,
        }];
        let out = single_link_spec(&[10], &sources);
        assert!(out.offered > 1000);
        let b = out.blocked as f64 / out.offered as f64;
        assert!((0.05..0.20).contains(&b), "blocking {b}");
        assert_eq!(out.tally_offered[0], out.offered);
        assert_eq!(out.tally_blocked[0], out.blocked);
        assert!(out.metrics.peak_concurrent_calls <= 10);
    }

    #[test]
    fn deterministic_replication() {
        let sources = [ArrivalSource {
            stream: 7,
            src: 0,
            dst: 1,
            rate: 5.0,
            bandwidth: 2,
            gaps: InterArrival::Exponential,
        }];
        let a = single_link_spec(&[12], &sources);
        let b = single_link_spec(&[12], &sources);
        assert_eq!(a, b);
    }

    #[test]
    fn unit_cv2_hyperexponential_is_the_poisson_source() {
        let poisson = ArrivalSource {
            stream: 3,
            src: 0,
            dst: 1,
            rate: 8.0,
            bandwidth: 1,
            gaps: InterArrival::Exponential,
        };
        let with_gaps = |gaps| [ArrivalSource { gaps, ..poisson }];
        let exp = single_link_spec(&[10], &[poisson]);
        let unit = with_gaps(InterArrival::Hyperexponential { cv2: 1.0 });
        assert_eq!(single_link_spec(&[10], &unit), exp);
        let bursty = with_gaps(InterArrival::Hyperexponential { cv2: 4.0 });
        assert_ne!(single_link_spec(&[10], &bursty), exp);
    }

    #[test]
    fn hyperexponential_gaps_have_the_configured_mean_and_cv2() {
        // Balanced-means H2 of rate λ: mean 1/λ, squared CV `cv2`.
        let (rate, n) = (2.5, 2_000_000);
        for cv2 in [4.0, 9.0] {
            let law = InterArrival::Hyperexponential { cv2 };
            let mut stream = StreamFactory::new(11).stream(0);
            let (mut sum, mut sq) = (0.0, 0.0);
            for _ in 0..n {
                let gap = law.draw(&mut stream, rate);
                sum += gap;
                sq += gap * gap;
            }
            let mean = sum / f64::from(n);
            let sample_cv2 = (sq / f64::from(n) - mean * mean) / (mean * mean);
            assert!((mean * rate - 1.0).abs() < 0.01, "cv2 {cv2}: mean {mean}");
            assert!(
                (sample_cv2 / cv2 - 1.0).abs() < 0.05,
                "cv2 {cv2}: sample cv2 {sample_cv2}"
            );
        }
    }

    #[test]
    fn recycled_scratch_matches_fresh_runs() {
        // One spec with outages (stale departures, teardown paths) and a
        // second, differently shaped spec: a fresh run and a scratch
        // recycled across both specs must produce identical outcomes.
        let sources = [ArrivalSource {
            stream: 0,
            src: 0,
            dst: 1,
            rate: 8.0,
            bandwidth: 1,
            gaps: InterArrival::Exponential,
        }];
        let events: Vec<LinkEvent> = (0..20)
            .map(|i| LinkEvent {
                at: 5.0 + f64::from(i) * 5.0,
                link: 0,
                up: i % 2 == 1,
            })
            .collect();
        let churn = KernelSpec {
            config: KernelConfig {
                warmup: 10.0,
                horizon: 150.0,
                seed: 9,
                draw_pick: true,
                tick_interval: Some(7.0),
                tally_slots: 1,
            },
            capacities: &[10],
            static_down: &[],
            sources: &sources,
            link_events: &events,
            initial_occupancy: &[],
        };
        let calm = KernelSpec {
            config: KernelConfig {
                warmup: 0.0,
                horizon: 80.0,
                seed: 5,
                draw_pick: false,
                tick_interval: None,
                tally_slots: 1,
            },
            capacities: &[6, 6],
            static_down: &[1],
            sources: &sources,
            link_events: &[],
            initial_occupancy: &[],
        };

        let mut scratch = KernelScratch::new();
        for spec in [&churn, &calm, &churn] {
            let fresh = run(spec, &mut Uncontrolled, &mut OneLink, &mut NullObserver);
            let pooled = run_pooled(
                spec,
                &mut Uncontrolled,
                &mut OneLink,
                &mut NullObserver,
                &mut scratch,
            );
            assert_eq!(fresh, pooled);
        }
    }

    #[test]
    fn bandwidth_weighted_booking_respects_capacity() {
        // Bandwidth-3 calls on a capacity-10 link: at most 3 concurrent.
        let sources = [ArrivalSource {
            stream: 1,
            src: 0,
            dst: 1,
            rate: 6.0,
            bandwidth: 3,
            gaps: InterArrival::Exponential,
        }];
        let out = single_link_spec(&[10], &sources);
        assert!(out.metrics.peak_concurrent_calls <= 3);
        assert!(out.blocked > 0);
    }

    // Regression: a path listing the same link twice used to pass the
    // per-entry precheck (each traversal checked against the pre-booking
    // occupancy) and then book 2x bandwidth, silently exceeding
    // capacity. The precheck now sums repeated traversals.
    #[test]
    #[should_panic(expected = "over capacity")]
    fn booking_a_repeated_link_cannot_exceed_capacity() {
        let mut v = LinkOccupancy::new(&[10]);
        // 2 traversals x 6 units = 12 > 10: must panic at the precheck,
        // even though a single traversal (6 <= 10) would fit.
        v.book(&[0, 0], 6);
    }

    #[test]
    fn booking_a_repeated_link_that_fits_books_cumulatively() {
        let mut v = LinkOccupancy::new(&[10]);
        v.book(&[0, 0], 4);
        assert_eq!(v.occupancy(0), 8);
        // The released units match what was booked.
        v.release(&[0, 0], 4);
        assert_eq!(v.occupancy(0), 0);
    }

    #[test]
    fn trunk_reservation_protects_the_last_circuits() {
        let view = {
            let mut v = LinkOccupancy::new(&[10]);
            v.book(&[0], 7);
            v
        };
        let tr = TrunkReservation::new(vec![3]);
        assert!(tr.admits(&view, 0, Tier::Primary, 1));
        assert!(!tr.admits(&view, 0, Tier::Alternate, 1));
        // One circuit below the threshold the alternate fits again.
        let mut view = view;
        view.release(&[0], 1);
        assert!(tr.admits(&view, 0, Tier::Alternate, 1));
        // Protection at or above capacity refuses alternates outright.
        let full = TrunkReservation::new(vec![10]);
        assert!(!full.admits(&view, 0, Tier::Alternate, 1));
        assert!(full.admits(&view, 0, Tier::Primary, 1));
    }

    #[test]
    fn set_levels_reconfigures_protection() {
        let view = {
            let mut v = LinkOccupancy::new(&[10]);
            v.book(&[0], 8);
            v
        };
        let mut tr = TrunkReservation::new(vec![0]);
        assert!(tr.admits(&view, 0, Tier::Alternate, 1));
        tr.set_levels(&[5]);
        assert!(!tr.admits(&view, 0, Tier::Alternate, 1));
        assert_eq!(tr.levels(), &[5]);
    }

    #[test]
    fn link_events_tear_down_calls() {
        let sources = [ArrivalSource {
            stream: 0,
            src: 0,
            dst: 1,
            rate: 8.0,
            bandwidth: 1,
            gaps: InterArrival::Exponential,
        }];
        let events = [
            LinkEvent {
                at: 50.0,
                link: 0,
                up: false,
            },
            LinkEvent {
                at: 80.0,
                link: 0,
                up: true,
            },
        ];
        let spec = KernelSpec {
            config: KernelConfig {
                warmup: 10.0,
                horizon: 100.0,
                seed: 3,
                draw_pick: true,
                tick_interval: None,
                tally_slots: 1,
            },
            capacities: &[10],
            static_down: &[],
            sources: &sources,
            link_events: &events,
            initial_occupancy: &[],
        };
        let out = run(&spec, &mut Uncontrolled, &mut OneLink, &mut NullObserver);
        assert!(out.dropped > 0, "outage must tear down calls");
        assert!(out.blocked > 0, "arrivals during the outage block");
        assert!(out.blocked < out.offered, "recovery admits calls again");
    }

    #[test]
    fn ticks_fire_at_the_interval() {
        struct Counting {
            ticks: u32,
            last: f64,
        }
        impl RouteSelector<'static> for Counting {
            fn select<A: AdmissionPolicy>(
                &mut self,
                _src: usize,
                _dst: usize,
                _pick: f64,
                _view: &LinkOccupancy,
                _admission: &A,
                _bandwidth: u32,
            ) -> Selection<'static> {
                Selection::Blocked
            }
            fn tick<A: AdmissionPolicy>(&mut self, now: f64, _admission: &mut A) {
                self.ticks += 1;
                self.last = now;
            }
        }
        let sources = [ArrivalSource {
            stream: 0,
            src: 0,
            dst: 1,
            rate: 1.0,
            bandwidth: 1,
            gaps: InterArrival::Exponential,
        }];
        let spec = KernelSpec {
            config: KernelConfig {
                warmup: 0.0,
                horizon: 10.0,
                seed: 1,
                draw_pick: true,
                tick_interval: Some(2.5),
                tally_slots: 1,
            },
            capacities: &[5],
            static_down: &[],
            sources: &sources,
            link_events: &[],
            initial_occupancy: &[],
        };
        let mut sel = Counting {
            ticks: 0,
            last: 0.0,
        };
        run(&spec, &mut Uncontrolled, &mut sel, &mut NullObserver);
        // Ticks at 2.5, 5.0, 7.5 — the next would land at 10.0 == end.
        assert_eq!(sel.ticks, 3);
        assert!((sel.last - 7.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "source stream out of tally range")]
    fn tally_bounds_are_checked() {
        let sources = [ArrivalSource {
            stream: 9,
            src: 0,
            dst: 1,
            rate: 1.0,
            bandwidth: 1,
            gaps: InterArrival::Exponential,
        }];
        single_link_spec(&[5], &sources);
    }

    /// An observer that logs every `occupancy_changed` hook.
    #[derive(Default)]
    struct OccupancyLog(Vec<(f64, Link, u32)>);

    impl KernelObserver for OccupancyLog {
        fn occupancy_changed(&mut self, now: f64, link: Link, occupancy: u32) {
            self.0.push((now, link, occupancy));
        }
    }

    fn warm_spec<'a>(
        config: KernelConfig,
        capacities: &'a [u32],
        sources: &'a [ArrivalSource],
        initial: &'a [u32],
    ) -> KernelSpec<'a> {
        KernelSpec {
            config,
            capacities,
            static_down: &[],
            sources,
            link_events: &[],
            initial_occupancy: initial,
        }
    }

    fn zero_window(seed: u64) -> KernelConfig {
        KernelConfig {
            warmup: 0.0,
            horizon: 0.0,
            seed,
            draw_pick: true,
            tick_interval: None,
            tally_slots: 1,
        }
    }

    #[test]
    fn warm_start_zero_horizon_preserves_state_exactly() {
        // Seeding occupancy and then running no window at all must leave
        // the seeded state untouched: every unit still booked, every call
        // live, no departures scheduled (end = 0), no events processed.
        let capacities = [5u32, 8, 3];
        let initial = [2u32, 0, 3];
        let spec = warm_spec(zero_window(11), &capacities, &[], &initial);

        let mut state = LoopState::default();
        let mut queue = CalendarQueue::new();
        let mut metrics = EngineMetrics::default();
        state.prepare(&spec);
        state.seed_warm_start(&spec, &mut queue, &mut NullObserver, &mut metrics);
        for (l, &units) in initial.iter().enumerate() {
            assert_eq!(state.links.occupancy(l), units, "link {l}");
        }
        assert_eq!(state.calls.live(), 5);
        assert!(queue.is_empty(), "no departure fits a zero-length window");
        assert_eq!(metrics.peak_concurrent_calls, 5);

        // The full entry point agrees, and the observer sees exactly the
        // seeded links (zero-unit links untouched) at t = 0.
        let mut log = OccupancyLog::default();
        let out = run(&spec, &mut Uncontrolled, &mut OneLink, &mut log);
        assert_eq!(out.metrics.events_processed, 0);
        assert_eq!(out.metrics.peak_concurrent_calls, 5);
        assert_eq!(out.metrics.call_table_high_water, 5);
        assert_eq!(out.offered, 0);
        assert_eq!(log.0, vec![(0.0, 0, 2), (0.0, 2, 3)]);
    }

    #[test]
    fn all_zero_warm_start_is_byte_identical_to_cold_start() {
        let sources = [ArrivalSource {
            stream: 0,
            src: 0,
            dst: 1,
            rate: 8.0,
            bandwidth: 1,
            gaps: InterArrival::Exponential,
        }];
        let config = KernelConfig {
            warmup: 10.0,
            horizon: 120.0,
            seed: 21,
            draw_pick: true,
            tick_interval: None,
            tally_slots: 1,
        };
        let cold = warm_spec(config, &[10], &sources, &[]);
        let zeros = warm_spec(config, &[10], &sources, &[0]);
        let mut cold_log = OccupancyLog::default();
        let mut zero_log = OccupancyLog::default();
        let a = run(&cold, &mut Uncontrolled, &mut OneLink, &mut cold_log);
        let b = run(&zeros, &mut Uncontrolled, &mut OneLink, &mut zero_log);
        assert_eq!(a, b);
        assert_eq!(cold_log.0, zero_log.0, "observer streams must agree");
    }

    #[test]
    fn warm_started_occupancy_decays_and_runs_deterministically() {
        let sources = [ArrivalSource {
            stream: 0,
            src: 0,
            dst: 1,
            rate: 0.5,
            bandwidth: 1,
            gaps: InterArrival::Exponential,
        }];
        let config = KernelConfig {
            warmup: 0.0,
            horizon: 60.0,
            seed: 4,
            draw_pick: true,
            tick_interval: None,
            tally_slots: 1,
        };
        let spec = warm_spec(config, &[10], &sources, &[10]);
        let out = run(&spec, &mut Uncontrolled, &mut OneLink, &mut NullObserver);
        // Seeded full: the peak is the seed, and with unit-mean holding
        // times over a 60-unit horizon the state decays (mean utilization
        // strictly inside (0, 1)).
        assert_eq!(out.metrics.peak_concurrent_calls, 10);
        assert!(out.metrics.events_processed >= 10, "departures must fire");
        let util = out.metrics.link_utilization[0];
        assert!(util > 0.0 && util < 1.0, "utilization {util}");
        let again = run(&spec, &mut Uncontrolled, &mut OneLink, &mut NullObserver);
        assert_eq!(out, again);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn warm_start_over_capacity_is_rejected() {
        let spec = warm_spec(zero_window(1), &[10], &[], &[11]);
        run(&spec, &mut Uncontrolled, &mut OneLink, &mut NullObserver);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn warm_start_length_mismatch_is_rejected() {
        let spec = warm_spec(zero_window(1), &[10, 10], &[], &[1]);
        run(&spec, &mut Uncontrolled, &mut OneLink, &mut NullObserver);
    }

    #[test]
    #[should_panic(expected = "down link")]
    fn warm_start_on_a_down_link_is_rejected() {
        let mut spec = warm_spec(zero_window(1), &[10], &[], &[1]);
        spec.static_down = &[0];
        run(&spec, &mut Uncontrolled, &mut OneLink, &mut NullObserver);
    }
}
