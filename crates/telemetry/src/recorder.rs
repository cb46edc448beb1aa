//! The engine-facing recorder: trait, no-op, and the full implementation.
//!
//! [`Recorder`] mirrors the engine's observable moments with
//! primitive-typed callbacks (no graph or plan types, so this crate stays
//! dependency-free). The engine is generic over the recorder, exactly as
//! it is over `TraceSink`: [`NullRecorder`] inherits the empty default
//! bodies and monomorphizes to nothing, keeping the untelemetered path
//! byte-identical *and* cost-free; [`RunTelemetry`] implements every hook
//! and doubles, once finished, as the mergeable snapshot the exporters
//! consume.

use crate::hist::Histogram;
use crate::mode::{self, ModeReport, ModeThresholds};
use crate::series::{TimeGrid, WindowedCounter, WindowedTimeWeighted};
use crate::span::SpanProfile;

/// How the router disposed of one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalOutcome {
    /// No admissible path: the call is lost.
    Blocked,
    /// Carried on its primary path.
    Primary,
    /// Carried on an alternate path.
    Alternate,
}

/// Observer of a simulation run, called from the engine's event loop.
///
/// Every method has an empty default body; implementations override what
/// they need. Implementations must be cheap and must not influence the
/// simulation (the engine's results are required to be byte-identical
/// under any recorder).
pub trait Recorder {
    /// An event was popped and processed; `queue_len` is the pending
    /// count after processing.
    fn event(&mut self, now: f64, queue_len: usize) {
        let _ = (now, queue_len);
    }

    /// A call arrived and the router decided. `measured` is false during
    /// warm-up; `hops` and `holding` describe the booked path and drawn
    /// holding time (hops is 0 for blocked calls).
    fn arrival(
        &mut self,
        now: f64,
        measured: bool,
        outcome: ArrivalOutcome,
        hops: u8,
        holding: f64,
    ) {
        let _ = (now, measured, outcome, hops, holding);
    }

    /// A departure event fired; `stale` when the generational call table
    /// rejected it.
    fn departure(&mut self, now: f64, stale: bool) {
        let _ = (now, stale);
    }

    /// Link `link` now carries `occupancy` circuits.
    fn occupancy(&mut self, now: f64, link: u32, occupancy: u32) {
        let _ = (now, link, occupancy);
    }

    /// Link `link` changed operational state.
    fn link_state(&mut self, now: f64, link: u32, up: bool) {
        let _ = (now, link, up);
    }

    /// A failure tore down one in-progress call; `measured` is false
    /// during warm-up.
    fn teardown(&mut self, now: f64, measured: bool) {
        let _ = (now, measured);
    }

    /// `secs` of wall-clock time were spent in phase `name`.
    fn span(&mut self, name: &'static str, secs: f64) {
        let _ = (name, secs);
    }

    /// The run ended at sim time `end`; close any open series.
    fn finish(&mut self, end: f64) {
        let _ = end;
    }
}

/// A borrowed recorder records exactly what the recorder itself would,
/// so a run can observe into a caller-owned recorder without taking it
/// over.
impl<T: Recorder> Recorder for &mut T {
    #[inline(always)]
    fn event(&mut self, now: f64, queue_len: usize) {
        (**self).event(now, queue_len);
    }
    #[inline(always)]
    fn arrival(
        &mut self,
        now: f64,
        measured: bool,
        outcome: ArrivalOutcome,
        hops: u8,
        holding: f64,
    ) {
        (**self).arrival(now, measured, outcome, hops, holding);
    }
    #[inline(always)]
    fn departure(&mut self, now: f64, stale: bool) {
        (**self).departure(now, stale);
    }
    #[inline(always)]
    fn occupancy(&mut self, now: f64, link: u32, occupancy: u32) {
        (**self).occupancy(now, link, occupancy);
    }
    #[inline(always)]
    fn link_state(&mut self, now: f64, link: u32, up: bool) {
        (**self).link_state(now, link, up);
    }
    #[inline(always)]
    fn teardown(&mut self, now: f64, measured: bool) {
        (**self).teardown(now, measured);
    }
    #[inline(always)]
    fn span(&mut self, name: &'static str, secs: f64) {
        (**self).span(name, secs);
    }
    #[inline(always)]
    fn finish(&mut self, end: f64) {
        (**self).finish(end);
    }
}

/// A [`Recorder`] that records nothing — the default for plain runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// Full time-resolved telemetry of one run — or, after merging, of many
/// replications of the same scenario.
///
/// Everything except [`RunTelemetry::spans`] is a deterministic function
/// of the run's inputs; equality therefore ignores the span profile, so
/// snapshots stay byte-comparable across repeats and thread schedules.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// The sim-time window grid shared by every series.
    grid: TimeGrid,
    /// Warm-up duration (windows before it show the transient).
    pub warmup: f64,
    /// Per-link capacities, indexed by link id.
    pub capacities: Vec<u32>,
    /// Replications merged into this snapshot (1 for a single run).
    pub replications: u32,

    /// Events processed by the engine loop.
    pub events: u64,
    /// Calls offered during the measurement window.
    pub offered: u64,
    /// Calls blocked during the measurement window.
    pub blocked: u64,
    /// Measured calls carried on their primary path.
    pub carried_primary: u64,
    /// Measured calls carried on an alternate path.
    pub carried_alternate: u64,
    /// Measured calls torn down mid-service by link failures.
    pub dropped: u64,
    /// Stale departures rejected by the generational call table.
    pub stale_departures: u64,
    /// Link up/down transitions processed.
    pub link_state_changes: u64,

    /// Holding times of carried calls (drawn, not truncated by teardown).
    pub holding_time: Histogram,
    /// Hop counts of booked paths.
    pub hop_count: Histogram,
    /// Event-queue depth sampled after each processed event.
    pub queue_depth: Histogram,
    /// Gaps between consecutive processed events (sim time).
    pub inter_event_gap: Histogram,

    /// Offered calls per window (warm-up windows included).
    pub offered_series: WindowedCounter,
    /// Blocked calls per window.
    pub blocked_series: WindowedCounter,
    /// Alternate-routed calls per window.
    pub alternate_series: WindowedCounter,
    /// Failure teardowns per window.
    pub teardown_series: WindowedCounter,
    /// Per-link time-integral of occupancy, one series per link.
    pub link_occupancy: Vec<WindowedTimeWeighted>,

    /// Wall-clock phase profile (nondeterministic; excluded from `==`).
    pub spans: SpanProfile,

    last_event_time: Option<f64>,
    finished: bool,
}

impl RunTelemetry {
    /// A fresh recorder for one run of `warmup + horizon` sim-time units
    /// on a topology with the given per-link `capacities`, sampling time
    /// series at `window`-unit width.
    ///
    /// # Panics
    ///
    /// Panics on non-positive durations or window width.
    pub fn new(warmup: f64, horizon: f64, window: f64, capacities: Vec<u32>) -> Self {
        assert!(warmup >= 0.0 && horizon > 0.0, "invalid durations");
        let grid = TimeGrid::new(window, warmup + horizon);
        Self {
            grid,
            warmup,
            replications: 1,
            events: 0,
            offered: 0,
            blocked: 0,
            carried_primary: 0,
            carried_alternate: 0,
            dropped: 0,
            stale_departures: 0,
            link_state_changes: 0,
            holding_time: Histogram::new(),
            hop_count: Histogram::new(),
            queue_depth: Histogram::new(),
            inter_event_gap: Histogram::new(),
            offered_series: WindowedCounter::new(grid),
            blocked_series: WindowedCounter::new(grid),
            alternate_series: WindowedCounter::new(grid),
            teardown_series: WindowedCounter::new(grid),
            link_occupancy: (0..capacities.len())
                .map(|_| WindowedTimeWeighted::new(grid))
                .collect(),
            capacities,
            spans: SpanProfile::new(),
            last_event_time: None,
            finished: false,
        }
    }

    /// The window grid.
    pub fn grid(&self) -> TimeGrid {
        self.grid
    }

    /// Whether [`Recorder::finish`] has run (series are closed).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Network blocking within window `k`: blocked / offered, 0 when the
    /// window saw no arrivals.
    pub fn window_blocking(&self, k: usize) -> f64 {
        let o = self.offered_series.counts()[k];
        if o == 0 {
            0.0
        } else {
            self.blocked_series.counts()[k] as f64 / o as f64
        }
    }

    /// Fraction of window `k`'s carried calls routed on alternates.
    pub fn window_alternate_fraction(&self, k: usize) -> f64 {
        let carried = self.offered_series.counts()[k] - self.blocked_series.counts()[k];
        if carried == 0 {
            0.0
        } else {
            self.alternate_series.counts()[k] as f64 / carried as f64
        }
    }

    /// Mean utilization of `link` over window `k`: time-averaged
    /// occupancy divided by capacity, averaged over merged replications.
    pub fn window_utilization(&self, link: usize, k: usize) -> f64 {
        let cap = f64::from(self.capacities[link]);
        if cap == 0.0 {
            return 0.0;
        }
        self.link_occupancy[link].window_mean(k) / cap / f64::from(self.replications)
    }

    /// Mean utilization of `link` over the whole run.
    pub fn overall_utilization(&self, link: usize) -> f64 {
        let cap = f64::from(self.capacities[link]);
        if cap == 0.0 {
            return 0.0;
        }
        let total: f64 = self.link_occupancy[link].integrals().iter().sum();
        total / self.grid.end() / cap / f64::from(self.replications)
    }

    /// Network-wide mean utilization over window `k`: total time-averaged
    /// occupied circuits over total capacity, averaged over merged
    /// replications. This is the occupancy signal the mode detector
    /// classifies — in the bad regime alternates double-book trunks, so
    /// it separates the two modes even when blocking alone is noisy.
    pub fn window_network_utilization(&self, k: usize) -> f64 {
        let cap: f64 = self.capacities.iter().map(|&c| f64::from(c)).sum();
        if cap == 0.0 {
            return 0.0;
        }
        let occ: f64 = self.link_occupancy.iter().map(|s| s.integrals()[k]).sum();
        occ / self.grid.window_len(k) / cap / f64::from(self.replications)
    }

    /// The full per-window network utilization series (derived on demand;
    /// nothing extra is stored, so merge and equality are unaffected).
    pub fn network_utilization_series(&self) -> Vec<f64> {
        (0..self.grid.num_windows())
            .map(|k| self.window_network_utilization(k))
            .collect()
    }

    /// Classifies the network utilization series into low/high occupancy
    /// modes with the given hysteresis band (see [`crate::mode`]).
    ///
    /// # Panics
    ///
    /// Panics if the run is unfinished.
    pub fn mode_report(&self, thresholds: ModeThresholds) -> ModeReport {
        assert!(self.finished, "mode report requires finished telemetry");
        mode::detect(self.grid, &self.network_utilization_series(), thresholds)
    }

    /// Folds another replication's telemetry into this one. Counters and
    /// series add, histograms merge, spans merge; `replications` adds so
    /// utilization stays an across-replication mean.
    ///
    /// Merging must happen in a fixed order (the experiment runner folds
    /// in seed order) for bit-identical `f64` aggregates.
    ///
    /// # Panics
    ///
    /// Panics when grids, warm-ups, or capacities differ, or if either
    /// side is unfinished.
    pub fn merge(&mut self, other: &RunTelemetry) {
        assert!(
            self.finished && other.finished,
            "merge requires finished telemetry"
        );
        assert_eq!(self.grid, other.grid, "telemetry from different grids");
        assert_eq!(
            self.warmup, other.warmup,
            "telemetry with different warmups"
        );
        assert_eq!(
            self.capacities, other.capacities,
            "telemetry from different topologies"
        );
        self.replications += other.replications;
        self.events += other.events;
        self.offered += other.offered;
        self.blocked += other.blocked;
        self.carried_primary += other.carried_primary;
        self.carried_alternate += other.carried_alternate;
        self.dropped += other.dropped;
        self.stale_departures += other.stale_departures;
        self.link_state_changes += other.link_state_changes;
        self.holding_time.merge(&other.holding_time);
        self.hop_count.merge(&other.hop_count);
        self.queue_depth.merge(&other.queue_depth);
        self.inter_event_gap.merge(&other.inter_event_gap);
        self.offered_series.merge(&other.offered_series);
        self.blocked_series.merge(&other.blocked_series);
        self.alternate_series.merge(&other.alternate_series);
        self.teardown_series.merge(&other.teardown_series);
        for (a, b) in self.link_occupancy.iter_mut().zip(&other.link_occupancy) {
            a.merge(b);
        }
        self.spans.merge(&other.spans);
    }
}

impl PartialEq for RunTelemetry {
    /// Equality over the deterministic fields only: the wall-clock span
    /// profile is ignored.
    fn eq(&self, other: &Self) -> bool {
        self.grid == other.grid
            && self.warmup == other.warmup
            && self.capacities == other.capacities
            && self.replications == other.replications
            && self.events == other.events
            && self.offered == other.offered
            && self.blocked == other.blocked
            && self.carried_primary == other.carried_primary
            && self.carried_alternate == other.carried_alternate
            && self.dropped == other.dropped
            && self.stale_departures == other.stale_departures
            && self.link_state_changes == other.link_state_changes
            && self.holding_time == other.holding_time
            && self.hop_count == other.hop_count
            && self.queue_depth == other.queue_depth
            && self.inter_event_gap == other.inter_event_gap
            && self.offered_series == other.offered_series
            && self.blocked_series == other.blocked_series
            && self.alternate_series == other.alternate_series
            && self.teardown_series == other.teardown_series
            && self.link_occupancy == other.link_occupancy
            && self.finished == other.finished
    }
}

impl Recorder for RunTelemetry {
    fn event(&mut self, now: f64, queue_len: usize) {
        self.events += 1;
        self.queue_depth.record(queue_len as f64);
        if let Some(last) = self.last_event_time {
            self.inter_event_gap.record(now - last);
        }
        self.last_event_time = Some(now);
    }

    fn arrival(
        &mut self,
        now: f64,
        measured: bool,
        outcome: ArrivalOutcome,
        hops: u8,
        holding: f64,
    ) {
        self.offered_series.incr(now);
        if outcome == ArrivalOutcome::Blocked {
            self.blocked_series.incr(now);
        } else {
            self.holding_time.record(holding);
            self.hop_count.record(f64::from(hops));
            if outcome == ArrivalOutcome::Alternate {
                self.alternate_series.incr(now);
            }
        }
        if measured {
            self.offered += 1;
            match outcome {
                ArrivalOutcome::Blocked => self.blocked += 1,
                ArrivalOutcome::Primary => self.carried_primary += 1,
                ArrivalOutcome::Alternate => self.carried_alternate += 1,
            }
        }
    }

    fn departure(&mut self, _now: f64, stale: bool) {
        if stale {
            self.stale_departures += 1;
        }
    }

    fn occupancy(&mut self, now: f64, link: u32, occupancy: u32) {
        self.link_occupancy[link as usize].record(now, f64::from(occupancy));
    }

    fn link_state(&mut self, _now: f64, _link: u32, _up: bool) {
        self.link_state_changes += 1;
    }

    fn teardown(&mut self, now: f64, measured: bool) {
        self.teardown_series.incr(now);
        if measured {
            self.dropped += 1;
        }
    }

    fn span(&mut self, name: &'static str, secs: f64) {
        self.spans.add(name, secs);
    }

    fn finish(&mut self, end: f64) {
        assert_eq!(end, self.grid.end(), "run ended off the telemetry grid");
        for s in &mut self.link_occupancy {
            s.finish();
        }
        self.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_small_run(t: &mut RunTelemetry) {
        // A hand-rolled event feed: two carried calls (one alternate),
        // one blocked, an outage with a teardown, a stale departure.
        t.event(0.5, 3);
        t.arrival(0.5, false, ArrivalOutcome::Primary, 1, 2.0);
        t.occupancy(0.5, 0, 1);
        t.event(1.5, 3);
        t.arrival(1.5, true, ArrivalOutcome::Alternate, 2, 0.5);
        t.occupancy(1.5, 0, 2);
        t.occupancy(1.5, 1, 1);
        t.event(2.0, 2);
        t.arrival(2.0, true, ArrivalOutcome::Blocked, 0, 1.0);
        t.event(2.5, 2);
        t.link_state(2.5, 0, false);
        t.teardown(2.5, true);
        t.occupancy(2.5, 0, 0);
        t.occupancy(2.5, 1, 0);
        t.event(3.0, 1);
        t.departure(3.0, true);
        t.span("measurement", 0.001);
        t.finish(4.0);
    }

    fn small() -> RunTelemetry {
        let mut t = RunTelemetry::new(1.0, 3.0, 1.0, vec![10, 10]);
        drive_small_run(&mut t);
        t
    }

    #[test]
    fn counters_and_series_reflect_the_feed() {
        let t = small();
        assert_eq!(t.events, 5);
        assert_eq!(t.offered, 2);
        assert_eq!(t.blocked, 1);
        assert_eq!(t.carried_alternate, 1);
        assert_eq!(t.carried_primary, 0, "warm-up arrival is unmeasured");
        assert_eq!(t.dropped, 1);
        assert_eq!(t.stale_departures, 1);
        assert_eq!(t.link_state_changes, 1);
        // Series include the warm-up arrival.
        assert_eq!(t.offered_series.total(), 3);
        assert_eq!(t.offered_series.counts(), &[1, 1, 1, 0]);
        assert_eq!(t.blocked_series.counts(), &[0, 0, 1, 0]);
        assert_eq!(t.window_blocking(2), 1.0);
        assert_eq!(t.window_blocking(3), 0.0);
        assert_eq!(t.window_alternate_fraction(1), 1.0);
        assert_eq!(t.holding_time.count(), 2);
        assert_eq!(t.hop_count.count(), 2);
        assert_eq!(t.queue_depth.count(), 5);
        assert_eq!(t.inter_event_gap.count(), 4);
        assert!(t.is_finished());
    }

    #[test]
    fn utilization_is_time_weighted_occupancy_over_capacity() {
        let t = small();
        // Link 0: occ 1 over [0.5, 1.5), 2 over [1.5, 2.5), 0 after:
        // integral 3.0 over end=4.0 at capacity 10.
        assert!((t.overall_utilization(0) - 3.0 / 4.0 / 10.0).abs() < 1e-12);
        // Window 1 ([1,2)): occ 1 for [1,1.5), 2 for [1.5,2) → mean 1.5.
        assert!((t.window_utilization(0, 1) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn merge_doubles_counts_and_keeps_utilization_mean() {
        let a = small();
        let mut m = a.clone();
        m.merge(&a);
        assert_eq!(m.replications, 2);
        assert_eq!(m.offered, 4);
        assert_eq!(m.events, 10);
        assert_eq!(m.offered_series.counts(), &[2, 2, 2, 0]);
        assert_eq!(m.holding_time.count(), 4);
        // Same scenario twice: the mean utilization is unchanged.
        assert!((m.overall_utilization(0) - a.overall_utilization(0)).abs() < 1e-12);
        assert!((m.window_blocking(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equality_ignores_spans() {
        let a = small();
        let mut b = small();
        b.span("extra", 123.0);
        assert_eq!(a, b);
        let mut c = small();
        c.events += 1;
        assert_ne!(a, c);
    }

    #[test]
    fn network_utilization_aggregates_links_and_feeds_mode_detection() {
        use crate::mode::{Mode, ModeThresholds};
        let t = small();
        // Link 0 holds occ 1 over [0.5, 1.5) and 2 over [1.5, 2.5);
        // link 1 holds occ 1 over [1.5, 2.5); total capacity 20.
        let series = t.network_utilization_series();
        assert_eq!(series.len(), 4);
        assert!((series[0] - 0.025).abs() < 1e-12);
        assert!((series[1] - 0.1).abs() < 1e-12);
        assert!((series[2] - 0.075).abs() < 1e-12);
        assert_eq!(series[3], 0.0);

        // A band straddling the series: enter at window 1's level, hold
        // through window 2 (inside the band), exit at window 3.
        let r = t.mode_report(ModeThresholds::new(0.09, 0.05));
        assert_eq!(r.initial, Mode::Low);
        assert_eq!(
            r.switches.iter().map(|s| (s.at, s.to)).collect::<Vec<_>>(),
            vec![(1.0, Mode::High), (3.0, Mode::Low)]
        );
        assert_eq!(r.time_high, 2.0);
        assert!((r.fraction_high() - 0.5).abs() < 1e-12);

        // Merging a replication of the same scenario leaves the
        // across-replication mean — and thus the mode structure — intact.
        let mut m = t.clone();
        m.merge(&small());
        assert!((m.window_network_utilization(1) - 0.1).abs() < 1e-12);
        assert_eq!(m.mode_report(ModeThresholds::new(0.09, 0.05)), r);
    }

    #[test]
    #[should_panic(expected = "requires finished telemetry")]
    fn mode_report_requires_finish() {
        let t = RunTelemetry::new(1.0, 3.0, 1.0, vec![10]);
        t.mode_report(crate::mode::ModeThresholds::new(0.8, 0.5));
    }

    #[test]
    fn null_recorder_is_inert() {
        // Compile-and-run sanity: defaults do nothing.
        let mut n = NullRecorder;
        n.event(0.0, 1);
        n.arrival(0.0, true, ArrivalOutcome::Blocked, 0, 1.0);
        n.departure(0.0, false);
        n.occupancy(0.0, 0, 1);
        n.link_state(0.0, 0, true);
        n.teardown(0.0, true);
        n.span("x", 1.0);
        n.finish(1.0);
    }
}
