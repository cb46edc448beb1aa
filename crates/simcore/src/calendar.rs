//! An O(1)-amortized calendar queue with stable `(time, seq)` ordering.
//!
//! On long-horizon, high-load runs (metastability sweeps, outage churn)
//! the event queue is the kernel's single hottest structure, and a
//! comparison-based heap pays O(log n) per operation on scattered nodes.
//! [`CalendarQueue`], the kernel's only event queue, is Brown's calendar
//! queue (CACM 1988) instead: an array of `N` buckets, each `width` units of simulation
//! time wide, used circularly — bucket `b` holds the events of every
//! "day" `d ≡ b (mod N)` of the current "year" (`N` consecutive days).
//! Scheduling appends to a bucket (O(1)). When the cursor reaches a
//! non-empty day, that day's entries move out of their bucket into one
//! *run*, sorted once in descending `(time, seq)` order, and pops take
//! the run's last entry; a schedule that lands on the cursor day while
//! the run is non-empty joins it by sorted insertion. A day of `k`
//! events thus costs one sort of `k` entries (kept small by resizing)
//! instead of a rescan of the bucket on every pop.
//!
//! **Determinism.** Pop order is exactly ascending `(time, insertion
//! sequence)` — the same total order the binary-heap
//! [`EventQueue`](crate::queue::EventQueue) implements — because the
//! day hash `floor(time / width)` (a multiply by the stored reciprocal)
//! is monotone in `time`: while the run is non-empty every entry outside
//! it lies on a later day and so has a later time, the run itself is
//! sorted by `(time, seq)`, and equal timestamps always share a day.
//! Bucket layout, resizes (which fold the run back into the buckets),
//! and rotation therefore never influence the observable order. The
//! property suite in `tests/properties.rs` checks the equivalence
//! against `EventQueue` on random streams, and `altroute-sim`'s
//! deep-queue replay test on a recorded ~10k-pending kernel stream.
//!
//! **Far future.** Events beyond the current year would otherwise pile
//! into buckets the cursor only reaches after many rotations, so they
//! wait in an unordered overflow list; each year rotation (and each
//! jump across a gap with empty buckets) re-homes the overflow entries
//! whose day arrived. Degenerately distant timestamps all collapse
//! onto a single clamped day and remain correctly ordered by the
//! run's `(time, seq)` sort.

use crate::queue::EventSchedule;
use std::cmp::Ordering;

/// Smallest number of buckets; also the initial size.
const MIN_BUCKETS: usize = 16;

/// Bucket width as a multiple of the estimated inter-event gap near the
/// head of the queue (Brown recommends widths of a few mean gaps).
const WIDTH_GAP_FACTOR: f64 = 2.0;

/// Days at or beyond this value are clamped: `(time / width)` values
/// this large no longer resolve individual buckets, they only need to
/// sort after everything representable (leaves headroom for the
/// year-end computation, which rounds up to a multiple of `N`).
const MAX_DAY: u64 = 1 << 62;

/// How many of the earliest pending events the resize samples to
/// estimate the local event density (and thus the bucket width).
const WIDTH_SAMPLE: usize = 64;

#[derive(Debug, Clone)]
struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

/// The pop order: ascending `(time, seq)`.
fn order<E>(a: &Entry<E>, b: &Entry<E>) -> Ordering {
    a.time
        .partial_cmp(&b.time)
        .expect("event times are never NaN")
        .then(a.seq.cmp(&b.seq))
}

/// A calendar-queue event schedule ordered by `(time, insertion
/// sequence)`, pop for pop the order of
/// [`EventQueue`](crate::queue::EventQueue).
///
/// [`reset`](CalendarQueue::reset) rewinds the clock while keeping the
/// bucket array, per-bucket capacities, and tuned width, so a scratch
/// arena can recycle one instance across replications without
/// reallocating or re-learning the event density.
#[derive(Debug, Clone)]
pub struct CalendarQueue<E> {
    buckets: Vec<Vec<Entry<E>>>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: u64,
    /// Days per unit of simulation time: the reciprocal of one day's
    /// (bucket's) width.
    inv_width: f64,
    /// The cursor: the earliest day that may still hold events.
    day: u64,
    /// Entries currently in `buckets` or `run` (the rest are in
    /// `overflow`).
    in_buckets: usize,
    /// The cursor day's entries once the cursor has reached them, in
    /// descending `(time, seq)` order: the next pop is the last entry.
    /// While it is non-empty the cursor's bucket is empty.
    run: Vec<Entry<E>>,
    /// Events of later years, unordered; re-homed at year rotations.
    overflow: Vec<Entry<E>>,
    seq: u64,
    now: f64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// An empty queue with the clock at time 0.
    pub fn new() -> Self {
        Self {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            inv_width: 1.0,
            day: 0,
            in_buckets: 0,
            run: Vec::new(),
            overflow: Vec::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Empties the queue and rewinds the clock and sequence counter to
    /// zero. The bucket array, every bucket's capacity, and the tuned
    /// width survive, so the next run on a similar workload starts warm
    /// and allocation-free.
    pub fn reset(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.run.clear();
        self.overflow.clear();
        self.day = 0;
        self.in_buckets = 0;
        self.seq = 0;
        self.now = 0.0;
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite (NaN or ±∞), or (debug builds
    /// only) if `time` is earlier than the current clock; with debug
    /// assertions disabled a past-time event is ordered as if it fired
    /// at the earliest still poppable instant. Non-finite times are
    /// rejected here, at the insertion site — an infinite timestamp
    /// used to survive until `estimate_inv_width`'s comparison sort or a
    /// degenerate day computation instead of failing where the bad
    /// value entered.
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "event time must be finite (got {time})");
        debug_assert!(
            time >= self.now,
            "cannot schedule into the past: now={}, requested={time}",
            self.now
        );
        let entry = Entry {
            time,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.insert(entry);
        let n = self.buckets.len();
        if self.in_buckets > 2 * n {
            self.rebuild(self.in_buckets.next_power_of_two());
        }
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        if self.run.is_empty() && !self.is_empty() {
            self.maybe_shrink();
            self.locate();
        }
        let entry = self.run.pop()?;
        self.in_buckets -= 1;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// The timestamp of the next event without popping it. The cursor
    /// day it finds stays sorted for the following [`pop`](Self::pop).
    pub fn peek_time(&mut self) -> Option<f64> {
        if self.run.is_empty() && !self.is_empty() {
            self.locate();
        }
        self.run.last().map(|e| e.time)
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_buckets + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The day (bucket-width quantum) containing `time`, clamped to the
    /// representable range. Monotone in `time`, which is all the
    /// ordering proof needs — the exact rounding at day boundaries is
    /// irrelevant.
    fn day_of(&self, time: f64) -> u64 {
        let q = time * self.inv_width;
        if q >= MAX_DAY as f64 {
            MAX_DAY
        } else if q > 0.0 {
            q as u64
        } else {
            0
        }
    }

    /// One past the last day of the cursor's year (years are aligned
    /// blocks of `N` consecutive days, `N` a power of two).
    fn year_end(&self) -> u64 {
        (self.day | self.mask) + 1
    }

    /// Files an entry into its bucket or the overflow list. The caller
    /// owns sequence assignment and resize checks.
    fn insert(&mut self, entry: Entry<E>) {
        // Tolerate causality-violating input when debug assertions are
        // off: a past-time entry joins the cursor's day so it pops at
        // the earliest opportunity (its smaller timestamp sorts it
        // last in the run).
        let day = self.day_of(entry.time).max(self.day);
        if day == self.day && !self.run.is_empty() {
            let at = self
                .run
                .partition_point(|e| order(e, &entry) == Ordering::Greater);
            self.run.insert(at, entry);
            self.in_buckets += 1;
        } else if day >= self.year_end() {
            self.overflow.push(entry);
        } else {
            self.buckets[(day & self.mask) as usize].push(entry);
            self.in_buckets += 1;
        }
    }

    /// Advances the cursor day (rotating years / re-homing overflow as
    /// needed) to the first non-empty day and moves that day's entries
    /// into the run, sorted. Precondition: the queue is non-empty and
    /// the run empty.
    fn locate(&mut self) {
        loop {
            if self.in_buckets == 0 {
                // Every bucket is empty: jump the cursor straight to
                // the earliest overflow day instead of rotating through
                // the gap year by year.
                let earliest = self
                    .overflow
                    .iter()
                    .map(|e| e.time)
                    .fold(f64::INFINITY, f64::min);
                self.day = self.day_of(earliest).max(self.day);
                self.rehome();
                debug_assert!(self.in_buckets > 0, "jump must land on an event");
                continue;
            }
            let bucket = &mut self.buckets[(self.day & self.mask) as usize];
            if !bucket.is_empty() {
                // Move the entries, not the `Vec`: each bucket keeps its
                // own capacity.
                self.run.append(bucket);
                self.run.sort_unstable_by(|a, b| order(b, a));
                return;
            }
            self.day += 1;
            if self.day & self.mask == 0 {
                // Year rotation: overflow entries whose year arrived
                // move into their buckets.
                self.rehome();
            }
        }
    }

    /// Moves every overflow entry whose day falls before the cursor's
    /// year end into its bucket.
    fn rehome(&mut self) {
        if self.overflow.is_empty() {
            return;
        }
        let year_end = self.year_end();
        let mut i = 0;
        while i < self.overflow.len() {
            let day = self.day_of(self.overflow[i].time).max(self.day);
            if day < year_end {
                let entry = self.overflow.swap_remove(i);
                self.buckets[(day & self.mask) as usize].push(entry);
                self.in_buckets += 1;
            } else {
                i += 1;
            }
        }
        let n = self.buckets.len();
        if self.in_buckets > 2 * n {
            self.rebuild(self.in_buckets.next_power_of_two());
        }
    }

    /// Halves the bucket array when occupancy drops far below it.
    fn maybe_shrink(&mut self) {
        let n = self.buckets.len();
        if n > MIN_BUCKETS && self.len() < n / 4 {
            self.rebuild((n / 2).max(MIN_BUCKETS));
        }
    }

    /// Rebuilds with `nbuckets` buckets (rounded to at least
    /// [`MIN_BUCKETS`]) and a width re-estimated from the event density
    /// near the head of the queue, then re-files every entry, the run's
    /// included (it is empty afterwards).
    fn rebuild(&mut self, nbuckets: usize) {
        let nbuckets = nbuckets.max(MIN_BUCKETS);
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.len());
        all.append(&mut self.run);
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        all.append(&mut self.overflow);
        self.in_buckets = 0;
        if let Some(inv_width) = estimate_inv_width(&all) {
            self.inv_width = inv_width;
        }
        if self.buckets.len() < nbuckets {
            self.buckets.resize_with(nbuckets, Vec::new);
        } else {
            self.buckets.truncate(nbuckets);
        }
        self.mask = (nbuckets - 1) as u64;
        let earliest = all.iter().map(|e| e.time).fold(f64::INFINITY, f64::min);
        self.day = if earliest.is_finite() {
            self.day_of(earliest)
        } else {
            0
        };
        for entry in all {
            self.insert(entry);
        }
    }
}

/// Estimates the reciprocal of a bucket width from the mean gap among
/// the (up to [`WIDTH_SAMPLE`]) earliest entries — the density that
/// matters is the one at the head of the queue, not the full span,
/// which a handful of far-future outliers would otherwise dominate.
/// Returns `None` when the sample is degenerate (too few events, zero
/// span, or a non-finite estimate), in which case the current width
/// stands.
fn estimate_inv_width<E>(entries: &[Entry<E>]) -> Option<f64> {
    if entries.len() < 2 {
        return None;
    }
    let mut times: Vec<f64> = entries.iter().map(|e| e.time).collect();
    let k = times.len().min(WIDTH_SAMPLE) - 1;
    times.select_nth_unstable_by(k, |a, b| a.partial_cmp(b).expect("times are never NaN"));
    let head = &times[..=k];
    let min = head.iter().copied().fold(f64::INFINITY, f64::min);
    let span = head[k] - min;
    let inv_width = k as f64 / (WIDTH_GAP_FACTOR * span);
    (inv_width.is_finite() && inv_width > 0.0).then_some(inv_width)
}

impl<E> EventSchedule<E> for CalendarQueue<E> {
    fn schedule(&mut self, time: f64, event: E) {
        CalendarQueue::schedule(self, time, event);
    }
    fn pop(&mut self) -> Option<(f64, E)> {
        CalendarQueue::pop(self)
    }
    fn peek_time(&mut self) -> Option<f64> {
        CalendarQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.now(), 2.0);
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = CalendarQueue::new();
        for i in 0..100 {
            q.schedule(1.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((1.0, i)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = CalendarQueue::new();
        q.schedule(1.0, "first");
        assert_eq!(q.pop(), Some((1.0, "first")));
        q.schedule(q.now() + 0.5, "second");
        q.schedule(q.now() + 0.25, "between");
        assert_eq!(q.pop(), Some((1.25, "between")));
        assert_eq!(q.pop(), Some((1.5, "second")));
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = CalendarQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.now(), 0.0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_yields_to_earlier_insertions() {
        let mut q = CalendarQueue::new();
        q.schedule(5.0, "late");
        assert_eq!(q.peek_time(), Some(5.0));
        // An earlier event after the peek joins the sorted run ahead.
        q.schedule(2.0, "early");
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.pop(), Some((2.0, "early")));
        // An equal-time event after a peek must NOT displace the peeked
        // (earlier-sequence) entry.
        q.schedule(5.0, "late-too");
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.pop(), Some((5.0, "late")));
        assert_eq!(q.pop(), Some((5.0, "late-too")));
    }

    #[test]
    fn far_future_events_wait_in_overflow_and_still_order() {
        let mut q = CalendarQueue::new();
        // Default width 1.0, 16 buckets: year 0 covers [0, 16).
        q.schedule(1e9, "very far");
        q.schedule(1e6, "far");
        q.schedule(0.5, "near");
        assert_eq!(q.pop(), Some((0.5, "near")));
        assert_eq!(q.pop(), Some((1e6, "far")));
        assert_eq!(q.pop(), Some((1e9, "very far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn degenerately_distant_times_collapse_but_stay_ordered() {
        let mut q = CalendarQueue::new();
        q.schedule(1e300, "b");
        q.schedule(1e299, "a");
        q.schedule(1e300, "c");
        assert_eq!(q.pop(), Some((1e299, "a")));
        assert_eq!(q.pop(), Some((1e300, "b")));
        assert_eq!(q.pop(), Some((1e300, "c")));
    }

    #[test]
    fn grows_through_resizes_without_losing_order() {
        let mut q = CalendarQueue::new();
        // Far more events than the initial 16 buckets, forcing several
        // doublings, with duplicate timestamps sprinkled in.
        let times: Vec<f64> = (0..1000)
            .map(|i| f64::from((i * 7919) % 500) / 10.0)
            .collect();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut expect: Vec<(f64, usize)> = times
            .iter()
            .copied()
            .enumerate()
            .map(|(i, t)| (t, i))
            .collect();
        expect.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        for (t, i) in expect {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn drain_and_refill_exercises_shrink() {
        let mut q = CalendarQueue::new();
        for i in 0..500 {
            q.schedule(f64::from(i) * 0.01, i);
        }
        for i in 0..500 {
            assert_eq!(q.pop(), Some((f64::from(i) * 0.01, i)));
        }
        // After draining (shrink churn), ordering still holds.
        q.schedule(q.now() + 2.0, 1000);
        q.schedule(q.now() + 1.0, 1001);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1001));
        assert_eq!(q.pop().map(|(_, e)| e), Some(1000));
    }

    #[test]
    fn reset_reuses_buckets_and_replays_identically() {
        let run = |q: &mut CalendarQueue<usize>| {
            for i in 0..300 {
                q.schedule(f64::from((i * 31) % 97) * 0.3, i as usize);
            }
            let mut out = Vec::new();
            while let Some((t, e)) = q.pop() {
                out.push((t, e));
            }
            out
        };
        let mut q = CalendarQueue::new();
        let first = run(&mut q);
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), 0.0);
        let second = run(&mut q);
        assert_eq!(first, second, "reset run must replay bit-identically");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = CalendarQueue::new();
        q.schedule(2.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_time_panics() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        q.schedule(f64::NAN, ());
    }

    // Regression: `schedule(f64::INFINITY, ..)` used to pass the
    // NaN-only check and panic later inside `estimate_inv_width` once
    // enough events accumulated to trigger a resize. Reject it at the
    // insertion site instead, as `EventQueue` does.
    #[test]
    #[should_panic(expected = "must be finite")]
    fn infinite_time_panics() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        q.schedule(f64::INFINITY, ());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn negative_infinite_time_panics() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        q.schedule(f64::NEG_INFINITY, ());
    }
}
