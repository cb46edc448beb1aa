//! An O(1)-amortized calendar queue with stable `(time, seq)` ordering.
//!
//! On long-horizon, high-load runs (metastability sweeps, outage churn)
//! the event queue is the kernel's single hottest structure, and a
//! comparison-based heap pays O(log n) per operation on scattered nodes.
//! [`CalendarQueue`], the kernel's only event queue, is Brown's calendar
//! queue (CACM 1988) instead: an array of `N` buckets, each `width` units of simulation
//! time wide, used circularly — bucket `b` holds the events of every
//! "day" `d ≡ b (mod N)` of the current "year" (`N` consecutive days).
//! Scheduling appends to a bucket (O(1)); popping scans the cursor
//! day's bucket for the minimal `(time, seq)` entry (O(bucket
//! occupancy), kept O(1) amortized by resizing).
//!
//! **Determinism.** Pop order is exactly ascending `(time, insertion
//! sequence)` — the same total order the binary-heap
//! [`EventQueue`](crate::queue::EventQueue) implements — because `floor(time / width)` is monotone in `time`:
//! every event of an earlier day is popped before any event of a later
//! day, same-day events are compared explicitly by `(time, seq)`, and
//! equal timestamps always share a day. Bucket layout, resizes, and
//! rotation therefore never influence the observable order. The
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
//! in-bucket `(time, seq)` scan.

use crate::queue::EventSchedule;

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
    /// Width of one day (bucket) in simulation time.
    width: f64,
    /// The cursor: the earliest day that may still hold events.
    day: u64,
    /// Entries currently in `buckets` (the rest are in `overflow`).
    in_buckets: usize,
    /// Events of later years, unordered; re-homed at year rotations.
    overflow: Vec<Entry<E>>,
    seq: u64,
    now: f64,
    /// Location of the next entry to pop, computed by a peek and reused
    /// by the following pop; invalidated by any earlier insertion.
    cached: Option<(usize, usize)>,
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
            width: 1.0,
            day: 0,
            in_buckets: 0,
            overflow: Vec::new(),
            seq: 0,
            now: 0.0,
            cached: None,
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
        self.overflow.clear();
        self.day = 0;
        self.in_buckets = 0;
        self.seq = 0;
        self.now = 0.0;
        self.cached = None;
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
    /// used to survive until `estimate_width`'s comparison sort or a
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
        if self.is_empty() {
            return None;
        }
        let (bucket, idx) = match self.cached.take() {
            Some(slot) => slot,
            None => {
                self.maybe_shrink();
                self.locate()
            }
        };
        let entry = self.buckets[bucket].swap_remove(idx);
        self.in_buckets -= 1;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// The timestamp of the next event without popping it. The located
    /// slot is cached and reused by the next [`pop`](Self::pop).
    pub fn peek_time(&mut self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        if self.cached.is_none() {
            self.cached = Some(self.locate());
        }
        let (bucket, idx) = self.cached.expect("just set");
        Some(self.buckets[bucket][idx].time)
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
        let q = time / self.width;
        if q >= MAX_DAY as f64 {
            MAX_DAY
        } else if q > 0.0 {
            q as u64
        } else {
            0
        }
    }

    /// One past the last day of the cursor's year (years are aligned
    /// blocks of `N` consecutive days).
    fn year_end(&self) -> u64 {
        let n = self.mask + 1;
        (self.day / n + 1) * n
    }

    /// Files an entry into its bucket or the overflow list. The caller
    /// owns sequence assignment and resize checks.
    fn insert(&mut self, entry: Entry<E>) {
        // Tolerate causality-violating input when debug assertions are
        // off: a past-time entry joins the cursor's day so it pops at
        // the earliest opportunity (its smaller timestamp wins the
        // in-bucket scan).
        let day = self.day_of(entry.time).max(self.day);
        if let Some((b, i)) = self.cached {
            // The cached slot stays the minimum unless the newcomer is
            // strictly earlier (equal times keep the cached entry: its
            // sequence number is necessarily smaller).
            if entry.time < self.buckets[b][i].time {
                self.cached = None;
            }
        }
        if day >= self.year_end() {
            self.overflow.push(entry);
        } else {
            self.buckets[(day & self.mask) as usize].push(entry);
            self.in_buckets += 1;
        }
    }

    /// Finds the bucket slot of the minimal `(time, seq)` entry,
    /// advancing the cursor day (and rotating years / re-homing
    /// overflow) as needed. Precondition: the queue is non-empty.
    fn locate(&mut self) -> (usize, usize) {
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
            let bucket = (self.day & self.mask) as usize;
            if !self.buckets[bucket].is_empty() {
                let entries = &self.buckets[bucket];
                let mut best = 0;
                for (i, e) in entries.iter().enumerate().skip(1) {
                    let b = &entries[best];
                    if e.time < b.time || (e.time == b.time && e.seq < b.seq) {
                        best = i;
                    }
                }
                return (bucket, best);
            }
            self.day += 1;
            if self.day.is_multiple_of(self.mask + 1) {
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
    /// near the head of the queue, then re-files every entry.
    fn rebuild(&mut self, nbuckets: usize) {
        let nbuckets = nbuckets.max(MIN_BUCKETS);
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.len());
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        all.append(&mut self.overflow);
        self.in_buckets = 0;
        self.cached = None;
        if let Some(width) = estimate_width(&all) {
            self.width = width;
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

/// Estimates a bucket width from the mean gap among the (up to
/// [`WIDTH_SAMPLE`]) earliest entries — the density that matters is the
/// one at the head of the queue, not the full span, which a handful of
/// far-future outliers would otherwise dominate. Returns `None` when
/// the sample is degenerate (too few events, zero span, or a
/// non-finite estimate), in which case the current width stands.
fn estimate_width<E>(entries: &[Entry<E>]) -> Option<f64> {
    if entries.len() < 2 {
        return None;
    }
    let mut times: Vec<f64> = entries.iter().map(|e| e.time).collect();
    let k = times.len().min(WIDTH_SAMPLE) - 1;
    times.select_nth_unstable_by(k, |a, b| a.partial_cmp(b).expect("times are never NaN"));
    let head = &times[..=k];
    let min = head.iter().copied().fold(f64::INFINITY, f64::min);
    let span = head[k] - min;
    let width = WIDTH_GAP_FACTOR * span / k as f64;
    (width.is_finite() && width > 0.0).then_some(width)
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
    fn peek_cache_yields_to_earlier_insertions() {
        let mut q = CalendarQueue::new();
        q.schedule(5.0, "late");
        assert_eq!(q.peek_time(), Some(5.0));
        // An earlier event after the peek must invalidate the cache.
        q.schedule(2.0, "early");
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.pop(), Some((2.0, "early")));
        // An equal-time event after a peek must NOT displace the cached
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
    // NaN-only check and panic later inside `estimate_width` once
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
