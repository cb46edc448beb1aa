//! A stable discrete-event queue.
//!
//! Events are ordered by timestamp; ties pop in insertion order (FIFO), so
//! a simulation that schedules events deterministically *is* deterministic
//! end to end — no dependence on heap internals. Timestamps are `f64`
//! simulation time; non-finite timestamps are rejected at insertion.
//!
//! [`EventQueue`] here is the comparison-based `BinaryHeap`
//! implementation of that `(time, seq)` contract: O(log n) per
//! operation and trivially correct. The kernel runs on the O(1)-amortized
//! [`CalendarQueue`](crate::calendar::CalendarQueue) only; `EventQueue`
//! is the oracle the calendar property tests compare against and the
//! baseline of perfbench's `heap.hold_ns` replay. Both must pop any
//! NaN-free event stream in the identical order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The scheduling contract both queues implement, for code that replays
/// one event stream through either: events pop in `(time, insertion
/// sequence)` order, the clock advances only on
/// [`pop`](EventSchedule::pop), and non-finite timestamps are rejected.
///
/// Scheduling before the current clock is a causality bug in the caller;
/// both implementations reject it with a *debug* assertion (the check is
/// compiled out of release hot paths) and, when debug assertions are
/// disabled, order such an event as if it fired at the earliest still
/// poppable instant.
pub trait EventSchedule<E> {
    /// Schedules `event` at absolute time `time`.
    fn schedule(&mut self, time: f64, event: E);
    /// Pops the earliest event, advancing the clock to its timestamp.
    fn pop(&mut self) -> Option<(f64, E)>;
    /// The timestamp of the next event without popping it (`&mut` so
    /// implementations may cache the search for the following pop).
    fn peek_time(&mut self) -> Option<f64>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An event queue ordered by `(time, insertion sequence)`.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: f64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first. Total order is safe: NaN is rejected on push.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are never NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at time 0.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite (NaN or ±∞), or (debug builds
    /// only) if `time` is earlier than the current clock — scheduling
    /// into the past breaks causality, so it is asserted where
    /// assertions are free and tolerated (the event fires as early as
    /// possible) in optimized hot paths. Non-finite times are rejected
    /// here, at the insertion site, rather than surfacing later as a
    /// comparison failure deep inside the queue internals.
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
        self.heap.push(entry);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> EventSchedule<E> for EventQueue<E> {
    fn schedule(&mut self, time: f64, event: E) {
        EventQueue::schedule(self, time, event);
    }
    fn pop(&mut self) -> Option<(f64, E)> {
        EventQueue::pop(self)
    }
    fn peek_time(&mut self) -> Option<f64> {
        EventQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(1.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((1.0, i)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first");
        assert_eq!(q.pop(), Some((1.0, "first")));
        q.schedule(q.now() + 0.5, "second");
        q.schedule(q.now() + 0.25, "between");
        assert_eq!(q.pop(), Some((1.25, "between")));
        assert_eq!(q.pop(), Some((1.5, "second")));
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.now(), 0.0);
    }

    #[test]
    fn zero_delay_event_pops_after_already_queued_same_time() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "a");
        q.schedule(1.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        q.schedule(q.now(), "c"); // also at time 1.0, inserted later
        assert_eq!(q.pop(), Some((1.0, "b")));
        assert_eq!(q.pop(), Some((1.0, "c")));
    }

    // Past-time insertion is a causality bug in the caller; they are debug assertions (compiled out of release hot
    // paths), so the regression tests only exist under debug assertions.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(2.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_time_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    // Regression: a non-finite (infinite) time used to sail past the
    // NaN-only check and only blow up later, deep inside the calendar
    // queue's width estimation. Both backends now reject it at the
    // insertion site.
    #[test]
    #[should_panic(expected = "must be finite")]
    fn infinite_time_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(f64::INFINITY, ());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn negative_infinite_time_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(f64::NEG_INFINITY, ());
    }
}
