//! Property-based tests of the event queues, RNG streams, and statistics.
//!
//! The calendar-queue suite at the bottom checks the kernel's only event
//! queue against the binary-heap oracle: for any NaN-free stream of `(time, seq)`
//! insertions and pops, [`CalendarQueue`] must produce exactly the pop
//! sequence of the comparison-based [`EventQueue`] — including FIFO
//! order within equal-timestamp runs, across bucket-array resizes, year
//! rotations, and the far-future overflow list.

use altroute_simcore::calendar::CalendarQueue;
use altroute_simcore::queue::EventQueue;
use altroute_simcore::rng::{RngStream, StreamFactory};
use altroute_simcore::stats::{Replications, RunningStats};
use proptest::prelude::*;

proptest! {
    /// Popping returns events in non-decreasing time order, with FIFO
    /// order at equal timestamps, regardless of insertion order.
    #[test]
    fn queue_pops_sorted_stable(times in proptest::collection::vec(0.0f64..100.0, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut popped = Vec::new();
        while let Some((t, id)) = q.pop() {
            popped.push((t, id));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated at equal times");
            }
        }
    }

    /// The clock never runs backwards across interleaved operations.
    #[test]
    fn clock_is_monotone(delays in proptest::collection::vec(0.0f64..5.0, 1..100)) {
        let mut q = EventQueue::new();
        let mut last = 0.0;
        for (i, &d) in delays.iter().enumerate() {
            q.schedule(q.now() + d, i);
            if i % 3 == 0 {
                if let Some((t, _)) = q.pop() {
                    prop_assert!(t >= last);
                    last = t;
                }
            }
        }
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// Streams are pure functions of (master, id).
    #[test]
    fn streams_are_reproducible(master in any::<u64>(), id in any::<u64>()) {
        let f = StreamFactory::new(master);
        let a: Vec<f64> = { let mut s = f.stream(id); (0..16).map(|_| s.uniform()).collect() };
        let b: Vec<f64> = { let mut s = f.stream(id); (0..16).map(|_| s.uniform()).collect() };
        prop_assert_eq!(a, b);
    }

    /// Distinct stream ids give distinct sequences (SplitMix64 is a
    /// bijection, so sub-seeds never collide for a fixed master).
    #[test]
    fn distinct_ids_distinct_streams(master in any::<u64>(), id in any::<u64>(), delta in 1u64..1000) {
        let f = StreamFactory::new(master);
        let mut a = f.stream(id);
        let mut b = f.stream(id.wrapping_add(delta));
        let va: Vec<u64> = (0..8).map(|_| (a.uniform() * 1e15) as u64).collect();
        let vb: Vec<u64> = (0..8).map(|_| (b.uniform() * 1e15) as u64).collect();
        prop_assert_ne!(va, vb);
    }

    /// Exponential samples are positive and finite for any valid rate.
    #[test]
    fn exponential_support(seed in any::<u64>(), rate in 0.001f64..1000.0) {
        let mut s = RngStream::from_seed(seed);
        for _ in 0..64 {
            let x = s.exp(rate);
            prop_assert!(x > 0.0 && x.is_finite());
        }
    }

    /// Welford matches the two-pass computation on arbitrary data.
    #[test]
    fn welford_matches_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        prop_assert!((rs.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((rs.variance() - var).abs() < 1e-4 * var.max(1.0));
    }

    /// Replication summaries bracket their inputs.
    #[test]
    fn replications_bracket(xs in proptest::collection::vec(0.0f64..1.0, 1..50)) {
        let r = Replications::summarize(&xs);
        prop_assert!(r.min <= r.mean && r.mean <= r.max);
        prop_assert!(r.std_error >= 0.0);
        prop_assert_eq!(r.replications as usize, xs.len());
        prop_assert!(r.ci_contains(r.mean));
    }
}

/// Drains both queues fully and asserts identical `(time, payload)` pop
/// sequences.
fn assert_drains_equal(
    heap: &mut EventQueue<usize>,
    cal: &mut CalendarQueue<usize>,
) -> Result<(), TestCaseError> {
    loop {
        let (a, b) = (heap.pop(), cal.pop());
        prop_assert_eq!(a, b, "calendar diverged from heap while draining");
        if a.is_none() {
            return Ok(());
        }
    }
}

proptest! {
    /// For an arbitrary NaN-free stream of interleaved schedules and
    /// pops, the calendar queue reproduces the heap's pop sequence
    /// exactly — same times, same payloads, same order.
    #[test]
    fn calendar_matches_heap_interleaved(
        ops in proptest::collection::vec((0.0f64..50.0, 0u8..4), 1..300)
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        for (i, &(delay, kind)) in ops.iter().enumerate() {
            if kind == 0 {
                prop_assert_eq!(heap.pop(), cal.pop());
            } else {
                heap.schedule(heap.now() + delay, i);
                cal.schedule(cal.now() + delay, i);
            }
            prop_assert_eq!(heap.len(), cal.len());
            prop_assert_eq!(heap.peek_time(), cal.peek_time());
        }
        assert_drains_equal(&mut heap, &mut cal)?;
    }

    /// Timestamps drawn from a tiny discrete set produce long
    /// equal-timestamp runs; the calendar queue must preserve the heap's
    /// FIFO (sequence-number) order through every run.
    #[test]
    fn calendar_preserves_fifo_runs(
        ticks in proptest::collection::vec(0u8..6, 1..400)
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        for (i, &tick) in ticks.iter().enumerate() {
            let t = f64::from(tick);
            heap.schedule(t, i);
            cal.schedule(t, i);
        }
        let mut last: Option<(f64, usize)> = None;
        loop {
            let (a, b) = (heap.pop(), cal.pop());
            prop_assert_eq!(a, b);
            let Some((t, seq)) = a else { break };
            if let Some((lt, lseq)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(seq > lseq, "FIFO violated within an equal-time run");
                }
            }
            last = Some((t, seq));
        }
    }

    /// Delays drawn from a bimodal mixture (dense sub-unit spacing and
    /// sparse hundred-unit jumps) force the calendar to re-estimate its
    /// bucket width and grow/shrink its bucket array mid-stream, and
    /// drive the clock across many year rotations. The pop order must
    /// survive every resize and rotation.
    #[test]
    fn calendar_survives_resize_and_rotation(
        ops in proptest::collection::vec((0.0f64..1.0, any::<bool>()), 1..500)
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        for (i, &(frac, sparse)) in ops.iter().enumerate() {
            let delay = if sparse { frac * 400.0 } else { frac * 0.05 };
            heap.schedule(heap.now() + delay, i);
            cal.schedule(cal.now() + delay, i);
            // Pop in bursts so the queue repeatedly empties toward a
            // handful of events (shrink pressure) then refills (grow
            // pressure) while the clock advances across bucket years.
            if i % 7 == 0 {
                for _ in 0..5 {
                    prop_assert_eq!(heap.pop(), cal.pop());
                }
            }
        }
        assert_drains_equal(&mut heap, &mut cal)?;
    }

    /// Events far beyond the current calendar year land on the overflow
    /// path; they must still interleave correctly with near-term events
    /// once the clock reaches them.
    #[test]
    fn calendar_handles_far_future_overflow(
        near in proptest::collection::vec(0.0f64..10.0, 1..100),
        far in proptest::collection::vec(1e6f64..1e12, 1..20)
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        let mut seq = 0usize;
        for (i, &d) in near.iter().enumerate() {
            heap.schedule(heap.now() + d, seq);
            cal.schedule(cal.now() + d, seq);
            seq += 1;
            if i < far.len() {
                heap.schedule(heap.now() + far[i], seq);
                cal.schedule(cal.now() + far[i], seq);
                seq += 1;
            }
        }
        for &d in far.iter().skip(near.len()) {
            heap.schedule(heap.now() + d, seq);
            cal.schedule(cal.now() + d, seq);
            seq += 1;
        }
        assert_drains_equal(&mut heap, &mut cal)?;
    }
}

/// Peeks both queues and asserts the same next time and length.
fn assert_heads_equal(
    heap: &EventQueue<usize>,
    cal: &mut CalendarQueue<usize>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(heap.peek_time(), cal.peek_time());
    prop_assert_eq!(heap.len(), cal.len());
    Ok(())
}

// The calendar sorts the cursor day's entries once into a run and pops
// its last entry; these properties drive the states that run has.
proptest! {
    /// After a peek the cursor day is a sorted run; schedules that land
    /// on it, at the peeked time itself (tied with the run's last
    /// entry), on the coarse grid the other entries sit on (tied with
    /// entries inside the run), or just after the head, must join it
    /// in `(time, seq)` order.
    #[test]
    fn schedules_onto_the_peeked_day_join_the_run_in_order(
        ops in proptest::collection::vec((0u8..4, 0u8..8), 1..400)
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        for i in 0..16 {
            let t = (i % 4) as f64 * 0.5;
            heap.schedule(t, i);
            cal.schedule(t, i);
        }
        for (i, &(kind, step)) in ops.iter().enumerate() {
            let id = 1000 + i;
            assert_heads_equal(&heap, &mut cal)?;
            let head = heap.peek_time().unwrap_or(heap.now());
            let t = match kind {
                0 => {
                    prop_assert_eq!(heap.pop(), cal.pop());
                    continue;
                }
                1 => head,
                2 => (head * 2.0).floor() / 2.0 + f64::from(step) * 0.5,
                _ => head + f64::from(step) * 1e-3,
            };
            let t = t.max(heap.now());
            heap.schedule(t, id);
            cal.schedule(t, id);
        }
        assert_drains_equal(&mut heap, &mut cal)?;
    }

    /// A burst of schedules after a peek grows the bucket array while
    /// the run holds the cursor day (the resize folds the run back into
    /// the buckets); popping it down again with peeks in between shrinks
    /// the array, and the pop order survives both.
    #[test]
    fn resizes_with_a_sorted_run_keep_the_order(
        bursts in proptest::collection::vec((1usize..300, 0.0f64..1.0, 0u8..3), 1..8)
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        let mut id = 0;
        for &(size, spread, ticks) in &bursts {
            let t = heap.now() + spread;
            heap.schedule(t, id);
            cal.schedule(t, id);
            id += 1;
            assert_heads_equal(&heap, &mut cal)?;
            for k in 0..size {
                // Ties on a few ticks, the rest spread out past the head.
                let t = heap.now() + spread * (k % (usize::from(ticks) + 1)) as f64 / 3.0
                    + (k as f64) * 1e-3 * f64::from(ticks);
                heap.schedule(t, id);
                cal.schedule(t, id);
                id += 1;
            }
            for _ in 0..size - size / 8 {
                assert_heads_equal(&heap, &mut cal)?;
                prop_assert_eq!(heap.pop(), cal.pop());
            }
        }
        assert_drains_equal(&mut heap, &mut cal)?;
    }

    /// `reset` in the middle of a sorted run empties it with the rest:
    /// the reset queue replays a stream exactly as a fresh heap pops it.
    #[test]
    fn reset_with_a_sorted_run_replays_like_a_fresh_queue(
        delays in proptest::collection::vec(0.0f64..4.0, 2..200),
        pops in 0usize..50,
    ) {
        // Schedules the stream on `cal` and a fresh heap, pops some of
        // it, and peeks, which leaves the cursor day sorted.
        let replay = |cal: &mut CalendarQueue<usize>| {
            let mut heap = EventQueue::new();
            for (i, &d) in delays.iter().enumerate() {
                heap.schedule(d.floor(), i);
                cal.schedule(d.floor(), i);
            }
            for _ in 0..pops.min(delays.len() - 1) {
                assert_heads_equal(&heap, cal)?;
                prop_assert_eq!(heap.pop(), cal.pop());
            }
            assert_heads_equal(&heap, cal)?;
            Ok::<_, TestCaseError>(heap)
        };
        let mut cal = CalendarQueue::new();
        replay(&mut cal)?;
        cal.reset();
        prop_assert_eq!(cal.len(), 0);
        prop_assert_eq!(cal.peek_time(), None);
        let mut heap = replay(&mut cal)?;
        assert_drains_equal(&mut heap, &mut cal)?;
    }
}

// With debug assertions off a schedule before the clock is tolerated:
// both queues order it as if it fired at the earliest poppable instant,
// and the calendar files it into the cursor day's run.
#[cfg(not(debug_assertions))]
proptest! {
    #[test]
    fn past_time_schedules_pop_as_the_heap_pops_them(
        ops in proptest::collection::vec((0u8..4, 0.0f64..3.0), 1..300)
    ) {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::new();
        for (i, &(kind, delay)) in ops.iter().enumerate() {
            match kind {
                0 => prop_assert_eq!(heap.pop(), cal.pop()),
                1 => {
                    heap.schedule(heap.now() - delay, i);
                    cal.schedule(cal.now() - delay, i);
                }
                _ => {
                    heap.schedule(heap.now() + delay, i);
                    cal.schedule(cal.now() + delay, i);
                }
            }
            assert_heads_equal(&heap, &mut cal)?;
        }
        assert_drains_equal(&mut heap, &mut cal)?;
    }
}
