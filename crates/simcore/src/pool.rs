//! A bounded worker pool for replication fan-out.
//!
//! Every multi-seed runner in the workspace distributes its
//! replications through [`Fanout::replicate`] over [`pool_run_with`]: a
//! fixed number of scoped worker threads pull job indices from a shared
//! queue and write each result into that job's dedicated slot, so the
//! returned vector is
//! positionally ordered and byte-identical to a sequential run
//! regardless of which worker ran which index — parallelism is a pure
//! scheduling detail, never a source of nondeterminism.

use crate::kernel::KernelScratch;

/// Observer of job completions, for live progress heartbeats on long
/// experiments. Called from worker threads (hence `Sync`); the callback
/// must not assume any completion order.
pub trait ProgressObserver: Sync {
    /// Job number `completed` (1-based, monotone) of `total` just
    /// finished.
    fn replication_done(&self, completed: usize, total: usize);
}

/// Runs `job(&mut scratch, i)` for every `i < jobs` on a bounded worker
/// pool and returns the results positionally — byte-identical to a
/// sequential run regardless of which worker ran which index. Every
/// worker thread builds one scratch `S` with `init` when it starts and
/// hands it to each job it runs. Replication runners use this to
/// recycle a simulation scratch arena (event-queue buckets, call table,
/// link index) across the seeds a worker processes, instead of
/// reallocating per replication.
///
/// The scratch must never leak information between jobs that changes
/// results: `job(&mut s, i)` is required to return the same value as it
/// would with a fresh `S` (the kernel's scratch guarantees this by
/// resetting everything it reuses), keeping results byte-identical to a
/// sequential run for every worker count.
///
/// # Panics
///
/// Panics if `jobs` or `workers` is zero, or if a job panics.
pub fn pool_run_with<S, T: Send>(
    jobs: usize,
    workers: usize,
    progress: Option<&dyn ProgressObserver>,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    assert!(jobs > 0, "need at least one job");
    assert!(workers > 0, "need at least one worker");
    let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    let workers = workers.min(jobs);
    let done = std::sync::atomic::AtomicUsize::new(0);
    {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, &mut Option<T>)>();
        for entry in slots.iter_mut().enumerate() {
            tx.send(entry)
                .expect("queue is open while jobs are enqueued");
        }
        drop(tx);
        let rx = std::sync::Mutex::new(rx);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = init();
                    loop {
                        // Hold the lock only to dequeue; the job runs outside.
                        let next = rx.lock().expect("no panic while dequeueing").recv();
                        let Ok((i, slot)) = next else { break };
                        *slot = Some(job(&mut scratch, i));
                        if let Some(p) = progress {
                            let completed =
                                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                            p.replication_done(completed, jobs);
                        }
                    }
                });
            }
        });
    }
    slots.into_iter().map(|s| s.expect("job ran")).collect()
}

/// How a set of replications executes: across seeds on a bounded pool
/// of `workers` threads, with an optional progress observer and
/// optional per-seed telemetry on windows `window` wide. None of it changes a result:
/// every simulator's one replication entry takes a `Fanout` and must
/// return byte-identical results for every value of it (telemetry
/// recording included — it is a pure observer).
#[derive(Clone, Copy)]
pub struct Fanout<'a> {
    /// Worker threads replications are spread over.
    pub workers: usize,
    /// Notified after each completed replication.
    pub progress: Option<&'a dyn ProgressObserver>,
    /// Record time-resolved telemetry per replication on windows this
    /// wide, merged across seeds in seed order.
    pub window: Option<f64>,
}

impl Default for Fanout<'_> {
    /// [`default_workers`] threads, no progress, no telemetry.
    fn default() -> Self {
        Self {
            workers: default_workers(),
            progress: None,
            window: None,
        }
    }
}

impl Fanout<'_> {
    /// Runs `job(scratch, i, telemetry)` for every replication
    /// `i < seeds` on the worker pool, each worker recycling one
    /// [`KernelScratch`] across the seeds it runs. With a telemetry
    /// window set, each replication gets a fresh recorder from
    /// `telemetry(window)` and the recorders are folded with `merge`
    /// strictly in seed order, so the merged snapshot — like the
    /// positional results — is identical for every worker count.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` or `workers` is zero, or if a job panics.
    pub fn replicate<T: Send, M: Send>(
        &self,
        seeds: usize,
        telemetry: impl Fn(f64) -> M + Sync,
        merge: impl Fn(&mut M, &M),
        job: impl Fn(&mut KernelScratch, usize, Option<&mut M>) -> T + Sync,
    ) -> (Vec<T>, Option<M>) {
        let recorded = pool_run_with(
            seeds,
            self.workers,
            self.progress,
            KernelScratch::new,
            |scratch, i| {
                let mut recorder = self.window.map(&telemetry);
                let result = job(scratch, i, recorder.as_mut());
                (result, recorder)
            },
        );
        let (results, recorders): (Vec<T>, Vec<Option<M>>) = recorded.into_iter().unzip();
        (
            results,
            merge_in_order(recorders.into_iter().flatten(), merge),
        )
    }
}

/// Folds per-replication snapshots into the first one with `merge`,
/// strictly in the given (seed) order; `None` when there are none.
/// Every across-seed telemetry merge in the workspace goes through here,
/// so the merged snapshot depends only on the seed order, never on
/// which worker finished first.
pub fn merge_in_order<M>(
    snapshots: impl IntoIterator<Item = M>,
    merge: impl Fn(&mut M, &M),
) -> Option<M> {
    let mut snapshots = snapshots.into_iter();
    let mut merged = snapshots.next()?;
    for snapshot in snapshots {
        merge(&mut merged, &snapshot);
    }
    Some(merged)
}

/// The machine's available parallelism (1 if it cannot be queried) —
/// the default worker count for replication fan-out.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_positional() {
        let out = pool_run_with(100, 8, None, || (), |(), i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_matches_many() {
        let one = pool_run_with(37, 1, None, || (), |(), i| (i as u64).wrapping_mul(0x9E37));
        let many = pool_run_with(37, 16, None, || (), |(), i| (i as u64).wrapping_mul(0x9E37));
        assert_eq!(one, many);
    }

    #[test]
    fn progress_reaches_total() {
        struct Counter(std::sync::atomic::AtomicUsize);
        impl ProgressObserver for Counter {
            fn replication_done(&self, completed: usize, total: usize) {
                assert!(completed <= total);
                self.0
                    .fetch_max(completed, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let counter = Counter(std::sync::atomic::AtomicUsize::new(0));
        pool_run_with(10, 4, Some(&counter), || (), |(), i| i);
        assert_eq!(counter.0.load(std::sync::atomic::Ordering::Relaxed), 10);
    }

    #[test]
    fn replicate_merges_telemetry_in_seed_order_for_every_worker_count() {
        // Non-commutative merge (concatenation): any out-of-order fold
        // would show up as a permuted vector.
        let run = |workers, window| {
            Fanout {
                workers,
                window,
                ..Fanout::default()
            }
            .replicate(
                9,
                |w: f64| vec![w],
                |a: &mut Vec<f64>, b: &Vec<f64>| a.extend_from_slice(b),
                |_, i, t| {
                    if let Some(t) = t {
                        t[0] = i as f64;
                    }
                    i * 2
                },
            )
        };
        let (plain, none) = run(3, None);
        assert_eq!(plain, (0..9).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(none, None);
        let expected: Vec<f64> = (0..9).map(f64::from).collect();
        for workers in [1, 4, 16] {
            let (results, merged) = run(workers, Some(0.5));
            assert_eq!(results, plain);
            assert_eq!(merged.as_ref(), Some(&expected), "{workers} workers");
        }
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn zero_jobs_panics() {
        pool_run_with(0, 1, None, || (), |(), i| i);
    }

    #[test]
    fn scratch_is_per_worker_and_results_stay_positional() {
        // Each worker's scratch counts the jobs it ran; results must be
        // positional regardless, and the scratch instances must jointly
        // cover all jobs exactly once.
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let out = pool_run_with(
            50,
            4,
            None,
            || 0usize,
            |count, i| {
                *count += 1;
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                i * 3
            },
        );
        assert_eq!(out, (0..50).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(ran.load(std::sync::atomic::Ordering::Relaxed), 50);
    }
}
