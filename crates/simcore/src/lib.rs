//! Deterministic discrete-event simulation substrate.
//!
//! The paper's evaluation is a call-by-call simulation: Poisson call
//! arrivals per origin–destination pair, exponential unit-mean holding
//! times, 10 warm-up time units followed by 100 measured units, repeated
//! over 10 seeds, with *every routing policy fed the identical arrivals
//! and holding times*. This crate provides the pieces that make such a
//! methodology reproducible:
//!
//! * [`calendar`] — Brown's calendar queue, the kernel's only event
//!   queue: events at equal timestamps pop in insertion order, so
//!   simulations are bit-deterministic functions of their inputs. It
//!   handles far-future overflow and its [`CalendarQueue::reset`]
//!   recycles buckets across replications.
//! * [`queue`] — the binary-heap [`EventQueue`] with the identical
//!   `(time, seq)` pop order: the oracle of the calendar property tests
//!   and the baseline of perfbench's queue replay, which drives either
//!   queue through the [`queue::EventSchedule`] trait.
//! * [`rng`] — seed-derived independent random-number streams (one per
//!   O–D pair, for common random numbers across policies) with
//!   exponential/Poisson sampling.
//! * [`stats`] — warm-up-aware counters, running means/variances, and
//!   across-replication summaries (mean, standard error, confidence
//!   intervals).
//! * [`kernel`] — the shared discrete-event loop every simulator in the
//!   workspace instantiates, parameterized over an
//!   [`kernel::AdmissionPolicy`] and a [`kernel::RouteSelector`].
//! * [`pool`] — the bounded worker pool for multi-seed replication
//!   fan-out with positionally deterministic results, and [`Fanout`],
//!   the one replication helper every simulator's multi-seed entry runs
//!   through (workers, progress, seed-order telemetry merge). Seeds are
//!   the only parallel axis: one replication always runs on one thread.
//! * [`metrics`] — engine observability gauges (event counts, queue and
//!   call-table peaks, per-link utilization, wall clock) carried on every
//!   replication result.
//! * [`timeweighted`] — time-weighted moments of piecewise-constant
//!   processes (occupancies), used by the peakedness measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod kernel;
pub mod metrics;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod timeweighted;

pub use calendar::CalendarQueue;
pub use metrics::EngineMetrics;
pub use pool::{merge_in_order, pool_run_with, Fanout, ProgressObserver};
pub use queue::{EventQueue, EventSchedule};
pub use rng::{RngStream, StreamFactory};
pub use stats::{BlockingSummary, Replications, RunningStats, WarmupCounter};
