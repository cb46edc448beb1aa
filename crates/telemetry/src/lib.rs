//! Time-resolved telemetry for the simulation stack.
//!
//! End-of-run aggregates (final blocking, peak queue length) hide exactly
//! the phenomena controlled alternate routing is about: the paper's trunk
//! reservation (Eq. 15) exists to keep the network out of the
//! high-blocking regime, and such networks are known to linger in
//! *metastable* states that steady-state averages average away. This
//! crate provides the middle layer between "one number" and "every
//! event":
//!
//! * [`hist`] — log-bucketed [`Histogram`]s with bit-deterministic
//!   bucketing (no transcendental math) and associative count merging.
//! * [`series`] — sim-time-windowed series: a [`TimeGrid`] of fixed
//!   windows over `[0, warmup + horizon)`, with per-window event counts
//!   ([`WindowedCounter`]) and per-window time integrals of
//!   piecewise-constant processes ([`WindowedTimeWeighted`]).
//! * [`mode`] — threshold-with-hysteresis mode-switch detection over a
//!   windowed series: classifies the network-occupancy trace into
//!   low/high (good/bad) regimes and reports switch times, dwell-time
//!   histograms, and the fraction of time spent congested.
//! * [`recorder`] — the [`Recorder`] trait the engine is generic over
//!   (the no-op [`NullRecorder`] monomorphizes to zero cost), plus
//!   [`RunTelemetry`], the full recorder/snapshot with deterministic
//!   across-replication [`RunTelemetry::merge`].
//! * [`span`] — wall-clock [`SpanProfile`]s of experiment phases
//!   (plan build, warmup, measurement, fan-out, aggregation); the only
//!   nondeterministic part, excluded from snapshot equality.
//! * [`export`] — Prometheus text exposition and CSV time-series
//!   renderers (JSON export lives in `altroute-experiments`, next to the
//!   existing metrics JSON).
//! * [`flight`] — the anomaly flight recorder's policy: a windowed
//!   [`FlightTrigger`] firing a [`TriggerReason`] on a hysteresis mode
//!   switch, which freezes the sim layer's bounded recording of recent
//!   kernel events so the lead-up to an anomaly survives to be dumped.
//! * [`serve`] — a std-only live HTTP endpoint ([`MetricsServer`])
//!   exposing `/metrics`, `/healthz`, and `/status` while a run is in
//!   flight, fed at window boundaries by the [`LiveRecorder`] wrapper.
//! * [`feed`] — the line-oriented arrival-feed protocol the control
//!   plane ingests (header + `a <t> <src> <dst>` records) and the
//!   [`LoadEstimator`] folding accepted arrivals into EWMA-smoothed
//!   per-pair offered-load estimates on [`TimeGrid`] windows.
//!
//! The crate is dependency-free (std only) so any layer of the workspace
//! can use it without cycles, and recorder callbacks use primitive types
//! only — no graph, plan, or policy types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod feed;
pub mod flight;
pub mod hist;
pub mod mode;
pub mod recorder;
pub mod series;
pub mod serve;
pub mod span;

pub use feed::{FeedEvent, FeedHeader, FeedLine, FeedParseError, LoadEstimator};
pub use flight::{FlightLatch, FlightTrigger, TriggerReason};
pub use hist::Histogram;
pub use mode::{Mode, ModeReport, ModeSwitch, ModeThresholds};
pub use recorder::{ArrivalOutcome, NullRecorder, Recorder, RunTelemetry};
pub use series::{TimeGrid, WindowedCounter, WindowedTimeWeighted};
pub use serve::{LiveRecorder, MetricsServer, ServeStatus};
pub use span::{SpanProfile, SpanStats};
