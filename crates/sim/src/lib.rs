//! Call-by-call simulation of general-mesh loss networks.
//!
//! This crate reproduces the paper's experimental apparatus (§4):
//!
//! * [`engine`] — the event-driven call-by-call simulator: Poisson
//!   arrivals per origin–destination pair (independent per-pair random
//!   streams so **every policy sees identical arrivals and holding
//!   times**, as in the paper), exponential unit-mean holding times,
//!   warm-up deletion, scheduled link failures/repairs. One replication
//!   is one [`Run`]: a [`RunConfig`] plus optional warm start, selector
//!   tick, scratch arena, trace sink, and recorder, executed for a named policy or an explicit
//!   (admission, selector) pair.
//! * [`experiment`] — the multi-seed experiment runner: replications in
//!   parallel (a bounded scoped-thread worker pool), across-seed
//!   summaries, per-pair blocking for the fairness/skewness study, and
//!   the Erlang cut-set bound for the same instance.
//!
//! Every simulator here has exactly one multi-seed entry —
//! [`Experiment::replicate`], [`multirate::run_multirate`],
//! [`adaptive::replicate_adaptive`], [`signaling::replicate_signaling`]
//! — and each takes a [`Fanout`] (worker count, progress observer,
//! telemetry window) that changes how replications execute,
//! never what they return.
//! * [`failures`] — failure schedules (static disabled links and timed
//!   down/up events).
//! * [`adaptive`] — controlled alternate routing with **online** `Λ^k`
//!   estimation from the offered primary call set-ups (the estimation
//!   procedure the paper motivates but leaves undetailed), recomputing
//!   protection levels live. The control law is `altrouted`'s
//!   `Controller`, driven from the kernel tick by the generic
//!   [`adaptive::ControlledSelector`] — the same wrapper the closed-loop
//!   demonstration uses.
//! * [`multirate`] — calls of multiple bandwidth classes (the paper's
//!   excluded "multiple call types"), with bandwidth-weighted admission
//!   and protection, validated against the Kaufman–Roberts recursion.
//! * [`signaling`] — hop-by-hop call set-up with propagation delay and
//!   booking races, on its own protocol loop over the kernel's admission
//!   policies.
//! * [`trace`] — event-trace hooks: a [`trace::TraceSink`] observes every
//!   engine event, with a compact versioned binary codec used by the
//!   conformance crate's golden-trace replay.
//!
//! # Example
//!
//! ```
//! use altroute_netgraph::{topologies, traffic::TrafficMatrix};
//! use altroute_core::policy::PolicyKind;
//! use altroute_sim::experiment::{Experiment, SimParams};
//!
//! let exp = Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 70.0))
//!     .expect("valid instance");
//! let params = SimParams { seeds: 3, warmup: 5.0, horizon: 30.0, ..SimParams::default() };
//! let controlled = exp.run(PolicyKind::ControlledAlternate { max_hops: 3 }, &params);
//! let single = exp.run(PolicyKind::SinglePath, &params);
//! // At 70 Erlangs per pair the quadrangle is comfortable either way, but
//! // alternate routing strictly helps:
//! assert!(controlled.blocking_mean() <= single.blocking_mean() + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod engine;
pub mod experiment;
pub mod failures;
pub mod multirate;
pub mod signaling;
pub mod trace;

pub use engine::{apply_static_failures, run_seed, Run, RunConfig, SeedResult};
pub use experiment::{Experiment, ExperimentError, ExperimentResult, Fanout, SimParams};
pub use failures::FailureSchedule;
