//! `altrouted` — the resident control plane for Eq.-15 trunk reservation.
//!
//! The paper computes the protection level `r^k` once, offline, from
//! engineered loads `Λ^k`. This crate makes that computation *resident*:
//! a daemon ingests a live arrival feed (the line protocol of
//! [`altroute_telemetry::feed`]), maintains windowed per-pair load
//! estimates, periodically re-solves Eq. 15 over every link
//! ([`altroute_teletraffic::estimate`]), and emits the resulting
//! level updates — to its stdout as a deterministic, golden-testable
//! update stream, to any in-process [`AdmissionPolicy::set_levels`]-style
//! consumer, and to the `/status` + `/metrics` HTTP plane of
//! [`altroute_telemetry::serve`].
//!
//! Layering (config + service + main):
//!
//! * [`config`] — JSON daemon configuration: the controlled mesh, the
//!   Eq.-15 design parameter `H`, estimator window/EWMA/cadence knobs.
//! * [`control`] — the pure, deterministic [`Controller`]:
//!   feed events in, level updates out. No I/O, no clocks, no threads —
//!   replaying a recorded feed reproduces the update sequence byte for
//!   byte, which is what the golden fixture test pins.
//! * [`service`] — the I/O shell: feed readers (stdin or TCP), the
//!   skip-and-count malformed-line policy, level-update rendering, and
//!   HTTP status/metrics publishing.
//!
//! The binary (`src/main.rs`) is flag parsing plus wiring.
//!
//! [`AdmissionPolicy::set_levels`]: control::LevelsUpdate

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod control;
pub mod service;

pub use config::DaemonConfig;
pub use control::{ControlPlane, Controller, LevelsUpdate, Reject};
pub use service::{run_feed, serve_listener, FeedSummary};
