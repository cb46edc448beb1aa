//! Routing policies for general-mesh loss networks — the primary
//! contribution of Sibal & DeSimone (SIGCOMM 1994) and its baselines.
//!
//! The paper's scheme is two-tier:
//!
//! 1. A **state-independent** base policy assigns every ordered
//!    origin–destination pair a primary path (minimum-hop by default; a
//!    min-loss bifurcated assignment is also provided, see [`primary`]).
//! 2. A **state-dependent** tier routes calls blocked on their primary
//!    onto alternate paths tried in order of increasing hop count. A link
//!    accepts an alternate-routed call only while its occupancy is below
//!    `C^k − r^k`, with the protection level `r^k` chosen per the paper's
//!    Eq. 15 so that — under Poisson assumptions — accepting the call can
//!    never cost more than one primary call network-wide. The network is
//!    then guaranteed to do at least as well as single-path routing.
//!
//! [`plan::RoutingPlan`] precomputes everything state-independent
//! (primaries, ordered alternates, protection levels, shadow-price
//! tables); the [`select`] module's kernel selectors make the per-call
//! decision against live link states, paired with the kernel's
//! capacity-only or trunk-reservation admission. Four plan-driven
//! policies are provided ([`policy::PolicyKind`]):
//!
//! * `SinglePath` — primary only (the paper's baseline floor),
//! * `UncontrolledAlternate` — alternates with no protection (great at low
//!   load, unstable past the critical load),
//! * `ControlledAlternate` — the paper's contribution,
//! * `OttKrishnan` — the separable shadow-price baseline of the related
//!   work, driven by per-link M/M/C/C shadow prices.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod policy;
pub mod primary;
pub mod select;

pub use plan::RoutingPlan;
pub use policy::{CallClass, PolicyKind};
pub use primary::{min_loss_splits, MinLossOptions, PrimaryAssignment};
pub use select::{DarStickySelector, OttKrishnanSelector, TieredSelector};
