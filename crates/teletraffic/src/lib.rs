//! Teletraffic mathematics for loss networks.
//!
//! This crate implements the analytic substrate of *Controlling Alternate
//! Routing in General-Mesh Packet Flow Networks* (Sibal & DeSimone,
//! SIGCOMM 1994):
//!
//! * the **Erlang-B blocking function** `B(a, C)` and its numerically stable
//!   relatives (inverse-blocking tables, log-space tables, derivatives,
//!   carried/lost traffic) — see [`erlang`];
//! * general **birth–death chains** with state-dependent arrival rates,
//!   their stationary distributions and blocking probabilities (the
//!   "generalized Erlang blocking function" of the paper's Fig. 1), plus the
//!   first-passage accepted-arrival counts `X_{s,s+1}` used in the proof of
//!   Theorem 1 — see [`birth_death`];
//! * the **state-protection (trunk-reservation) level solver** implementing
//!   the paper's Eq. 15,
//!   `r^k = min { r : B(Λ^k, C^k) / B(Λ^k, C^k − r) ≤ 1/H }`, as one
//!   linear-space pass over `1/B(Λ, k)` per link that leaves only
//!   near-ties to a log-space comparison — see [`reservation`];
//! * the **vectorised Eq.-15 re-solve** the online controller runs over
//!   every link at once from its estimated `Λ^k`, with one scratch table
//!   for all links — see [`estimate`];
//! * per-link **shadow prices** `p(s) = B(Λ, C) / B(Λ, s+1)` for the
//!   Ott–Krishnan separable routing baseline — see [`shadow`];
//! * **overflow-traffic moments** (Riordan variance, peakedness)
//!   quantifying how far alternate-routed streams are from the paper's
//!   Poisson assumption A1 — see [`overflow`];
//! * the convex **lost-traffic cost** `Λ·B(Λ, C)` and its derivative, used
//!   by the min-loss state-independent routing variant — see [`loss`];
//! * the **Erlang fixed-point (reduced-load) approximation** over an
//!   abstract set of links and routes — see [`fixed_point`];
//! * the **Kaufman–Roberts recursion** for per-class blocking on a
//!   multirate link (substrate for the multirate extension; the paper's
//!   own study is single-rate) — see [`kaufman_roberts`];
//! * the per-cut term of the **Erlang bound**, the cut-set lower bound on
//!   network blocking used throughout the paper's Section 4 — see [`bound`].
//!
//! All functions are deterministic, allocation-light, and valid over the
//! full parameter ranges exercised by the paper (capacities up to several
//! thousand circuits; loads from 0 to far beyond capacity).
//!
//! # Quick example
//!
//! ```
//! use altroute_teletraffic::{erlang::erlang_b, reservation::protection_level};
//!
//! // Blocking of a 100-circuit link offered 90 Erlangs:
//! let b = erlang_b(90.0, 100);
//! assert!(b > 0.02 && b < 0.04);
//!
//! // State-protection level guaranteeing improvement over single-path
//! // routing when alternate paths have at most 6 hops:
//! let r = protection_level(74.0, 100, 6);
//! assert_eq!(r, 7); // matches Table 1, link 0->1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod birth_death;
pub mod bound;
pub mod erlang;
pub mod estimate;
pub mod fixed_point;
pub mod kaufman_roberts;
pub mod loss;
pub mod overflow;
pub mod reservation;
pub mod shadow;

pub use birth_death::BirthDeathChain;
pub use erlang::{erlang_b, erlang_b_derivative, inverse_erlang_b_log_table};
pub use estimate::protection_levels_for;
pub use loss::{lost_traffic, lost_traffic_derivative};
pub use reservation::{protection_level, shadow_price_bound};
pub use shadow::ShadowPriceTable;
