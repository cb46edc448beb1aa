//! # altroute — controlled alternate routing for general-mesh loss networks
//!
//! A full Rust implementation of *Controlling Alternate Routing in
//! General-Mesh Packet Flow Networks* (Sibal & DeSimone, SIGCOMM 1994):
//! a two-tier routing scheme in which a state-independent base policy picks
//! a unique primary path per origin–destination pair, and blocked calls
//! overflow onto alternate paths guarded by locally computed
//! state-protection (trunk-reservation) levels that guarantee — under
//! Poisson assumptions — the scheme never does worse than single-path
//! routing.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`teletraffic`] — Erlang-B mathematics, birth–death chains, the
//!   Eq. 15 protection-level solver, shadow prices, the Erlang bound.
//! * [`netgraph`] — directed-link topologies (NSFNet T3, full meshes,
//!   generators), path algorithms, traffic matrices.
//! * [`simcore`] — deterministic discrete-event engine and statistics.
//! * [`core`] — the routing policies: single-path, uncontrolled alternate,
//!   controlled alternate (the paper's contribution), and the
//!   Ott–Krishnan separable shadow-price baseline.
//! * [`sim`] — the call-by-call loss-network simulator, failure injection,
//!   Erlang-bound computation, the multi-seed experiment runner, and the
//!   §3.2 channel-borrowing generalization ([`sim::cellular`]).
//!
//! ## Quickstart
//!
//! ```
//! use altroute::netgraph::topologies;
//! use altroute::netgraph::traffic::TrafficMatrix;
//! use altroute::core::policy::PolicyKind;
//! use altroute::sim::experiment::{Experiment, SimParams};
//!
//! let topo = topologies::full_mesh(4, 100);
//! let traffic = TrafficMatrix::uniform(4, 20.0);
//! let params = SimParams { warmup: 5.0, horizon: 20.0, seeds: 2, ..SimParams::default() };
//! let exp = Experiment::new(topo, traffic).expect("valid experiment");
//! let result = exp.run(PolicyKind::ControlledAlternate { max_hops: 3 }, &params);
//! assert!(result.blocking_mean() < 0.05); // lightly loaded network
//! ```

#![forbid(unsafe_code)]

pub use altroute_core as core;
pub use altroute_netgraph as netgraph;
pub use altroute_sim as sim;
pub use altroute_simcore as simcore;
pub use altroute_teletraffic as teletraffic;
