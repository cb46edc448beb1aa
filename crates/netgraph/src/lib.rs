//! Network topologies, path algorithms, and traffic matrices for
//! general-mesh loss networks.
//!
//! This crate supplies the graph substrate of the paper's experiments:
//!
//! * [`graph`] — a directed-link network model ([`graph::Topology`]): nodes
//!   with names, unidirectional capacitated links, adjacency queries.
//!   Links are directed because the paper's NSFNet model "consists of a
//!   pair of unidirectional links transmitting in opposite directions"
//!   with independent occupancy.
//! * [`paths`] — breadth-first minimum-hop paths with deterministic
//!   tie-breaking (the paper's base state-independent routing), exhaustive
//!   loop-free path enumeration ordered by increasing hop count (the
//!   alternate-path sets produced by the DALFAR-style distributed
//!   algorithm the paper cites), and Dijkstra shortest paths under
//!   arbitrary non-negative link weights.
//! * [`store`] — a lazy, incrementally-maintained cache of per-O-D
//!   candidate path sets ([`store::PathStore`]): demand-driven fill
//!   through the enumerators above, a reverse link→pair index so a link
//!   state change evicts only the pairs whose cached sets traverse it,
//!   and hop-bounded eviction on link revival.
//! * [`topologies`] — the paper's two experimental networks (the fully
//!   connected quadrangle of §4.1 and the 12-node NSFNet T3 backbone of
//!   §4.2/Fig. 5) plus generic generators (full mesh, ring, line, grid,
//!   deterministic random mesh) and an ISP-scale tier (power-law-degree
//!   meshes, grid/ring composites, SRLG-style correlated outage groups).
//! * [`traffic`] — traffic matrices (Erlangs per ordered node pair),
//!   generators and linear scaling for load sweeps.
//! * [`estimate`] — non-negative least-squares reconstruction of a traffic
//!   matrix from published per-link primary loads (used to recover the
//!   paper's unpublished NSFNet matrix from Table 1).
//! * [`cuts`] — node-cut enumeration and the network-wide Erlang bound of
//!   §4 (the cut-set lower bound on blocking no routing scheme can beat).
//! * [`disjoint`] — link-disjoint path sets and network disjointness
//!   profiles, supporting the failure-resilience analysis of §4.2.2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cuts;
pub mod disjoint;
pub mod estimate;
pub mod graph;
pub mod paths;
pub mod store;
pub mod topologies;
pub mod traffic;

pub use graph::{LinkId, NodeId, Topology};
pub use paths::Path;
pub use store::PathStore;
pub use traffic::TrafficMatrix;
