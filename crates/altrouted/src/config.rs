//! JSON daemon configuration.
//!
//! A config file describes the controlled network and the estimator
//! knobs (shown with the defaults every optional key falls back to):
//!
//! ```json
//! {
//!   "mesh": { "nodes": 4, "capacity": 20 },
//!   "max_hops": 2,
//!   "window": 1.0,
//!   "recompute_every": 1,
//!   "alpha": 1.0,
//!   "mean_holding": 1.0
//! }
//! ```
//!
//! `mesh` declares a fully-connected `K_N` with uniform link capacity —
//! the topology family of the metastability tier the control loop is
//! demonstrated on. The pair→link incidence Eq. 15 needs is derived
//! from the same minimum-hop primary assignment the simulator uses
//! ([`PrimaryAssignment::min_hop`]), so the daemon's link numbering is
//! the simulator's link numbering.

use crate::control::{ControlPlane, Controller, ControllerTuning};
use altroute_core::primary::PrimaryAssignment;
use altroute_json::Value;
use altroute_netgraph::graph::{MAX_CAPACITY, MAX_NODES};
use altroute_netgraph::topologies;

/// A fully parsed daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// What the controller controls.
    pub plane: ControlPlane,
    /// How it estimates and when it re-solves.
    pub tuning: ControllerTuning,
}

impl DaemonConfig {
    /// Decodes a configuration document.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        for key in v.keys() {
            if !matches!(
                key,
                "mesh" | "max_hops" | "window" | "recompute_every" | "alpha" | "mean_holding"
            ) {
                return Err(format!("unknown config key `{key}`"));
            }
        }
        let mesh = v.get("mesh").ok_or("missing `mesh`")?;
        let nodes: usize = mesh.int_field("nodes")?.ok_or("missing `nodes`")?;
        let capacity: u32 = mesh.int_field("capacity")?.ok_or("missing `capacity`")?;
        if nodes < 2 {
            return Err(format!("mesh needs at least 2 nodes, got {nodes}"));
        }
        if nodes > MAX_NODES {
            return Err(format!(
                "mesh.nodes {nodes} is too large; at most {MAX_NODES} nodes are allowed"
            ));
        }
        if !(1..=MAX_CAPACITY).contains(&capacity) {
            return Err(format!(
                "mesh.capacity must be positive and at most {MAX_CAPACITY}, got {capacity}"
            ));
        }
        let max_hops = v.int_field("max_hops")?.ok_or("missing `max_hops`")?;
        if max_hops == 0 {
            return Err("max_hops must be positive".to_string());
        }
        let defaults = ControllerTuning::default();
        let tuning = ControllerTuning {
            window: v.f64_field("window")?.unwrap_or(defaults.window),
            recompute_every: v
                .int_field("recompute_every")?
                .unwrap_or(defaults.recompute_every),
            alpha: v.f64_field("alpha")?.unwrap_or(defaults.alpha),
            mean_holding: v
                .f64_field("mean_holding")?
                .unwrap_or(defaults.mean_holding),
        };
        if !(tuning.window > 0.0 && tuning.window.is_finite()) {
            return Err(format!("window must be positive, got {}", tuning.window));
        }
        if tuning.recompute_every == 0 {
            return Err("recompute_every must be >= 1".to_string());
        }
        if !(tuning.alpha > 0.0 && tuning.alpha <= 1.0) {
            return Err(format!("alpha must be in (0, 1], got {}", tuning.alpha));
        }
        if !(tuning.mean_holding > 0.0 && tuning.mean_holding.is_finite()) {
            return Err(format!(
                "mean_holding must be positive, got {}",
                tuning.mean_holding
            ));
        }
        Ok(Self {
            plane: mesh_plane(nodes, capacity, max_hops),
            tuning,
        })
    }

    /// Reads and decodes a configuration file.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let value = altroute_json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        Self::from_json(&value)
    }

    /// Builds the controller this configuration describes (all-zero
    /// initial levels).
    pub fn controller(&self) -> Controller {
        Controller::new(self.plane.clone(), self.tuning)
    }
}

/// The Eq.-15 control plane of `K_nodes` with uniform `capacity`:
/// minimum-hop primaries (the direct link of each ordered pair) and the
/// mesh's own link numbering.
pub fn mesh_plane(nodes: usize, capacity: u32, max_hops: u32) -> ControlPlane {
    let topo = topologies::full_mesh(nodes, capacity);
    ControlPlane::from_primaries(&topo, PrimaryAssignment::min_hop(&topo), max_hops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<DaemonConfig, String> {
        DaemonConfig::from_json(&altroute_json::parse(text).expect("valid JSON"))
    }

    #[test]
    fn full_config_round_trips() {
        let cfg = parse(
            r#"{ "mesh": { "nodes": 4, "capacity": 20 }, "max_hops": 2,
                 "window": 2.0, "recompute_every": 3, "alpha": 0.5, "mean_holding": 1.5 }"#,
        )
        .expect("valid config");
        assert_eq!(cfg.plane.primaries.num_nodes(), 4);
        assert_eq!(cfg.plane.capacities.len(), 12, "K_4 has 12 directed links");
        assert!(cfg.plane.capacities.iter().all(|&c| c == 20));
        assert_eq!(cfg.tuning.window, 2.0);
        assert_eq!(cfg.tuning.recompute_every, 3);
        assert_eq!(cfg.tuning.alpha, 0.5);
        assert_eq!(cfg.tuning.mean_holding, 1.5);
        // On a full mesh every off-diagonal pair's primary is one link,
        // and the incidence covers every link exactly once.
        let mut seen = vec![0u32; cfg.plane.capacities.len()];
        for i in 0..4 {
            for j in 0..4 {
                let split: Vec<_> = cfg.plane.primaries.split(i, j).collect();
                if i == j {
                    assert!(split.is_empty());
                } else {
                    let [(links, f)] = split[..] else {
                        panic!("pair ({i}, {j}) needs exactly one primary")
                    };
                    assert_eq!((links.len(), f), (1, 1.0));
                    seen[links[0]] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        cfg.controller(); // must not panic
    }

    #[test]
    fn defaults_fill_optional_keys() {
        let cfg = parse(r#"{ "mesh": { "nodes": 3, "capacity": 5 }, "max_hops": 2 }"#)
            .expect("minimal config");
        assert_eq!(cfg.tuning.window, 1.0);
        assert_eq!(cfg.tuning.recompute_every, 1);
        assert_eq!(cfg.tuning.alpha, 1.0);
        assert_eq!(cfg.tuning.mean_holding, 1.0);
    }

    #[test]
    fn bad_configs_are_rejected_with_reasons() {
        for (text, needle) in [
            (r#"{ "max_hops": 2 }"#, "missing `mesh`"),
            (
                r#"{ "mesh": { "nodes": 1, "capacity": 5 }, "max_hops": 2 }"#,
                "at least 2 nodes",
            ),
            (
                r#"{ "mesh": { "nodes": 1001, "capacity": 5 }, "max_hops": 2 }"#,
                "mesh.nodes 1001 is too large; at most 1000 nodes are allowed",
            ),
            (
                r#"{ "mesh": { "nodes": 3, "capacity": 4294967295 }, "max_hops": 2 }"#,
                "mesh.capacity must be positive and at most 10000, got 4294967295",
            ),
            (
                r#"{ "mesh": { "nodes": 3, "capacity": 4294967296 }, "max_hops": 2 }"#,
                "\"capacity\" 4294967296 is out of range",
            ),
            (
                r#"{ "mesh": { "nodes": 3, "capacity": 0 }, "max_hops": 2 }"#,
                "mesh.capacity must be positive",
            ),
            (
                r#"{ "mesh": { "nodes": 3, "capacity": 5 } }"#,
                "missing `max_hops`",
            ),
            (
                r#"{ "mesh": { "nodes": 3, "capacity": 5 }, "max_hops": 0 }"#,
                "max_hops must be positive",
            ),
            (
                r#"{ "mesh": { "nodes": 3, "capacity": 5 }, "max_hops": 2, "window": 0 }"#,
                "window must be positive",
            ),
            (
                r#"{ "mesh": { "nodes": 3, "capacity": 5 }, "max_hops": 2, "alpha": 1.5 }"#,
                "alpha must be in (0, 1]",
            ),
            (
                r#"{ "mesh": { "nodes": 3, "capacity": 5 }, "max_hops": 2, "typo": 1 }"#,
                "unknown config key `typo`",
            ),
        ] {
            let err = parse(text).expect_err(text);
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }
}
