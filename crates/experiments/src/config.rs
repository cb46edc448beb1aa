//! The JSON config schema of the simulate family (`altroute_cli
//! simulate`, `adaptive`, `multirate` and `signaling`): a topology
//! (built-in or explicit link list), a traffic matrix (uniform, explicit,
//! or the reconstructed NSFNet nominal), the policies to compare, failed
//! links, timed outages, and the run's [`SimParams`]. See
//! [`EXAMPLE_CONFIG`].
//!
//! Decoding is hand-rolled over `altroute_json` (no serde offline), in
//! the externally-tagged layout the serde version accepted. It refuses,
//! with an error naming the field, every value the builders or the runs
//! would panic on or could not allocate, so an accepted config runs.

use altroute_core::policy::PolicyKind;
use altroute_json::Value;
use altroute_netgraph::estimate::nsfnet_nominal_traffic;
use altroute_netgraph::graph::{Topology, MAX_CAPACITY, MAX_NODES};
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::experiment::{Experiment, SimParams};
use altroute_sim::failures::FailureSchedule;

/// The most calls a config may offer one replication: the traffic's
/// total Erlangs times the run length (warm-up plus horizon), holds
/// having unit mean. The shipped configs offer at most about 10⁵; at
/// roughly ten million kernel events a second, 10⁹ calls already take
/// minutes per replication.
pub const MAX_OFFERED_CALLS: f64 = 1e9;

/// The most replications a config may ask for. The seed pool allocates a
/// result slot and queues a job per seed before any runs; the shipped
/// configs ask for at most 10.
pub const MAX_SEEDS: u32 = 10_000;

/// The most calls a config may offer a whole run: [`MAX_OFFERED_CALLS`]
/// per replication across ten replications, minutes of work per policy.
pub const MAX_RUN_CALLS: f64 = 1e10;

/// The most bytes of per-pair tallies a config's run may keep: each
/// replication keeps an offered and a blocked `u64` per ordered node
/// pair until the run ends (multirate folds its two classes into
/// per-class sums), 16 · seeds · n² bytes in all. 2 GiB admits a
/// [`MAX_NODES`]-node network at 134 seeds, and every shipped config.
pub const MAX_TALLY_BYTES: u64 = 2 << 30;

#[derive(Debug, PartialEq)]
enum TopologySpec {
    /// A named built-in: "nsfnet" | "quadrangle".
    Builtin(String),
    FullMesh {
        nodes: usize,
        capacity: u32,
    },
    Ring {
        nodes: usize,
        capacity: u32,
    },
    /// Explicit duplex link list.
    Links {
        nodes: usize,
        duplex: Vec<(usize, usize, u32)>,
    },
}

#[derive(Debug)]
enum TrafficSpec {
    /// Erlangs per ordered pair.
    Uniform(f64),
    /// The reconstructed NSFNet nominal matrix, linearly scaled.
    NsfnetNominal { scale: f64 },
    /// Explicit row-major matrix.
    Matrix(Vec<Vec<f64>>),
}

/// A decoded simulate-family config; [`Config::experiment`] builds its
/// network, traffic and failure schedule.
#[derive(Debug)]
pub struct Config {
    topology: TopologySpec,
    traffic: TrafficSpec,
    /// Policy names, as [`parse_policy`] reads them.
    pub policies: Vec<String>,
    /// The alternate-path hop bound `H` (at least 1).
    pub max_hops: u32,
    /// Duplex links `(a, b)` down for the whole run.
    failed_duplex: Vec<(usize, usize)>,
    /// Timed duplex outages `(a, b, down_at, up_at)` — both directed
    /// links between `a` and `b` go down over `[down_at, up_at)`.
    outages: Vec<(usize, usize, f64, f64)>,
    /// Warm-up, horizon, seed count and base seed (defaults 10, 100, 10
    /// and 0).
    pub params: SimParams,
}

/// A topology's `"nodes"`, between 2 and [`MAX_NODES`].
fn node_count(v: &Value, missing: &str) -> Result<usize, String> {
    let nodes = v.int_field("nodes")?.ok_or(missing)?;
    if nodes < 2 {
        return Err(format!(
            "\"nodes\" {nodes} is too small; a network needs at least 2 nodes"
        ));
    }
    if nodes > MAX_NODES {
        return Err(format!(
            "\"nodes\" {nodes} is too large; at most {MAX_NODES} nodes are allowed"
        ));
    }
    Ok(nodes)
}

/// A link capacity, at most [`MAX_CAPACITY`] (zero is refused when the
/// topology is built).
fn capacity(x: &Value, name: &str) -> Result<u32, String> {
    let c = x.integer(name)?;
    if c > MAX_CAPACITY {
        return Err(format!(
            "\"{name}\" {c} is too large; at most {MAX_CAPACITY} circuits are allowed"
        ));
    }
    Ok(c)
}

/// `x` if it is finite and non-negative — a load, a scale or a warm-up.
fn non_negative(x: f64, what: &str) -> Result<f64, String> {
    if x.is_finite() && x >= 0.0 {
        Ok(x)
    } else {
        Err(format!("{what} must be finite and >= 0, got {x:?}"))
    }
}

/// The single `"tag": value` member of an externally-tagged enum object.
fn tagged<'v>(v: &'v Value, what: &str, tags: &[&str]) -> Result<(&'v str, &'v Value), String> {
    match v.as_object() {
        Some([(tag, inner)]) if tags.contains(&tag.as_str()) => Ok((tag, inner)),
        _ => Err(format!(
            "{what} must be an object with exactly one of: {}",
            tags.join(", ")
        )),
    }
}

fn usize_pair_list(v: &Value, key: &str) -> Result<Vec<(usize, usize)>, String> {
    v.as_array()
        .ok_or_else(|| format!("\"{key}\" must be an array"))?
        .iter()
        .map(|item| match item.as_array() {
            Some([a, b]) => Ok((a.integer(key)?, b.integer(key)?)),
            _ => Err(format!(
                "\"{key}\" entries must be [a, b] pairs, got {item}"
            )),
        })
        .collect()
}

fn outage_list(v: &Value) -> Result<Vec<(usize, usize, f64, f64)>, String> {
    v.as_array()
        .ok_or("\"outages\" must be an array")?
        .iter()
        .map(|item| match item.as_array() {
            Some([a, b, down, up]) => match (down.as_f64(), up.as_f64()) {
                (Some(down), Some(up)) => {
                    if !(down.is_finite() && up.is_finite() && down >= 0.0 && down < up) {
                        return Err(format!("outage window [{down}, {up}) is invalid"));
                    }
                    Ok((a.integer("outages")?, b.integer("outages")?, down, up))
                }
                _ => Err("outage entries must be [a, b, down_at, up_at] numbers".to_string()),
            },
            _ => Err(format!(
                "outage entries must be [a, b, down_at, up_at], got {item}"
            )),
        })
        .collect()
}

impl TopologySpec {
    fn from_json(v: &Value) -> Result<Self, String> {
        let (tag, inner) = tagged(
            v,
            "\"topology\"",
            &["builtin", "full_mesh", "ring", "links"],
        )?;
        let nodes_and_capacity = |inner: &Value| -> Result<(usize, u32), String> {
            let nodes = node_count(inner, "topology needs integer \"nodes\"")?;
            let c = inner
                .get("capacity")
                .ok_or("topology needs integer \"capacity\"")?;
            Ok((nodes, capacity(c, "capacity")?))
        };
        match tag {
            "builtin" => Ok(TopologySpec::Builtin(
                inner
                    .as_str()
                    .ok_or("\"builtin\" must name a topology")?
                    .to_string(),
            )),
            "full_mesh" => {
                let (nodes, capacity) = nodes_and_capacity(inner)?;
                Ok(TopologySpec::FullMesh { nodes, capacity })
            }
            "ring" => {
                let (nodes, capacity) = nodes_and_capacity(inner)?;
                Ok(TopologySpec::Ring { nodes, capacity })
            }
            "links" => {
                let nodes = node_count(inner, "\"links\" topology needs integer \"nodes\"")?;
                let duplex = inner
                    .get("duplex")
                    .and_then(Value::as_array)
                    .ok_or("\"links\" topology needs a \"duplex\" array")?
                    .iter()
                    .map(|t| match t.as_array() {
                        Some([a, b, c]) => Ok((
                            a.integer("duplex")?,
                            b.integer("duplex")?,
                            capacity(c, "duplex")?,
                        )),
                        _ => Err(format!("duplex entries must be [a, b, capacity], got {t}")),
                    })
                    .collect::<Result<_, _>>()?;
                Ok(TopologySpec::Links { nodes, duplex })
            }
            _ => unreachable!("tagged() filtered"),
        }
    }
}

impl TrafficSpec {
    fn from_json(v: &Value) -> Result<Self, String> {
        let (tag, inner) = tagged(v, "\"traffic\"", &["uniform", "nsfnet_nominal", "matrix"])?;
        match tag {
            "uniform" => Ok(TrafficSpec::Uniform(non_negative(
                inner
                    .as_f64()
                    .ok_or("\"uniform\" traffic must be a number of Erlangs")?,
                "\"uniform\" traffic",
            )?)),
            "nsfnet_nominal" => Ok(TrafficSpec::NsfnetNominal {
                scale: non_negative(
                    inner
                        .f64_field("scale")?
                        .ok_or("\"nsfnet_nominal\" traffic needs a numeric \"scale\"")?,
                    "\"scale\"",
                )?,
            }),
            "matrix" => inner
                .as_array()
                .ok_or("\"matrix\" traffic must be an array of rows")?
                .iter()
                .map(|row| {
                    row.as_array()
                        .ok_or("matrix rows must be arrays".to_string())?
                        .iter()
                        .map(|x| {
                            let x = x.as_f64().ok_or("matrix entries must be numbers")?;
                            non_negative(x, "\"matrix\" entries")
                        })
                        .collect()
                })
                .collect::<Result<_, _>>()
                .map(TrafficSpec::Matrix),
            _ => unreachable!("tagged() filtered"),
        }
    }
}

impl Config {
    /// Decodes a config document.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        if v.as_object().is_none() {
            return Err("config must be a JSON object".into());
        }
        for key in v.keys() {
            if !matches!(
                key,
                "topology"
                    | "traffic"
                    | "policies"
                    | "max_hops"
                    | "failed_duplex"
                    | "outages"
                    | "warmup"
                    | "horizon"
                    | "seeds"
                    | "base_seed"
            ) {
                return Err(format!("unknown config key \"{key}\""));
            }
        }
        let traffic = TrafficSpec::from_json(v.get("traffic").ok_or("config needs \"traffic\"")?)?;
        let config = Config {
            topology: TopologySpec::from_json(
                v.get("topology").ok_or("config needs \"topology\"")?,
            )?,
            traffic,
            policies: v
                .get("policies")
                .and_then(Value::as_array)
                .ok_or("config needs a \"policies\" array")?
                .iter()
                .map(|p| {
                    p.as_str()
                        .map(String::from)
                        .ok_or("policies must be strings".to_string())
                })
                .collect::<Result<_, _>>()?,
            max_hops: v
                .int_field("max_hops")?
                .ok_or("config needs integer \"max_hops\"")?,
            failed_duplex: match v.get("failed_duplex") {
                None => Vec::new(),
                Some(list) => usize_pair_list(list, "failed_duplex")?,
            },
            outages: match v.get("outages") {
                None => Vec::new(),
                Some(list) => outage_list(list)?,
            },
            params: SimParams {
                warmup: v.f64_field("warmup")?.unwrap_or(10.0),
                horizon: v.f64_field("horizon")?.unwrap_or(100.0),
                seeds: v.int_field("seeds")?.unwrap_or(10),
                base_seed: v.int_field("base_seed")?.unwrap_or(0),
            },
        };
        let p = &config.params;
        non_negative(p.warmup, "\"warmup\"")?;
        if !(p.horizon > 0.0 && (p.warmup + p.horizon).is_finite()) {
            return Err(format!(
                "\"horizon\" must be finite and > 0, got {:?}",
                p.horizon
            ));
        }
        if config.max_hops == 0 {
            return Err("\"max_hops\" must be at least 1".into());
        }
        if p.seeds == 0 {
            return Err("\"seeds\" must be at least 1".into());
        }
        if p.seeds > MAX_SEEDS {
            return Err(format!(
                "\"seeds\" {} is too large; at most {MAX_SEEDS} are allowed",
                p.seeds
            ));
        }
        if p.base_seed.checked_add(u64::from(p.seeds) - 1).is_none() {
            return Err(format!(
                "\"base_seed\" {} leaves no room for {} seeds",
                p.base_seed, p.seeds
            ));
        }
        Ok(config)
    }

    /// Builds the experiment: topology, traffic, and the failure schedule
    /// installed. Refuses a config whose seeds would keep more than
    /// [`MAX_TALLY_BYTES`] of per-pair tallies, or offering a replication
    /// more than [`MAX_OFFERED_CALLS`] calls, or the whole run (every
    /// seed) more than [`MAX_RUN_CALLS`].
    pub fn experiment(&self) -> Result<Experiment, String> {
        let topo = build_topology(&self.topology)?;
        let n = topo.num_nodes() as u64;
        let tally_bytes = 16 * u64::from(self.params.seeds) * n * n;
        if tally_bytes > MAX_TALLY_BYTES {
            return Err(format!(
                "the config's {} seeds over {n} nodes keep {tally_bytes} bytes of \
                 per-pair tallies; at most {MAX_TALLY_BYTES} are allowed",
                self.params.seeds
            ));
        }
        let traffic = build_traffic(&self.traffic, topo.num_nodes())?;
        let offered = traffic.total() * (self.params.warmup + self.params.horizon);
        if offered > MAX_OFFERED_CALLS {
            return Err(format!(
                "the config offers {offered:.3e} calls per replication; \
                 at most {MAX_OFFERED_CALLS:e} are allowed"
            ));
        }
        let total = offered * f64::from(self.params.seeds);
        if total > MAX_RUN_CALLS {
            return Err(format!(
                "the config offers {total:.3e} calls over its {} seeds; \
                 at most {MAX_RUN_CALLS:e} are allowed",
                self.params.seeds
            ));
        }
        let exp = Experiment::new(topo, traffic).map_err(|e| e.to_string())?;
        let link = |s: usize, d: usize, what: &str| {
            exp.topology()
                .link_between(s, d)
                .ok_or_else(|| format!("no link {s}->{d} {what}"))
        };
        let mut down = Vec::new();
        for &(a, b) in &self.failed_duplex {
            down.extend([link(a, b, "to fail")?, link(b, a, "to fail")?]);
        }
        let mut failures = FailureSchedule::static_down(down);
        for &(a, b, down, up) in &self.outages {
            for (s, d) in [(a, b), (b, a)] {
                failures = failures.with_outage(link(s, d, "for outage")?, down, up);
            }
        }
        Ok(exp.with_failures(failures))
    }
}

/// The config `altroute_cli example-config` prints.
pub const EXAMPLE_CONFIG: &str = r#"{
  "topology": { "builtin": "nsfnet" },
  "traffic": { "nsfnet_nominal": { "scale": 1.0 } },
  "policies": ["single-path", "uncontrolled", "controlled"],
  "max_hops": 11,
  "failed_duplex": [],
  "outages": [],
  "warmup": 10.0,
  "horizon": 100.0,
  "seeds": 10,
  "base_seed": 0
}"#;

fn build_topology(spec: &TopologySpec) -> Result<Topology, String> {
    match spec {
        TopologySpec::Builtin(name) => match name.as_str() {
            "nsfnet" => Ok(topologies::nsfnet(100)),
            "quadrangle" => Ok(topologies::quadrangle()),
            other => Err(format!(
                "unknown builtin topology '{other}' (try nsfnet, quadrangle)"
            )),
        },
        TopologySpec::FullMesh { capacity: 0, .. } | TopologySpec::Ring { capacity: 0, .. } => {
            Err("\"capacity\" must be at least 1".into())
        }
        TopologySpec::FullMesh { nodes, capacity } => Ok(topologies::full_mesh(*nodes, *capacity)),
        TopologySpec::Ring { nodes, .. } if *nodes < 3 => {
            Err(format!("a ring needs at least 3 nodes, got {nodes}"))
        }
        TopologySpec::Ring { nodes, capacity } => Ok(topologies::ring(*nodes, *capacity)),
        TopologySpec::Links { nodes, duplex } => {
            let mut t = Topology::new();
            t.add_nodes(*nodes);
            for &(a, b, c) in duplex {
                if a >= *nodes || b >= *nodes {
                    return Err(format!("link ({a}, {b}) references a node out of range"));
                }
                if a == b || c == 0 || t.link_between(a, b).is_some() {
                    return Err(format!(
                        "link ({a}, {b}, {c}) is a self-loop, a duplicate or has no capacity"
                    ));
                }
                t.add_duplex(a, b, c);
            }
            Ok(t)
        }
    }
}

fn build_traffic(spec: &TrafficSpec, n: usize) -> Result<TrafficMatrix, String> {
    match spec {
        TrafficSpec::Uniform(x) => Ok(TrafficMatrix::uniform(n, *x)),
        TrafficSpec::NsfnetNominal { scale } => {
            if n != 12 {
                return Err("nsfnet_nominal traffic needs the 12-node NSFNet topology".into());
            }
            Ok(nsfnet_nominal_traffic().traffic.scaled(*scale))
        }
        TrafficSpec::Matrix(rows) => {
            if rows.len() != n || rows.iter().any(|r| r.len() != n) {
                return Err(format!("matrix must be {n}x{n}"));
            }
            let mut m = TrafficMatrix::zero(n);
            for (i, row) in rows.iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    if i != j {
                        m.set(i, j, v);
                    }
                }
            }
            Ok(m)
        }
    }
}

/// The policy `name` at hop bound `h`; best-of-d samples `d` tandems.
pub fn parse_policy(name: &str, h: u32, d: u32) -> Result<PolicyKind, String> {
    match name {
        "single-path" => Ok(PolicyKind::SinglePath),
        "uncontrolled" => Ok(PolicyKind::UncontrolledAlternate { max_hops: h }),
        "controlled" => Ok(PolicyKind::ControlledAlternate { max_hops: h }),
        "ott-krishnan" => Ok(PolicyKind::OttKrishnan { max_hops: h }),
        "dar" => Ok(PolicyKind::DarSticky { max_hops: h }),
        "bod" => Ok(PolicyKind::BestOfD { max_hops: h, d }),
        other => Err(format!(
            "unknown policy '{other}' (try single-path, uncontrolled, controlled, \
             ott-krishnan, dar, bod)"
        )),
    }
}

/// Parses the config's policy names for the simulator `cmd`, which
/// models only the policies `models` accepts — all checked before
/// anything runs. Neither such command takes `--d`, so best-of-d samples
/// its default 2.
pub fn parse_modelled_policies(
    config: &Config,
    cmd: &str,
    models: fn(PolicyKind) -> bool,
) -> Result<Vec<PolicyKind>, String> {
    config
        .policies
        .iter()
        .map(|name| {
            let policy = parse_policy(name, config.max_hops, 2)?;
            if models(policy) {
                Ok(policy)
            } else {
                Err(format!("{cmd} does not model policy '{name}'"))
            }
        })
        .collect()
}

/// Reads and decodes the config file at `path` and builds its
/// experiment; decoding errors are prefixed with the path.
pub fn load_experiment(path: &str) -> Result<(Config, Experiment), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let value = altroute_json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let config = Config::from_json(&value).map_err(|e| format!("parsing {path}: {e}"))?;
    let exp = config.experiment()?;
    Ok((config, exp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_config_loads() {
        let value = altroute_json::parse(EXAMPLE_CONFIG).expect("valid JSON");
        let config = Config::from_json(&value).expect("a valid config");
        assert_eq!(config.topology, TopologySpec::Builtin("nsfnet".into()));
        assert_eq!(config.max_hops, 11);
        assert_eq!(
            config.params,
            SimParams {
                warmup: 10.0,
                horizon: 100.0,
                seeds: 10,
                base_seed: 0,
            }
        );
        let policies = parse_modelled_policies(&config, "test", |_| true).expect("known names");
        assert_eq!(policies.len(), 3);
        let exp = config.experiment().expect("builds");
        assert_eq!(exp.topology().num_nodes(), 12);
        assert!(exp.failures().is_empty());
    }

    #[test]
    fn configs_offering_too_many_calls_are_refused() {
        let quadrangle = |members: &str| {
            let text = format!(
                r#"{{"topology": {{"builtin": "quadrangle"}}, "policies": [], "max_hops": 3, {members}}}"#
            );
            Config::from_json(&altroute_json::parse(&text).unwrap())
                .expect("decodes")
                .experiment()
                .map(|_| ())
        };
        assert_eq!(
            quadrangle(r#""traffic": {"uniform": 1e300}"#),
            Err(
                "the config offers 1.320e303 calls per replication; at most 1e9 are allowed".into()
            )
        );
        assert!(quadrangle(r#""traffic": {"uniform": 1.0}, "horizon": 1e300"#).is_err());
        // 12 pairs x 7e5 Erlangs x 110 time units: 9.24e8 calls.
        assert!(quadrangle(r#""traffic": {"uniform": 7e5}"#).is_ok());
    }
}
