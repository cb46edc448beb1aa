//! `altroute_cli` — run teletraffic calculations and routing experiments
//! from the command line.
//!
//! ```text
//! altroute_cli erlang <load> <capacity>             Erlang-B blocking / carried / lost
//! altroute_cli dimension <load> <target-blocking>   smallest sufficient capacity
//! altroute_cli protect <load> <capacity> <H>        Eq. 15 protection level + bound
//! altroute_cli simulate <config.json> [--policy <name>] [--metrics-json]
//!                       [--progress] [--telemetry <dir>] [--window <width>]
//!                       [--serve <addr>]            full experiment from a JSON config
//! altroute_cli adaptive <config.json> [--metrics-json] [--telemetry <dir>]
//!                       [--window <width>] [--serve <addr>]
//!                                                   online-estimation engine
//! altroute_cli multirate <config.json> [--metrics-json] [--telemetry <dir>]
//!                       [--window <width>]          two-class multirate engine
//! altroute_cli signaling <config.json> [--hop-delay <d>] [--metrics-json]
//!                       [--telemetry <dir>] [--window <width>]
//!                                                   hop-by-hop setup engine
//! altroute_cli metastability [--preset <smoke|paper>] [--nodes <N>] [--d <K>]
//!                       [--window <width>] [--metrics-json] [--telemetry <dir>]
//!                       [--serve <addr>]            four-arm hysteresis demonstration
//! altroute_cli controlled [--preset <smoke|paper>] [--metrics-json]
//!                       [--serve <addr>]            closed-loop Eq.-15 demonstration
//! altroute_cli largemesh [--preset <smoke|full>] [--nodes <N>] [--metrics-json]
//!                                                   ISP-scale mesh under rolling SRLG failures
//! altroute_cli telemetry <dir>                      human-readable telemetry report
//! altroute_cli replay <file.trace>                  decode and summarise a binary trace
//! altroute_cli example-config                       print a commented example config
//! altroute_cli conformance [--bless]                run the conformance suite
//! ```
//!
//! Flags are order-independent (`--flag value` and `--flag=value` both
//! work); unknown flags and flags a subcommand does not accept are usage
//! errors.
//!
//! `conformance` runs the full differential-oracle, golden-trace-replay,
//! and scenario-fuzzing suite from the `altroute-conformance` crate and
//! exits non-zero on any disagreement. With `--bless` it instead
//! regenerates the checked-in golden traces (after an *intentional*
//! engine behaviour change) and exits.
//!
//! With `--metrics-json` the simulate command prints a machine-readable
//! JSON document instead of the table: per-policy blocking summary plus
//! the aggregated engine metrics (event counts, queue and call-table
//! peaks, per-link utilization, wall clock).
//!
//! With `--telemetry <dir>` every replication additionally records full
//! time-resolved telemetry (sim-time-windowed series at `--window` width,
//! histograms, span profiles) and the command writes, per policy,
//! Prometheus text exposition (`<policy>.prom`) and CSV time series
//! (`<policy>_blocking.csv`, `<policy>_links.csv`), plus a combined
//! `telemetry.json` snapshot. `telemetry <dir>` renders that snapshot as
//! a human-readable report. `--progress` prints a replications-completed
//! heartbeat with an ETA to stderr.
//!
//! With `--serve <addr>` the long-running engines (`simulate`,
//! `adaptive`, `metastability`, `controlled`) expose the run over HTTP
//! while it executes: `GET /metrics` returns the latest Prometheus
//! exposition (refreshed every completed window and after every arm on
//! the hysteresis tiers, per finished policy otherwise —
//! `simulate`/`adaptive` publish only when `--telemetry` records),
//! `/healthz` is a liveness probe, and
//! `/status` is a JSON progress document. Pass port 0 to let the OS
//! pick; the bound address is announced on stderr.
//!
//! The JSON config selects a topology (built-in or explicit link list), a
//! traffic matrix (uniform, explicit, or the reconstructed NSFNet
//! nominal), the policies to compare, failed links, timed outages, and
//! the simulation parameters. See `example-config`.
//!
//! `adaptive`, `multirate`, and `signaling` reuse the same config file
//! and ride the instrumented simulation kernel, so `--metrics-json` and
//! `--telemetry` work on all of them. `adaptive` runs the controlled
//! policy with online `Λ^k` estimation (default update interval and
//! EWMA weight). `multirate` derives two bandwidth classes from the
//! config traffic: a 1-unit class at the configured load and a 4-unit
//! class at a tenth of it. `signaling` runs the hop-by-hop set-up
//! protocol at `--hop-delay` (default 0.0002 mean holding times) for
//! each config policy. Both read the policy names `simulate` does, and
//! both refuse, before running anything, a policy they do not model:
//! `multirate` refuses `ott-krishnan`, `signaling` everything but
//! `single-path`, `uncontrolled` and `controlled`, and `signaling` also
//! refuses timed `outages` (it models static failures only).
//! `simulate --policy NAME` overrides the config's policy list with a
//! single policy — `--policy dar` runs the DAR/sticky selector, which
//! needs no protection-level oracle, and `--policy bod --d K` runs the
//! best-of-`d` selector (sample `K` tandems per overflow, pick the least
//! loaded; `--d` defaults to 2).
//!
//! `metastability` runs the four-arm hysteresis demonstration from
//! `altroute_experiments::metastability`: the same near-critical load on
//! `K_N` from empty and saturated initial occupancy, with and without
//! Eq.-15 trunk reservation, classified by the hysteresis mode detector.
//! `--preset smoke` (default) is the CI-sized instance; `--preset
//! paper` is the minutes-scale `K_100` instance; `--nodes`, `--d`, and
//! `--window` override the preset. `--telemetry <dir>` additionally
//! writes per-arm exports including the mode metrics and a
//! `<arm>_modes.csv` switch log, plus — for every arm whose anomaly
//! flight recorder froze — a replayable `<arm>_flight.trace` dump of
//! the kernel events leading up to the trigger. `replay <file>`
//! summarises such a dump (or any conformance golden trace).
//!
//! `largemesh` runs the ISP-scale tier from
//! `altroute_experiments::largemesh`: a power-law-degree mesh under
//! rolling SRLG (correlated-conduit) failures, with each round's outage
//! applied as an incremental candidate-path-store invalidation instead
//! of a plan rebuild. `--preset smoke` (default, 200 nodes) is the
//! CI-sized instance; `--preset full` is the minutes-scale 1000-node
//! instance; `--nodes` overrides the mesh size. The report carries
//! per-round eviction counts and blocking, and is deterministic per
//! preset — identical across repeated runs.
//!
//! `feed` records an arrival feed in the `altrouted` line protocol
//! (`altroute_experiments::feed`): the `ramp` preset plays three
//! constant-load segments of increasing per-pair load on `K_4`, the
//! drifting-load input the resident control plane is demonstrated on.
//! The feed goes to stdout (byte-identical across runs); pipe it into
//! `altrouted --config <mesh config>`.
//!
//! `controlled` runs the closed-loop demonstration from
//! `altroute_experiments::controlled`: from the same saturated start,
//! an arm with levels frozen at `r = 0` stays stuck in the
//! high-blocking mode while an arm carrying a resident `altrouted`
//! controller — re-estimating loads and re-solving Eq. 15 at every
//! window boundary, starting from zero levels — escapes. `--preset`
//! names a `metastability` preset (`smoke`, the default, or the
//! minutes-scale `paper`), and the `static` arm is that preset's
//! `r0_saturated` arm. `--metrics-json` emits the machine-readable
//! report the CI smoke stage asserts on.

use altroute_core::policy::PolicyKind;
use altroute_experiments::output::{
    blocking_summary_json, fmt_prob, metrics_document, telemetry_document,
};
use altroute_experiments::{
    controlled, metastability, render_feed, run_controlled, run_largemesh, run_metastability,
    ArmResult, FeedConfig, Heartbeat, LargeMeshConfig, MetastabilityConfig, Series, Table,
};
use altroute_json::{obj, Value};
use altroute_netgraph::estimate::nsfnet_nominal_traffic;
use altroute_netgraph::graph::Topology;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::adaptive::{replicate_adaptive, AdaptiveConfig};
use altroute_sim::experiment::{Experiment, Fanout, ProgressObserver, SimParams};
use altroute_sim::failures::FailureSchedule;
use altroute_sim::multirate::{self, run_multirate, BandwidthClass};
use altroute_sim::signaling::{self, replicate_signaling, SignalingConfig};
use altroute_sim::trace::{decode_trace, TraceRecordKind};
use altroute_simcore::pool::default_workers;
use altroute_telemetry::{export, MetricsServer, Mode, RunTelemetry, TimeGrid};
use altroute_teletraffic::erlang::{carried_traffic, dimension_link, erlang_b};
use altroute_teletraffic::reservation::{protection_level, shadow_price_bound};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug)]
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

#[derive(Debug)]
struct Config {
    topology: TopologySpec,
    traffic: TrafficSpec,
    /// Policies: "single-path" | "uncontrolled" | "controlled" | "ott-krishnan".
    policies: Vec<String>,
    max_hops: u32,
    failed_duplex: Vec<(usize, usize)>,
    /// Timed duplex outages `(a, b, down_at, up_at)` — both directed
    /// links between `a` and `b` go down over `[down_at, up_at)`.
    outages: Vec<(usize, usize, f64, f64)>,
    warmup: f64,
    horizon: f64,
    seeds: u32,
    base_seed: u64,
}

// Hand-rolled config decoding over `altroute_json` (no serde offline).
// The schema is the externally-tagged layout the serde version accepted,
// so existing config files keep working unchanged.

fn field_f64(v: &Value, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x
            .as_f64()
            .ok_or_else(|| format!("\"{key}\" must be a number")),
    }
}

fn field_u64(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
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

fn usize_pair_list(v: &Value, what: &str) -> Result<Vec<(usize, usize)>, String> {
    v.as_array()
        .ok_or_else(|| format!("{what} must be an array"))?
        .iter()
        .map(|item| match item.as_array() {
            Some([a, b]) => match (a.as_u64(), b.as_u64()) {
                (Some(a), Some(b)) => Ok((a as usize, b as usize)),
                _ => Err(format!("{what} entries must be integer pairs")),
            },
            _ => Err(format!("{what} entries must be [a, b] pairs, got {item}")),
        })
        .collect()
}

fn outage_list(v: &Value) -> Result<Vec<(usize, usize, f64, f64)>, String> {
    v.as_array()
        .ok_or("\"outages\" must be an array")?
        .iter()
        .map(|item| match item.as_array() {
            Some([a, b, down, up]) => match (a.as_u64(), b.as_u64(), down.as_f64(), up.as_f64()) {
                (Some(a), Some(b), Some(down), Some(up)) => {
                    if !(down.is_finite() && up.is_finite() && down >= 0.0 && down < up) {
                        return Err(format!("outage window [{down}, {up}) is invalid"));
                    }
                    Ok((a as usize, b as usize, down, up))
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
            let nodes = inner
                .get("nodes")
                .and_then(Value::as_u64)
                .ok_or("topology needs integer \"nodes\"")?;
            let capacity = inner
                .get("capacity")
                .and_then(Value::as_u64)
                .ok_or("topology needs integer \"capacity\"")?;
            Ok((nodes as usize, capacity as u32))
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
                let nodes = inner
                    .get("nodes")
                    .and_then(Value::as_u64)
                    .ok_or("\"links\" topology needs integer \"nodes\"")?
                    as usize;
                let duplex = inner
                    .get("duplex")
                    .and_then(Value::as_array)
                    .ok_or("\"links\" topology needs a \"duplex\" array")?
                    .iter()
                    .map(|t| match t.as_array() {
                        Some([a, b, c]) => match (a.as_u64(), b.as_u64(), c.as_u64()) {
                            (Some(a), Some(b), Some(c)) => Ok((a as usize, b as usize, c as u32)),
                            _ => Err("duplex entries must be integer triples".to_string()),
                        },
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
            "uniform" => {
                Ok(TrafficSpec::Uniform(inner.as_f64().ok_or(
                    "\"uniform\" traffic must be a number of Erlangs",
                )?))
            }
            "nsfnet_nominal" => Ok(TrafficSpec::NsfnetNominal {
                scale: field_f64(inner, "scale", f64::NAN)?,
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
                            x.as_f64()
                                .ok_or("matrix entries must be numbers".to_string())
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
    fn from_json(v: &Value) -> Result<Self, String> {
        if v.as_object().is_none() {
            return Err("config must be a JSON object".into());
        }
        let known = [
            "topology",
            "traffic",
            "policies",
            "max_hops",
            "failed_duplex",
            "outages",
            "warmup",
            "horizon",
            "seeds",
            "base_seed",
        ];
        if let Some(unknown) = v.keys().iter().find(|k| !known.contains(k)) {
            return Err(format!("unknown config key \"{unknown}\""));
        }
        let traffic = TrafficSpec::from_json(v.get("traffic").ok_or("config needs \"traffic\"")?)?;
        if let TrafficSpec::NsfnetNominal { scale } = traffic {
            if !scale.is_finite() {
                return Err("\"nsfnet_nominal\" traffic needs a numeric \"scale\"".into());
            }
        }
        Ok(Config {
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
                .get("max_hops")
                .and_then(Value::as_u64)
                .ok_or("config needs integer \"max_hops\"")? as u32,
            failed_duplex: match v.get("failed_duplex") {
                None => Vec::new(),
                Some(list) => usize_pair_list(list, "\"failed_duplex\"")?,
            },
            outages: match v.get("outages") {
                None => Vec::new(),
                Some(list) => outage_list(list)?,
            },
            warmup: field_f64(v, "warmup", 10.0)?,
            horizon: field_f64(v, "horizon", 100.0)?,
            seeds: field_u64(v, "seeds", 10)? as u32,
            base_seed: field_u64(v, "base_seed", 0)?,
        })
    }
}

const EXAMPLE_CONFIG: &str = r#"{
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
        TopologySpec::FullMesh { nodes, capacity } => Ok(topologies::full_mesh(*nodes, *capacity)),
        TopologySpec::Ring { nodes, capacity } => Ok(topologies::ring(*nodes, *capacity)),
        TopologySpec::Links { nodes, duplex } => {
            let mut t = Topology::new();
            t.add_nodes(*nodes);
            for &(a, b, c) in duplex {
                if a >= *nodes || b >= *nodes {
                    return Err(format!("link ({a}, {b}) references a node out of range"));
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

fn parse_policy(name: &str, h: u32, d: u32) -> Result<PolicyKind, String> {
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
fn parse_modelled_policies(
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

/// Parses a config file and builds the experiment (topology, traffic,
/// failure schedule installed) — shared by `simulate`, `adaptive`,
/// `multirate`, and `signaling`.
fn load_experiment(path: &str) -> Result<(Config, Experiment, FailureSchedule), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let value = altroute_json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let config = Config::from_json(&value).map_err(|e| format!("parsing {path}: {e}"))?;
    let topo = build_topology(&config.topology)?;
    let traffic = build_traffic(&config.traffic, topo.num_nodes())?;
    let mut exp = Experiment::new(topo, traffic).map_err(|e| e.to_string())?;
    let mut failures = if config.failed_duplex.is_empty() {
        FailureSchedule::none()
    } else {
        let mut links = Vec::new();
        for &(a, b) in &config.failed_duplex {
            for (s, d) in [(a, b), (b, a)] {
                links.push(
                    exp.topology()
                        .link_between(s, d)
                        .ok_or_else(|| format!("no link {s}->{d} to fail"))?,
                );
            }
        }
        FailureSchedule::static_down(links)
    };
    for &(a, b, down, up) in &config.outages {
        for (s, d) in [(a, b), (b, a)] {
            let link = exp
                .topology()
                .link_between(s, d)
                .ok_or_else(|| format!("no link {s}->{d} for outage"))?;
            failures = failures.with_outage(link, down, up);
        }
    }
    if !failures.is_empty() {
        exp = exp.with_failures(failures.clone());
    }
    Ok((config, exp, failures))
}

/// Resolves `--window` against the run duration: the explicit value if
/// given (positivity is enforced at argument parsing), otherwise 40
/// windows across the run.
fn resolve_window(flags: &Flags, warmup: f64, horizon: f64) -> Result<f64, String> {
    match flags.window {
        Some(_) if flags.telemetry.is_none() => {
            Err("--window only makes sense with --telemetry".into())
        }
        Some(w) => check_window_count(w, warmup + horizon).map(|()| w),
        None => Ok((warmup + horizon) / 40.0),
    }
}

/// Rejects a `--window` width that would split `[0, end)` into more
/// than [`TimeGrid::MAX_WINDOWS`] windows — each windowed series
/// allocates a slot per window — before anything runs.
fn check_window_count(width: f64, end: f64) -> Result<(), String> {
    let windows = (end / width).ceil();
    if windows > TimeGrid::MAX_WINDOWS as f64 {
        return Err(format!(
            "--window {width} splits [0, {end}) into {windows} windows; at most {} are allowed",
            TimeGrid::MAX_WINDOWS
        ));
    }
    Ok(())
}

/// Writes the per-policy telemetry exports plus the combined
/// `telemetry.json` under `dir`.
fn write_telemetry_files(
    dir: &str,
    label: &str,
    snapshots: &[(String, RunTelemetry)],
) -> Result<(), String> {
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let write = |file: String, contents: String| -> Result<(), String> {
        let p = dir.join(file);
        std::fs::write(&p, contents).map_err(|e| format!("writing {}: {e}", p.display()))
    };
    for (name, t) in snapshots {
        write(format!("{name}.prom"), export::prometheus(t))?;
        write(format!("{name}_blocking.csv"), export::blocking_csv(t))?;
        write(format!("{name}_links.csv"), export::link_utilization_csv(t))?;
    }
    let entries: Vec<(String, &RunTelemetry)> = snapshots
        .iter()
        .map(|(name, t)| (name.clone(), t))
        .collect();
    write(
        "telemetry.json".to_string(),
        telemetry_document(label, &entries).to_string_pretty(),
    )?;
    eprintln!(
        "telemetry: wrote {} files under {}",
        3 * snapshots.len() + 1,
        dir.display()
    );
    Ok(())
}

fn mode_name(m: Mode) -> &'static str {
    match m {
        Mode::Low => "low",
        Mode::High => "high",
    }
}

/// Concatenates the members of JSON objects, in order.
fn concat_objects<const N: usize>(parts: [Value; N]) -> Value {
    Value::Object(
        parts
            .into_iter()
            .flat_map(|part| match part {
                Value::Object(members) => members,
                other => panic!("expected a JSON object, got {other:?}"),
            })
            .collect(),
    )
}

/// The label and instance keys both hysteresis tiers' JSON opens with.
fn hysteresis_json(label: &str, cfg: &MetastabilityConfig) -> Value {
    obj! {
        "label" => label,
        "nodes" => cfg.nodes,
        "capacity" => cfg.capacity,
        "load_per_pair" => cfg.load_per_pair,
        "d" => cfg.d,
        "horizon" => cfg.horizon,
        "window" => cfg.window,
        "seeds" => cfg.seeds,
    }
}

/// One hysteresis arm as JSON: its name, the tier's `tags`, then the
/// measurements every arm reports.
fn arm_json(a: &ArmResult, tags: Value) -> Value {
    concat_objects([
        obj! { "arm" => a.name },
        tags,
        obj! {
            "blocking" => a.blocking,
            "alternate_fraction" => a.alternate_fraction,
            "tail_utilization" => a.tail_utilization,
            "final_mode" => mode_name(a.modes.final_mode()),
            "fraction_high" => a.modes.fraction_high(),
            "mode_switches" => a.modes.num_switches() as u64,
        },
    ])
}

/// The seven-column table both hysteresis tiers print, one row per arm.
fn arm_table<'r>(arms: impl IntoIterator<Item = &'r ArmResult>) -> String {
    let mut table = Table::new([
        "arm",
        "blocking",
        "alt-fraction",
        "tail-util",
        "final-mode",
        "frac-high",
        "switches",
    ]);
    for a in arms {
        table.row([
            a.name.to_string(),
            fmt_prob(a.blocking),
            format!("{:.4}", a.alternate_fraction),
            format!("{:.4}", a.tail_utilization),
            mode_name(a.modes.final_mode()).to_string(),
            format!("{:.3}", a.modes.fraction_high()),
            a.modes.num_switches().to_string(),
        ]);
    }
    table.render()
}

/// Resolves `--preset` (default `smoke`) for the hysteresis tiers.
fn hysteresis_preset(flags: &Flags) -> Result<(&str, MetastabilityConfig), String> {
    let preset = flags.preset.as_deref().unwrap_or("smoke");
    let cfg = MetastabilityConfig::preset(preset)
        .ok_or_else(|| format!("unknown preset '{preset}' (try smoke, paper)"))?;
    Ok((preset, cfg))
}

/// Runs the four-arm hysteresis demonstration (`metastability`): the
/// same load from empty and saturated starts, with and without Eq.-15
/// reservation, classified by the hysteresis mode detector.
fn cmd_metastability(flags: &Flags) -> Result<(), String> {
    let (preset, mut cfg) = hysteresis_preset(flags)?;
    if let Some(n) = flags.nodes {
        if n < 3 {
            return Err("--nodes must be at least 3 (a mesh needs tandems)".into());
        }
        cfg.nodes = n;
    }
    if let Some(d) = flags.d {
        cfg.d = d;
    }
    if let Some(w) = flags.window {
        check_window_count(w, cfg.horizon)?;
        cfg.window = w;
    }
    let server = flags.bind_server(&format!("metastability:{preset}"))?;
    let report = run_metastability(&cfg, server.as_ref());

    if let Some(dir) = &flags.telemetry {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let write = |file: String, contents: String| -> Result<(), String> {
            let p = dir.join(file);
            std::fs::write(&p, contents).map_err(|e| format!("writing {}: {e}", p.display()))
        };
        let mut files = 1; // telemetry.json
        for arm in &report.arms {
            let name = arm.name;
            let mut prom = export::prometheus(&arm.telemetry);
            prom.push_str(&export::mode_prometheus(&arm.modes));
            write(format!("{name}.prom"), prom)?;
            write(
                format!("{name}_blocking.csv"),
                export::blocking_csv(&arm.telemetry),
            )?;
            write(
                format!("{name}_links.csv"),
                export::link_utilization_csv(&arm.telemetry),
            )?;
            write(
                format!("{name}_modes.csv"),
                export::mode_switches_csv(&arm.modes),
            )?;
            files += 4;
            if let Some(f) = &arm.flight {
                let p = dir.join(format!("{name}_flight.trace"));
                std::fs::write(&p, &f.bytes)
                    .map_err(|e| format!("writing {}: {e}", p.display()))?;
                files += 1;
                eprintln!(
                    "flight recorder: {name} froze on {} (seed {}) -> {}",
                    f.reason,
                    f.seed,
                    p.display()
                );
            }
        }
        let entries: Vec<(String, &RunTelemetry)> = report
            .arms
            .iter()
            .map(|arm| (arm.name.to_string(), &arm.telemetry))
            .collect();
        write(
            "telemetry.json".to_string(),
            telemetry_document(&format!("metastability:{preset}"), &entries).to_string_pretty(),
        )?;
        eprintln!("telemetry: wrote {files} files under {}", dir.display());
    }

    if flags.metrics_json {
        let arms: Vec<Value> = metastability::ARMS
            .iter()
            .map(|&(reserved, start)| {
                let a = report.arm(reserved, start);
                concat_objects([
                    arm_json(a, obj! { "reserved" => reserved, "start" => start.name() }),
                    obj! {
                        "flight_trigger" => match &a.flight {
                            Some(f) => Value::from(f.reason.to_string()),
                            None => Value::Null,
                        },
                    },
                ])
            })
            .collect();
        let doc = concat_objects([
            hysteresis_json(&format!("metastability:{preset}"), &cfg),
            obj! {
                "mode_gap_unreserved" => report.mode_gap(false),
                "mode_gap_reserved" => report.mode_gap(true),
                "blocking_gap_unreserved" => report.blocking_gap(false),
                "blocking_gap_reserved" => report.blocking_gap(true),
                "arms" => Value::Array(arms),
            },
        ]);
        println!("{}", doc.to_string_pretty());
    } else {
        println!("{}", arm_table(&report.arms));
        println!(
            "mode gap (saturated - empty):     r=0 {:+.3}   eq15 {:+.3}",
            report.mode_gap(false),
            report.mode_gap(true)
        );
        println!(
            "blocking gap (saturated - empty): r=0 {:+.4}   eq15 {:+.4}",
            report.blocking_gap(false),
            report.blocking_gap(true)
        );
        for a in &report.arms {
            if let Some(f) = &a.flight {
                let events = decode_trace(&f.bytes).map_or(0, |(_, r)| r.len());
                println!(
                    "flight recorder: {} froze on {} (seed {}, {events} events)",
                    a.name, f.reason, f.seed,
                );
            }
        }
    }
    if let Some(server) = server {
        server.shutdown();
    }
    Ok(())
}

fn cmd_feed(flags: &Flags) -> Result<(), String> {
    let preset = flags.preset.as_deref().unwrap_or("ramp");
    let cfg = FeedConfig::preset(preset)
        .ok_or_else(|| format!("unknown preset '{preset}' (try ramp)"))?;
    let (text, stats) = render_feed(&cfg);
    print!("{text}");
    eprintln!(
        "feed: {} arrivals over {} segments, end {}",
        stats.arrivals,
        stats.segments,
        cfg.total_horizon()
    );
    Ok(())
}

/// Runs the closed-loop demonstration (`controlled`) on the
/// metastability instance of `--preset`.
fn cmd_controlled(flags: &Flags) -> Result<(), String> {
    let (preset, cfg) = hysteresis_preset(flags)?;
    let server = flags.bind_server(&format!("controlled:{preset}"))?;
    let report = run_controlled(&cfg, server.as_ref());
    let arms = [&report.static_arm, &report.online_arm];
    let final_max_level = report.final_levels.iter().copied().max().unwrap_or(0);

    if flags.metrics_json {
        let updates: Vec<Value> = report
            .updates
            .iter()
            .map(|u| {
                obj! {
                    "at" => u.at,
                    "window" => u.window,
                    "changed" => u.changed as u64,
                    "max_load" => u.max_load,
                    "max_level" => u.levels.iter().copied().max().unwrap_or(0),
                }
            })
            .collect();
        let doc = concat_objects([
            hysteresis_json(&format!("controlled:{preset}"), &cfg),
            obj! {
                "recompute_every" => controlled::tuning(&cfg).recompute_every,
                "update_count" => report.update_count,
                "final_max_level" => final_max_level,
                "arms" => Value::Array(arms.iter().map(|a| arm_json(a, obj! {})).collect()),
                "updates" => Value::Array(updates),
            },
        ]);
        println!("{}", doc.to_string_pretty());
    } else {
        println!("{}", arm_table(arms));
        println!(
            "controller: {} level update(s), final max r = {final_max_level}",
            report.update_count,
        );
        for u in &report.updates {
            println!(
                "  levels at={} window={} changed={} max_load={:.1} max_r={}",
                u.at,
                u.window,
                u.changed,
                u.max_load,
                u.levels.iter().copied().max().unwrap_or(0)
            );
        }
    }
    if let Some(server) = server {
        server.shutdown();
    }
    Ok(())
}

fn cmd_largemesh(flags: &Flags) -> Result<(), String> {
    let preset = flags.preset.as_deref().unwrap_or("smoke");
    let mut cfg = LargeMeshConfig::preset(preset)
        .ok_or_else(|| format!("unknown preset '{preset}' (try smoke, full)"))?;
    if let Some(n) = flags.nodes {
        if n < 5 {
            return Err("--nodes must be at least 5 (power-law seed ring)".into());
        }
        cfg.nodes = n;
        // Keep demand sparse relative to the mesh when shrunk.
        cfg.demand_pairs = cfg.demand_pairs.min(n * (n - 1) / 2);
    }
    let report = run_largemesh(&cfg);

    if flags.metrics_json {
        let rounds: Vec<Value> = report
            .rounds
            .iter()
            .map(|r| {
                obj! {
                    "round" => r.round,
                    "group" => r.group,
                    "links_down" => r.links_down,
                    "evicted_on_failure" => r.evicted_on_failure,
                    "evicted_on_revival" => r.evicted_on_revival,
                    "offered" => r.offered,
                    "blocked" => r.blocked,
                    "blocking" => r.blocking,
                    "carried_alternate" => r.carried_alternate,
                }
            })
            .collect();
        let doc = obj! {
            "label" => format!("largemesh:{preset}"),
            "nodes" => cfg.nodes,
            "links" => report.num_links,
            "capacity" => cfg.capacity,
            "max_hops" => cfg.max_hops,
            "candidate_cap" => cfg.candidate_cap,
            "demand_pairs" => cfg.demand_pairs,
            "load_per_pair" => cfg.load_per_pair,
            "srlg_groups" => cfg.srlg_groups,
            "total_pairs" => report.total_pairs,
            "warmed_pairs" => report.warmed_pairs,
            "total_offered" => report.total_offered(),
            "total_blocked" => report.total_blocked(),
            "blocking" => report.blocking(),
            "max_evicted" => report.max_evicted(),
            "rounds" => Value::Array(rounds),
        };
        println!("{}", doc.to_string_pretty());
    } else {
        let mut table = Table::new([
            "round",
            "group",
            "links-down",
            "evicted-fail",
            "evicted-revive",
            "offered",
            "blocked",
            "blocking",
        ]);
        for r in &report.rounds {
            table.row([
                r.round.to_string(),
                r.group.to_string(),
                r.links_down.to_string(),
                r.evicted_on_failure.to_string(),
                r.evicted_on_revival.to_string(),
                r.offered.to_string(),
                r.blocked.to_string(),
                fmt_prob(r.blocking),
            ]);
        }
        println!("{}", table.render());
        println!(
            "mesh: {} nodes, {} links, {} demanded of {} pairs; whole-run blocking {}",
            cfg.nodes,
            report.num_links,
            report.warmed_pairs,
            report.total_pairs,
            fmt_prob(report.blocking())
        );
        println!(
            "incremental invalidation: worst round evicted {} pairs (full rebuild would redo {})",
            report.max_evicted(),
            report.total_pairs
        );
    }
    Ok(())
}

fn cmd_simulate(path: &str, flags: &Flags) -> Result<(), String> {
    let (mut config, exp, _failures) = load_experiment(path)?;
    if let Some(policy) = &flags.policy {
        config.policies = vec![policy.clone()];
    }
    let params = SimParams {
        warmup: config.warmup,
        horizon: config.horizon,
        seeds: config.seeds,
        base_seed: config.base_seed,
    };
    let window = resolve_window(flags, params.warmup, params.horizon)?;
    let server = flags.bind_server(path)?;
    let heartbeat = flags
        .progress
        .then(|| Heartbeat::new(config.policies.len() * params.seeds as usize));
    let inner = heartbeat.as_ref().map(|h| h as &dyn ProgressObserver);
    let tee = server
        .as_ref()
        .map(|server| ServeProgress { server, inner });
    let progress = match &tee {
        Some(tee) => Some(tee as &dyn ProgressObserver),
        None => inner,
    };
    let fanout = flags.fanout(window, progress);
    let mut table = Table::new(["policy", "blocking", "stderr", "alt-fraction"]);
    let mut results = Vec::with_capacity(config.policies.len());
    let mut snapshots: Vec<(String, RunTelemetry)> = Vec::new();
    for name in &config.policies {
        let kind = parse_policy(name, config.max_hops, flags.d.unwrap_or(2))?;
        if let Some(server) = &server {
            let phase = kind.name().to_string();
            server.update_status(|s| s.phase = phase);
        }
        let (r, telemetry) = exp.replicate(kind, &params, &fanout);
        if let Some(t) = telemetry {
            if let Some(server) = &server {
                server.publish_metrics(export::prometheus(&t));
            }
            snapshots.push((kind.name().to_string(), t));
        }
        table.row([
            kind.name().to_string(),
            fmt_prob(r.blocking_mean()),
            fmt_prob(r.blocking_std_error()),
            format!("{:.4}", r.alternate_fraction()),
        ]);
        results.push(r);
    }
    if let Some(dir) = &flags.telemetry {
        write_telemetry_files(dir, path, &snapshots)?;
    }
    if flags.metrics_json {
        let doc = metrics_document(
            path,
            vec![
                (
                    "erlang_cut_set_lower_bound".to_string(),
                    Value::from(exp.erlang_bound()),
                ),
                ("seeds".to_string(), Value::from(params.seeds)),
                ("warmup".to_string(), Value::from(params.warmup)),
                ("horizon".to_string(), Value::from(params.horizon)),
            ],
            &results,
        );
        println!("{}", doc.to_string_pretty());
    } else {
        println!("{}", table.render());
        println!(
            "erlang cut-set lower bound: {}",
            fmt_prob(exp.erlang_bound())
        );
    }
    if let Some(server) = server {
        server.shutdown();
    }
    Ok(())
}

/// Forwards replication progress into the `--serve` status document,
/// then to the wrapped `--progress` heartbeat (if any).
struct ServeProgress<'a> {
    server: &'a MetricsServer,
    inner: Option<&'a dyn ProgressObserver>,
}

impl ProgressObserver for ServeProgress<'_> {
    fn replication_done(&self, completed: usize, total: usize) {
        self.server.update_status(|s| {
            s.replications_done = completed;
            s.replications_total = total;
        });
        if let Some(inner) = self.inner {
            inner.replication_done(completed, total);
        }
    }
}

/// Emits either the aligned table or a `--metrics-json` document for the
/// kernel-backed engines that summarise with a `BlockingSummary`.
fn print_summary_output(
    label: &str,
    metrics_json: bool,
    extra: Vec<(String, Value)>,
    table: &Table,
    policies: Vec<Value>,
) {
    if metrics_json {
        let mut fields = vec![("label".to_string(), Value::from(label))];
        fields.extend(extra);
        fields.push(("policies".to_string(), Value::Array(policies)));
        println!("{}", Value::Object(fields).to_string_pretty());
    } else {
        println!("{}", table.render());
    }
}

fn cmd_adaptive(path: &str, flags: &Flags) -> Result<(), String> {
    let (config, exp, failures) = load_experiment(path)?;
    let window = resolve_window(flags, config.warmup, config.horizon)?;
    let plan = exp.plan_for(PolicyKind::ControlledAlternate {
        max_hops: config.max_hops,
    });
    let adaptive = AdaptiveConfig::default();
    let server = flags.bind_server(path)?;
    if let Some(server) = &server {
        let total = config.seeds as usize;
        server.update_status(|s| {
            s.phase = "adaptive".to_string();
            s.replications_total = total;
        });
    }
    let mut snapshots: Vec<(String, RunTelemetry)> = Vec::new();
    let fanout = flags.fanout(window, None);
    let (per_seed, summary, telemetry) = replicate_adaptive(
        &plan,
        exp.traffic(),
        config.warmup,
        config.horizon,
        config.base_seed,
        config.seeds,
        &failures,
        &adaptive,
        &fanout,
    );
    if let Some(telemetry) = telemetry {
        if let Some(server) = &server {
            server.publish_metrics(export::prometheus(&telemetry));
        }
        snapshots.push(("adaptive".to_string(), telemetry));
    }
    let mut table = Table::new(["policy", "blocking", "stderr", "replications"]);
    table.row([
        "adaptive-controlled".to_string(),
        fmt_prob(summary.mean()),
        fmt_prob(summary.std_error()),
        summary.replications().to_string(),
    ]);
    let (offered, blocked) = per_seed
        .iter()
        .fold((0u64, 0u64), |(o, b), r| (o + r.offered, b + r.blocked));
    let policy_json = {
        let mut fields = vec![("policy".to_string(), Value::from("adaptive-controlled"))];
        if let Value::Object(rest) = blocking_summary_json(&summary) {
            fields.extend(rest);
        }
        fields.push(("offered".to_string(), Value::from(offered)));
        fields.push(("blocked".to_string(), Value::from(blocked)));
        Value::Object(fields)
    };
    print_summary_output(
        path,
        flags.metrics_json,
        vec![
            ("seeds".to_string(), Value::from(config.seeds)),
            (
                "update_interval".to_string(),
                Value::from(adaptive.update_interval),
            ),
            ("ewma_alpha".to_string(), Value::from(adaptive.ewma_alpha)),
        ],
        &table,
        vec![policy_json],
    );
    if let Some(dir) = &flags.telemetry {
        write_telemetry_files(dir, path, &snapshots)?;
    }
    if let Some(server) = server {
        let done = per_seed.len();
        server.update_status(|s| s.replications_done = done);
        server.shutdown();
    }
    Ok(())
}

fn cmd_multirate(path: &str, flags: &Flags) -> Result<(), String> {
    let (config, exp, failures) = load_experiment(path)?;
    let window = resolve_window(flags, config.warmup, config.horizon)?;
    let fanout = flags.fanout(window, None);
    // Two classes carved from the config traffic: a 1-unit class at the
    // configured load and a 4-unit wideband class at a tenth of it.
    let classes = [
        BandwidthClass {
            bandwidth: 1,
            traffic: exp.traffic().clone(),
        },
        BandwidthClass {
            bandwidth: 4,
            traffic: exp.traffic().scaled(0.1),
        },
    ];
    let params = SimParams {
        warmup: config.warmup,
        horizon: config.horizon,
        seeds: config.seeds,
        base_seed: config.base_seed,
    };
    let plan = multirate::plan(exp.topology(), &classes, config.max_hops);
    let mut table = Table::new([
        "policy",
        "call_blocking",
        "stderr",
        "bw_blocking",
        "narrowband",
        "wideband",
    ]);
    let mut snapshots: Vec<(String, RunTelemetry)> = Vec::new();
    let mut policy_docs = Vec::new();
    for policy in parse_modelled_policies(&config, "multirate", multirate::models)? {
        let (r, telemetry) = run_multirate(&plan, &classes, policy, &params, &failures, &fanout);
        if let Some(telemetry) = telemetry {
            snapshots.push((policy.name().to_string(), telemetry));
        }
        table.row([
            policy.name().to_string(),
            fmt_prob(r.blocking_mean()),
            fmt_prob(r.blocking.std_error()),
            fmt_prob(r.bandwidth_blocking.mean()),
            fmt_prob(r.per_class_blocking[0]),
            fmt_prob(r.per_class_blocking[1]),
        ]);
        let mut fields = vec![("policy".to_string(), Value::from(policy.name()))];
        if let Value::Object(rest) = blocking_summary_json(&r.blocking) {
            fields.extend(rest);
        }
        fields.push((
            "bandwidth_blocking".to_string(),
            blocking_summary_json(&r.bandwidth_blocking),
        ));
        fields.push((
            "per_class_blocking".to_string(),
            Value::Array(
                r.per_class_blocking
                    .iter()
                    .map(|&b| Value::from(b))
                    .collect(),
            ),
        ));
        policy_docs.push(Value::Object(fields));
    }
    print_summary_output(
        path,
        flags.metrics_json,
        vec![
            ("seeds".to_string(), Value::from(params.seeds)),
            (
                "classes".to_string(),
                obj! {
                    "narrowband_bandwidth" => 1u64,
                    "wideband_bandwidth" => 4u64,
                    "wideband_scale" => 0.1,
                },
            ),
        ],
        &table,
        policy_docs,
    );
    if let Some(dir) = &flags.telemetry {
        write_telemetry_files(dir, path, &snapshots)?;
    }
    Ok(())
}

fn cmd_signaling(path: &str, flags: &Flags) -> Result<(), String> {
    let (config, exp, failures) = load_experiment(path)?;
    if !failures.events().is_empty() {
        return Err("signaling models static link failures only: \
                    use 'failed_duplex' instead of 'outages'"
            .to_string());
    }
    let policies = parse_modelled_policies(&config, "signaling", signaling::models)?;
    let window = resolve_window(flags, config.warmup, config.horizon)?;
    let hop_delay = flags.hop_delay.unwrap_or(2e-4);
    if !(hop_delay.is_finite() && hop_delay >= 0.0) {
        return Err(format!("--hop-delay must be >= 0, got {hop_delay}"));
    }
    let plan = exp.plan_for(PolicyKind::ControlledAlternate {
        max_hops: config.max_hops,
    });
    let mut table = Table::new([
        "policy",
        "blocking",
        "stderr",
        "booking_races",
        "setup_latency",
        "attempts",
    ]);
    let mut snapshots: Vec<(String, RunTelemetry)> = Vec::new();
    let mut policy_docs = Vec::new();
    for policy in policies {
        let sig_config = SignalingConfig {
            hop_delay,
            policy,
            warmup: config.warmup,
            horizon: config.horizon,
            seed: config.base_seed,
        };
        let fanout = flags.fanout(window, None);
        let (per_seed, summary, telemetry) = replicate_signaling(
            &plan,
            exp.traffic(),
            &failures,
            &sig_config,
            config.seeds,
            &fanout,
        );
        if let Some(telemetry) = telemetry {
            snapshots.push((policy.name().to_string(), telemetry));
        }
        let races: u64 = per_seed.iter().map(|r| r.booking_races).sum();
        let latency =
            per_seed.iter().map(|r| r.mean_setup_latency).sum::<f64>() / per_seed.len() as f64;
        let attempts =
            per_seed.iter().map(|r| r.mean_attempts).sum::<f64>() / per_seed.len() as f64;
        table.row([
            policy.name().to_string(),
            fmt_prob(summary.mean()),
            fmt_prob(summary.std_error()),
            races.to_string(),
            format!("{latency:.5}"),
            format!("{attempts:.3}"),
        ]);
        let mut fields = vec![("policy".to_string(), Value::from(policy.name()))];
        if let Value::Object(rest) = blocking_summary_json(&summary) {
            fields.extend(rest);
        }
        fields.push(("booking_races".to_string(), Value::from(races)));
        fields.push(("mean_setup_latency".to_string(), Value::from(latency)));
        fields.push(("mean_attempts".to_string(), Value::from(attempts)));
        policy_docs.push(Value::Object(fields));
    }
    print_summary_output(
        path,
        flags.metrics_json,
        vec![
            ("seeds".to_string(), Value::from(config.seeds)),
            ("hop_delay".to_string(), Value::from(hop_delay)),
        ],
        &table,
        policy_docs,
    );
    if let Some(dir) = &flags.telemetry {
        write_telemetry_files(dir, path, &snapshots)?;
    }
    Ok(())
}

/// Pulls a named array of numbers out of a telemetry JSON object.
fn json_f64s(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("telemetry.json: missing array \"{key}\""))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("telemetry.json: \"{key}\" entries must be numbers"))
        })
        .collect()
}

fn json_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("telemetry.json: missing integer \"{key}\""))
}

/// Renders `<dir>/telemetry.json` (written by `simulate --telemetry`) as
/// a human-readable report: per-policy counters, histogram summaries,
/// wall-clock phase profile, and an ASCII chart of the per-window
/// blocking series for all policies.
fn cmd_telemetry_report(dir: &str) -> Result<(), String> {
    let path = Path::new(dir).join("telemetry.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc =
        altroute_json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    let label = doc.get("label").and_then(Value::as_str).unwrap_or("?");
    let warmup = doc.get("warmup").and_then(Value::as_f64).unwrap_or(0.0);
    let end = doc.get("end").and_then(Value::as_f64).unwrap_or(0.0);
    let width = doc
        .get("window_width")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let starts = json_f64s(&doc, "window_start")?;
    let ends = json_f64s(&doc, "window_end")?;
    let policies = doc
        .get("policies")
        .and_then(Value::as_array)
        .ok_or("telemetry.json: missing \"policies\" array")?;
    println!("Telemetry report: {label}");
    println!(
        "sim time [0, {end}), warm-up {warmup}, {} windows of width {width}\n",
        starts.len()
    );

    let mut counters = Table::new([
        "policy",
        "replications",
        "offered",
        "blocked",
        "blocking",
        "alternate",
        "dropped",
        "events",
    ]);
    let mut hist_table = Table::new(["policy", "histogram", "count", "mean", "p50", "p99", "max"]);
    let mut span_table = Table::new(["policy", "phase", "seconds", "count"]);
    let mut blocking_series: Vec<Series> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for p in policies {
        let name = p
            .get("policy")
            .and_then(Value::as_str)
            .ok_or("telemetry.json: policy entry without \"policy\" name")?;
        names.push(name.to_string());
        let c = p
            .get("counters")
            .ok_or("telemetry.json: policy entry without \"counters\"")?;
        let offered = json_u64(c, "offered")?;
        let blocked = json_u64(c, "blocked")?;
        counters.row([
            name.to_string(),
            json_u64(p, "replications")?.to_string(),
            offered.to_string(),
            blocked.to_string(),
            fmt_prob(if offered == 0 {
                0.0
            } else {
                blocked as f64 / offered as f64
            }),
            json_u64(c, "carried_alternate")?.to_string(),
            json_u64(c, "dropped")?.to_string(),
            json_u64(c, "events")?.to_string(),
        ]);
        if let Some(hists) = p.get("histograms").and_then(Value::as_object) {
            for (hname, h) in hists {
                let stat = |k: &str| h.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                hist_table.row([
                    name.to_string(),
                    hname.clone(),
                    json_u64(h, "count")?.to_string(),
                    format!("{:.4}", stat("mean")),
                    format!("{:.4}", stat("p50")),
                    format!("{:.4}", stat("p99")),
                    format!("{:.4}", stat("max")),
                ]);
            }
        }
        if let Some(spans) = p.get("spans").and_then(Value::as_array) {
            for s in spans {
                span_table.row([
                    name.to_string(),
                    s.get("phase")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    format!(
                        "{:.4}",
                        s.get("secs").and_then(Value::as_f64).unwrap_or(0.0)
                    ),
                    json_u64(s, "count")?.to_string(),
                ]);
            }
        }
        let series = p
            .get("series")
            .ok_or("telemetry.json: policy entry without \"series\"")?;
        let blocking = json_f64s(series, "blocking")?;
        blocking_series.push(Series {
            label: name.to_string(),
            points: starts
                .iter()
                .zip(&ends)
                .zip(&blocking)
                .map(|((&s, &e), &b)| ((s + e) / 2.0, b))
                .collect(),
        });
    }
    println!("{}", counters.render());
    println!("{}", hist_table.render());
    if !span_table.is_empty() {
        println!("{}", span_table.render());
    }
    print_mode_section(Path::new(dir), &names, end);
    println!("per-window network blocking (x = sim time):");
    println!(
        "{}",
        altroute_experiments::render_chart(&blocking_series, 64, 16, false)
    );
    Ok(())
}

/// Parses a `<policy>_modes.csv` switch log into `(time, is_high)` rows:
/// the initial regime at time 0, then one row per mode switch.
fn read_modes_csv(path: &Path) -> Option<Vec<(f64, bool)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut rows = Vec::new();
    for line in text.lines().skip(1) {
        let (t, mode) = line.split_once(',')?;
        rows.push((t.parse().ok()?, mode == "high"));
    }
    (!rows.is_empty()).then_some(rows)
}

/// Renders the mode-structure section of the telemetry report from the
/// `<policy>_modes.csv` switch logs (written by `metastability
/// --telemetry`), when any are present: per-policy regime summary with
/// dwell-time statistics, plus the switch sequence itself.
fn print_mode_section(dir: &Path, names: &[String], end: f64) {
    let regime = |high: bool| if high { "high" } else { "low" };
    let mut table = Table::new([
        "policy",
        "initial",
        "final",
        "switches",
        "frac-high",
        "dwell-low",
        "dwell-high",
    ]);
    let mut sequences = Vec::new();
    for name in names {
        let Some(rows) = read_modes_csv(&dir.join(format!("{name}_modes.csv"))) else {
            continue;
        };
        // Dwell in each regime; the last one is censored at `end`.
        let mut dwells = [Vec::new(), Vec::new()]; // [low, high]
        for (i, &(t, high)) in rows.iter().enumerate() {
            let until = rows.get(i + 1).map_or(end, |&(next, _)| next);
            dwells[usize::from(high)].push((until - t).max(0.0));
        }
        let dwell_stats = |v: &[f64]| {
            if v.is_empty() {
                "-".to_string()
            } else {
                let mean = v.iter().sum::<f64>() / v.len() as f64;
                format!("{mean:.3} x{}", v.len())
            }
        };
        // `.max(0.0)` also normalises the -0.0 an empty sum produces.
        let frac_high = if end > 0.0 {
            (dwells[1].iter().sum::<f64>() / end).max(0.0)
        } else {
            0.0
        };
        table.row([
            name.clone(),
            regime(rows[0].1).to_string(),
            regime(rows[rows.len() - 1].1).to_string(),
            (rows.len() - 1).to_string(),
            format!("{frac_high:.3}"),
            dwell_stats(&dwells[0]),
            dwell_stats(&dwells[1]),
        ]);
        if rows.len() > 1 {
            let steps: Vec<String> = rows[1..]
                .iter()
                .map(|&(t, high)| format!("{} at t={t}", regime(high)))
                .collect();
            sequences.push(format!("  {name}: {}", steps.join(", ")));
        }
    }
    if table.is_empty() {
        return;
    }
    println!("mode structure (dwell columns are mean x count, censored at end):");
    println!("{}", table.render());
    if !sequences.is_empty() {
        println!("mode switches:");
        for s in &sequences {
            println!("{s}");
        }
        println!();
    }
}

/// Decodes a binary trace — a conformance golden or a flight-recorder
/// dump — and prints its header, per-kind record counts, time span, and
/// the last few records (the approach to the anomaly, for flight dumps).
fn cmd_replay(path: &str) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (header, records) = decode_trace(&bytes).map_err(|e| format!("decoding {path}: {e}"))?;
    println!(
        "trace {path}: format v{}, seed {}, label \"{}\"",
        header.version, header.seed, header.label
    );
    let kinds = ["blocked", "routed", "departure", "teardown", "link"];
    let mut counts = [0usize; 5];
    for r in &records {
        counts[match r.kind {
            TraceRecordKind::Blocked { .. } => 0,
            TraceRecordKind::Routed { .. } => 1,
            TraceRecordKind::Departure { .. } => 2,
            TraceRecordKind::Teardown { .. } => 3,
            TraceRecordKind::Link { .. } => 4,
        }] += 1;
    }
    let mut table = Table::new(["record", "count"]);
    for (name, n) in kinds.iter().zip(counts) {
        table.row([name.to_string(), n.to_string()]);
    }
    println!("{}", table.render());
    let (Some(first), Some(last)) = (records.first(), records.last()) else {
        println!("0 records");
        return Ok(());
    };
    println!(
        "{} records over t = [{:.6}, {:.6}]",
        records.len(),
        first.time(),
        last.time()
    );
    const TAIL: usize = 10;
    println!("last {} records:", records.len().min(TAIL));
    for r in records.iter().skip(records.len().saturating_sub(TAIL)) {
        println!("  {r}");
    }
    Ok(())
}

fn cmd_conformance(bless: bool) -> Result<(), String> {
    if bless {
        for name in altroute_conformance::golden_names() {
            let path = altroute_conformance::golden::bless(name)
                .map_err(|e| format!("blessing {name}: {e}"))?;
            println!("blessed {name} -> {}", path.display());
        }
        println!("review the regenerated traces like any other diff");
        return Ok(());
    }
    let summary = altroute_conformance::run_all();
    let mut table = Table::new(["oracle check", "simulated", "analytic", "tolerance", "ok"]);
    for c in &summary.oracle {
        table.row([
            c.name.clone(),
            fmt_prob(c.simulated),
            fmt_prob(c.analytic),
            fmt_prob(c.tolerance),
            if c.pass { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", table.render());
    for (name, divergence) in &summary.golden {
        match divergence {
            None => println!("golden {name}: replay identical"),
            Some(d) => println!("golden {name}: DIVERGED\n{d}"),
        }
    }
    println!(
        "fuzz: {} instances, {} engine runs, {} violations",
        summary.fuzz.instances,
        summary.fuzz.runs,
        summary.fuzz.violations.len()
    );
    for v in &summary.fuzz.violations {
        println!("  {v}");
    }
    if summary.all_passed() {
        println!("conformance: all stages passed");
        Ok(())
    } else {
        Err("conformance suite failed".into())
    }
}

fn parse_f64(s: &str, what: &str) -> Result<f64, String> {
    s.parse()
        .map_err(|_| format!("{what} must be a number, got '{s}'"))
}

fn parse_u32(s: &str, what: &str) -> Result<u32, String> {
    s.parse()
        .map_err(|_| format!("{what} must be a non-negative integer, got '{s}'"))
}

/// Parses a thread-count-style flag value: a positive integer. Zero is
/// rejected here, at argument parsing, with a message naming the
/// fallback — the worker pool's own `workers > 0` assertion is an
/// internal invariant, not a user-facing diagnostic.
fn parse_count(s: &str, what: &str, zero_hint: &str) -> Result<usize, String> {
    let n: usize = s
        .parse()
        .map_err(|_| format!("{what} must be a positive integer, got '{s}'"))?;
    if n == 0 {
        return Err(format!("{what} must be at least 1 ({zero_hint})"));
    }
    Ok(n)
}

/// All flags any subcommand accepts, parsed order-independently.
#[derive(Debug, Default)]
struct Flags {
    metrics_json: bool,
    progress: bool,
    bless: bool,
    telemetry: Option<String>,
    window: Option<f64>,
    policy: Option<String>,
    hop_delay: Option<f64>,
    workers: Option<usize>,
    d: Option<u32>,
    preset: Option<String>,
    nodes: Option<usize>,
    serve: Option<String>,
}

impl Flags {
    /// The flags actually set, by name — for per-subcommand validation.
    fn set(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        if self.metrics_json {
            v.push("--metrics-json");
        }
        if self.progress {
            v.push("--progress");
        }
        if self.bless {
            v.push("--bless");
        }
        if self.telemetry.is_some() {
            v.push("--telemetry");
        }
        if self.window.is_some() {
            v.push("--window");
        }
        if self.policy.is_some() {
            v.push("--policy");
        }
        if self.hop_delay.is_some() {
            v.push("--hop-delay");
        }
        if self.workers.is_some() {
            v.push("--workers");
        }
        if self.d.is_some() {
            v.push("--d");
        }
        if self.preset.is_some() {
            v.push("--preset");
        }
        if self.nodes.is_some() {
            v.push("--nodes");
        }
        if self.serve.is_some() {
            v.push("--serve");
        }
        v
    }

    /// Binds the `--serve` metrics server (if requested) under `label`
    /// and announces the endpoints on stderr.
    fn bind_server(&self, label: &str) -> Result<Option<MetricsServer>, String> {
        match &self.serve {
            None => Ok(None),
            Some(addr) => {
                let server =
                    MetricsServer::bind(addr, label).map_err(|e| format!("--serve {addr}: {e}"))?;
                eprintln!(
                    "serving http://{0}/metrics, http://{0}/healthz, http://{0}/status",
                    server.addr()
                );
                Ok(Some(server))
            }
        }
    }

    /// The replication-pool size: `--workers N`, defaulting to the
    /// machine's available parallelism.
    fn worker_count(&self) -> usize {
        self.workers.unwrap_or_else(default_workers)
    }

    /// The replication fan-out the flags select: `--workers` threads
    /// (default: every core) fan replications out, and `--telemetry`
    /// records on `window`-wide windows.
    fn fanout<'a>(&self, window: f64, progress: Option<&'a dyn ProgressObserver>) -> Fanout<'a> {
        Fanout {
            workers: self.worker_count(),
            progress,
            window: self.telemetry.is_some().then_some(window),
        }
    }

    /// Rejects any set flag the subcommand does not accept.
    fn allow_only(&self, cmd: &str, allowed: &[&str]) -> Result<(), String> {
        match self.set().iter().find(|f| !allowed.contains(*f)) {
            Some(f) => Err(format!("'{cmd}' does not accept {f}")),
            None => Ok(()),
        }
    }
}

/// Splits argv into positionals and [`Flags`], accepting flags anywhere
/// (`--flag value` or `--flag=value`). Unknown flags are usage errors.
fn parse_args(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut flags = Flags::default();
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        i += 1;
        let Some(rest) = arg.strip_prefix("--") else {
            positionals.push(arg.clone());
            continue;
        };
        let (name, inline) = match rest.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (rest, None),
        };
        let takes_value = matches!(
            name,
            "telemetry"
                | "window"
                | "policy"
                | "hop-delay"
                | "workers"
                | "d"
                | "preset"
                | "nodes"
                | "serve"
        );
        let value = if takes_value {
            match inline {
                Some(v) => Some(v),
                None => {
                    let v = args
                        .get(i)
                        .cloned()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    i += 1;
                    Some(v)
                }
            }
        } else {
            if inline.is_some() {
                return Err(format!("--{name} takes no value"));
            }
            None
        };
        match name {
            "metrics-json" => flags.metrics_json = true,
            "progress" => flags.progress = true,
            "bless" => flags.bless = true,
            "telemetry" => flags.telemetry = value,
            "window" => {
                // Validated here, not per-subcommand, so every command
                // rejects a degenerate width with the same message.
                let w = parse_f64(&value.expect("takes_value"), "--window")?;
                if !(w.is_finite() && w > 0.0) {
                    return Err(format!("--window must be positive, got {w}"));
                }
                flags.window = Some(w);
            }
            "policy" => flags.policy = value,
            "hop-delay" => {
                flags.hop_delay = Some(parse_f64(&value.expect("takes_value"), "--hop-delay")?)
            }
            "workers" => {
                flags.workers = Some(parse_count(
                    &value.expect("takes_value"),
                    "--workers",
                    &format!(
                        "omit the flag to use all {} available cores",
                        default_workers()
                    ),
                )?)
            }
            "d" => {
                let d = parse_u32(&value.expect("takes_value"), "--d")?;
                if d == 0 {
                    return Err("--d must be at least 1 (tandems sampled per overflow)".into());
                }
                flags.d = Some(d);
            }
            "preset" => flags.preset = value,
            "nodes" => {
                flags.nodes = Some(parse_count(
                    &value.expect("takes_value"),
                    "--nodes",
                    "pass a mesh size of at least 3",
                )?)
            }
            "serve" => flags.serve = value,
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    Ok((positionals, flags))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (pos, flags) = parse_args(&args)?;
    let pos: Vec<&str> = pos.iter().map(String::as_str).collect();
    match pos.as_slice() {
        ["erlang", load, cap] => {
            flags.allow_only("erlang", &[])?;
            let load = parse_f64(load, "load")?;
            let cap = parse_u32(cap, "capacity")?;
            println!("B({load}, {cap})   = {:.6}", erlang_b(load, cap));
            println!("carried      = {:.3} Erlangs", carried_traffic(load, cap));
            println!(
                "lost         = {:.3} Erlangs",
                load - carried_traffic(load, cap)
            );
            Ok(())
        }
        ["dimension", load, target] => {
            flags.allow_only("dimension", &[])?;
            let load = parse_f64(load, "load")?;
            let target = parse_f64(target, "target blocking")?;
            match dimension_link(load, target, 1_000_000) {
                Some(c) => {
                    println!("capacity {c} circuits (B = {:.6})", erlang_b(load, c));
                    Ok(())
                }
                None => Err("no capacity up to 1e6 meets the target".into()),
            }
        }
        ["protect", load, cap, h] => {
            flags.allow_only("protect", &[])?;
            let load = parse_f64(load, "load")?;
            let cap = parse_u32(cap, "capacity")?;
            let h = parse_u32(h, "H")?;
            let r = protection_level(load, cap, h);
            println!("r = {r}");
            if load > 0.0 {
                println!(
                    "theorem-1 bound B(L,C)/B(L,C-r) = {:.6} (target 1/H = {:.6})",
                    shadow_price_bound(load, cap, r),
                    1.0 / f64::from(h)
                );
            }
            Ok(())
        }
        ["simulate", config] => {
            flags.allow_only(
                "simulate",
                &[
                    "--metrics-json",
                    "--progress",
                    "--telemetry",
                    "--window",
                    "--policy",
                    "--workers",
                    "--d",
                    "--serve",
                ],
            )?;
            cmd_simulate(config, &flags)
        }
        ["metastability"] => {
            flags.allow_only(
                "metastability",
                &[
                    "--preset",
                    "--nodes",
                    "--d",
                    "--window",
                    "--metrics-json",
                    "--telemetry",
                    "--serve",
                ],
            )?;
            cmd_metastability(&flags)
        }
        ["largemesh"] => {
            flags.allow_only("largemesh", &["--preset", "--nodes", "--metrics-json"])?;
            cmd_largemesh(&flags)
        }
        ["feed"] => {
            flags.allow_only("feed", &["--preset"])?;
            cmd_feed(&flags)
        }
        ["controlled"] => {
            flags.allow_only("controlled", &["--preset", "--metrics-json", "--serve"])?;
            cmd_controlled(&flags)
        }
        ["adaptive", config] => {
            flags.allow_only(
                "adaptive",
                &[
                    "--metrics-json",
                    "--telemetry",
                    "--window",
                    "--workers",
                    "--serve",
                ],
            )?;
            cmd_adaptive(config, &flags)
        }
        ["multirate", config] => {
            flags.allow_only(
                "multirate",
                &["--metrics-json", "--telemetry", "--window", "--workers"],
            )?;
            cmd_multirate(config, &flags)
        }
        ["signaling", config] => {
            flags.allow_only(
                "signaling",
                &["--metrics-json", "--telemetry", "--window", "--hop-delay"],
            )?;
            cmd_signaling(config, &flags)
        }
        ["telemetry", dir] => {
            flags.allow_only("telemetry", &[])?;
            cmd_telemetry_report(dir)
        }
        ["replay", file] => {
            flags.allow_only("replay", &[])?;
            cmd_replay(file)
        }
        ["example-config"] => {
            flags.allow_only("example-config", &[])?;
            println!("{EXAMPLE_CONFIG}");
            Ok(())
        }
        ["conformance"] => {
            flags.allow_only("conformance", &["--bless"])?;
            cmd_conformance(flags.bless)
        }
        _ => Err(
            "usage: altroute_cli <erlang LOAD CAP | dimension LOAD TARGET | \
                  protect LOAD CAP H | \
                  simulate CONFIG.json [--metrics-json] [--progress] \
                  [--telemetry DIR] [--window W] [--policy NAME] \
                  [--workers N] [--serve ADDR] | \
                  adaptive CONFIG.json [--metrics-json] [--telemetry DIR] [--window W] \
                  [--workers N] [--serve ADDR] | \
                  multirate CONFIG.json [--metrics-json] [--telemetry DIR] [--window W] \
                  [--workers N] | \
                  signaling CONFIG.json [--metrics-json] [--telemetry DIR] [--window W] \
                  [--hop-delay D] | \
                  metastability [--preset smoke|paper] [--nodes N] [--d K] \
                  [--window W] [--metrics-json] [--telemetry DIR] [--serve ADDR] | \
                  largemesh [--preset smoke|full] [--nodes N] [--metrics-json] | \
                  feed [--preset ramp] | \
                  controlled [--preset smoke|paper] [--metrics-json] [--serve ADDR] | \
                  telemetry DIR | replay TRACE | example-config | conformance [--bless]>"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
