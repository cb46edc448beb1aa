//! `altroute_cli` — run teletraffic calculations and routing experiments
//! from the command line.
//!
//! `altroute_cli --help` lists every subcommand with the flags it
//! accepts. The grammar is `altroute_experiments::cli`: flags go
//! anywhere on the line (`--flag value` and `--flag=value` both work),
//! and an unknown flag, a flag the subcommand does not accept and a value
//! out of its domain are refused before anything runs.
//!
//! The config-driven engines (`simulate`, `adaptive`, `multirate`,
//! `signaling`) read the schema of `altroute_experiments::config` (see
//! `example-config`). `multirate` refuses `ott-krishnan`; `signaling`
//! refuses every policy but `single-path`, `uncontrolled` and
//! `controlled`, and timed `outages` (it models static failures only).
//! A telemetry directory gets, per policy or arm, `<name>.prom`,
//! `<name>_blocking.csv` and `<name>_links.csv`, plus a combined
//! `telemetry.json` that `telemetry DIR` renders as a report;
//! `metastability` adds each arm's `<arm>_modes.csv` switch log and, for
//! every arm whose flight recorder froze, a `<arm>_flight.trace` dump
//! that `replay` summarises. A served run answers `GET /metrics` (the
//! latest Prometheus exposition), `/healthz` and `/status` (a JSON
//! progress document) and announces its bound address on stderr.
//!
//! The tiers are library modules of `altroute_experiments`:
//! `metastability` (the four-arm hysteresis demonstration), `controlled`
//! (its closed-loop Eq.-15 counterpart, whose `static` arm is the
//! preset's `r0_saturated` arm), `largemesh` (an ISP-scale mesh under
//! rolling SRLG failures, deterministic per preset) and `feed` (an
//! arrival feed in the `altrouted` line protocol, byte-identical across
//! runs, to pipe into `altrouted --config <mesh config>`).

use altroute_core::policy::PolicyKind;
use altroute_experiments::cli::{self, check_window_count, Command, Flags, Invocation};
use altroute_experiments::config::{
    load_experiment, parse_modelled_policies, parse_policy, EXAMPLE_CONFIG,
};
use altroute_experiments::output::{
    blocking_summary_json, fmt_prob, metrics_document, telemetry_document,
};
use altroute_experiments::{
    controlled, metastability, render_feed, run_controlled, run_largemesh, run_metastability,
    ArmResult, FeedConfig, Heartbeat, LargeMeshConfig, MetastabilityConfig, Series, Table,
};
use altroute_json::{obj, Value};
use altroute_sim::adaptive::{replicate_adaptive, InitialLevels, ADAPTIVE_TUNING};
use altroute_sim::experiment::{ProgressObserver, SimParams};
use altroute_sim::multirate::{self, run_multirate, BandwidthClass};
use altroute_sim::signaling::{self, replicate_signaling, SignalingConfig};
use altroute_sim::trace::{decode_trace, TraceRecordKind};
use altroute_telemetry::{export, MetricsServer, Mode, RunTelemetry};
use altroute_teletraffic::erlang::{carried_traffic, dimension_link, erlang_b};
use altroute_teletraffic::reservation::{protection_level, shadow_price_bound};
use std::borrow::Borrow;
use std::path::Path;
use std::process::ExitCode;

/// Resolves `--window` against the run duration: the explicit value if
/// given (the parser has checked it), otherwise 40 windows across the
/// run.
fn resolve_window(flags: &Flags, params: &SimParams) -> Result<f64, String> {
    let end = params.warmup + params.horizon;
    match flags.window {
        Some(w) => check_window_count(w, end).map(|()| w),
        None => Ok(end / 40.0),
    }
}

/// One arm's additions to the standard telemetry files: text appended
/// to its `.prom`, and further `(file name, contents)` to write.
type ArmExtras = (String, Vec<(String, Vec<u8>)>);

/// Writes the telemetry exports under `dir`: for each `(name, snapshot)`
/// arm `<name>.prom`, `<name>_blocking.csv` and `<name>_links.csv`, plus
/// what `extras` gives for that arm (by index), then the combined
/// `telemetry.json`; reports the file count on stderr.
fn write_telemetry_files<T: Borrow<RunTelemetry>>(
    dir: &str,
    label: &str,
    snapshots: &[(String, T)],
    extras: impl Fn(usize) -> ArmExtras,
) -> Result<(), String> {
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut files = 0;
    let mut write = |file: String, contents: &[u8]| -> Result<(), String> {
        let p = dir.join(file);
        std::fs::write(&p, contents).map_err(|e| format!("writing {}: {e}", p.display()))?;
        files += 1;
        Ok(())
    };
    for (i, (name, t)) in snapshots.iter().enumerate() {
        let t = t.borrow();
        let (prom_tail, more) = extras(i);
        let prom = export::prometheus(t) + &prom_tail;
        write(format!("{name}.prom"), prom.as_bytes())?;
        write(
            format!("{name}_blocking.csv"),
            export::blocking_csv(t).as_bytes(),
        )?;
        write(
            format!("{name}_links.csv"),
            export::link_utilization_csv(t).as_bytes(),
        )?;
        for (file, contents) in more {
            write(file, &contents)?;
        }
    }
    let entries: Vec<(String, &RunTelemetry)> = snapshots
        .iter()
        .map(|(name, t)| (name.clone(), t.borrow()))
        .collect();
    let document = telemetry_document(label, &entries).to_string_pretty();
    write("telemetry.json".to_string(), document.as_bytes())?;
    eprintln!("telemetry: wrote {files} files under {}", dir.display());
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

/// Runs the four-arm hysteresis demonstration (`metastability`): the
/// same load from empty and saturated starts, with and without Eq.-15
/// reservation, classified by the hysteresis mode detector.
fn cmd_metastability(preset: &str, cfg: &MetastabilityConfig, flags: &Flags) -> Result<(), String> {
    let label = format!("metastability:{preset}");
    let server = flags.bind_server(&label)?;
    let report = run_metastability(cfg, server.as_ref());

    if let Some(dir) = &flags.telemetry {
        let snapshots: Vec<(String, &RunTelemetry)> = report
            .arms
            .iter()
            .map(|arm| (arm.name.to_string(), &arm.telemetry))
            .collect();
        write_telemetry_files(dir, &label, &snapshots, |i| {
            let arm = &report.arms[i];
            let modes = export::mode_switches_csv(&arm.modes).into_bytes();
            let mut files = vec![(format!("{}_modes.csv", arm.name), modes)];
            if let Some(f) = &arm.flight {
                let file = format!("{}_flight.trace", arm.name);
                eprintln!(
                    "flight recorder: {} froze on {} (seed {}) -> {}",
                    arm.name,
                    f.reason,
                    f.seed,
                    Path::new(dir).join(&file).display()
                );
                files.push((file, f.bytes.clone()));
            }
            (export::mode_prometheus(&arm.modes), files)
        })?;
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
            hysteresis_json(&label, cfg),
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

fn cmd_feed(cfg: &FeedConfig) -> Result<(), String> {
    let (text, stats) = render_feed(cfg);
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
fn cmd_controlled(preset: &str, cfg: &MetastabilityConfig, flags: &Flags) -> Result<(), String> {
    let server = flags.bind_server(&format!("controlled:{preset}"))?;
    let report = run_controlled(cfg, server.as_ref());
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
            hysteresis_json(&format!("controlled:{preset}"), cfg),
            obj! {
                "recompute_every" => controlled::tuning(cfg).recompute_every,
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

fn cmd_largemesh(preset: &str, cfg: &LargeMeshConfig, flags: &Flags) -> Result<(), String> {
    let report = run_largemesh(cfg);

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
    let (mut config, exp) = load_experiment(path)?;
    if let Some(policy) = &flags.policy {
        config.policies = vec![policy.clone()];
    }
    let params = config.params;
    let window = resolve_window(flags, &params)?;
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
        write_telemetry_files(dir, path, &snapshots, |_| ArmExtras::default())?;
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
    let (config, exp) = load_experiment(path)?;
    let params = &config.params;
    let window = resolve_window(flags, params)?;
    let plan = exp.plan_for(PolicyKind::ControlledAlternate {
        max_hops: config.max_hops,
    });
    let server = flags.bind_server(path)?;
    if let Some(server) = &server {
        let total = params.seeds as usize;
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
        params,
        exp.failures(),
        &ADAPTIVE_TUNING,
        InitialLevels::Zero,
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
            ("seeds".to_string(), Value::from(params.seeds)),
            (
                "update_interval".to_string(),
                Value::from(ADAPTIVE_TUNING.window),
            ),
            ("ewma_alpha".to_string(), Value::from(ADAPTIVE_TUNING.alpha)),
        ],
        &table,
        vec![policy_json],
    );
    if let Some(dir) = &flags.telemetry {
        write_telemetry_files(dir, path, &snapshots, |_| ArmExtras::default())?;
    }
    if let Some(server) = server {
        let done = per_seed.len();
        server.update_status(|s| s.replications_done = done);
        server.shutdown();
    }
    Ok(())
}

fn cmd_multirate(path: &str, flags: &Flags) -> Result<(), String> {
    let (config, exp) = load_experiment(path)?;
    let params = &config.params;
    let window = resolve_window(flags, params)?;
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
        let (r, telemetry) =
            run_multirate(&plan, &classes, policy, params, exp.failures(), &fanout);
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
        write_telemetry_files(dir, path, &snapshots, |_| ArmExtras::default())?;
    }
    Ok(())
}

fn cmd_signaling(path: &str, flags: &Flags) -> Result<(), String> {
    let (config, exp) = load_experiment(path)?;
    if !exp.failures().events().is_empty() {
        return Err("signaling models static link failures only: \
                    use 'failed_duplex' instead of 'outages'"
            .to_string());
    }
    let policies = parse_modelled_policies(&config, "signaling", signaling::models)?;
    let params = &config.params;
    let window = resolve_window(flags, params)?;
    let hop_delay = flags.hop_delay.unwrap_or(2e-4);
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
        let sig_config = SignalingConfig { hop_delay, policy };
        let fanout = flags.fanout(window, None);
        let (per_seed, summary, telemetry) = replicate_signaling(
            &plan,
            exp.traffic(),
            exp.failures(),
            &sig_config,
            params,
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
            ("seeds".to_string(), Value::from(params.seeds)),
            ("hop_delay".to_string(), Value::from(hop_delay)),
        ],
        &table,
        policy_docs,
    );
    if let Some(dir) = &flags.telemetry {
        write_telemetry_files(dir, path, &snapshots, |_| ArmExtras::default())?;
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

fn run(Invocation { command, flags }: Invocation) -> Result<(), String> {
    match command {
        Command::Erlang(load, capacity) => {
            println!("B({load}, {capacity})   = {:.6}", erlang_b(load, capacity));
            println!(
                "carried      = {:.3} Erlangs",
                carried_traffic(load, capacity)
            );
            println!(
                "lost         = {:.3} Erlangs",
                load - carried_traffic(load, capacity)
            );
            Ok(())
        }
        Command::Dimension(load, target) => match dimension_link(load, target, 1_000_000) {
            Some(c) => {
                println!("capacity {c} circuits (B = {:.6})", erlang_b(load, c));
                Ok(())
            }
            None => Err("no capacity up to 1e6 meets the target".into()),
        },
        Command::Protect(load, capacity, h) => {
            let r = protection_level(load, capacity, h);
            println!("r = {r}");
            if load > 0.0 {
                println!(
                    "theorem-1 bound B(L,C)/B(L,C-r) = {:.6} (target 1/H = {:.6})",
                    shadow_price_bound(load, capacity, r),
                    1.0 / f64::from(h)
                );
            }
            Ok(())
        }
        Command::Simulate(config) => cmd_simulate(&config, &flags),
        Command::Adaptive(config) => cmd_adaptive(&config, &flags),
        Command::Multirate(config) => cmd_multirate(&config, &flags),
        Command::Signaling(config) => cmd_signaling(&config, &flags),
        Command::Metastability(preset, cfg) => cmd_metastability(&preset, &cfg, &flags),
        Command::Controlled(preset, cfg) => cmd_controlled(&preset, &cfg, &flags),
        Command::Largemesh(preset, cfg) => cmd_largemesh(&preset, &cfg, &flags),
        Command::Feed(cfg) => cmd_feed(&cfg),
        Command::Telemetry(dir) => cmd_telemetry_report(&dir),
        Command::Replay(file) => cmd_replay(&file),
        Command::ExampleConfig => {
            println!("{EXAMPLE_CONFIG}");
            Ok(())
        }
        Command::Conformance => cmd_conformance(flags.bless),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = cli::parse(&args).and_then(|parsed| match parsed {
        Some(invocation) => run(invocation),
        None => {
            print!("{}", cli::usage());
            Ok(())
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
