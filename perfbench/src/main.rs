//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload with at most `nproc` threads, generating
//! every input from `--seed`. With `--trace 0` it measures the end-to-end
//! metrics with tracing off; with `--trace 1` it alternates untraced and
//! traced work units and reports the per-layer metrics. Either way it
//! checks the outputs, prints a human-readable report, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` beside this crate for the workloads and the metric map.

mod churn;
mod feed;
mod fig;
mod layers;
mod stats;

use layers::{reach, Trace};
use std::fmt::Write as _;
use std::time::Instant;

/// What one work unit reports, traced or not.
#[derive(Debug)]
pub struct Unit {
    /// Wall time, set-up excluded.
    pub wall_s: f64,
    /// Kernel events processed, or feed lines read.
    pub events: u64,
    /// Per-operation latencies in seconds: a replication, a churn round,
    /// or a window-closing feed line until its `levels` line.
    pub ops: Vec<f64>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// What set-up builds and every work unit reuses.
    type State;
    /// Layer groups the workload reaches on its own (`layers::reach`).
    const REACH: u8;
    /// Everything needed before the first event or feed line. Called
    /// again before every untraced unit; outputs a unit must reproduce
    /// are remembered by the workload, not the state.
    fn setup(&self) -> Self::State;
    /// One work unit with tracing off.
    fn run(&self, state: &mut Self::State) -> Unit;
    /// Times the set-up layers on set-ups of its own: plan build, store
    /// fill and lookups, and the Eq.-15 solve on the workload's loads.
    fn trace_setup(&self, trace: &mut Trace);
    /// The preceding [`Workload::run`]'s unit again, with every layer
    /// boundary timed; counts as failed whatever does not reproduce that
    /// run's outputs.
    fn traced(&self, state: &mut Self::State, trace: &mut Trace) -> Unit;
}

const WORKLOADS: [&str; 4] = [
    "fig3_quadrangle",
    "fig6_nsfnet",
    "largemesh_churn",
    "feed_ingest",
];

/// The per-layer metrics a traced run must report, in report order.
const PER_LAYER: [&str; 26] = [
    "calendar.hold_ns",
    "heap.hold_ns",
    "queue.peak_len",
    "select.calls",
    "select.self_ns",
    "select.alternate_share",
    "select.blocked_share",
    "admission.probes_per_call",
    "admission.accept_share",
    "kernel.self_ns_per_event",
    "kernel.teardowns",
    "kernel.stale_departure_share",
    "plan.build_s",
    "pathstore.fill_s",
    "pathstore.lookup_ns",
    "pathstore.invalidate_s",
    "pathstore.refill_s",
    "pathstore.evicted_pairs",
    "eq15.solve_us",
    "feed.parse_ns",
    "control.push_ns",
    "control.window_push_us",
    "control.update_share",
    "service.render_ns",
    "pool.busy_share",
    "trace.overhead_share",
];

/// Fewest work units a run measures, however long they take.
const MIN_UNITS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <fig3_quadrangle|fig6_nsfnet|largemesh_churn|feed_ingest> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A measured metric: name, value, unit, and a note for the report.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

/// What a run produced.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workers = stats::workers();
    println!("machine {}", stats::machine_json());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let outcome = match args.workload.as_str() {
        "fig3_quadrangle" => bench(&fig::Fig::quadrangle(seed, workers), seed, seconds, trace),
        "fig6_nsfnet" => bench(&fig::Fig::nsfnet(seed, workers), seed, seconds, trace),
        "largemesh_churn" => bench(&churn::Churn::full(seed), seed, seconds, trace),
        "feed_ingest" => bench(&feed::Feed::drift(seed, workers), seed, seconds, trace),
        _ => unreachable!("workload names are validated"),
    };
    report(&outcome, trace);
}

fn bench<W: Workload>(w: &W, seed: u64, seconds: f64, trace: bool) -> Outcome {
    if trace {
        traced_run(w, seed, seconds)
    } else {
        untraced_run(w, seconds)
    }
}

/// The end-to-end run: a fresh set-up before every work unit, until
/// `seconds` have passed. Spreading the set-ups over the run, like the
/// units, samples the same mix of host conditions for both.
fn untraced_run<W: Workload>(w: &W, seconds: f64) -> Outcome {
    let mut setups = Vec::new();
    let mut units = Vec::new();
    let mut state = None;
    let started = Instant::now();
    while units.len() < MIN_UNITS || started.elapsed().as_secs_f64() < seconds {
        // Drop the previous state first, so peak memory holds one.
        drop(state.take());
        let t = Instant::now();
        let state = state.insert(w.setup());
        setups.push(t.elapsed().as_secs_f64());
        units.push(w.run(state));
    }
    let rss = stats::peak_rss_mb().unwrap_or(f64::NAN);
    let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    let total_wall: f64 = walls.iter().sum();
    let events: u64 = units.iter().map(|u| u.events).sum();
    let ops: Vec<f64> = units.iter().flat_map(|u| u.ops.iter().copied()).collect();
    let (attempted, failed) = tally(&units);
    let spread = |what: &str, v: &[f64]| {
        format!(
            "{what} of {}, unit quartiles {:.6}..{:.6}",
            v.len(),
            stats::quantile(v, 0.25),
            stats::quantile(v, 0.75)
        )
    };
    let metric = |name, value, unit, note: String| Metric {
        name,
        value,
        unit,
        note,
    };
    Outcome {
        metrics: vec![
            // Means over the run: host contention comes and goes within
            // seconds, and a mean integrates over it where a median jumps
            // between its modes.
            metric(
                "wall_s",
                total_wall / walls.len() as f64,
                "s",
                spread("mean", &walls),
            ),
            metric(
                "events_per_s",
                events as f64 / total_wall,
                "events/s",
                format!("{events} events in {total_wall:.3} s"),
            ),
            metric(
                "setup_s",
                setups.iter().sum::<f64>() / setups.len() as f64,
                "s",
                spread("mean", &setups),
            ),
            metric("peak_rss_mb", rss, "MB", "VmHWM at exit".into()),
            metric(
                "latency_p50_us",
                stats::quantile(&ops, 0.5) * 1e6,
                "us",
                format!("{} operations", ops.len()),
            ),
            metric(
                "latency_p90_us",
                stats::quantile(&ops, 0.9) * 1e6,
                "us",
                format!("{} beyond p90", ops.len() / 10),
            ),
        ],
        attempted,
        failed,
    }
}

fn tally(units: &[Unit]) -> (u64, u64) {
    (
        units.iter().map(|u| u.attempted).sum(),
        units.iter().map(|u| u.failed).sum(),
    )
}

/// The traced run: untraced and traced units alternate until `seconds`
/// have passed, then small probes of the other workloads measure the
/// layer groups this one never reaches.
fn traced_run<W: Workload>(w: &W, seed: u64, seconds: f64) -> Outcome {
    let (trace, mut attempted, mut failed) = trace_workload(w, seconds, 0);
    let mut metrics: Vec<Metric> = trace
        .metrics(W::REACH)
        .into_iter()
        .map(|(name, value, unit)| Metric {
            name,
            value,
            unit,
            note: "this workload".into(),
        })
        .collect();
    let mut missing = reach::ALL & !W::REACH;
    let probe_seconds = (seconds / 10.0).min(1.0);
    let workers = stats::workers();
    let mut probe = |probe_trace: (Trace, u64, u64), groups: u8, label: &str| {
        let (t, a, f) = probe_trace;
        attempted += a;
        failed += f;
        for (name, value, unit) in t.metrics(groups) {
            metrics.push(Metric {
                name,
                value,
                unit,
                note: format!("probe: {label}"),
            });
        }
    };
    let fig_groups = missing & <fig::Fig as Workload>::REACH;
    if fig_groups != 0 {
        let t = trace_workload(&fig::Fig::probe(seed, workers), probe_seconds, 1);
        probe(t, fig_groups, "small fig3_quadrangle");
        missing &= !fig_groups;
    }
    if missing & reach::CHURN != 0 {
        let t = trace_workload(&churn::Churn::probe(seed), probe_seconds, 1);
        probe(t, reach::CHURN, "small largemesh_churn");
        missing &= !reach::CHURN;
    }
    if missing & reach::FEED != 0 {
        let t = trace_workload(&feed::Feed::probe(seed, workers), probe_seconds, 1);
        probe(t, reach::FEED, "small feed_ingest");
        missing &= !reach::FEED;
    }
    assert_eq!(missing, 0, "every layer group is measured");
    metrics.push(Metric {
        name: "trace.overhead_share",
        value: stats::median(&trace.overhead),
        unit: "ratio",
        note: format!("median of {} unit pairs", trace.overhead.len()),
    });
    println!("trace {}", trace.spans_json());
    metrics.sort_by_key(|m| PER_LAYER.iter().position(|&n| n == m.name));
    Outcome {
        metrics,
        attempted,
        failed,
    }
}

/// Set-up layers, then untraced/traced unit pairs for at least
/// `seconds` (and at least `min_pairs.max(1)` pairs).
fn trace_workload<W: Workload>(w: &W, seconds: f64, min_pairs: usize) -> (Trace, u64, u64) {
    let mut trace = Trace::new(W::REACH);
    let started = Instant::now();
    w.trace_setup(&mut trace);
    let mut state = w.setup();
    let (mut attempted, mut failed) = (0, 0);
    while trace.units < min_pairs.max(1) as u64 || started.elapsed().as_secs_f64() < seconds {
        let plain = w.run(&mut state);
        let traced = w.traced(&mut state, &mut trace);
        trace.units += 1;
        trace.overhead.push(traced.wall_s / plain.wall_s - 1.0);
        attempted += plain.attempted + traced.attempted;
        failed += plain.failed + traced.failed;
    }
    (trace, attempted, failed)
}

/// Prints the human-readable report and the final JSON line.
fn report(outcome: &Outcome, trace: bool) {
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    for m in &outcome.metrics {
        println!("metric {} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    println!(
        "metric failed_share = {failed_share} ratio ({} of {} operations)",
        outcome.failed, outcome.attempted
    );
    let expected: Vec<&str> = if trace {
        PER_LAYER.to_vec()
    } else {
        vec![
            "wall_s",
            "events_per_s",
            "setup_s",
            "peak_rss_mb",
            "latency_p50_us",
            "latency_p90_us",
        ]
    };
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, expected, "the run reports exactly its metric set");
    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}
