//! Feed ingest: the `altrouted` control plane replaying a drifting-load
//! arrival feed.
//!
//! The feed is rendered in memory from `--seed` by
//! `experiments::feed::render_feed` on `K_N` and replayed, closed loop,
//! through `altrouted::service::run_feed` into an in-memory writer: the
//! next line is read only when the previous one is done. One work unit
//! is one replay into a fresh controller on each worker thread at once;
//! keeping every core busy makes a replay's time independent of which
//! core the scheduler puts it on. No kernel layer runs; this is the
//! workload for `telemetry::feed`, `altrouted::control`, and the Eq.-15
//! re-solve.

use crate::layers::{ns_since, reach, Sampled, Trace, SAMPLE_EVERY};
use crate::{Unit, Workload};
use altroute_experiments::{render_feed, FeedConfig, FeedSegment};
use altroute_telemetry::feed::{parse_line, FeedLine};
use altroute_teletraffic::estimate::protection_levels_for;
use altrouted::config::{mesh_plane, DaemonConfig};
use altrouted::control::{Controller, ControllerTuning};
use altrouted::service::{render_update, run_feed};
use std::cell::Cell;
use std::hint::black_box;
use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const RAMP_FEED: &str = include_str!("../../crates/altrouted/tests/fixtures/ramp.feed");
const RAMP_LEVELS: &str = include_str!("../../crates/altrouted/tests/fixtures/ramp.levels");
const RAMP_CONFIG: &str = include_str!("../../crates/altrouted/tests/fixtures/ramp-config.json");

/// A feed workload: the rendered feed and what replaying it must give.
pub struct Feed {
    cfg: FeedConfig,
    max_hops: u32,
    tuning: ControllerTuning,
    /// Replays run at once, one per worker thread.
    workers: usize,
    text: String,
    /// Lines of `text`.
    lines: u64,
    expected: Expected,
    /// Fixture lines checked, and those that did not reproduce.
    fixture: (u64, u64),
    /// Whether a unit has counted the fixture check yet.
    fixture_counted: AtomicBool,
}

/// The replay's expected output, from pushing the parsed events through
/// a second controller.
struct Expected {
    /// The `levels` stream.
    levels: Vec<u8>,
    /// 1-based numbers of the lines whose push emitted an update.
    update_lines: Vec<u64>,
    /// 1-based numbers of the lines whose push closed a window.
    closing_lines: Vec<u64>,
}

/// A controller ready for the next replay.
pub struct FeedState {
    pristine: Controller,
}

/// Hands the feed to `run_feed` one line per `fill_buf`, stamping the
/// moment it hands out a line that will produce a `levels` line.
struct LineReader<'a> {
    text: &'a [u8],
    pos: usize,
    line_end: usize,
    line_no: u64,
    marks: &'a [u64],
    stamp: &'a Cell<Option<Instant>>,
}

impl Read for LineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LineReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.line_end && self.pos < self.text.len() {
            self.line_end = self.text[self.pos..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(self.text.len(), |i| self.pos + i + 1);
            self.line_no += 1;
            if self.marks.first() == Some(&self.line_no) {
                self.marks = &self.marks[1..];
                self.stamp.set(Some(Instant::now()));
            }
        }
        Ok(&self.text[self.pos..self.line_end])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// Collects the update stream and, per `levels` line, the time since the
/// line that produced it was handed out.
struct LagWriter<'a> {
    stamp: &'a Cell<Option<Instant>>,
    lags: Vec<f64>,
    out: Vec<u8>,
}

impl Write for LagWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.starts_with(b"levels ") {
            if let Some(t) = self.stamp.get() {
                self.lags.push(t.elapsed().as_secs_f64());
            }
        }
        self.out.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Lines of `got` that differ from `want`, counting missing and extra
/// lines.
fn differing_lines(got: &[u8], want: &[u8]) -> u64 {
    let (g, w): (Vec<&[u8]>, Vec<&[u8]>) = (
        got.split(|&b| b == b'\n').collect(),
        want.split(|&b| b == b'\n').collect(),
    );
    let common = g.iter().zip(&w).filter(|(a, b)| a != b).count();
    (common + g.len().abs_diff(w.len())) as u64
}

/// Pushes every parsed event of `text` through `controller`, rendering
/// updates as the daemon does.
fn expected(text: &str, mut controller: Controller) -> Expected {
    let (mut levels, mut pending) = (Vec::new(), Vec::new());
    let (mut update_lines, mut closing_lines) = (Vec::new(), Vec::new());
    for (no, line) in (1u64..).zip(text.lines()) {
        if let Ok(FeedLine::Event(ev)) = parse_line(line) {
            let windows = controller.windows();
            // Rejected records leave the controller untouched, as in the
            // daemon's skip-and-count policy.
            let _ = controller.push(ev, &mut pending);
            if controller.windows() > windows {
                closing_lines.push(no);
            }
            if !pending.is_empty() {
                update_lines.push(no);
            }
            for u in pending.drain(..) {
                levels.extend_from_slice(render_update(&u).as_bytes());
            }
        }
    }
    Expected {
        levels,
        update_lines,
        closing_lines,
    }
}

/// Replays the `ramp` fixture feed through `run_feed`; returns (lines
/// checked, lines that did not reproduce `ramp.levels`).
fn check_fixture() -> (u64, u64) {
    let config = ramp_config();
    let mut controller = config.controller();
    let mut out = Vec::new();
    let summary = run_feed(&mut controller, RAMP_FEED.as_bytes(), &mut out, None);
    let want: String = RAMP_LEVELS
        .lines()
        .filter(|l| l.starts_with("levels "))
        .map(|l| format!("{l}\n"))
        .collect();
    let lines = RAMP_FEED.lines().count() as u64;
    match summary {
        Ok(s) => {
            let done = format!(
                "done lines={} arrivals={} parse_errors={} rejected={} windows={} solves={} updates={} ended={}",
                s.lines,
                controller.arrivals(),
                s.parse_errors,
                s.rejected,
                controller.windows(),
                controller.solves(),
                s.updates,
                s.ended
            );
            let done_ok = RAMP_LEVELS.lines().any(|l| l == done);
            (
                lines,
                differing_lines(&out, want.as_bytes()) + u64::from(!done_ok),
            )
        }
        Err(_) => (lines, lines),
    }
}

fn ramp_config() -> DaemonConfig {
    let value = altroute_json::parse(RAMP_CONFIG).expect("the fixture config is valid JSON");
    DaemonConfig::from_json(&value).expect("the fixture config is a valid daemon config")
}

impl Feed {
    /// `K_32`, C = 24, H = 2: per-pair load drifting 4 → 16 → 8 Erlangs
    /// in 28 one-unit steps (about 300k arrival lines, one estimator
    /// window per step), replayed on `workers` threads at once. Short
    /// segments keep the recording's scratch buffers small, so the memory
    /// left behind by input generation is nearly the same for every seed.
    pub fn drift(seed: u64, workers: usize) -> Self {
        let loads = (0..28).map(|i| {
            let i = f64::from(i);
            if i < 14.0 {
                4.0 + 12.0 * i / 13.0
            } else {
                16.0 - 8.0 * (i - 14.0) / 13.0
            }
        });
        Self::new(32, 24, loads, seed, workers)
    }

    /// A small `K_8` feed, for probing the feed layers from workloads
    /// that do not reach them.
    pub fn probe(seed: u64, workers: usize) -> Self {
        Self::new(8, 24, (6..=12).map(f64::from), seed, workers)
    }

    fn new(
        nodes: usize,
        capacity: u32,
        loads: impl Iterator<Item = f64>,
        seed: u64,
        workers: usize,
    ) -> Self {
        let cfg = FeedConfig {
            nodes,
            capacity,
            segments: loads
                .map(|load_per_pair| FeedSegment {
                    load_per_pair,
                    horizon: 1.0,
                })
                .collect(),
            base_seed: seed,
        };
        let max_hops = 2;
        let tuning = ControllerTuning {
            alpha: 0.5,
            ..ControllerTuning::default()
        };
        let (text, _) = render_feed(&cfg);
        let expected = expected(
            &text,
            Controller::new(mesh_plane(nodes, capacity, max_hops), tuning),
        );
        Self {
            cfg,
            max_hops,
            tuning,
            workers,
            lines: text.lines().count() as u64,
            text,
            expected,
            fixture: check_fixture(),
            fixture_counted: AtomicBool::new(false),
        }
    }

    /// Runs `job` once on each of the workers, concurrently.
    fn on_workers<T: Send>(&self, job: impl Fn() -> T + Sync) -> Vec<T> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers).map(|_| scope.spawn(&job)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a replay thread panicked"))
                .collect()
        })
    }

    /// One closed-loop replay through `run_feed` into a fresh controller.
    fn replay(&self, pristine: &Controller) -> Unit {
        let mut controller = pristine.clone();
        let stamp = Cell::new(None);
        let reader = LineReader {
            text: self.text.as_bytes(),
            pos: 0,
            line_end: 0,
            line_no: 0,
            marks: &self.expected.update_lines,
            stamp: &stamp,
        };
        let mut writer = LagWriter {
            stamp: &stamp,
            lags: Vec::with_capacity(self.expected.update_lines.len()),
            out: Vec::with_capacity(self.expected.levels.len()),
        };
        let started = Instant::now();
        let summary = run_feed(&mut controller, reader, &mut writer, None);
        let wall_s = started.elapsed().as_secs_f64();
        let (attempted, failed) = match summary {
            Ok(s) => (
                s.lines,
                s.parse_errors
                    + s.rejected
                    + u64::from(!s.ended)
                    + differing_lines(&writer.out, &self.expected.levels),
            ),
            Err(_) => (self.lines, self.lines),
        };
        Unit {
            wall_s,
            events: self.lines,
            ops: writer.lags,
            attempted,
            failed,
        }
    }

    /// One replay through the benchmark's own copy of `run_feed`'s loop,
    /// with every layer call counted and sampled calls timed.
    fn traced_replay(&self, pristine: &Controller) -> ReplayTrace {
        let mut controller = pristine.clone();
        let (mut out, mut pending) = (Vec::new(), Vec::new());
        let mut closing = self.expected.closing_lines.as_slice();
        let mut updates = self.expected.update_lines.as_slice();
        let mut layers = FeedLayers::default();
        let (mut errors, mut lines) = (0u64, 0u64);
        let mut ops = Vec::new();
        // Lines arrive through the same reader and `lines()` loop as in
        // `run_feed`, so the traced and untraced units do the same I/O.
        let stamp = Cell::new(None);
        let reader = LineReader {
            text: self.text.as_bytes(),
            pos: 0,
            line_end: 0,
            line_no: 0,
            marks: &[],
            stamp: &stamp,
        };
        let started = Instant::now();
        for line in reader.lines() {
            let Ok(line) = line else {
                errors += 1;
                break;
            };
            let line = line.as_str();
            lines += 1;
            let line_start = (updates.first() == Some(&lines)).then(|| {
                updates = &updates[1..];
                Instant::now()
            });
            let sample = lines.is_multiple_of(SAMPLE_EVERY);
            layers.parse.calls += 1;
            let parsed = if sample {
                let t = Instant::now();
                let p = parse_line(line);
                layers.parse.ns += ns_since(t);
                layers.parse.timed += 1;
                p
            } else {
                parse_line(line)
            };
            match parsed {
                Ok(FeedLine::Event(ev)) => {
                    let closes = closing.first() == Some(&lines);
                    let layer = if closes {
                        closing = &closing[1..];
                        &mut layers.window_push
                    } else {
                        &mut layers.push
                    };
                    layer.calls += 1;
                    let pushed = if closes || sample {
                        let t = Instant::now();
                        let r = controller.push(ev, &mut pending);
                        layer.ns += ns_since(t);
                        layer.timed += 1;
                        r
                    } else {
                        controller.push(ev, &mut pending)
                    };
                    errors += u64::from(pushed.is_err());
                    for u in pending.drain(..) {
                        let t = Instant::now();
                        let text = render_update(&u);
                        layers.render.ns += ns_since(t);
                        layers.render.timed += 1;
                        layers.render.calls += 1;
                        out.extend_from_slice(text.as_bytes());
                    }
                    if let Some(t) = line_start {
                        ops.push(t.elapsed().as_secs_f64());
                    }
                    if controller.done() {
                        break;
                    }
                }
                Ok(_) => {}
                Err(_) => errors += 1,
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        layers.solves = controller.solves();
        layers.updates = controller.updates();
        ReplayTrace {
            unit: Unit {
                wall_s,
                events: lines,
                ops,
                attempted: lines,
                failed: errors + differing_lines(&out, &self.expected.levels),
            },
            layers,
            started,
        }
    }
}

/// Per-layer counts of one traced replay.
#[derive(Debug, Default)]
struct FeedLayers {
    parse: Sampled,
    push: Sampled,
    window_push: Sampled,
    render: Sampled,
    solves: u64,
    updates: u64,
}

/// A traced replay: its unit, its layer counts, and when it started.
struct ReplayTrace {
    unit: Unit,
    layers: FeedLayers,
    started: Instant,
}

/// Folds concurrent replays into one unit: the mean replay wall and one
/// replay's lines, so events per unit wall is the rate of one stream;
/// every lag and every check.
fn merge(replays: Vec<Unit>) -> Unit {
    Unit {
        wall_s: replays.iter().map(|r| r.wall_s).sum::<f64>() / replays.len() as f64,
        events: replays.iter().map(|r| r.events).max().unwrap_or(0),
        ops: replays.iter().flat_map(|r| r.ops.iter().copied()).collect(),
        attempted: replays.iter().map(|r| r.attempted).sum(),
        failed: replays.iter().map(|r| r.failed).sum(),
    }
}

impl Workload for Feed {
    type State = FeedState;
    const REACH: u8 = reach::FEED | reach::EQ15;

    fn setup(&self) -> FeedState {
        let plane = mesh_plane(self.cfg.nodes, self.cfg.capacity, self.max_hops);
        FeedState {
            pristine: Controller::new(plane, self.tuning),
        }
    }

    fn run(&self, state: &mut FeedState) -> Unit {
        let pristine = &state.pristine;
        let mut unit = merge(self.on_workers(|| self.replay(pristine)));
        if !self.fixture_counted.swap(true, Ordering::Relaxed) {
            unit.attempted += self.fixture.0;
            unit.failed += self.fixture.1;
        }
        unit
    }

    fn trace_setup(&self, trace: &mut Trace) {
        let caps = mesh_plane(self.cfg.nodes, self.cfg.capacity, self.max_hops).capacities;
        let (mut solves, t) = (0u64, Instant::now());
        while solves < 20 || t.elapsed().as_secs_f64() < 0.02 {
            for seg in &self.cfg.segments {
                let loads = vec![seg.load_per_pair; caps.len()];
                black_box(protection_levels_for(&loads, &caps, self.max_hops));
                solves += 1;
            }
        }
        trace.eq15_us.push(ns_since(t) as f64 / solves as f64 / 1e3);
    }

    fn traced(&self, state: &mut FeedState, trace: &mut Trace) -> Unit {
        let pristine = &state.pristine;
        let replays = self.on_workers(|| self.traced_replay(pristine));
        let mut units = Vec::with_capacity(replays.len());
        for ReplayTrace {
            unit,
            layers,
            started,
        } in replays
        {
            trace.span(
                "replay",
                format!("lines={}", unit.events),
                None,
                started,
                (unit.wall_s * 1e9) as u64,
                vec![
                    ("feed.parse.calls", layers.parse.calls),
                    ("feed.parse.sampled_ns", layers.parse.ns),
                    ("control.push.calls", layers.push.calls),
                    ("control.push.sampled_ns", layers.push.ns),
                    ("control.window_push.calls", layers.window_push.calls),
                    ("control.window_push.ns", layers.window_push.ns),
                    ("service.render.calls", layers.render.calls),
                    ("service.render.ns", layers.render.ns),
                ],
            );
            for (total, part) in [
                (&mut trace.parse, layers.parse),
                (&mut trace.push, layers.push),
                (&mut trace.window_push, layers.window_push),
                (&mut trace.render, layers.render),
            ] {
                total.calls += part.calls;
                total.timed += part.timed;
                total.ns += part.ns;
            }
            trace.solves += layers.solves;
            trace.updates += layers.updates;
            units.push(unit);
        }
        merge(units)
    }
}
