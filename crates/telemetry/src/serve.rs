//! Std-only live metrics endpoint: a tiny HTTP/1.1 server over
//! [`std::net::TcpListener`].
//!
//! Long simulation campaigns are opaque from the outside: the CSV and
//! Prometheus files appear only when the run ends. This module serves a
//! point-in-time view while the run is live, with zero dependencies:
//!
//! * `GET /metrics` — the Prometheus text exposition last published via
//!   [`MetricsServer::publish_metrics`] (snapshots are rendered by the
//!   producer at window or replication boundaries, never per event).
//! * `GET /healthz` — liveness probe, always `ok`.
//! * `GET /status` — a small JSON document: run label, phase, current
//!   mode classification, event counts and rate, replication progress,
//!   and sim-time progress.
//!
//! The server owns one accept-loop thread; producers hand it preformatted
//! strings under a mutex, so the hot path never formats anything. The
//! [`LiveRecorder`] wrapper turns any [`RunTelemetry`] into a publishing
//! producer: it forwards every hook unchanged (the wrapped telemetry
//! stays byte-identical to an unwrapped run) and, at each completed
//! window, snapshots the telemetry for `/metrics`, re-classifies the
//! mode, and evaluates the anomaly [`FlightTrigger`](crate::flight).

use crate::export::prometheus;
use crate::flight::{FlightLatch, FlightTrigger};
use crate::mode::Mode;
use crate::recorder::{ArrivalOutcome, Recorder, RunTelemetry};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The live-run status served as JSON at `/status`.
#[derive(Debug, Clone)]
pub struct ServeStatus {
    /// Human label of the run (experiment and preset).
    pub label: String,
    /// Current phase (policy or arm under simulation).
    pub phase: String,
    /// Latest mode classification (`"low"` / `"high"`), when tracked.
    pub mode: Option<&'static str>,
    /// Kernel events processed so far in the current replication.
    pub events: u64,
    /// Events per wall-clock second, measured over the replication.
    pub events_per_second: f64,
    /// Sim time reached in the current replication.
    pub sim_time: f64,
    /// Sim time the current replication ends at.
    pub sim_end: f64,
    /// Replications completed across the whole run.
    pub replications_done: usize,
    /// Total replications the run will execute.
    pub replications_total: usize,
    /// Extra pre-rendered JSON members appended verbatim to the status
    /// document (no surrounding braces, e.g.
    /// `"updates":3,"levels":[0,2]`). The control-plane daemon publishes
    /// its controller state here without `serve` having to know its
    /// shape. The caller owns the rendering being valid JSON.
    pub extra: Option<String>,
}

impl ServeStatus {
    fn new(label: &str) -> Self {
        Self {
            label: label.to_string(),
            phase: String::new(),
            mode: None,
            events: 0,
            events_per_second: 0.0,
            sim_time: 0.0,
            sim_end: 0.0,
            replications_done: 0,
            replications_total: 0,
            extra: None,
        }
    }

    fn to_json(&self) -> String {
        let mode = match self.mode {
            Some(m) => format!("\"{m}\""),
            None => "null".to_string(),
        };
        let extra = match self.extra.as_deref() {
            Some(e) if !e.is_empty() => format!(",{e}"),
            _ => String::new(),
        };
        format!(
            concat!(
                "{{\"label\":\"{}\",\"phase\":\"{}\",\"mode\":{},",
                "\"events\":{},\"events_per_second\":{},",
                "\"sim_time\":{},\"sim_end\":{},",
                "\"replications_done\":{},\"replications_total\":{}{}}}\n"
            ),
            json_escape(&self.label),
            json_escape(&self.phase),
            mode,
            self.events,
            json_number(self.events_per_second),
            json_number(self.sim_time),
            json_number(self.sim_end),
            self.replications_done,
            self.replications_total,
            extra,
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Rust's `f64` Display is JSON-compatible except for non-finite values.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

struct State {
    metrics: String,
    status: ServeStatus,
}

struct Shared {
    stop: AtomicBool,
    state: Mutex<State>,
}

/// The background HTTP server. Dropping it (or calling
/// [`MetricsServer::shutdown`]) stops the accept loop and joins the
/// thread, so the CLI exits cleanly.
pub struct MetricsServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port)
    /// and starts serving. `label` seeds the `/status` document.
    pub fn bind(addr: &str, label: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            state: Mutex::new(State {
                metrics: String::new(),
                status: ServeStatus::new(label),
            }),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("altroute-metrics".to_string())
            .spawn(move || accept_loop(&listener, &worker))?;
        Ok(Self {
            shared,
            addr: local,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replaces the `/metrics` exposition with `text`.
    pub fn publish_metrics(&self, text: String) {
        self.lock_state().metrics = text;
    }

    /// Mutates the `/status` document in place.
    pub fn update_status(&self, f: impl FnOnce(&mut ServeStatus)) {
        f(&mut self.lock_state().status);
    }

    /// Stops accepting, closes the listener, and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        // Request handlers only read under the lock; a poisoned mutex
        // means a panicking reader, and the data is still sound.
        match self.shared.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shared.stop.store(true, Ordering::SeqCst);
            // Unblock the accept() call so the loop observes the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Longest request head (request line plus headers) the server reads;
/// a longer one is answered `431` and the connection closed.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Time one connection gets, in total, to send its request head and take
/// the response, so slow or hung clients cannot wedge the accept thread
/// (and with it `/metrics` and the run's shutdown).
const CONNECTION_DEADLINE: Duration = Duration::from_secs(2);

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(stream) = stream {
            let _ = handle_connection(stream, shared, Instant::now() + CONNECTION_DEADLINE);
        }
    }
}

/// Time left before `deadline`, or a `TimedOut` error once it has passed.
fn remaining(deadline: Instant) -> std::io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(std::io::ErrorKind::TimedOut.into());
    }
    Ok(left)
}

/// Reads the request head up to its blank line (or EOF) and returns the
/// request line, or `None` when the head exceeds [`MAX_HEAD_BYTES`].
fn read_request_line(stream: &mut TcpStream, deadline: Instant) -> std::io::Result<Option<String>> {
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let room = MAX_HEAD_BYTES - head.len();
        if room == 0 {
            return Ok(None);
        }
        stream.set_read_timeout(Some(remaining(deadline)?))?;
        let want = room.min(chunk.len());
        let n = stream.read(&mut chunk[..want])?;
        if n == 0 {
            break;
        }
        // A blank line ends the head; scan only where one could newly end.
        let from = head.len().saturating_sub(2);
        head.extend_from_slice(&chunk[..n]);
        let tail = &head[from..];
        if tail.windows(2).any(|w| w == b"\n\n") || tail.windows(3).any(|w| w == b"\n\r\n") {
            break;
        }
    }
    let line = head.split(|&b| b == b'\n').next().unwrap_or_default();
    Ok(Some(String::from_utf8_lossy(line).into_owned()))
}

fn handle_connection(
    mut stream: TcpStream,
    shared: &Arc<Shared>,
    deadline: Instant,
) -> std::io::Result<()> {
    // The routes take no request body, so the head is all we read.
    let (status, content_type, body) = match read_request_line(&mut stream, deadline)? {
        Some(request_line) => route(&request_line, shared),
        None => (
            "431 Request Header Fields Too Large",
            "text/plain",
            "request head too large\n".to_string(),
        ),
    };
    respond(&mut stream, deadline, status, content_type, &body)
}

/// The status line, content type and body answering `request_line`.
fn route(request_line: &str, shared: &Shared) -> (&'static str, &'static str, String) {
    let mut parts = request_line.split_whitespace();
    if parts.next() != Some("GET") {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        );
    }
    let state = match shared.state.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    match parts.next().unwrap_or("") {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            state.metrics.clone(),
        ),
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        "/status" => ("200 OK", "application/json", state.status.to_json()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    }
}

fn respond(
    stream: &mut TcpStream,
    deadline: Instant,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut rest = response.as_bytes();
    while !rest.is_empty() {
        stream.set_write_timeout(Some(remaining(deadline)?))?;
        match stream.write(rest)? {
            0 => return Err(std::io::ErrorKind::WriteZero.into()),
            n => rest = &rest[n..],
        }
    }
    stream.flush()
}

/// Live window machinery for one instrumented replication: wraps a
/// [`RunTelemetry`], forwards every hook unchanged, and at each completed
/// grid window (a) evaluates the [`FlightTrigger`] against the window's
/// network utilization, setting the attached [`FlightLatch`] when it
/// fires and the latch is still empty (the first trigger wins), and (b)
/// publishes a finished clone of the telemetry to the [`MetricsServer`]
/// plus a `/status` refresh.
///
/// The wrapped telemetry is untouched by the wrapper — a run recorded
/// through `LiveRecorder` is byte-identical to the same run recorded
/// directly — because window accounting is kept in parallel (a running
/// occupancy sum) rather than read back out of the partially-filled
/// series.
pub struct LiveRecorder<'a> {
    inner: &'a mut RunTelemetry,
    server: Option<&'a MetricsServer>,
    flight: Option<(&'a FlightLatch, &'a mut FlightTrigger)>,
    /// Next grid window to complete.
    window: usize,
    /// Time up to which `integral` has absorbed `occupied_sum`.
    last_t: f64,
    /// Current occupancy per link (integer-valued, exact in f64).
    occupied: Vec<f64>,
    occupied_sum: f64,
    total_capacity: f64,
    /// Occupancy time-integral accumulated within the current window.
    integral: f64,
    events: u64,
    started: Instant,
}

impl<'a> LiveRecorder<'a> {
    /// Wraps `inner`, publishing to `server` and/or feeding `flight`
    /// (latch + trigger) at window boundaries. Either may be absent.
    pub fn new(
        inner: &'a mut RunTelemetry,
        server: Option<&'a MetricsServer>,
        flight: Option<(&'a FlightLatch, &'a mut FlightTrigger)>,
    ) -> Self {
        let occupied = vec![0.0; inner.capacities.len()];
        let total_capacity = inner.capacities.iter().map(|&c| f64::from(c)).sum();
        Self {
            inner,
            server,
            flight,
            window: 0,
            last_t: 0.0,
            occupied,
            occupied_sum: 0.0,
            total_capacity,
            integral: 0.0,
            events: 0,
            started: Instant::now(),
        }
    }

    /// The latest mode classification, once one window has completed
    /// (requires a flight trigger).
    pub fn mode(&self) -> Option<Mode> {
        self.flight.as_ref().and_then(|(_, t)| t.mode())
    }

    /// Advances the window clock to `now`, completing every window that
    /// ended at or before it.
    fn roll(&mut self, now: f64) {
        let grid = self.inner.grid();
        while self.window < grid.num_windows() {
            let (start, end) = grid.window_range(self.window);
            if now < end {
                break;
            }
            self.integral += self.occupied_sum * (end - self.last_t).max(0.0);
            self.last_t = end;
            let len = grid.window_len(self.window);
            let utilization = if self.total_capacity > 0.0 && len > 0.0 {
                self.integral / (len * self.total_capacity)
            } else {
                0.0
            };
            self.complete_window(start, end, utilization);
            self.integral = 0.0;
            self.window += 1;
        }
        if now > self.last_t {
            self.integral += self.occupied_sum * (now - self.last_t);
            self.last_t = now;
        }
    }

    fn complete_window(&mut self, start: f64, end: f64, utilization: f64) {
        if let Some((latch, trigger)) = &mut self.flight {
            let fired = trigger.observe_window(start, utilization);
            if latch.get().is_none() {
                latch.set(fired);
            }
        }
        if let Some(server) = self.server {
            // The exporter requires finished telemetry; finishing a clone
            // leaves the live recorder untouched.
            let mut snapshot = self.inner.clone();
            snapshot.finish(snapshot.grid().end());
            server.publish_metrics(prometheus(&snapshot));
            let mode = self.mode().map(|m| match m {
                Mode::Low => "low",
                Mode::High => "high",
            });
            let events = self.events;
            let rate = events as f64 / self.started.elapsed().as_secs_f64().max(1e-9);
            server.update_status(|s| {
                s.sim_time = end;
                s.events = events;
                s.events_per_second = rate;
                s.mode = mode;
            });
        }
    }
}

impl Recorder for LiveRecorder<'_> {
    fn event(&mut self, now: f64, queue_len: usize) {
        self.roll(now);
        self.events += 1;
        self.inner.event(now, queue_len);
    }

    fn arrival(
        &mut self,
        now: f64,
        measured: bool,
        outcome: ArrivalOutcome,
        hops: u8,
        holding: f64,
    ) {
        self.roll(now);
        self.inner.arrival(now, measured, outcome, hops, holding);
    }

    fn departure(&mut self, now: f64, stale: bool) {
        self.roll(now);
        self.inner.departure(now, stale);
    }

    fn occupancy(&mut self, now: f64, link: u32, occupancy: u32) {
        self.roll(now);
        let v = f64::from(occupancy);
        self.occupied_sum += v - self.occupied[link as usize];
        self.occupied[link as usize] = v;
        self.inner.occupancy(now, link, occupancy);
    }

    fn link_state(&mut self, now: f64, link: u32, up: bool) {
        self.roll(now);
        self.inner.link_state(now, link, up);
    }

    fn teardown(&mut self, now: f64, measured: bool) {
        self.roll(now);
        self.inner.teardown(now, measured);
    }

    fn span(&mut self, name: &'static str, secs: f64) {
        self.inner.span(name, secs);
    }

    fn finish(&mut self, end: f64) {
        // Complete the remaining windows (the trigger must see the full
        // series) before closing the wrapped telemetry.
        self.roll(end);
        self.inner.finish(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::TriggerReason;
    use crate::mode::ModeThresholds;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        request(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    fn request(addr: SocketAddr, raw: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("header split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_health_and_status() {
        let server = MetricsServer::bind("127.0.0.1:0", "unit").expect("bind");
        server.publish_metrics("altroute_events_total 42\n".to_string());
        server.update_status(|s| {
            s.phase = "warmup".to_string();
            s.events = 42;
            s.replications_total = 3;
        });
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert_eq!(body, "altroute_events_total 42\n");

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/status");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"));
        assert!(body.contains("\"label\":\"unit\""), "{body}");
        assert!(body.contains("\"phase\":\"warmup\""), "{body}");
        assert!(body.contains("\"mode\":null"), "{body}");
        assert!(body.contains("\"events\":42"), "{body}");
        assert!(body.contains("\"replications_total\":3"), "{body}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, _) = request(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");

        server.shutdown();
    }

    #[test]
    fn oversized_request_head_is_cut_off() {
        let server = MetricsServer::bind("127.0.0.1:0", "unit").expect("bind");
        let addr = server.addr();
        // 1 MiB with no newline: the server stops reading at its cap,
        // answers 431 and closes, so either our write or our read sees
        // the connection end early, or the 431 arrives intact.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let sent = stream.write_all(&vec![b'a'; 1 << 20]);
        let mut response = Vec::new();
        let read = stream.read_to_end(&mut response);
        if sent.is_ok() && read.is_ok() {
            let response = String::from_utf8_lossy(&response);
            assert!(response.starts_with("HTTP/1.1 431"), "{response}");
        }
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");
        server.shutdown();
    }

    #[test]
    fn dripped_headers_hit_the_connection_deadline() {
        let server = MetricsServer::bind("127.0.0.1:0", "unit").expect("bind");
        let addr = server.addr();
        // One short header line every 50 ms never ends the head; each read
        // succeeds well inside any per-read timeout, so only the total
        // deadline closes the connection and frees the accept thread.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let started = Instant::now();
        let mut line: &[u8] = b"GET /metrics HTTP/1.1\r\n";
        while stream.write_all(line).is_ok() && started.elapsed() < 4 * CONNECTION_DEADLINE {
            line = b"X-Drip: 1\r\n";
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(
            started.elapsed() < 2 * CONNECTION_DEADLINE,
            "server kept a dripping client for {:?}",
            started.elapsed()
        );
        let (_, body) = get(addr, "/healthz");
        assert_eq!(body, "ok\n");
        server.shutdown();
    }

    #[test]
    fn published_metrics_replace_prior_ones() {
        let server = MetricsServer::bind("127.0.0.1:0", "unit").expect("bind");
        server.publish_metrics("a 1\n".to_string());
        server.publish_metrics("a 2\n".to_string());
        let (_, body) = get(server.addr(), "/metrics");
        assert_eq!(body, "a 2\n");
    }

    #[test]
    fn status_json_escapes_labels() {
        let s = ServeStatus::new("quo\"te\\path");
        let json = s.to_json();
        assert!(json.contains("quo\\\"te\\\\path"), "{json}");
    }

    #[test]
    fn status_extra_members_are_appended_verbatim() {
        let mut s = ServeStatus::new("ctl");
        assert!(!s.to_json().contains("updates"), "no extra by default");
        s.extra = Some("\"updates\":3,\"levels\":[0,2]".to_string());
        let json = s.to_json();
        assert!(json.contains(",\"updates\":3,\"levels\":[0,2]}"), "{json}");
        s.extra = Some(String::new());
        assert!(s.to_json().ends_with("\"replications_total\":0}\n"));
    }

    /// Drives the same feed through a bare RunTelemetry and a
    /// LiveRecorder-wrapped one; the wrapped result must be identical and
    /// the live window accounting must fire the trigger exactly where the
    /// offline detector places the switch.
    #[test]
    fn live_recorder_is_transparent_and_triggers_on_mode_switch() {
        fn feed<R: Recorder>(r: &mut R) {
            // Capacity 10 on one link, unit windows over [0, 4). Occupancy
            // 9 over [0.5, 2.5) puts windows 1 and 2 above 0.8; back to 0
            // afterwards drops window 3 below 0.5.
            r.event(0.5, 1);
            r.arrival(0.5, true, ArrivalOutcome::Primary, 1, 2.0);
            r.occupancy(0.5, 0, 9);
            r.event(2.5, 1);
            r.arrival(2.5, true, ArrivalOutcome::Blocked, 0, 1.0);
            r.occupancy(2.5, 0, 0);
            r.event(3.5, 0);
            r.departure(3.5, false);
            r.finish(4.0);
        }

        let mut bare = RunTelemetry::new(0.0, 4.0, 1.0, vec![10]);
        feed(&mut bare);

        let latch = FlightLatch::default();
        let mut trigger = FlightTrigger::new(ModeThresholds::new(0.8, 0.5));
        let mut wrapped = RunTelemetry::new(0.0, 4.0, 1.0, vec![10]);
        {
            let mut live = LiveRecorder::new(&mut wrapped, None, Some((&latch, &mut trigger)));
            feed(&mut live);
            assert_eq!(live.mode(), Some(Mode::Low), "switched back by window 3");
        }
        assert_eq!(bare, wrapped, "wrapper must not perturb telemetry");

        // Offline detector on the finished series agrees with the live
        // trigger: High enters at window 1 (start 1.0). The switch back
        // to Low at window 3 fired too, but the latch keeps the first.
        let report = wrapped.mode_report(ModeThresholds::new(0.8, 0.5));
        assert_eq!(report.switches.len(), 2);
        assert_eq!(report.switches[0].at, 1.0);
        assert_eq!(
            latch.get(),
            Some(TriggerReason::ModeSwitch {
                at: 1.0,
                to: Mode::High
            })
        );
    }

    /// A latch set before the run (an earlier replication's trigger)
    /// survives every later fire: the first reason wins.
    #[test]
    fn live_recorder_keeps_the_first_reason_in_a_set_latch() {
        let first = TriggerReason::ModeSwitch {
            at: 0.0,
            to: Mode::Low,
        };
        let latch = FlightLatch::new(Some(first));
        let mut trigger = FlightTrigger::new(ModeThresholds::new(0.8, 0.5));
        let mut t = RunTelemetry::new(0.0, 3.0, 1.0, vec![10]);
        let mut live = LiveRecorder::new(&mut t, None, Some((&latch, &mut trigger)));
        live.occupancy(1.0, 0, 9);
        live.finish(3.0);
        assert_eq!(live.mode(), Some(Mode::High), "the trigger fired");
        assert_eq!(latch.get(), Some(first));
    }

    #[test]
    fn live_recorder_publishes_finished_snapshots_per_window() {
        let server = MetricsServer::bind("127.0.0.1:0", "unit").expect("bind");
        let mut t = RunTelemetry::new(0.0, 2.0, 1.0, vec![5]);
        {
            let mut live = LiveRecorder::new(&mut t, Some(&server), None);
            live.event(0.5, 1);
            live.arrival(0.5, true, ArrivalOutcome::Primary, 1, 1.0);
            live.occupancy(0.5, 0, 1);
            // Crossing into window 1 publishes window 0's snapshot.
            live.event(1.5, 0);
            live.departure(1.5, false);
            let (_, body) = get(server.addr(), "/metrics");
            assert!(
                body.contains("altroute_calls_offered_total 1"),
                "mid-run snapshot carries the totals so far:\n{body}"
            );
            let (_, status) = get(server.addr(), "/status");
            assert!(status.contains("\"sim_time\":1"), "{status}");
            live.finish(2.0);
        }
        let (_, body) = get(server.addr(), "/metrics");
        assert!(body.contains("altroute_events_total 2"), "{body}");
        server.shutdown();
    }
}
