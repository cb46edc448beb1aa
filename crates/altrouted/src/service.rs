//! The daemon's I/O shell around the pure [`Controller`].
//!
//! [`run_feed`] drives one feed stream (stdin or one TCP connection)
//! through the controller: it enforces the stream-level protocol rules
//! (header first, matching node count), applies the *skip-and-count*
//! policy to malformed or rejected lines (a resident daemon must not
//! die because a producer hiccuped), renders every emitted
//! [`LevelsUpdate`] as one deterministic `levels ...` line on the
//! update stream, and — when a [`MetricsServer`] is attached — publishes
//! controller state to `/status` and Prometheus counters to `/metrics`.
//!
//! The update stream is the service analogue of a golden trace: for a
//! recorded feed it is byte-reproducible, so CI replays a fixture feed
//! twice and `cmp`s the outputs.

use crate::control::{push_levels, Controller, LevelsUpdate};
use altroute_telemetry::feed::{parse_line, FeedLine, FeedParseError};
use altroute_telemetry::serve::MetricsServer;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpListener;

/// How often (in accepted lines) the HTTP plane is refreshed between
/// level updates, so `/status` freshness tracks a quiet feed too.
const PUBLISH_EVERY_LINES: u64 = 1024;

/// Longest feed line kept, counting its newline. Records are a few dozen
/// bytes; anything longer is skipped as a parse error without being
/// buffered, so a peer that never sends a newline cannot grow memory.
const MAX_LINE_BYTES: usize = 4096;

/// Reads the next feed line into `buf` (cleared first), stripped of its
/// `\n` or `\r\n` terminator. Returns `Ok(None)` at end of stream and
/// `Ok(Some(false))` for a line over [`MAX_LINE_BYTES`], whose bytes are
/// discarded up to the next newline.
fn read_line_capped<I: BufRead>(input: &mut I, buf: &mut Vec<u8>) -> io::Result<Option<bool>> {
    buf.clear();
    let read = input
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', buf)?;
    if read == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if read == MAX_LINE_BYTES {
        buf.clear();
        input.skip_until(b'\n')?;
        return Ok(Some(false));
    }
    Ok(Some(true))
}

/// End-of-stream accounting for one feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeedSummary {
    /// Total lines read (including blanks and comments).
    pub lines: u64,
    /// Lines that failed to parse (skipped and counted).
    pub parse_errors: u64,
    /// Well-formed records the controller rejected (out-of-range node,
    /// regressed time; skipped and counted).
    pub rejected: u64,
    /// Level updates written to the update stream.
    pub updates: u64,
    /// Whether the feed closed with an `end` record.
    pub ended: bool,
}

/// Renders one level update as a single line of the update stream.
///
/// Format (space-separated, levels comma-separated):
/// `levels at=<t> window=<w> changed=<n> max_load=<Λ> r=<r0>,<r1>,...`
pub fn render_update(update: &LevelsUpdate) -> String {
    // The header fits in 96 bytes and a level with its comma in 4 unless
    // it has four or more digits: one allocation per line.
    let mut line = String::with_capacity(96 + 4 * update.levels.len());
    let _ = write!(
        line,
        "levels at={} window={} changed={} max_load={} r=",
        update.at, update.window, update.changed, update.max_load
    );
    push_levels(&mut line, &update.levels);
    line.push('\n');
    line
}

fn prometheus(controller: &Controller, summary: &FeedSummary) -> String {
    let mut out = String::new();
    let mut counter = |name: &str, help: &str, v: u64| {
        let _ = writeln!(out, "# HELP altroute_ctl_{name} {help}");
        let _ = writeln!(out, "# TYPE altroute_ctl_{name} counter");
        let _ = writeln!(out, "altroute_ctl_{name} {v}");
    };
    counter(
        "arrivals_total",
        "Feed arrivals accepted",
        controller.arrivals(),
    );
    counter(
        "parse_errors_total",
        "Feed lines skipped as malformed",
        summary.parse_errors,
    );
    counter(
        "rejected_total",
        "Well-formed records rejected (range/order)",
        summary.rejected,
    );
    counter(
        "windows_total",
        "Estimator windows completed",
        controller.windows(),
    );
    counter("solves_total", "Eq.-15 re-solves", controller.solves());
    counter(
        "updates_total",
        "Level updates emitted (re-solves that changed levels)",
        controller.updates(),
    );
    let _ = writeln!(
        out,
        "# HELP altroute_ctl_last_time Sim time of the last accepted record"
    );
    let _ = writeln!(out, "# TYPE altroute_ctl_last_time gauge");
    let _ = writeln!(out, "altroute_ctl_last_time {}", controller.last_time());
    let _ = writeln!(
        out,
        "# HELP altroute_ctl_level Current Eq.-15 protection level per link"
    );
    let _ = writeln!(out, "# TYPE altroute_ctl_level gauge");
    for (k, r) in controller.levels().iter().enumerate() {
        let _ = writeln!(out, "altroute_ctl_level{{link=\"{k}\"}} {r}");
    }
    out
}

fn publish(controller: &Controller, summary: &FeedSummary, server: Option<&MetricsServer>) {
    let Some(server) = server else { return };
    let extra = controller.status_extra(summary.parse_errors, summary.rejected);
    let (windows, last_time) = (controller.windows(), controller.last_time());
    server.update_status(move |s| {
        s.sim_time = last_time;
        s.replications_done = windows as usize;
        s.extra = Some(extra);
    });
    server.publish_metrics(prometheus(controller, summary));
}

/// Drives one feed stream through `controller`.
///
/// Protocol errors that poison the whole stream — a missing or
/// mismatched header — are hard errors ([`io::ErrorKind::InvalidData`]):
/// they mean the producer and the daemon disagree about *which network*
/// is being controlled, and silently estimating over the wrong pair
/// space would push garbage levels. Bytes that are not UTF-8 are a hard
/// error of the same kind. Everything else line-local is skipped and
/// counted, including a line over 4 KiB (one parse error, never
/// buffered). Reaching EOF without an `end` record is not an error
/// (the producer may simply have died); the summary says which it was.
pub fn run_feed<I: BufRead, W: Write>(
    controller: &mut Controller,
    mut input: I,
    updates_out: &mut W,
    server: Option<&MetricsServer>,
) -> io::Result<FeedSummary> {
    let mut summary = FeedSummary::default();
    let mut saw_header = false;
    let mut pending = Vec::new();
    let mut buf = Vec::with_capacity(MAX_LINE_BYTES);
    while let Some(fits) = read_line_capped(&mut input, &mut buf)? {
        summary.lines += 1;
        let parsed = if fits {
            let line = std::str::from_utf8(&buf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            parse_line(line)
        } else {
            Err(FeedParseError {
                message: format!("line longer than {MAX_LINE_BYTES} bytes"),
            })
        };
        match parsed {
            Ok(FeedLine::Blank) => {}
            Ok(FeedLine::Header(h)) => {
                if h.nodes != controller.plane().primaries.num_nodes() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "feed is for a {}-node network, controller is configured for {}",
                            h.nodes,
                            controller.plane().primaries.num_nodes()
                        ),
                    ));
                }
                saw_header = true;
            }
            Ok(FeedLine::Event(ev)) => {
                if !saw_header {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "feed record before header",
                    ));
                }
                match controller.push(ev, &mut pending) {
                    Ok(()) => {}
                    Err(_reject) => summary.rejected += 1,
                }
                for update in pending.drain(..) {
                    updates_out.write_all(render_update(&update).as_bytes())?;
                    summary.updates += 1;
                    publish(controller, &summary, server);
                }
                if controller.done() {
                    summary.ended = true;
                    break;
                }
            }
            Err(_e) => summary.parse_errors += 1,
        }
        if summary.lines % PUBLISH_EVERY_LINES == 0 {
            publish(controller, &summary, server);
        }
    }
    updates_out.flush()?;
    publish(controller, &summary, server);
    Ok(summary)
}

/// Accepts feed connections sequentially and drives each through the
/// (persistent) controller — estimates survive across connections, which
/// is what makes the daemon *resident*. Each connection must open with
/// its own header. `max_conns` bounds the number of connections served
/// (`None` = forever); per-connection I/O errors and protocol errors
/// are reported on the summary stream (`log`) and do not stop the
/// accept loop.
pub fn serve_listener<W: Write, L: Write>(
    listener: &TcpListener,
    controller: &mut Controller,
    updates_out: &mut W,
    log: &mut L,
    server: Option<&MetricsServer>,
    max_conns: Option<u64>,
) -> io::Result<()> {
    let mut served = 0u64;
    while max_conns.is_none_or(|m| served < m) {
        let (stream, peer) = listener.accept()?;
        served += 1;
        match run_feed(controller, BufReader::new(stream), updates_out, server) {
            Ok(summary) => {
                let _ = writeln!(
                    log,
                    "altrouted: feed from {peer}: {} lines, {} arrivals, {} parse errors, {} rejected, {} updates{}",
                    summary.lines,
                    controller.arrivals(),
                    summary.parse_errors,
                    summary.rejected,
                    summary.updates,
                    if summary.ended { "" } else { " (no end record)" },
                );
            }
            Err(e) => {
                let _ = writeln!(log, "altrouted: feed from {peer} failed: {e}");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::mesh_plane;
    use crate::control::ControllerTuning;
    use std::net::TcpStream;

    fn tiny_controller() -> Controller {
        Controller::new(
            mesh_plane(2, 20, 2),
            ControllerTuning {
                window: 1.0,
                ..ControllerTuning::default()
            },
        )
    }

    const RAMP: &str = "altroute-feed v1 nodes=2\n\
        # ramp: idle window, then 18 Erlangs on 0->1\n\
        a 1.25 0 1\n\
        a 1.30 0 1\n\
        a 1.35 0 1\n\
        a 1.40 0 1\n\
        a 1.45 0 1\n\
        a 1.50 0 1\n\
        a 1.55 0 1\n\
        a 1.60 0 1\n\
        a 1.65 0 1\n\
        a 1.70 0 1\n\
        a 1.75 0 1\n\
        a 1.80 0 1\n\
        a 1.85 0 1\n\
        a 1.90 0 1\n\
        a 1.92 0 1\n\
        a 1.94 0 1\n\
        a 1.96 0 1\n\
        a 1.98 0 1\n\
        end 2\n";

    #[test]
    fn feed_emits_updates_and_is_reproducible() {
        let mut a = Vec::new();
        let summary =
            run_feed(&mut tiny_controller(), RAMP.as_bytes(), &mut a, None).expect("clean feed");
        assert!(summary.ended);
        assert_eq!(summary.parse_errors, 0);
        assert_eq!(summary.rejected, 0);
        assert_eq!(summary.updates, 1, "the loaded window raises levels");
        let text = String::from_utf8(a.clone()).unwrap();
        assert!(
            text.starts_with("levels at=2 window=2 changed=1 max_load=18 r="),
            "{text}"
        );
        let mut b = Vec::new();
        run_feed(&mut tiny_controller(), RAMP.as_bytes(), &mut b, None).unwrap();
        assert_eq!(a, b, "the update stream is deterministic in the feed");
    }

    #[test]
    fn malformed_lines_are_skipped_and_counted() {
        let noisy = RAMP.replace(
            "a 1.30 0 1\n",
            "a 1.30 0 1\nxyzzy\na nonsense 0 1\na 1.31 0\na 0.5 0 1\na 1.31 0 9\n",
        );
        let mut out = Vec::new();
        let mut c = tiny_controller();
        let summary = run_feed(&mut c, noisy.as_bytes(), &mut out, None).expect("must survive");
        assert_eq!(summary.parse_errors, 3, "xyzzy, bad time, missing dst");
        assert_eq!(summary.rejected, 2, "regressed time, node out of range");
        assert!(summary.ended, "the daemon kept reading to the end");
        assert_eq!(c.arrivals(), 18, "good records all counted");
    }

    #[test]
    fn overlong_line_is_skipped_without_buffering() {
        // 8 MiB with no newline, generated lazily, then the ramp records.
        let (header, records) = RAMP.split_once('\n').unwrap();
        let input = BufReader::new(
            header
                .as_bytes()
                .chain("\n".as_bytes())
                .chain(io::repeat(b'x').take(8 << 20))
                .chain("\n".as_bytes())
                .chain(records.as_bytes()),
        );
        let mut c = tiny_controller();
        let summary = run_feed(&mut c, input, &mut Vec::new(), None).expect("must survive");
        assert_eq!(summary.parse_errors, 1, "the flood counts once");
        assert_eq!(summary.lines, RAMP.lines().count() as u64 + 1);
        assert!(summary.ended, "records after the flood are still read");
        assert_eq!(c.arrivals(), 18);

        // The line buffer never grows past the cap.
        let mut flood = BufReader::new(io::repeat(b'x').take(8 << 20).chain("\nok\n".as_bytes()));
        let mut buf = Vec::with_capacity(MAX_LINE_BYTES);
        assert_eq!(read_line_capped(&mut flood, &mut buf).unwrap(), Some(false));
        assert!(buf.capacity() <= MAX_LINE_BYTES, "{}", buf.capacity());
        assert_eq!(read_line_capped(&mut flood, &mut buf).unwrap(), Some(true));
        assert_eq!(buf, b"ok");
        assert_eq!(read_line_capped(&mut flood, &mut buf).unwrap(), None);
    }

    #[test]
    fn line_cap_boundary_and_utf8() {
        let fits = format!("{}\n", " ".repeat(MAX_LINE_BYTES - 1));
        let over = format!("{}\n", " ".repeat(MAX_LINE_BYTES));
        let feed = format!("altroute-feed v1 nodes=2\n{fits}{over}end 1\n");
        let summary = run_feed(
            &mut tiny_controller(),
            feed.as_bytes(),
            &mut Vec::new(),
            None,
        )
        .expect("must survive");
        assert_eq!(summary.lines, 4);
        assert_eq!(summary.parse_errors, 1, "only the line over the cap");
        assert!(summary.ended);

        let err = run_feed(
            &mut tiny_controller(),
            &b"altroute-feed v1 nodes=2\na 0.5 0 \xff\n"[..],
            &mut Vec::new(),
            None,
        )
        .expect_err("non-UTF-8 input is a hard error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn header_mismatch_is_fatal() {
        let err = run_feed(
            &mut tiny_controller(),
            "altroute-feed v1 nodes=4\na 0.5 0 1\n".as_bytes(),
            &mut Vec::new(),
            None,
        )
        .expect_err("wrong network must not be estimated");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let err = run_feed(
            &mut tiny_controller(),
            "a 0.5 0 1\n".as_bytes(),
            &mut Vec::new(),
            None,
        )
        .expect_err("record before header");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn socket_feed_reaches_status_and_metrics() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let server = MetricsServer::bind("127.0.0.1:0", "altrouted").expect("bind http");
        let http = server.addr();

        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(RAMP.as_bytes()).expect("write feed");
        });
        let mut controller = tiny_controller();
        let mut updates = Vec::new();
        serve_listener(
            &listener,
            &mut controller,
            &mut updates,
            &mut io::sink(),
            Some(&server),
            Some(1),
        )
        .expect("serve one connection");
        writer.join().unwrap();

        let get = |path: &str| {
            let mut s = TcpStream::connect(http).expect("connect http");
            s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut response = String::new();
            s.read_to_string(&mut response).unwrap();
            response
                .split_once("\r\n\r\n")
                .expect("header split")
                .1
                .to_string()
        };
        let status = get("/status");
        assert!(status.contains("\"controller\":{"), "{status}");
        assert!(status.contains("\"updates\":1"), "{status}");
        assert!(status.contains("\"feed_done\":true"), "{status}");
        let metrics = get("/metrics");
        assert!(
            metrics.contains("altroute_ctl_arrivals_total 18"),
            "{metrics}"
        );
        assert!(
            metrics.contains("altroute_ctl_updates_total 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("altroute_ctl_level{link=\"0\"}"),
            "{metrics}"
        );
        server.shutdown();
        assert!(!updates.is_empty());
    }
}
