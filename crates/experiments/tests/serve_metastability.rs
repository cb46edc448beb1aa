//! Live observability of a served metastability run.
//!
//! Pins the acceptance contract of the `--serve` plane: while the
//! process is alive, `GET /metrics` returns parseable Prometheus text
//! whose totals match the end-of-run telemetry, `/status` reports the
//! run's progress, and attaching the server does not perturb the report.

use altroute_experiments::metastability::{run_metastability, MetastabilityConfig, StartState};
use altroute_telemetry::{export, MetricsServer};
use std::io::{Read, Write};
use std::net::TcpStream;

fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("header split");
    (head.to_string(), body.to_string())
}

/// Extracts the value of a single-sample family from an exposition.
fn sample(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .unwrap_or_else(|| panic!("family {name} missing in:\n{text}"))
        .rsplit_once(' ')
        .unwrap()
        .1
        .parse()
        .unwrap()
}

#[test]
fn served_run_exposes_live_metrics_matching_the_final_telemetry() {
    let cfg = MetastabilityConfig::smoke();
    let server = MetricsServer::bind("127.0.0.1:0", "metastability:smoke").expect("bind");
    let addr = server.addr();

    let (_, health) = get(addr, "/healthz");
    assert_eq!(health, "ok\n");

    let report = run_metastability(&cfg, Some(&server));

    // The server is still live after the run: this is the "curl during a
    // live run" surface, scraped deterministically at its final state.
    let (head, metrics) = get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");

    // Every sample line parses (exposition shape).
    for line in metrics.lines().filter(|l| !l.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable value in line: {line}"
        );
    }

    // The final exposition is exactly the last arm's end-of-run export —
    // run aggregates plus mode families — so the scraped totals equal
    // what `--telemetry` writes to disk for that arm.
    let last = report.arms.last().expect("four arms");
    let mut expected = export::prometheus(&last.telemetry);
    expected.push_str(&export::mode_prometheus(&last.modes));
    assert_eq!(metrics, expected);
    assert_eq!(
        sample(&metrics, "altroute_calls_offered_total"),
        last.telemetry.offered as f64
    );
    assert_eq!(
        sample(&metrics, "altroute_calls_blocked_total"),
        last.telemetry.blocked as f64
    );
    assert_eq!(
        sample(&metrics, "altroute_mode_switches_total"),
        last.modes.num_switches() as f64
    );

    let (_, status) = get(addr, "/status");
    assert!(
        status.contains("\"label\":\"metastability:smoke\""),
        "{status}"
    );
    assert!(status.contains("\"phase\":\"eq15_saturated\""), "{status}");
    assert!(
        status.contains(&format!("\"replications_done\":{}", 4 * cfg.seeds)),
        "{status}"
    );
    assert!(
        status.contains(&format!("\"replications_total\":{}", 4 * cfg.seeds)),
        "{status}"
    );
    server.shutdown();

    // Serving is a pure observer: the report matches an unserved run.
    let plain = run_metastability(&cfg, None);
    for (a, b) in plain.arms.iter().zip(report.arms.iter()) {
        assert_eq!(a.telemetry, b.telemetry, "arm {}", b.name);
        assert_eq!(a.modes, b.modes);
        assert_eq!(
            a.flight.as_ref().map(|f| &f.bytes),
            b.flight.as_ref().map(|f| &f.bytes),
            "flight dumps must not depend on serving"
        );
    }
    assert!(
        plain.arm(true, StartState::Saturated).flight.is_some(),
        "the smoke preset's forced flip leaves a dump"
    );
}
