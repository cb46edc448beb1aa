//! Golden replay of the checked-in `ramp` fixture feed.
//!
//! The fixture is recorded by `altroute_cli feed --preset ramp` (three
//! constant-load segments of rising per-pair load on `K_4`) and the
//! golden `ramp.levels` pins the exact level-update sequence the
//! controller must emit over it — the control-plane analogue of the
//! kernel's golden traces. Regenerate both with:
//!
//! ```text
//! altroute_cli feed --preset ramp > crates/altrouted/tests/fixtures/ramp.feed
//! altrouted --config crates/altrouted/tests/fixtures/ramp-config.json \
//!     < crates/altrouted/tests/fixtures/ramp.feed \
//!     > crates/altrouted/tests/fixtures/ramp.levels
//! ```

use altrouted::config::DaemonConfig;
use altrouted::service::run_feed;
use std::io::BufReader;

const FEED: &str = include_str!("fixtures/ramp.feed");
const CONFIG: &str = include_str!("fixtures/ramp-config.json");
const GOLDEN: &str = include_str!("fixtures/ramp.levels");

fn controller() -> altrouted::control::Controller {
    let value = altroute_json::parse(CONFIG).expect("fixture config parses");
    DaemonConfig::from_json(&value)
        .expect("fixture config is valid")
        .controller()
}

/// What the daemon's stdout ends with after a stdin feed (the library
/// emits the `levels` lines; the binary appends this summary).
fn done_line(
    summary: &altrouted::service::FeedSummary,
    controller: &altrouted::control::Controller,
) -> String {
    format!(
        "done lines={} arrivals={} parse_errors={} rejected={} windows={} solves={} updates={} ended={}\n",
        summary.lines,
        controller.arrivals(),
        summary.parse_errors,
        summary.rejected,
        controller.windows(),
        controller.solves(),
        summary.updates,
        summary.ended,
    )
}

#[test]
fn ramp_feed_replays_to_the_golden_level_sequence() {
    let mut ctl = controller();
    let mut out = Vec::new();
    let summary = run_feed(&mut ctl, BufReader::new(FEED.as_bytes()), &mut out, None)
        .expect("fixture feed is clean");
    assert_eq!(summary.parse_errors, 0, "the fixture has no bad lines");
    assert_eq!(summary.rejected, 0);
    assert!(summary.ended, "the fixture carries an end marker");

    let mut text = String::from_utf8(out).expect("updates are UTF-8");
    text.push_str(&done_line(&summary, &ctl));
    assert_eq!(
        text, GOLDEN,
        "level-update sequence diverged from fixtures/ramp.levels — \
         regenerate per the module docs if the change is intentional"
    );

    // The golden sequence is the drifting-load story: updates exist and
    // the peak protection level rises as the ramp climbs.
    assert!(summary.updates >= 2, "a ramp must change levels");
    let first = GOLDEN.lines().next().expect("golden has updates");
    assert!(
        first.starts_with("levels at=2 "),
        "first update at the first boundary"
    );
    assert!(
        ctl.levels().iter().any(|&r| r > 0),
        "final levels must protect the loaded links"
    );
}

/// Corrupting feed lines must not kill the daemon or shift the windows:
/// bad lines are skipped and counted, and the run still completes.
#[test]
fn corrupted_fixture_lines_are_skipped_and_counted() {
    let mut mangled = String::new();
    let mut broke = 0u64;
    for (i, line) in FEED.lines().enumerate() {
        // Corrupt a deterministic sprinkling of arrival lines three
        // different ways: truncation, a bad number, an out-of-range node.
        if line.starts_with("a ") && i % 401 == 0 {
            match broke % 3 {
                0 => mangled.push_str("a 1.0"),
                1 => mangled.push_str("a NOPE 0 1"),
                _ => mangled.push_str("a 1.0 0 99"),
            }
            broke += 1;
        } else {
            mangled.push_str(line);
        }
        mangled.push('\n');
    }
    assert!(
        broke >= 3,
        "the sprinkling must hit all three corruption kinds"
    );

    let mut ctl = controller();
    let mut out = Vec::new();
    let summary = run_feed(&mut ctl, BufReader::new(mangled.as_bytes()), &mut out, None)
        .expect("corrupt lines are not fatal");
    // `a 1.0 0 99` parses but the controller rejects the node id; the
    // other two die in the parser.
    assert!(
        summary.parse_errors >= 1,
        "truncated/garbled lines count as parse errors"
    );
    assert!(summary.rejected >= 1, "out-of-range nodes count as rejects");
    assert_eq!(
        summary.parse_errors + summary.rejected,
        broke,
        "every corrupted line is accounted for"
    );
    assert!(summary.ended, "the feed still runs to its end marker");
    assert_eq!(
        ctl.windows(),
        6,
        "window bookkeeping survives skipped lines"
    );
}

#[test]
fn a_time_jump_catches_up_in_closed_form() {
    // One arrival 5·10⁸ windows into the feed: the windows it skips are
    // empty, so they close in closed form with at most one re-solve
    // instead of one close (and one solve) per window.
    let mut ctl = controller();
    let feed = "altroute-feed v1 nodes=4\na 1e9 0 1\n";
    let mut out = Vec::new();
    let summary = run_feed(&mut ctl, BufReader::new(feed.as_bytes()), &mut out, None)
        .expect("the feed is clean");
    assert_eq!(summary.rejected, 0);
    assert_eq!(ctl.arrivals(), 1);
    assert_eq!(ctl.windows(), 500_000_000);
    assert!(ctl.solves() <= 2, "{} re-solves", ctl.solves());
    assert!(
        ctl.levels().iter().all(|&r| r == 0),
        "an idle feed reserves nothing"
    );
}
