//! Recorded arrival feeds for the `altrouted` control plane.
//!
//! A feed is the line protocol `crates/altrouted` ingests (see
//! [`altroute_telemetry::feed`]): a header naming the mesh size, one
//! `a <time> <src> <dst>` line per offered call, and a final
//! `end <time>` marker. This module *records* such feeds from kernel
//! runs, which is what makes the control loop testable end to end — the
//! daemon replays exactly the arrival process a simulation offered,
//! and two recordings of the same preset are byte-identical.
//!
//! The `ramp` preset drives the drifting-load story: three segments of
//! increasing per-pair load on the same `K_4` mesh, so a controller
//! re-estimating online must walk its protection levels up as the feed
//! progresses, while any statically provisioned `r^k` fits at most one
//! segment.

use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::engine::{Run, RunConfig};
use altroute_sim::failures::FailureSchedule;
use altroute_sim::trace::{TraceDecision, TraceSink};
use altroute_telemetry::feed::{FEED_MAGIC, FEED_VERSION};
use std::fmt::Write as _;

/// One constant-load stretch of a recorded feed.
#[derive(Debug, Clone, Copy)]
pub struct FeedSegment {
    /// Offered Erlangs per ordered pair during the segment.
    pub load_per_pair: f64,
    /// Segment length in sim-time units.
    pub horizon: f64,
}

/// Parameters of one feed recording.
#[derive(Debug, Clone)]
pub struct FeedConfig {
    /// Mesh size `N` (the feed header's `nodes=` field).
    pub nodes: usize,
    /// Circuits per directed link (affects only the recording run's
    /// routing, never which calls are *offered* — arrivals are
    /// exogenous).
    pub capacity: u32,
    /// The load schedule, played back to back from `t = 0`.
    pub segments: Vec<FeedSegment>,
    /// Segment `i` records with seed `base_seed + i`.
    pub base_seed: u64,
}

impl FeedConfig {
    /// The drifting-load preset: `K_4`, per-pair load stepping
    /// 4 → 12 → 18 Erlangs across three equal segments. On `C = 20`,
    /// `H = 2` links Eq. 15 wants increasing protection as the ramp
    /// climbs, so a correct online controller emits a rising level
    /// sequence.
    pub fn ramp() -> Self {
        Self {
            nodes: 4,
            capacity: 20,
            segments: vec![
                FeedSegment {
                    load_per_pair: 4.0,
                    horizon: 4.0,
                },
                FeedSegment {
                    load_per_pair: 12.0,
                    horizon: 4.0,
                },
                FeedSegment {
                    load_per_pair: 18.0,
                    horizon: 4.0,
                },
            ],
            base_seed: 7,
        }
    }

    /// Looks up a named preset (`ramp`).
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "ramp" => Some(Self::ramp()),
            _ => None,
        }
    }

    /// Total feed duration (the `end` marker's time).
    pub fn total_horizon(&self) -> f64 {
        self.segments.iter().map(|s| s.horizon).sum()
    }
}

/// What a recording produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedStats {
    /// Arrival lines written.
    pub arrivals: u64,
    /// Segments recorded.
    pub segments: usize,
}

/// Captures every offered arrival of a kernel run as an `a` line,
/// shifted by the segment's start offset.
struct ArrivalLines {
    nodes: usize,
    offset: f64,
    out: String,
    arrivals: u64,
}

impl TraceSink for ArrivalLines {
    fn arrival(&mut self, time: f64, pair: u32, _decision: TraceDecision<'_>) {
        let (src, dst) = (pair as usize / self.nodes, pair as usize % self.nodes);
        let _ = writeln!(self.out, "a {} {src} {dst}", self.offset + time);
        self.arrivals += 1;
    }
    fn departure(&mut self, _: f64, _: u32, _: u32, _: bool) {}
    fn teardown(&mut self, _: f64, _: u32, _: u32) {}
    fn link_change(&mut self, _: f64, _: u32, _: bool) {}
}

/// Records the feed `cfg` describes and renders it as protocol text.
///
/// Each segment is one single-path kernel run (routing is irrelevant to
/// the recording — the sink taps the *offered* stream, blocked calls
/// included) with its own seed, so the recording is deterministic:
/// equal configs render byte-identical feeds.
///
/// # Panics
///
/// Panics if the mesh has fewer than 2 nodes, no segments, or a
/// non-positive segment horizon or load (kernel contract).
pub fn render_feed(cfg: &FeedConfig) -> (String, FeedStats) {
    assert!(cfg.nodes >= 2, "a feed needs at least 2 nodes");
    assert!(
        !cfg.segments.is_empty(),
        "a feed needs at least one segment"
    );
    let mut text = format!("{FEED_MAGIC} {FEED_VERSION} nodes={}\n", cfg.nodes);
    let failures = FailureSchedule::none();
    let mut offset = 0.0;
    let mut arrivals = 0u64;
    for (i, seg) in cfg.segments.iter().enumerate() {
        let _ = writeln!(
            text,
            "# segment {i}: load={} per pair over [{offset}, {})",
            seg.load_per_pair,
            offset + seg.horizon
        );
        let topo = topologies::full_mesh(cfg.nodes, cfg.capacity);
        let traffic = TrafficMatrix::uniform(cfg.nodes, seg.load_per_pair);
        let plan = RoutingPlan::min_hop(topo, &traffic, 1);
        let config = RunConfig {
            plan: &plan,
            policy: PolicyKind::SinglePath,
            traffic: &traffic,
            warmup: 0.0,
            horizon: seg.horizon,
            seed: cfg.base_seed + i as u64,
            failures: &failures,
        };
        let mut sink = ArrivalLines {
            nodes: cfg.nodes,
            offset,
            out: String::new(),
            arrivals: 0,
        };
        Run::new(&config).sink(&mut sink).execute();
        text.push_str(&sink.out);
        arrivals += sink.arrivals;
        offset += seg.horizon;
    }
    let _ = writeln!(text, "end {offset}");
    (
        text,
        FeedStats {
            arrivals,
            segments: cfg.segments.len(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use altroute_telemetry::feed::{parse_line, FeedEvent, FeedLine};

    #[test]
    fn ramp_feed_parses_end_to_end_and_is_reproducible() {
        let cfg = FeedConfig::ramp();
        let (text, stats) = render_feed(&cfg);
        let (again, again_stats) = render_feed(&cfg);
        assert_eq!(text, again, "recording must be deterministic");
        assert_eq!(stats, again_stats);

        let mut header = None;
        let mut arrivals = 0u64;
        let mut last_time = 0.0f64;
        let mut ended = false;
        for line in text.lines() {
            match parse_line(line).expect(line) {
                FeedLine::Header(h) => {
                    assert!(header.is_none(), "exactly one header");
                    header = Some(h);
                }
                FeedLine::Blank => {}
                FeedLine::Event(FeedEvent::Arrival { time, src, dst }) => {
                    assert!(time >= last_time, "times nondecreasing");
                    assert!(src < 4 && dst < 4 && src != dst);
                    last_time = time;
                    arrivals += 1;
                }
                FeedLine::Event(FeedEvent::End { time }) => {
                    assert_eq!(time, cfg.total_horizon());
                    ended = true;
                }
            }
        }
        assert_eq!(header.expect("header present").nodes, 4);
        assert!(ended, "feed must carry an end marker");
        assert_eq!(arrivals, stats.arrivals);
        // Offered calls ≈ Σ pairs·load·horizon = 12·(4+12+18)·4 = 1632.
        assert!(
            (1300..2000).contains(&arrivals),
            "arrival volume {arrivals} far from the offered mean"
        );
    }
}
