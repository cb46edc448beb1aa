//! The line-oriented arrival-feed protocol and its windowed estimator.
//!
//! The control plane ingests arrivals as a text stream — over a socket
//! or stdin — in a deliberately tiny grammar (one record per line,
//! whitespace-separated fields):
//!
//! ```text
//! altroute-feed v1 nodes=<N>     # header, first non-blank line
//! a <time> <src> <dst>           # one call arrival (offered, not admitted)
//! end <time>                     # end of feed; flush pending windows
//! # ...                          # comment; blank lines are ignored
//! ```
//!
//! Times are sim-time `f64`s and must be non-decreasing; `src`/`dst` are
//! node ids `< N`. The parser ([`parse_line`]) classifies single lines
//! and never looks at stream state — ordering and range checks belong to
//! the consumer, so a daemon can *skip and count* malformed or
//! out-of-order lines instead of dying mid-stream.
//!
//! [`LoadEstimator`] turns the accepted arrivals into per-pair offered
//! load estimates on fixed-width windows aligned to sim time 0: counts
//! accumulate in the current window, each completed window's empirical
//! rate folds into an exponentially-weighted estimate, and the consumer
//! is told how many windows closed so it can recompute levels on a
//! window cadence. Everything is deterministic in the feed bytes.

/// The protocol version accepted by [`parse_line`].
pub const FEED_VERSION: &str = "v1";
/// The magic first token of a feed header line.
pub const FEED_MAGIC: &str = "altroute-feed";

/// The feed's opening declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedHeader {
    /// Number of nodes; arrivals must have `src, dst < nodes`.
    pub nodes: usize,
}

/// One timed record of the feed body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeedEvent {
    /// A call arrival `src -> dst` at sim time `time`.
    Arrival {
        /// Sim time of the arrival (finite, `>= 0`).
        time: f64,
        /// Originating node.
        src: usize,
        /// Destination node.
        dst: usize,
    },
    /// End of the feed at sim time `time`; close out pending windows.
    End {
        /// Sim time the feed ends at (finite, `>= 0`).
        time: f64,
    },
}

impl FeedEvent {
    /// The record's timestamp.
    pub fn time(&self) -> f64 {
        match *self {
            FeedEvent::Arrival { time, .. } | FeedEvent::End { time } => time,
        }
    }
}

/// One classified feed line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeedLine {
    /// The `altroute-feed v1 nodes=N` declaration.
    Header(FeedHeader),
    /// A timed body record.
    Event(FeedEvent),
    /// A blank or `#`-comment line (ignored).
    Blank,
}

/// Why a line failed to parse. The message is human-oriented; the
/// daemon's contract is only that malformed lines are *counted*, never
/// fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedParseError {
    /// What was wrong with the line.
    pub message: String,
}

impl std::fmt::Display for FeedParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for FeedParseError {}

fn bad(message: impl Into<String>) -> FeedParseError {
    FeedParseError {
        message: message.into(),
    }
}

fn parse_time(s: &str) -> Result<f64, FeedParseError> {
    let t: f64 = s.parse().map_err(|_| bad(format!("bad time `{s}`")))?;
    if !t.is_finite() || t < 0.0 {
        return Err(bad(format!("time must be finite and >= 0, got `{s}`")));
    }
    Ok(t)
}

fn parse_node(s: &str) -> Result<usize, FeedParseError> {
    s.parse().map_err(|_| bad(format!("bad node id `{s}`")))
}

/// Classifies one feed line. Pure per-line: stream-level invariants
/// (header first, times non-decreasing, node ids in range) are the
/// consumer's to enforce.
pub fn parse_line(line: &str) -> Result<FeedLine, FeedParseError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(FeedLine::Blank);
    }
    let mut fields = trimmed.split_whitespace();
    let tag = fields.next().expect("non-empty after trim");
    let line = match tag {
        FEED_MAGIC => {
            let version = fields.next().ok_or_else(|| bad("header missing version"))?;
            if version != FEED_VERSION {
                return Err(bad(format!(
                    "unsupported feed version `{version}` (expected {FEED_VERSION})"
                )));
            }
            let nodes = fields
                .next()
                .and_then(|f| f.strip_prefix("nodes="))
                .ok_or_else(|| bad("header missing nodes=<N>"))?;
            let nodes: usize = nodes
                .parse()
                .map_err(|_| bad(format!("bad node count `{nodes}`")))?;
            if nodes < 2 {
                return Err(bad(format!("need at least 2 nodes, got {nodes}")));
            }
            FeedLine::Header(FeedHeader { nodes })
        }
        "a" => {
            let time = parse_time(fields.next().ok_or_else(|| bad("arrival missing time"))?)?;
            let src = parse_node(fields.next().ok_or_else(|| bad("arrival missing src"))?)?;
            let dst = parse_node(fields.next().ok_or_else(|| bad("arrival missing dst"))?)?;
            FeedLine::Event(FeedEvent::Arrival { time, src, dst })
        }
        "end" => {
            let time = parse_time(fields.next().ok_or_else(|| bad("end missing time"))?)?;
            FeedLine::Event(FeedEvent::End { time })
        }
        other => return Err(bad(format!("unknown record tag `{other}`"))),
    };
    if fields.next().is_some() {
        return Err(bad("trailing fields"));
    }
    Ok(line)
}

/// Windowed per-pair offered-load estimation over an unbounded time
/// range.
///
/// Windows are `width` wide and aligned to sim time 0: window `k` is
/// `[k·width, (k+1)·width)`, so a resident feed needs no horizon.
///
/// Each completed window folds its empirical per-pair rate `count /
/// width` into the running estimate with EWMA weight `alpha` (`alpha =
/// 1` keeps just the latest window). The first window is taken raw —
/// there is no earlier estimate to smooth against, and folding it into
/// zero would under-read the load by `(1 − alpha)^k` for the first `k`
/// windows. With unit-mean holding times the rate in calls per sim-time
/// unit *is* the offered load in Erlangs; scale by the mean holding time
/// otherwise.
#[derive(Debug, Clone)]
pub struct LoadEstimator {
    width: f64,
    alpha: f64,
    /// Index of the currently-accumulating window.
    window: usize,
    counts: Vec<u64>,
    rates: Vec<f64>,
    windows_completed: u64,
    last_time: f64,
}

impl LoadEstimator {
    /// An estimator for `pairs` demand pairs on `width`-wide windows.
    ///
    /// # Panics
    ///
    /// Panics unless `pairs > 0`, `width > 0` and finite, and
    /// `0 < alpha <= 1`.
    pub fn new(pairs: usize, width: f64, alpha: f64) -> Self {
        assert!(pairs > 0, "need at least one pair");
        assert!(
            width > 0.0 && width.is_finite(),
            "window width must be positive and finite, got {width}"
        );
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA weight must be in (0, 1], got {alpha}"
        );
        Self {
            width,
            alpha,
            window: 0,
            counts: vec![0; pairs],
            rates: vec![0.0; pairs],
            windows_completed: 0,
            last_time: 0.0,
        }
    }

    /// Smoothed per-pair rate estimates (calls per sim-time unit), as of
    /// the last completed window.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of completed (folded) windows so far.
    pub fn windows_completed(&self) -> u64 {
        self.windows_completed
    }

    /// Timestamp of the most recently accepted record — the estimate's
    /// freshness.
    pub fn last_time(&self) -> f64 {
        self.last_time
    }

    /// End time of the currently-accumulating window.
    pub fn current_window_end(&self) -> f64 {
        self.width * (self.window as f64 + 1.0)
    }

    /// If time `t` lies at or past the current window's end, returns
    /// that boundary time (the caller should [`close_window`] and check
    /// again — several windows may close before `t`'s own window opens).
    ///
    /// [`close_window`]: Self::close_window
    pub fn pending_boundary(&self, t: f64) -> Option<f64> {
        let end = self.current_window_end();
        (t >= end).then_some(end)
    }

    /// Folds the current window's counts into the rate estimates (the
    /// first window raw, later ones by EWMA) and opens the next window.
    /// Returns the folded window's end time.
    pub fn close_window(&mut self) -> f64 {
        let end = self.current_window_end();
        let alpha = if self.windows_completed == 0 {
            1.0
        } else {
            self.alpha
        };
        for (rate, count) in self.rates.iter_mut().zip(&mut self.counts) {
            let observed = *count as f64 / self.width;
            *rate += alpha * (observed - *rate);
            *count = 0;
        }
        self.window += 1;
        self.windows_completed += 1;
        end
    }

    /// Folds one *externally counted* window: replaces the current
    /// window's counts with `counts` and closes it, returning the folded
    /// window's end time. This is the in-process path — a selector that
    /// tallies arrivals itself between kernel ticks hands the whole
    /// window over at the boundary, and lands in exactly the same
    /// estimator state as the per-record feed path.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is not one entry per pair.
    pub fn fold_window(&mut self, counts: &[u64]) -> f64 {
        assert_eq!(counts.len(), self.counts.len(), "one count per pair");
        self.counts.copy_from_slice(counts);
        let end = self.close_window();
        self.last_time = end;
        end
    }

    /// Counts one arrival for `pair` at time `t`.
    ///
    /// The caller must have drained [`pending_boundary`] /
    /// [`close_window`] first so `t` falls in the currently-accumulating
    /// window, and must reject regressing times itself (the skip-and-
    /// count policy lives in the consumer).
    ///
    /// # Panics
    ///
    /// Panics if `pair` is out of range, or (debug) if `t` lies outside
    /// the current window.
    ///
    /// [`pending_boundary`]: Self::pending_boundary
    /// [`close_window`]: Self::close_window
    pub fn record(&mut self, t: f64, pair: usize) {
        debug_assert!(
            t >= self.width * self.window as f64 && t < self.current_window_end(),
            "record at t={t} outside current window {}",
            self.window
        );
        self.counts[pair] += 1;
        self.last_time = t;
    }

    /// Notes a non-arrival record's timestamp (freshness bookkeeping for
    /// `end` records).
    pub fn touch(&mut self, t: f64) {
        self.last_time = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_roundtrip() {
        assert_eq!(
            parse_line("altroute-feed v1 nodes=16").unwrap(),
            FeedLine::Header(FeedHeader { nodes: 16 })
        );
        assert_eq!(
            parse_line("a 1.5 0 3").unwrap(),
            FeedLine::Event(FeedEvent::Arrival {
                time: 1.5,
                src: 0,
                dst: 3
            })
        );
        assert_eq!(
            parse_line("end 24").unwrap(),
            FeedLine::Event(FeedEvent::End { time: 24.0 })
        );
        assert_eq!(parse_line("").unwrap(), FeedLine::Blank);
        assert_eq!(
            parse_line("  # load ramp segment 2").unwrap(),
            FeedLine::Blank
        );
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for line in [
            "altroute-feed v2 nodes=16", // wrong version
            "altroute-feed v1",          // missing nodes
            "altroute-feed v1 nodes=1",  // too few nodes
            "a 1.5 0",                   // missing dst
            "a NaN 0 1",                 // non-finite time
            "a -1 0 1",                  // negative time
            "a 1.5 0 1 9",               // trailing field
            "b 1.5 0 1",                 // unknown tag
            "end",                       // missing time
        ] {
            assert!(parse_line(line).is_err(), "`{line}` should not parse");
        }
    }

    #[test]
    fn estimator_rates_are_count_over_width() {
        let mut est = LoadEstimator::new(4, 2.0, 1.0);
        // Six arrivals for pair 1 in window [0, 2).
        for i in 0..6 {
            est.record(0.3 * i as f64, 1);
        }
        assert_eq!(est.pending_boundary(2.5), Some(2.0));
        est.close_window();
        assert_eq!(est.pending_boundary(2.5), None);
        assert_eq!(est.rates(), &[0.0, 3.0, 0.0, 0.0]);
        assert_eq!(est.windows_completed(), 1);
    }

    #[test]
    fn ewma_folds_windows_and_idle_windows_decay() {
        let mut est = LoadEstimator::new(1, 1.0, 0.5);
        est.record(0.5, 0);
        est.record(0.6, 0);
        est.close_window(); // the first window is taken raw: rate = 2.0
        assert_eq!(est.rates(), &[2.0]);
        // Two empty windows halve the estimate each time.
        est.close_window();
        est.close_window();
        assert_eq!(est.rates(), &[0.5]);
        assert_eq!(est.windows_completed(), 3);
    }

    #[test]
    fn fold_window_matches_per_record_path() {
        let mut by_record = LoadEstimator::new(2, 2.0, 0.5);
        by_record.record(0.1, 0);
        by_record.record(0.2, 0);
        by_record.record(1.9, 1);
        by_record.close_window();

        let mut by_fold = LoadEstimator::new(2, 2.0, 0.5);
        assert_eq!(by_fold.fold_window(&[2, 1]), 2.0);

        assert_eq!(by_record.rates(), by_fold.rates());
        assert_eq!(by_record.windows_completed(), by_fold.windows_completed());
    }

    #[test]
    fn boundaries_survive_grid_growth() {
        let mut est = LoadEstimator::new(1, 2.0, 1.0);
        est.touch(0.0);
        // Jump far past the initial 1024-window range; boundary
        // arithmetic must still report the *next* boundary of the
        // current (first) window.
        assert_eq!(est.pending_boundary(10_000.0), Some(2.0));
        let mut closed = 0;
        while let Some(_b) = est.pending_boundary(10_000.0) {
            est.close_window();
            closed += 1;
        }
        assert_eq!(closed, 5_000);
        est.record(10_000.5, 0);
        assert_eq!(est.last_time(), 10_000.5);
    }
}
