//! The line-oriented arrival-feed protocol.
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
}
