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
//!
//! Whitespace is what [`char::is_whitespace`] says it is: ASCII space,
//! `\t`, `\n`, `\x0B`, `\x0C` and `\r`, and the Unicode spaces (U+0085,
//! U+00A0, U+1680, U+2000–U+200A, U+2028, U+2029, U+202F, U+205F,
//! U+3000) — the set `str::trim` and `str::split_whitespace` use. Node
//! ids take `usize::from_str`'s grammar (so `+3` is 3) and times
//! `f64::from_str`'s (so `-0`, `1e3` and `inf` parse, and the range
//! check then refuses `inf`). [`parse_line`] reads a line in one forward
//! scan of its bytes, decoding only non-ASCII characters, and an
//! accepted line allocates nothing; only an error's message does.

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

/// Reads a count as `usize::from_str` does — one optional `+`, then
/// ASCII digits — from the start of `bytes`, stopping before the first
/// byte that is not a digit or would overflow. Returns the value and the
/// bytes read, or `None` if no digit was read. The count is the field's
/// only if the field ends where the reading stopped.
#[inline(always)]
fn leading_count(bytes: &[u8]) -> Option<(usize, usize)> {
    let sign = usize::from(bytes.first() == Some(&b'+'));
    let (mut n, mut i) = (0usize, sign);
    while let Some(&b) = bytes.get(i) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        match n
            .checked_mul(10)
            .and_then(|n| n.checked_add(usize::from(d)))
        {
            Some(next) => n = next,
            None => break,
        }
        i += 1;
    }
    (i > sign).then_some((n, i))
}

/// The character starting at byte `at` of `line`: its length in bytes
/// and whether it is whitespace by [`char::is_whitespace`], the test
/// `str::trim` and `str::split_whitespace` use. ASCII bytes are decided
/// without decoding.
#[inline(always)]
fn char_at(line: &str, at: usize) -> (usize, bool) {
    let b = line.as_bytes()[at];
    if b.is_ascii() {
        return (1, b == b' ' || (b'\t'..=b'\r').contains(&b));
    }
    let c = line[at..].chars().next().expect("`at` starts a character");
    (c.len_utf8(), c.is_whitespace())
}

/// A cursor over the whitespace-separated fields of one line.
///
/// The helpers of the scan are `#[inline(always)]`: left to LLVM's
/// judgement they stay calls, and a line takes about a quarter longer.
struct Fields<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Fields<'a> {
    /// Moves past whitespace; returns whether a field starts there.
    #[inline(always)]
    fn skip_space(&mut self) -> bool {
        let bytes = self.line.as_bytes();
        let mut i = self.pos;
        let found = loop {
            let Some(&b) = bytes.get(i) else { break false };
            i += match b {
                b' ' | b'\t'..=b'\r' => 1,
                0..=0x7f => break true,
                _ => match char_at(self.line, i) {
                    (n, true) => n,
                    (_, false) => break true,
                },
            };
        };
        self.pos = i;
        found
    }

    /// Moves to the end of the field under the cursor.
    #[inline(always)]
    fn skip_field(&mut self) {
        let bytes = self.line.as_bytes();
        let mut i = self.pos;
        while let Some(&b) = bytes.get(i) {
            i += match b {
                0x21..=0x7f => 1,
                _ => match char_at(self.line, i) {
                    (_, true) => break,
                    (n, false) => n,
                },
            };
        }
        self.pos = i;
    }

    /// The next field, or `None` at the end of the line.
    #[inline(always)]
    fn next(&mut self) -> Option<&'a str> {
        if !self.skip_space() {
            return None;
        }
        let start = self.pos;
        self.skip_field();
        Some(&self.line[start..self.pos])
    }

    /// The next field read as a node id, its digits accumulated as they
    /// are scanned. `None` at the end of the line, `Err(field)` if the
    /// field is not a `usize`.
    #[inline(always)]
    fn next_id(&mut self) -> Option<Result<usize, &'a str>> {
        if !self.skip_space() {
            return None;
        }
        let start = self.pos;
        if let Some((id, read)) = leading_count(&self.line.as_bytes()[start..]) {
            self.pos += read;
            if self.pos == self.line.len() || char_at(self.line, self.pos).1 {
                return Some(Ok(id));
            }
        }
        self.skip_field();
        Some(Err(&self.line[start..self.pos]))
    }

    /// The next field as the node id `what` of an arrival.
    #[inline(always)]
    fn node(&mut self, what: &str) -> Result<usize, FeedParseError> {
        match self.next_id() {
            Some(Ok(id)) => Ok(id),
            Some(Err(field)) => Err(bad(format!("bad node id `{field}`"))),
            None => Err(bad(format!("arrival missing {what}"))),
        }
    }
}

/// Classifies one feed line. Pure per-line: stream-level invariants
/// (header first, times non-decreasing, node ids in range) are the
/// consumer's to enforce.
///
/// One forward scan over the line's bytes, with whitespace and number
/// grammars as the module doc states; an accepted line allocates
/// nothing.
pub fn parse_line(line: &str) -> Result<FeedLine, FeedParseError> {
    let mut fields = Fields { line, pos: 0 };
    let tag = match fields.next() {
        None => return Ok(FeedLine::Blank),
        Some(tag) if tag.starts_with('#') => return Ok(FeedLine::Blank),
        Some(tag) => tag,
    };
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
            let nodes = match leading_count(nodes.as_bytes()) {
                Some((n, read)) if read == nodes.len() => n,
                _ => return Err(bad(format!("bad node count `{nodes}`"))),
            };
            if nodes < 2 {
                return Err(bad(format!("need at least 2 nodes, got {nodes}")));
            }
            FeedLine::Header(FeedHeader { nodes })
        }
        "a" => {
            let time = parse_time(fields.next().ok_or_else(|| bad("arrival missing time"))?)?;
            let src = fields.node("src")?;
            let dst = fields.node("dst")?;
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
    fn fields_split_at_unicode_whitespace() {
        assert_eq!(
            parse_line("\u{3000}a\u{a0}1.5\u{2003}+0\x0B3\u{85}\r").unwrap(),
            FeedLine::Event(FeedEvent::Arrival {
                time: 1.5,
                src: 0,
                dst: 3
            })
        );
        assert_eq!(parse_line("\u{a0}#\u{200b}x").unwrap(), FeedLine::Blank);
        assert_eq!(parse_line("\x0B\u{2028}").unwrap(), FeedLine::Blank);
        assert_eq!(
            parse_line("altroute-feed\tv1\x0Cnodes=+07").unwrap(),
            FeedLine::Header(FeedHeader { nodes: 7 })
        );
        // `-0` is a valid time and keeps its sign, as `f64::from_str` does.
        match parse_line("end -0").unwrap() {
            FeedLine::Event(FeedEvent::End { time }) => {
                assert_eq!(time.to_bits(), (-0.0f64).to_bits())
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for line in [
            "altroute-feed v2 nodes=16",                   // wrong version
            "altroute-feed v1",                            // missing nodes
            "altroute-feed v1 nodes=1",                    // too few nodes
            "a 1.5 0",                                     // missing dst
            "a NaN 0 1",                                   // non-finite time
            "a -1 0 1",                                    // negative time
            "a 1.5 0 1 9",                                 // trailing field
            "b 1.5 0 1",                                   // unknown tag
            "end",                                         // missing time
            "a 1.5 0\u{a0}1 9",                            // U+00A0 separates a trailing field
            "a 1.5 0 1\u{85}9",                            // so does U+0085
            "a 1.5 0\u{2003}1\u{3000}x",                   // and U+2003, U+3000
            "a\x0B1.5\x0B0",                               // `\x0B` separates: missing dst
            "end\u{2003}",                                 // missing time after U+2003
            "a 1.5 0 1\u{200b}",                           // U+200B is not whitespace
            "a\u{feff}1.5 0 1",                            // nor is U+FEFF
            "a 1.5 \u{663} 1",                             // a non-ASCII digit
            "a 1.5 -0 1",                                  // signed id
            "a 1.5 + 1",                                   // sign without digits
            "a 1.5 18446744073709551616 1",                // id overflows usize
            "altroute-feed v1 nodes=99999999999999999999", // count overflows
        ] {
            assert!(parse_line(line).is_err(), "`{line}` should not parse");
        }
    }
}
