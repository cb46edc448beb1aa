//! Fuzzing the feed path: any bytes through `run_feed` into a
//! `mesh_plane` controller end in `Ok` or `Err`, never a panic, and the
//! checked-in `ramp` feed split across reads at any byte offset replays
//! to the same `.levels` stream as the feed read whole. `parse_line`
//! returns, on generated feed lines and on arbitrary UTF-8, exactly
//! what the `trim`/`split_whitespace` parser it replaced returned
//! (kept below as [`oracle::parse_line`]).

use altroute_telemetry::feed::parse_line;
use altrouted::config::{mesh_plane, DaemonConfig};
use altrouted::control::{Controller, ControllerTuning};
use altrouted::service::{run_feed, FeedSummary};
use proptest::prelude::*;
use std::io::{self, BufReader, Read};

const FEED: &str = include_str!("fixtures/ramp.feed");
const CONFIG: &str = include_str!("fixtures/ramp-config.json");

/// The words fuzzed feeds are built from: the grammar's tags and header
/// fields, node ids in and out of range, and times that are valid,
/// fractional, negative, huge, past the last representable window
/// (2⁵³) or not numbers at all.
const WORDS: [&str; 26] = [
    "altroute-feed",
    "v1",
    "v2",
    "nodes=4",
    "nodes=1",
    "nodes=18446744073709551616",
    "a",
    "end",
    "#",
    "0",
    "1",
    "3",
    "4",
    "99",
    "-1",
    "0.5",
    "2.5",
    "1e9",
    "1e300",
    "9007199254740990",
    "9007199254740992",
    "NaN",
    "inf",
    "18446744073709551616",
    "\u{fffd}",
    "\r",
];

/// A feed drawn from `pieces`: each is a word of [`WORDS`] (or, past
/// them, the raw byte), then a space, a tab or a newline. Opens with
/// a valid header when `header` is set.
fn feed_bytes(header: bool, pieces: &[(usize, usize, u8)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    if header {
        bytes.extend_from_slice(b"altroute-feed v1 nodes=4\n");
    }
    for &(word, sep, byte) in pieces {
        match WORDS.get(word) {
            Some(w) => bytes.extend_from_slice(w.as_bytes()),
            None => bytes.push(byte),
        }
        bytes.push([b' ', b'\t', b'\n'][sep]);
    }
    bytes
}

/// Replays `input` into `controller`; a panic fails the test.
fn replay(controller: &mut Controller, input: impl Read) -> (io::Result<FeedSummary>, Vec<u8>) {
    let mut out = Vec::new();
    let result = run_feed(controller, BufReader::new(input), &mut out, None);
    (result, out)
}

/// The fixture's controller.
fn ramp_controller() -> Controller {
    let value = altroute_json::parse(CONFIG).expect("fixture config parses");
    DaemonConfig::from_json(&value)
        .expect("fixture config is valid")
        .controller()
}

/// Reads `first`, then `rest`, never handing out bytes of both at once.
fn split_at(offset: usize) -> impl Read {
    let (first, rest) = FEED.as_bytes().split_at(offset);
    first.chain(rest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn fuzzed_feeds_never_panic(
        header in any::<bool>(),
        pieces in proptest::collection::vec((0..WORDS.len() + 4, 0..3usize, any::<u8>()), 0..64),
    ) {
        let bytes = feed_bytes(header, &pieces);
        for mut controller in [
            Controller::new(mesh_plane(4, 20, 2), ControllerTuning::default()),
            ramp_controller(),
        ] {
            let (result, _) = replay(&mut controller, bytes.as_slice());
            if let Ok(summary) = result {
                prop_assert!(summary.parse_errors + summary.rejected <= summary.lines);
            }
            prop_assert!(controller.levels().iter().all(|&r| r <= 20));
        }
    }

    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut controller = Controller::new(mesh_plane(4, 20, 2), ControllerTuning::default());
        let _ = replay(&mut controller, bytes.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn a_split_feed_replays_like_the_whole_feed(offset in 0..FEED.len() + 1) {
        let mut whole = ramp_controller();
        let (whole_summary, whole_levels) = replay(&mut whole, FEED.as_bytes());
        let mut split = ramp_controller();
        let (split_summary, split_levels) = replay(&mut split, split_at(offset));
        prop_assert_eq!(split_summary.unwrap(), whole_summary.unwrap());
        prop_assert_eq!(split_levels, whole_levels, "cut at byte {}", offset);
        prop_assert_eq!(split.levels(), whole.levels());
    }
}

/// The feed parser as it was before `parse_line` became a byte scan:
/// `trim`, Unicode `split_whitespace`, then `str::parse` on each field.
/// It defines the `Result` — values and messages — `parse_line` must
/// return for every line.
mod oracle {
    use altroute_telemetry::feed::{
        FeedEvent, FeedHeader, FeedLine, FeedParseError, FEED_MAGIC, FEED_VERSION,
    };

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
}

/// Whether `parse_line` and the oracle agree on `line`. `Debug` prints
/// an `f64` exactly (and `-0.0` apart from `0.0`), so equal renderings
/// mean equal variants, bit-equal times and equal messages.
fn agrees(line: &str) -> Result<(), TestCaseError> {
    let got = format!("{:?}", parse_line(line));
    let want = format!("{:?}", oracle::parse_line(line));
    prop_assert_eq!(&got, &want, "line {:?}: got {} want {}", line, got, want);
    Ok(())
}

/// What separates fields in generated lines: every ASCII and Unicode
/// whitespace character, characters that look like spaces but are not
/// whitespace (U+001C, U+180E, U+200B, U+FEFF), and nothing at all.
const GAPS: [&str; 24] = [
    " ", " ", "\t", "\x0B", "\x0C", "\r", "\n", "\u{85}", "\u{a0}", "\u{1680}", "\u{2000}",
    "\u{2003}", "\u{200a}", "\u{2028}", "\u{2029}", "\u{202f}", "\u{205f}", "\u{3000}", "\x1c",
    "\u{180e}", "\u{200b}", "\u{feff}", "", "\r\n",
];

/// First fields of generated lines: the three tags, near misses, and
/// comment starts.
const TAGS: [&str; 12] = [
    "a",
    "a",
    "end",
    "altroute-feed",
    "A",
    "ab",
    "b",
    "endx",
    "altroute-feed2",
    "#",
    "#a",
    "\u{fffd}",
];

/// Later fields: times (signed, exponent, `inf`/`NaN`/`-0`, overflowing
/// to infinity), node ids (signed, 20+ digits, leading zeros), header
/// fields, and junk.
const FIELDS: [&str; 48] = [
    "0",
    "1",
    "3",
    "007",
    "+3",
    "-0",
    "-1",
    "+",
    "-",
    "++1",
    "3a",
    "\u{663}",
    "18446744073709551615",
    "18446744073709551616",
    "123456789012345678901234567890",
    "1.5",
    ".5",
    "5.",
    "-0.0",
    "+2.25",
    "1e9",
    "1E-3",
    "2.5e+3",
    "1e400",
    "1e-400",
    "inf",
    "+inf",
    "-inf",
    "infinity",
    "Infinity",
    "NaN",
    "nan",
    "-NaN",
    "0x10",
    "1_0",
    "e5",
    "0.021760062011816492",
    "v1",
    "v2",
    "V1",
    "nodes=4",
    "nodes=1",
    "nodes=+5",
    "nodes=",
    "nodes=-2",
    "nodes=18446744073709551616",
    "#",
    "\u{e9}",
];

/// A line from `lead`, then `tag`, then each `(gap, gap, field)` of
/// `rest`, then `trail` (indices into [`GAPS`], [`TAGS`], [`FIELDS`]).
fn generated_line(lead: usize, tag: usize, rest: &[(usize, usize, usize)], trail: usize) -> String {
    let mut line = format!("{}{}", GAPS[lead], TAGS[tag]);
    for &(g1, g2, field) in rest {
        line.push_str(GAPS[g1]);
        line.push_str(GAPS[g2]);
        line.push_str(FIELDS[field]);
    }
    line.push_str(GAPS[trail]);
    line
}

/// A string of `picks`: ASCII, whitespace, digit-like and arbitrary
/// Unicode scalar values, so generated text hits every branch of the
/// byte scan.
fn arbitrary_text(picks: &[(u8, u32)]) -> String {
    picks
        .iter()
        .map(|&(class, x)| match class % 4 {
            0 => char::from(x as u8 & 0x7f),
            1 => GAPS[x as usize % GAPS.len()].chars().next().unwrap_or(' '),
            2 => ['a', 'e', 'n', 'd', '#', '+', '-', '.', '0', '1', '9'][x as usize % 11],
            _ => char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}'),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    fn parse_line_matches_the_oracle_on_generated_lines(
        lead in 0..GAPS.len(),
        tag in 0..TAGS.len(),
        rest in proptest::collection::vec((0..GAPS.len(), 0..GAPS.len(), 0..FIELDS.len()), 0..6),
        trail in 0..GAPS.len(),
    ) {
        agrees(&generated_line(lead, tag, &rest, trail))?;
    }

    fn parse_line_matches_the_oracle_on_arbitrary_text(
        picks in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..40),
    ) {
        agrees(&arbitrary_text(&picks))?;
    }
}

#[test]
fn parse_line_matches_the_oracle_on_every_short_field() {
    // Every tag with every field in second, third and fourth place,
    // separated by every gap once: the cases above, exhaustively.
    for tag in TAGS {
        for field in FIELDS {
            for gap in GAPS {
                for line in [
                    format!("{tag}{gap}{field}"),
                    format!("{tag} 1.5{gap}{field}{gap}"),
                    format!("{gap}{tag} 2 3{gap}{field}"),
                    format!("{tag} {field} 0{gap}1"),
                ] {
                    agrees(&line).unwrap();
                }
            }
        }
    }
    for line in ["", " ", "\u{3000}", "\r", "#", "  # comment", "\u{a0}#x"] {
        agrees(line).unwrap();
    }
}
