//! Fuzzing the feed path: any bytes through `run_feed` into a
//! `mesh_plane` controller end in `Ok` or `Err`, never a panic, and the
//! checked-in `ramp` feed split across reads at any byte offset replays
//! to the same `.levels` stream as the feed read whole.

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
