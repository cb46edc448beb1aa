//! Allocation bounds on the feed path, counted by a global allocator
//! that tallies this thread's allocations: accepted arrivals allocate
//! nothing, so a feed whose arrivals all fall in one window costs the
//! same allocations at 1,000 lines as at 100,000; a malformed line
//! costs at most [`ALLOCS_PER_BAD_LINE`] (its error message); a window
//! whose re-solve emits an update costs [`ALLOCS_PER_UPDATE`], whatever
//! the link count.

use altrouted::config::mesh_plane;
use altrouted::control::{Controller, ControllerTuning};
use altrouted::service::run_feed;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations (and reallocations) made by the current thread,
/// so the harness's other threads do not disturb a test.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's. Counting touches only a
// const-initialised thread-local `Cell` with no destructor, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller keeps `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller keeps `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller keeps `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const NODES: usize = 4;

/// The most allocations one malformed line may cost: its error message,
/// dropped unread. `format!` sizes a message from its fixed text, so a
/// short quoted field fits at once; a long one (up to the 4 KiB line
/// cap) grows the `String` to fit the field and once more for the
/// closing quote. Every message quotes at most one field.
const ALLOCS_PER_BAD_LINE: u64 = 3;

fn controller() -> Controller {
    Controller::new(mesh_plane(NODES, 20, 2), ControllerTuning::default())
}

/// The allocations a window's re-solve costs once the controller is
/// warm, when it changes a level: the levels the emitted update owns and
/// the line rendered from them.
const ALLOCS_PER_UPDATE: u64 = 2;

/// Allocations `run_feed` makes on `feed` into a fresh controller, with
/// the update stream written to a buffer allocated beforehand.
fn feed_allocations(feed: &str) -> u64 {
    feed_allocations_on(controller(), feed).0
}

/// Allocations `run_feed` makes on `feed` into `controller`, and the
/// updates it writes.
fn feed_allocations_on(mut controller: Controller, feed: &str) -> (u64, u64) {
    let mut out = Vec::with_capacity(1 << 20);
    let mut updates = 0;
    let allocs = allocations(|| {
        updates = run_feed(&mut controller, feed.as_bytes(), &mut out, None)
            .expect("feed runs")
            .updates;
    });
    (allocs, updates)
}

/// The header and `n` arrivals cycling over every ordered pair, all
/// inside the first unit window (times in `[0, 0.5)`).
fn one_window_feed(n: usize) -> String {
    let mut feed = format!("altroute-feed v1 nodes={NODES}\n");
    for i in 0..n {
        let (src, hop) = (i % NODES, 1 + (i / NODES) % (NODES - 1));
        let time = i as f64 / (2 * n) as f64;
        feed.push_str(&format!("a {time} {src} {}\n", (src + hop) % NODES));
    }
    feed
}

#[test]
fn accepted_arrivals_allocate_nothing() {
    let small = feed_allocations(&one_window_feed(1_000));
    let large = feed_allocations(&one_window_feed(100_000));
    assert_eq!(small, large, "99,000 more arrivals changed the allocations");
}

#[test]
fn a_malformed_line_allocates_at_most_its_message() {
    let long = "x".repeat(3000);
    let kinds = [
        "xyzzy 1 2 3".to_string(),
        "a nonsense 0 1".to_string(),
        "a 0.25 0".to_string(),
        "a 0.25 0 1 9".to_string(),
        "a 0.25 0\u{a0}+x".to_string(),
        "a -1 0 1".to_string(),
        "altroute-feed v2 nodes=4".to_string(),
        "end".to_string(),
        format!("a 0.25 0 {long}"),
        format!("{long} 0.25 0 1"),
    ];
    let header = one_window_feed(0);
    let base = feed_allocations(&header);
    for n in [1_000, 10_000] {
        let mut feed = header.clone();
        for i in 0..n {
            feed.push_str(&kinds[i % kinds.len()]);
            feed.push('\n');
        }
        let extra = feed_allocations(&feed) - base;
        assert!(
            extra <= ALLOCS_PER_BAD_LINE * n as u64,
            "{n} malformed lines made {extra} allocations"
        );
    }
    // A line over the 4 KiB cap is skipped unbuffered: one message too.
    let over = format!("{header}{}\n", "x".repeat(1 << 16));
    assert!(feed_allocations(&over) - base <= ALLOCS_PER_BAD_LINE);
}

/// A feed on `K_nodes` that closes `windows` unit windows, each pair
/// offered 19 arrivals in even windows and 1 in odd ones, so that every
/// re-solve changes the levels; the arrivals of one more window close
/// the last.
fn alternating_feed(nodes: usize, windows: usize) -> String {
    let pairs = nodes * (nodes - 1);
    let mut feed = format!("altroute-feed v1 nodes={nodes}\n");
    for w in 0..=windows {
        let n = if w % 2 == 0 { 19 * pairs } else { pairs };
        for i in 0..n {
            let (src, hop) = ((i % pairs) / (nodes - 1), 1 + i % (nodes - 1));
            let time = w as f64 + i as f64 / n as f64;
            feed.push_str(&format!("a {time} {src} {}\n", (src + hop) % nodes));
        }
    }
    feed
}

#[test]
fn a_window_allocates_only_its_update_and_line() {
    for nodes in [4, 12] {
        let cost = |windows: usize| {
            let plane = mesh_plane(nodes, 20, 2);
            let controller = Controller::new(plane, ControllerTuning::default());
            let (allocs, updates) =
                feed_allocations_on(controller, &alternating_feed(nodes, windows));
            assert_eq!(updates, windows as u64, "K_{nodes}: one update per window");
            allocs
        };
        let (few, many) = (cost(4), cost(40));
        assert_eq!(
            many - few,
            ALLOCS_PER_UPDATE * 36,
            "K_{nodes}: 36 more updating windows"
        );
    }
}
