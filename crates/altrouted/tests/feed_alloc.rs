//! Allocation bounds on the feed path, counted by a global allocator
//! that tallies this thread's allocations: accepted arrivals allocate
//! nothing, so a feed whose arrivals all fall in one window costs the
//! same allocations at 1,000 lines as at 100,000; a malformed line
//! costs at most [`ALLOCS_PER_BAD_LINE`] (its error message).

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

/// Allocations `run_feed` makes on `feed` into a fresh controller, with
/// the update stream written to a buffer allocated beforehand.
fn feed_allocations(feed: &str) -> u64 {
    let mut controller = controller();
    let mut out = Vec::with_capacity(1 << 16);
    allocations(|| {
        run_feed(&mut controller, feed.as_bytes(), &mut out, None).expect("feed runs");
    })
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
