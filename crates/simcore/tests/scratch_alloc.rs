//! Allocation bound on the kernel's recycled scratch, counted by a
//! global allocator that tallies this thread's allocations: once a
//! [`KernelScratch`] has run a replication, the same replication costs
//! the same allocations at horizon `T` as at `4T`. Nothing a run does
//! per event or per unit of simulated time may allocate: the event
//! queue's buckets and sorted day, the call table and the teardown
//! buffers keep their capacity across runs, and a warm queue, already
//! sized for the run, does not resize.

use altroute_simcore::kernel::{
    run_pooled, AdmissionPolicy, ArrivalSource, InterArrival, KernelConfig, KernelObserver,
    KernelScratch, KernelSpec, Link, LinkEvent, LinkOccupancy, RouteSelector, Selection, Tier,
    Uncontrolled,
};
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

/// `K_4`: one link per unordered pair, numbered in pair order.
const NODES: usize = 4;
const LINKS: [[Link; 2]; 6] = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]];

/// Routes each call on the direct link of its pair, or blocks it.
struct Direct;

impl RouteSelector<'static> for Direct {
    fn select<A: AdmissionPolicy>(
        &mut self,
        src: usize,
        dst: usize,
        _pick: f64,
        view: &LinkOccupancy,
        admission: &A,
        bandwidth: u32,
    ) -> Selection<'static> {
        const PATHS: [[Link; 1]; 6] = [[0], [1], [2], [3], [4], [5]];
        let (a, b) = (src.min(dst), src.max(dst));
        let link = LINKS.iter().position(|l| *l == [a, b]).expect("a K_4 pair");
        let links = &PATHS[link];
        if admission.path_admits(view, links, Tier::Primary, bandwidth) {
            Selection::Route {
                links,
                tier: Tier::Primary,
            }
        } else {
            Selection::Blocked
        }
    }
}

struct Quiet;
impl KernelObserver for Quiet {}

/// Allocations of one replication on `scratch` over `horizon`: Fig.-3
/// scale traffic (80 E per ordered pair on capacity-100 links) with one
/// link failed and repaired inside the shortest horizon, so teardowns
/// and the link index run too.
fn replication(scratch: &mut KernelScratch, horizon: f64) -> u64 {
    let sources: Vec<ArrivalSource> = (0..NODES * NODES)
        .filter(|p| p / NODES != p % NODES)
        .map(|p| ArrivalSource {
            stream: p as u64,
            src: p / NODES,
            dst: p % NODES,
            rate: 80.0,
            bandwidth: 1,
            gaps: InterArrival::Exponential,
        })
        .collect();
    let outage = [
        LinkEvent {
            at: 3.0,
            link: 0,
            up: false,
        },
        LinkEvent {
            at: 4.0,
            link: 0,
            up: true,
        },
    ];
    let spec = KernelSpec {
        config: KernelConfig {
            warmup: 2.0,
            horizon,
            seed: 7,
            draw_pick: true,
            tick_interval: Some(1.0),
            tally_slots: NODES * NODES,
        },
        capacities: &[100; 6],
        static_down: &[],
        sources: &sources,
        link_events: &outage,
        initial_occupancy: &[],
    };
    allocations(|| {
        let outcome = run_pooled(&spec, &mut Uncontrolled, &mut Direct, &mut Quiet, scratch);
        assert!(outcome.offered > 0 && outcome.blocked < outcome.offered);
    })
}

#[test]
fn a_warm_replication_allocates_the_same_at_any_horizon() {
    const T: f64 = 10.0;
    let mut scratch = KernelScratch::new();
    replication(&mut scratch, 4.0 * T);
    let (short, long) = (
        replication(&mut scratch, T),
        replication(&mut scratch, 4.0 * T),
    );
    assert_eq!(short, long, "horizon {T} vs {}: allocations", 4.0 * T);
}
