//! The call-by-call cellular simulator.
//!
//! Calls arrive per cell as Poisson streams with unit-mean exponential
//! holding times (same conventions as the network simulator). A call is
//! served by a channel of its own cell when one is idle; otherwise the
//! borrowing policy decides whether a neighbour lends a channel, which
//! occupies one channel in each cell of the lender's 3-cell co-cell set
//! for the call's duration. Common random numbers across policies, as in
//! the paper's methodology.
//!
//! On the simulation kernel each **cell is a link**: local service books
//! the 1-"link" path `[cell]` at the primary tier, a borrow books the
//! lender's 3-cell co-cell set at the alternate tier, and the borrowing
//! policies are exactly the kernel's admission policies — uncontrolled
//! capacity checks or trunk reservation with the per-cell Eq.-15 levels.
//! `carried_alternate` therefore *is* the borrow count. Replications fan
//! out through [`Fanout::replicate`] and any [`Recorder`] can observe a
//! run.

use crate::grid::CellGrid;
use crate::policy::{cell_protection_levels, BorrowPolicy};
use altroute_simcore::kernel::{
    self, AdmissionPolicy, ArrivalSource, KernelConfig, KernelScratch, KernelSpec, LinkOccupancy,
    RouteSelector, Selection, Tier, TrunkReservation, Uncontrolled,
};
pub use altroute_simcore::pool::Fanout;
use altroute_simcore::stats::BlockingSummary;
use altroute_telemetry::{NullRecorder, Recorder, RunTelemetry};

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellularParams {
    /// Warm-up duration discarded from statistics.
    pub warmup: f64,
    /// Measured duration.
    pub horizon: f64,
    /// Replications.
    pub seeds: u32,
    /// Base seed; replication `i` uses `base_seed + i`.
    pub base_seed: u64,
}

impl Default for CellularParams {
    fn default() -> Self {
        Self {
            warmup: 10.0,
            horizon: 100.0,
            seeds: 10,
            base_seed: 0xCE11,
        }
    }
}

/// Aggregated outcome of one borrowing policy.
#[derive(Debug, Clone)]
pub struct CellularResult {
    /// The policy that ran.
    pub policy: BorrowPolicy,
    /// Across-seed summary of average blocking.
    pub blocking: BlockingSummary,
    /// Per-seed `(offered, blocked, borrowed)` counts.
    pub per_seed: Vec<(u64, u64, u64)>,
}

impl CellularResult {
    /// Mean blocking across seeds.
    pub fn blocking_mean(&self) -> f64 {
        self.blocking.mean()
    }

    /// Fraction of carried calls that borrowed, pooled over seeds.
    pub fn borrow_fraction(&self) -> f64 {
        let (mut carried, mut borrowed) = (0u64, 0u64);
        for &(offered, blocked, b) in &self.per_seed {
            carried += offered - blocked;
            borrowed += b;
        }
        if carried == 0 {
            0.0
        } else {
            borrowed as f64 / carried as f64
        }
    }
}

/// Precomputed link sets the selector routes over: the 1-cell path of
/// local service per cell, and the lender's 3-cell co-cell set. Owned
/// outside the selector so routed paths can borrow for the kernel run's
/// lifetime.
struct BorrowTables {
    singles: Vec<[usize; 1]>,
    sets: Vec<[usize; 3]>,
}

impl BorrowTables {
    fn new(grid: &CellGrid) -> Self {
        Self {
            singles: (0..grid.num_cells()).map(|c| [c]).collect(),
            sets: (0..grid.num_cells()).map(|c| grid.borrow_set(c)).collect(),
        }
    }
}

/// The borrowing route selector: local channel first (primary tier),
/// then each neighbour's co-cell set in ascending id order (alternate
/// tier), admission-checked cell by cell.
struct BorrowSelector<'p> {
    grid: &'p CellGrid,
    tables: &'p BorrowTables,
    borrowing: bool,
}

impl<'p> RouteSelector<'p> for BorrowSelector<'p> {
    fn select<A: AdmissionPolicy>(
        &mut self,
        src: usize,
        _dst: usize,
        _pick: f64,
        view: &LinkOccupancy,
        admission: &A,
        bandwidth: u32,
    ) -> Selection<'p> {
        let cell = src;
        if admission.admits(view, cell, Tier::Primary, bandwidth) {
            return Selection::Route {
                links: &self.tables.singles[cell],
                tier: Tier::Primary,
            };
        }
        if !self.borrowing {
            return Selection::Blocked;
        }
        // Try neighbours in ascending id order as lenders; a lender
        // works only if every cell of its co-cell set admits the call.
        'lenders: for &lender in self.grid.neighbors(cell) {
            let set = &self.tables.sets[lender];
            for &c in set {
                if !admission.admits(view, c, Tier::Alternate, bandwidth) {
                    continue 'lenders;
                }
            }
            return Selection::Route {
                links: set,
                tier: Tier::Alternate,
            };
        }
        Selection::Blocked
    }
}

/// Runs `params.seeds` replications of the borrowing policy on the grid
/// offered `loads[i]` Erlangs per cell, as `fanout` directs, and returns
/// across-seed blocking — the simulator's one replication entry.
///
/// With `fanout.window` set every replication records
/// time-resolved telemetry, merged across seeds in seed order. Results
/// are identical for every `fanout`.
///
/// # Panics
///
/// Panics if `loads.len() != grid.num_cells()`, a load is invalid, the
/// parameters are degenerate, or the worker count is zero.
pub fn run_cellular(
    grid: &CellGrid,
    loads: &[f64],
    policy: BorrowPolicy,
    params: &CellularParams,
    fanout: &Fanout<'_>,
) -> (CellularResult, Option<RunTelemetry>) {
    validate(grid, loads, params);
    let protection = cell_protection_levels(loads, grid.capacity());
    let tables = BorrowTables::new(grid);
    let (per_seed, telemetry) = fanout.replicate(
        params.seeds as usize,
        |window| {
            let capacities = vec![grid.capacity(); grid.num_cells()];
            RunTelemetry::new(params.warmup, params.horizon, window, capacities)
        },
        RunTelemetry::merge,
        |scratch, i, telemetry| {
            let seed = params.base_seed + i as u64;
            match telemetry {
                Some(t) => run_one(
                    grid,
                    loads,
                    policy,
                    &protection,
                    &tables,
                    params,
                    seed,
                    t,
                    scratch,
                ),
                None => run_one(
                    grid,
                    loads,
                    policy,
                    &protection,
                    &tables,
                    params,
                    seed,
                    &mut NullRecorder,
                    scratch,
                ),
            }
        },
    );
    (summarize(policy, per_seed), telemetry)
}

fn validate(grid: &CellGrid, loads: &[f64], params: &CellularParams) {
    assert_eq!(loads.len(), grid.num_cells(), "one load per cell");
    assert!(
        loads.iter().all(|&l| l.is_finite() && l >= 0.0),
        "loads must be >= 0"
    );
    assert!(params.seeds > 0 && params.horizon > 0.0 && params.warmup >= 0.0);
}

fn summarize(policy: BorrowPolicy, per_seed: Vec<(u64, u64, u64)>) -> CellularResult {
    let blocking = BlockingSummary::from_counts(per_seed.iter().map(|&(o, b, _)| (o, b)));
    CellularResult {
        policy,
        blocking,
        per_seed,
    }
}

/// Forwards the kernel's telemetry-relevant hooks to a [`Recorder`] (the
/// cellular simulator has no trace-sink format).
struct RecorderObserver<'a, R> {
    recorder: &'a mut R,
}

impl<R: Recorder> kernel::KernelObserver for RecorderObserver<'_, R> {
    fn arrival_routed(
        &mut self,
        now: f64,
        _tag: u32,
        tier: Tier,
        links: &[usize],
        hold: f64,
        measured: bool,
    ) {
        let outcome = match tier {
            Tier::Primary => altroute_telemetry::ArrivalOutcome::Primary,
            Tier::Alternate => altroute_telemetry::ArrivalOutcome::Alternate,
        };
        self.recorder
            .arrival(now, measured, outcome, links.len() as u8, hold);
    }

    fn arrival_blocked(&mut self, now: f64, _tag: u32, hold: f64, measured: bool) {
        self.recorder.arrival(
            now,
            measured,
            altroute_telemetry::ArrivalOutcome::Blocked,
            0,
            hold,
        );
    }

    fn occupancy_changed(&mut self, now: f64, link: usize, occupancy: u32) {
        self.recorder.occupancy(now, link as u32, occupancy);
    }

    fn departure(&mut self, now: f64, _call: u32, _gen: u32, stale: bool) {
        self.recorder.departure(now, stale);
    }

    fn teardown(&mut self, now: f64, _call: u32, _gen: u32, measured: bool) {
        self.recorder.teardown(now, measured);
    }

    fn link_change(&mut self, now: f64, link: u32, up: bool) {
        self.recorder.link_state(now, link, up);
    }

    fn event_processed(&mut self, now: f64, queue_len: usize) {
        self.recorder.event(now, queue_len);
    }
}

/// The kernel's static description of one cellular replication: one
/// arrival source per loaded cell (stream = tag = tally = cell id).
fn build_parts(
    grid: &CellGrid,
    loads: &[f64],
    params: &CellularParams,
    seed: u64,
) -> (Vec<u32>, Vec<ArrivalSource>, KernelConfig) {
    let capacities = vec![grid.capacity(); grid.num_cells()];
    let sources: Vec<ArrivalSource> = loads
        .iter()
        .enumerate()
        .filter(|&(_, &load)| load > 0.0)
        .map(|(cell, &load)| ArrivalSource {
            stream: cell as u64,
            src: cell,
            dst: cell,
            rate: load,
            bandwidth: 1,
            tag: cell as u32,
            tally: cell as u32,
        })
        .collect();
    let config = KernelConfig {
        warmup: params.warmup,
        horizon: params.horizon,
        seed,
        draw_pick: false,
        tick_interval: None,
        tally_slots: grid.num_cells(),
    };
    (capacities, sources, config)
}

#[allow(clippy::too_many_arguments)]
fn run_one<R: Recorder>(
    grid: &CellGrid,
    loads: &[f64],
    policy: BorrowPolicy,
    protection: &[u32],
    tables: &BorrowTables,
    params: &CellularParams,
    seed: u64,
    recorder: &mut R,
    scratch: &mut KernelScratch,
) -> (u64, u64, u64) {
    let (capacities, sources, config) = build_parts(grid, loads, params, seed);
    let spec = KernelSpec {
        config,
        capacities: &capacities,
        static_down: &[],
        sources: &sources,
        link_events: &[],
        initial_occupancy: &[],
    };
    let mut selector = BorrowSelector {
        grid,
        tables,
        borrowing: policy != BorrowPolicy::NoBorrowing,
    };
    let mut observer = RecorderObserver {
        recorder: &mut *recorder,
    };
    let outcome = match policy {
        BorrowPolicy::Controlled => kernel::run_pooled(
            &spec,
            &mut TrunkReservation::new(protection.to_vec()),
            &mut selector,
            &mut observer,
            scratch,
        ),
        BorrowPolicy::NoBorrowing | BorrowPolicy::Uncontrolled => kernel::run_pooled(
            &spec,
            &mut Uncontrolled,
            &mut selector,
            &mut observer,
            scratch,
        ),
    };
    recorder.finish(params.warmup + params.horizon);
    (outcome.offered, outcome.blocked, outcome.carried_alternate)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One replication set on `fanout`, telemetry dropped.
    fn run_on(
        grid: &CellGrid,
        loads: &[f64],
        policy: BorrowPolicy,
        params: &CellularParams,
        fanout: Fanout<'_>,
    ) -> CellularResult {
        run_cellular(grid, loads, policy, params, &fanout).0
    }

    /// The default fan-out.
    fn run(
        grid: &CellGrid,
        loads: &[f64],
        policy: BorrowPolicy,
        params: &CellularParams,
    ) -> CellularResult {
        run_on(grid, loads, policy, params, Fanout::default())
    }

    fn workers(workers: usize) -> Fanout<'static> {
        Fanout {
            workers,
            ..Fanout::default()
        }
    }

    fn quick() -> CellularParams {
        CellularParams {
            warmup: 5.0,
            horizon: 60.0,
            seeds: 5,
            base_seed: 77,
        }
    }

    #[test]
    fn identical_arrivals_across_policies() {
        let grid = CellGrid::new(4, 4, 20);
        let loads = vec![15.0; 16];
        let offered: Vec<u64> = [
            BorrowPolicy::NoBorrowing,
            BorrowPolicy::Uncontrolled,
            BorrowPolicy::Controlled,
        ]
        .iter()
        .map(|&p| {
            run(&grid, &loads, p, &quick())
                .per_seed
                .iter()
                .map(|s| s.0)
                .sum()
        })
        .collect();
        assert_eq!(offered[0], offered[1]);
        assert_eq!(offered[1], offered[2]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let grid = CellGrid::new(3, 3, 10);
        let loads = vec![8.0; 9];
        let a = run(&grid, &loads, BorrowPolicy::Controlled, &quick());
        let b = run(&grid, &loads, BorrowPolicy::Controlled, &quick());
        assert_eq!(a.per_seed, b.per_seed);
    }

    #[test]
    fn fanout_never_changes_results() {
        // The worker count is a scheduling detail: results must be
        // bit-identical for every worker count and every policy.
        let grid = CellGrid::new(4, 4, 15);
        let mut loads = vec![11.0; 16];
        loads[2] = 0.0; // a silent cell keeps source/cell indices distinct
        let params = quick();
        for policy in [
            BorrowPolicy::NoBorrowing,
            BorrowPolicy::Uncontrolled,
            BorrowPolicy::Controlled,
        ] {
            let serial = run_on(&grid, &loads, policy, &params, workers(1));
            for count in [2, 4] {
                let pooled = run_on(&grid, &loads, policy, &params, workers(count));
                assert_eq!(
                    serial.per_seed, pooled.per_seed,
                    "{policy:?} on {count} workers"
                );
                assert_eq!(serial.blocking, pooled.blocking);
            }
        }
    }

    #[test]
    fn telemetry_is_a_pure_observer() {
        let grid = CellGrid::new(3, 3, 10);
        let loads = vec![8.0; 9];
        let plain = run(&grid, &loads, BorrowPolicy::Controlled, &quick());
        for count in [1, 3] {
            let fanout = Fanout {
                window: Some(5.0),
                ..workers(count)
            };
            let (r, telemetry) =
                run_cellular(&grid, &loads, BorrowPolicy::Controlled, &quick(), &fanout);
            assert_eq!(r.per_seed, plain.per_seed);
            assert_eq!(
                telemetry.expect("a window records telemetry").offered,
                r.per_seed.iter().map(|s| s.0).sum::<u64>()
            );
        }
    }

    #[test]
    fn controlled_borrowing_beats_no_borrowing_under_hotspot() {
        // A hot cell surrounded by cool neighbours: borrowing must rescue
        // calls, and the theorem says controlled borrowing can only help.
        let grid = CellGrid::new(4, 4, 30);
        let mut loads = vec![8.0; 16];
        loads[5] = 45.0; // interior hotspot
        let params = CellularParams {
            warmup: 10.0,
            horizon: 150.0,
            seeds: 6,
            base_seed: 3,
        };
        let none = run(&grid, &loads, BorrowPolicy::NoBorrowing, &params);
        let controlled = run(&grid, &loads, BorrowPolicy::Controlled, &params);
        assert!(
            controlled.blocking_mean() < none.blocking_mean(),
            "controlled {} vs none {}",
            controlled.blocking_mean(),
            none.blocking_mean()
        );
        assert!(controlled.borrow_fraction() > 0.0);
        assert_eq!(none.borrow_fraction(), 0.0);
    }

    #[test]
    fn uncontrolled_borrowing_degrades_under_uniform_overload() {
        // Every borrow burns 3 channels; under uniform overload the
        // uncontrolled policy wastes capacity and blocks more than the
        // controlled one.
        let grid = CellGrid::new(4, 4, 25);
        let loads = vec![28.0; 16];
        let params = CellularParams {
            warmup: 10.0,
            horizon: 150.0,
            seeds: 6,
            base_seed: 9,
        };
        let uncontrolled = run(&grid, &loads, BorrowPolicy::Uncontrolled, &params);
        let controlled = run(&grid, &loads, BorrowPolicy::Controlled, &params);
        let none = run(&grid, &loads, BorrowPolicy::NoBorrowing, &params);
        assert!(
            controlled.blocking_mean() <= uncontrolled.blocking_mean(),
            "controlled {} vs uncontrolled {}",
            controlled.blocking_mean(),
            uncontrolled.blocking_mean()
        );
        // The theorem's guarantee: controlled never worse than no
        // borrowing (allow a small statistical margin).
        assert!(
            controlled.blocking_mean() <= none.blocking_mean() + 0.01,
            "controlled {} vs none {}",
            controlled.blocking_mean(),
            none.blocking_mean()
        );
    }

    #[test]
    fn idle_network_blocks_nothing() {
        let grid = CellGrid::new(3, 3, 10);
        let loads = vec![0.5; 9];
        let r = run(&grid, &loads, BorrowPolicy::Controlled, &quick());
        assert!(r.blocking_mean() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "one load per cell")]
    fn wrong_load_length_panics() {
        let grid = CellGrid::new(3, 3, 10);
        run(&grid, &[1.0; 5], BorrowPolicy::Controlled, &quick());
    }
}
