//! Channel borrowing in cellular telephony, controlled by state
//! protection — the paper's §3.2 generalization.
//!
//! The control strategy of the paper applies to any
//! Multiple-Service/Multiple-Resource model where an "alternate resource
//! set" can carry a request at extra expense. The paper's worked example
//! is **channel borrowing**: a call arriving at a cell with no idle
//! channel may borrow a channel from a neighbouring cell, but the borrowed
//! channel must then be *locked* in the lender's co-channel cells, so the
//! borrow consumes capacity in a co-cell set of (classically) 3 cells.
//! Choosing each cell's protection level with `H = 3` therefore guarantees
//! — by exactly the Theorem-1 argument — that borrowing can only improve
//! on the no-borrowing baseline.
//!
//! Calls arrive per cell as Poisson streams with unit-mean exponential
//! holding times (same conventions as the network simulator). A call is
//! served by a channel of its own cell when one is idle; otherwise the
//! borrowing policy decides whether a neighbour lends a channel, which
//! occupies one channel in each cell of the lender's 3-cell co-cell set
//! ([`CellGrid::borrow_set`]) for the call's duration. Common random
//! numbers across policies, as in the paper's methodology.
//!
//! On the simulation kernel each **cell is a link**: local service books
//! the 1-"link" path `[cell]` at the primary tier, a borrow books the
//! lender's 3-cell co-cell set at the alternate tier, and the borrowing
//! policies are the mesh engine's [`PolicyKind`]s over the same
//! admission policies: [`PolicyKind::SinglePath`] never borrows,
//! [`PolicyKind::UncontrolledAlternate`] borrows on capacity checks and
//! [`PolicyKind::ControlledAlternate`] borrows under trunk reservation
//! with the per-cell Eq.-15 levels at `H = 3`; the hop bound a policy
//! carries must be that 3 (see [`models`]). `carried_alternate`
//! therefore *is* the borrow count. Replications fan out through
//! [`Fanout::replicate`] and any [`Recorder`] observes a run through the
//! engine's one kernel adapter.

mod grid;

pub use grid::CellGrid;

use crate::engine::Instruments;
use crate::experiment::SimParams;
use crate::trace::NullTraceSink;
use altroute_core::policy::PolicyKind;
use altroute_simcore::kernel::{
    self, AdmissionPolicy, ArrivalSource, InterArrival, KernelConfig, KernelScratch, KernelSpec,
    LinkOccupancy, RouteSelector, Selection, Tier, TrunkReservation, Uncontrolled,
};
use altroute_simcore::pool::Fanout;
use altroute_simcore::stats::BlockingSummary;
use altroute_telemetry::{NullRecorder, Recorder, RunTelemetry};
use altroute_teletraffic::estimate::protection_levels_for;

/// The co-cell set size a borrow consumes: the `H` of each cell's Eq.-15
/// protection level ("if a co-cell set consists of 3-cells, then by
/// choosing a r corresponding to H = 3 …") and the hop bound a borrowing
/// policy carries.
const CO_CELL_SET: u32 = 3;

/// Whether the cellular simulator models `policy`: no borrowing
/// (single-path), uncontrolled and controlled borrowing. The
/// state-dependent selectors (Ott–Krishnan, DAR, best-of-d) choose among
/// a pair's candidate paths, and a cell's lenders are not candidate
/// paths of a routing plan.
pub fn models(policy: PolicyKind) -> bool {
    matches!(
        policy,
        PolicyKind::SinglePath
            | PolicyKind::UncontrolledAlternate { .. }
            | PolicyKind::ControlledAlternate { .. }
    )
}

/// Aggregated outcome of one borrowing policy.
#[derive(Debug, Clone)]
pub struct CellularResult {
    /// The policy that ran.
    pub policy: PolicyKind,
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

/// Runs `params.seeds` replications of the borrowing `policy` on the
/// grid offered `loads[i]` Erlangs per cell, as `fanout` directs, and
/// returns across-seed blocking — the simulator's one replication entry.
/// Replication `i` uses seed `params.base_seed + i`.
///
/// With `fanout.window` set every replication records
/// time-resolved telemetry, merged across seeds in seed order. Results
/// are identical for every `fanout`.
///
/// # Panics
///
/// Panics if `loads.len() != grid.num_cells()`, a load is invalid, the
/// parameters are degenerate, the policy is one the simulator does not
/// [model](models) or its hop bound is not the co-cell set size 3, or
/// the worker count is zero.
pub fn run_cellular(
    grid: &CellGrid,
    loads: &[f64],
    policy: PolicyKind,
    params: &SimParams,
    fanout: &Fanout<'_>,
) -> (CellularResult, Option<RunTelemetry>) {
    assert_eq!(loads.len(), grid.num_cells(), "one load per cell");
    assert!(
        loads.iter().all(|&l| l.is_finite() && l >= 0.0),
        "loads must be >= 0"
    );
    assert!(params.seeds > 0 && params.horizon > 0.0 && params.warmup >= 0.0);
    assert!(
        models(policy),
        "cellular does not model policy '{}'",
        policy.name()
    );
    if let Some(h) = policy.max_hops() {
        assert_eq!(
            h, CO_CELL_SET,
            "policy hop bound must be the co-cell set size"
        );
    }
    let capacities = vec![grid.capacity(); grid.num_cells()];
    let protection = protection_levels_for(loads, &capacities, CO_CELL_SET);
    let tables = BorrowTables::new(grid);
    // One arrival source per loaded cell (stream = tag = tally = cell id).
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
            gaps: InterArrival::Exponential,
        })
        .collect();
    let (per_seed, telemetry) = fanout.replicate(
        params.seeds as usize,
        |window| RunTelemetry::new(params.warmup, params.horizon, window, capacities.clone()),
        RunTelemetry::merge,
        |scratch, i, telemetry| {
            let spec = KernelSpec {
                config: KernelConfig {
                    warmup: params.warmup,
                    horizon: params.horizon,
                    seed: params.base_seed + i as u64,
                    draw_pick: false,
                    tick_interval: None,
                    tally_slots: grid.num_cells(),
                },
                capacities: &capacities,
                static_down: &[],
                sources: &sources,
                link_events: &[],
                initial_occupancy: &[],
            };
            let mut selector = BorrowSelector {
                grid,
                tables: &tables,
                borrowing: policy != PolicyKind::SinglePath,
            };
            match telemetry {
                Some(t) => run_one(policy, &protection, &spec, &mut selector, t, scratch),
                None => run_one(
                    policy,
                    &protection,
                    &spec,
                    &mut selector,
                    &mut NullRecorder,
                    scratch,
                ),
            }
        },
    );
    let blocking = BlockingSummary::from_counts(per_seed.iter().map(|&(o, b, _)| (o, b)));
    let result = CellularResult {
        policy,
        blocking,
        per_seed,
    };
    (result, telemetry)
}

/// One replication of `spec`: controlled borrowing admits under trunk
/// reservation at the per-cell `protection` levels, the other policies
/// on capacity alone. Returns `(offered, blocked, borrowed)`.
fn run_one<R: Recorder>(
    policy: PolicyKind,
    protection: &[u32],
    spec: &KernelSpec<'_>,
    selector: &mut BorrowSelector<'_>,
    recorder: &mut R,
    scratch: &mut KernelScratch,
) -> (u64, u64, u64) {
    let mut observer = Instruments {
        sink: &mut NullTraceSink,
        recorder: &mut *recorder,
    };
    let outcome = match policy {
        PolicyKind::ControlledAlternate { .. } => kernel::run_pooled(
            spec,
            &mut TrunkReservation::new(protection.to_vec()),
            selector,
            &mut observer,
            scratch,
        ),
        _ => kernel::run_pooled(spec, &mut Uncontrolled, selector, &mut observer, scratch),
    };
    recorder.finish(spec.config.warmup + spec.config.horizon);
    (outcome.offered, outcome.blocked, outcome.carried_alternate)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_BORROWING: PolicyKind = PolicyKind::SinglePath;
    const UNCONTROLLED: PolicyKind = PolicyKind::UncontrolledAlternate { max_hops: 3 };
    const CONTROLLED: PolicyKind = PolicyKind::ControlledAlternate { max_hops: 3 };

    /// One replication set on `fanout`, telemetry dropped.
    fn run_on(
        grid: &CellGrid,
        loads: &[f64],
        policy: PolicyKind,
        params: &SimParams,
        fanout: Fanout<'_>,
    ) -> CellularResult {
        run_cellular(grid, loads, policy, params, &fanout).0
    }

    /// The default fan-out.
    fn run(
        grid: &CellGrid,
        loads: &[f64],
        policy: PolicyKind,
        params: &SimParams,
    ) -> CellularResult {
        run_on(grid, loads, policy, params, Fanout::default())
    }

    fn workers(workers: usize) -> Fanout<'static> {
        Fanout {
            workers,
            ..Fanout::default()
        }
    }

    fn quick() -> SimParams {
        SimParams {
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
        let offered: Vec<u64> = [NO_BORROWING, UNCONTROLLED, CONTROLLED]
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
        let a = run(&grid, &loads, CONTROLLED, &quick());
        let b = run(&grid, &loads, CONTROLLED, &quick());
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
        for policy in [NO_BORROWING, UNCONTROLLED, CONTROLLED] {
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
        let plain = run(&grid, &loads, CONTROLLED, &quick());
        for count in [1, 3] {
            let fanout = Fanout {
                window: Some(5.0),
                ..workers(count)
            };
            let (r, telemetry) = run_cellular(&grid, &loads, CONTROLLED, &quick(), &fanout);
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
        let params = SimParams {
            warmup: 10.0,
            horizon: 150.0,
            seeds: 6,
            base_seed: 3,
        };
        let none = run(&grid, &loads, NO_BORROWING, &params);
        let controlled = run(&grid, &loads, CONTROLLED, &params);
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
        let params = SimParams {
            warmup: 10.0,
            horizon: 150.0,
            seeds: 6,
            base_seed: 9,
        };
        let uncontrolled = run(&grid, &loads, UNCONTROLLED, &params);
        let controlled = run(&grid, &loads, CONTROLLED, &params);
        let none = run(&grid, &loads, NO_BORROWING, &params);
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
        let r = run(&grid, &loads, CONTROLLED, &quick());
        assert!(r.blocking_mean() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "one load per cell")]
    fn wrong_load_length_panics() {
        let grid = CellGrid::new(3, 3, 10);
        run(&grid, &[1.0; 5], CONTROLLED, &quick());
    }

    #[test]
    fn protection_levels_small_for_moderate_cells() {
        // §3.2: "the value of r for H = 3 will be quite small for C ≈ 50",
        // so the controlled scheme stays close to optimal.
        let levels = protection_levels_for(&[20.0, 30.0, 40.0, 45.0], &[50; 4], CO_CELL_SET);
        assert_eq!(levels, vec![2, 3, 6, 9]);
        // Monotone in load.
        for w in levels.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn overloaded_cells_protect_fully() {
        let levels = protection_levels_for(&[120.0], &[50], CO_CELL_SET);
        assert_eq!(levels[0], 50);
    }

    #[test]
    #[should_panic(expected = "policy hop bound must be the co-cell set size")]
    fn mismatched_hop_bound_panics() {
        let grid = CellGrid::new(3, 3, 10);
        run(
            &grid,
            &[1.0; 9],
            PolicyKind::ControlledAlternate { max_hops: 2 },
            &quick(),
        );
    }

    #[test]
    fn unmodelled_policy_panics() {
        let grid = CellGrid::new(3, 3, 10);
        for policy in [
            PolicyKind::OttKrishnan { max_hops: 3 },
            PolicyKind::DarSticky { max_hops: 3 },
            PolicyKind::BestOfD { max_hops: 3, d: 2 },
        ] {
            assert!(!models(policy));
            let err = std::panic::catch_unwind(|| run(&grid, &[1.0; 9], policy, &quick()))
                .expect_err("an unmodelled policy panics");
            let msg = err
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert_eq!(
                *msg,
                format!("cellular does not model policy '{}'", policy.name())
            );
        }
    }
}
