//! Multirate calls — the "multiple call types" the paper excludes from
//! its preliminary study, as an extension.
//!
//! Calls come in classes of different bandwidth (in circuit units of the
//! single-rate model). A link admits a primary call of bandwidth `b`
//! while `occupancy + b ≤ C`, and an alternate-routed call while
//! `occupancy + b ≤ C − r` — the natural bandwidth-weighted reading of
//! the paper's state protection. Protection levels are computed from
//! Eq. 15 with the link's primary load measured in **bandwidth units**
//! (`Λ = Σ_classes b_c · Λ_c`), a heuristic the single-rate theorem does
//! not formally cover; the single-link behaviour is validated against
//! the exact Kaufman–Roberts recursion
//! ([`altroute_teletraffic::kaufman_roberts`]) in this module's tests.
//!
//! On the simulation kernel a multirate run is just the tiered selector
//! with per-source bandwidths: each (class, pair) is one
//! [`ArrivalSource`] whose `bandwidth` the kernel books and the
//! admission policy tests, and whose `tally` is the class index — the
//! kernel's tally vectors *are* the per-class offered/blocked counts.
//! Replications fan out through [`Fanout::replicate`] and dynamic link
//! failures are honoured (calls in progress are torn down, the paper's
//! outage model).

use crate::failures::FailureSchedule;
use crate::trace::NullTraceSink;
use altroute_core::plan::RoutingPlan;
use altroute_core::primary::PrimaryAssignment;
use altroute_core::select::TieredSelector;
use altroute_netgraph::graph::Topology;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_simcore::kernel::{
    self, ArrivalSource, InterArrival, KernelConfig, KernelScratch, KernelSpec, LinkEvent,
    TrunkReservation, Uncontrolled,
};
use altroute_simcore::pool::Fanout;
use altroute_simcore::stats::BlockingSummary;
use altroute_telemetry::{NullRecorder, Recorder, RunTelemetry};
use altroute_teletraffic::reservation::protection_level;

/// One bandwidth class of offered traffic.
#[derive(Debug, Clone)]
pub struct BandwidthClass {
    /// Bandwidth units each call of this class occupies on every link of
    /// its path.
    pub bandwidth: u32,
    /// Offered calls (Erlangs) per ordered pair.
    pub traffic: TrafficMatrix,
}

/// Which admission rule alternate-routed calls face.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiratePolicy {
    /// Primary path only.
    SinglePath,
    /// Alternates admitted whenever the bandwidth fits.
    Uncontrolled,
    /// Alternates admitted only below the protection threshold.
    Controlled,
}

impl MultiratePolicy {
    /// Short stable name.
    pub fn name(&self) -> &'static str {
        match self {
            MultiratePolicy::SinglePath => "single-path",
            MultiratePolicy::Uncontrolled => "uncontrolled",
            MultiratePolicy::Controlled => "controlled",
        }
    }
}

/// Parameters of a multirate experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultirateParams {
    /// Warm-up discarded from statistics.
    pub warmup: f64,
    /// Measured duration.
    pub horizon: f64,
    /// Replications.
    pub seeds: u32,
    /// Base seed.
    pub base_seed: u64,
    /// Alternate hop bound `H`.
    pub max_hops: u32,
}

impl Default for MultirateParams {
    fn default() -> Self {
        Self {
            warmup: 10.0,
            horizon: 100.0,
            seeds: 10,
            base_seed: 0x11BA,
            max_hops: 5,
        }
    }
}

/// Aggregated multirate outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MultirateResult {
    /// The policy that ran.
    pub policy: MultiratePolicy,
    /// Across-seed call blocking (all classes pooled).
    pub blocking: BlockingSummary,
    /// Per-class pooled blocking, in class order.
    pub per_class_blocking: Vec<f64>,
    /// Across-seed *bandwidth* blocking (lost units / offered units).
    pub bandwidth_blocking: BlockingSummary,
}

impl MultirateResult {
    /// Mean call blocking across seeds.
    pub fn blocking_mean(&self) -> f64 {
        self.blocking.mean()
    }
}

/// Everything state-independent a multirate run needs: the plan built
/// from the bandwidth-weighted aggregate traffic plus the Eq.-15 levels.
struct MultiratePlan {
    plan: RoutingPlan,
    levels: Vec<u32>,
}

fn build_plan(
    topo: &Topology,
    classes: &[BandwidthClass],
    params: &MultirateParams,
) -> MultiratePlan {
    let n = topo.num_nodes();
    // Aggregate bandwidth-weighted traffic for protection levels; the
    // plan also supplies candidates/primaries (identical across classes).
    let mut weighted = TrafficMatrix::zero(n);
    for (i, j) in topo.ordered_pairs() {
        let total: f64 = classes
            .iter()
            .map(|c| c.traffic.get(i, j) * f64::from(c.bandwidth))
            .sum();
        weighted.set(i, j, total);
    }
    let primaries = PrimaryAssignment::min_hop(topo);
    let plan = RoutingPlan::with_primaries(topo.clone(), &weighted, primaries, params.max_hops);
    let levels: Vec<u32> = plan
        .link_loads()
        .iter()
        .zip(topo.links())
        .map(|(&a, l)| protection_level(a, l.capacity, params.max_hops))
        .collect();
    MultiratePlan { plan, levels }
}

/// Runs `params.seeds` multirate replications on `topo` with min-hop
/// primaries as `fanout` directs — the module's one replication entry.
///
/// `levels` replaces the Eq.-15 protection levels with an explicit
/// per-link vector (reservation-sensitivity studies, and the
/// conformance suite's `r = 0` reduction: all-zero levels must make the
/// controlled policy coincide with the uncontrolled one, bit for bit).
/// With `fanout.window` set every replication records time-resolved
/// telemetry, merged across seeds in seed order.
///
/// The result is identical for every `fanout`: replications are merged
/// strictly in seed order and telemetry is a pure observer.
///
/// # Panics
///
/// Panics on inconsistent sizes, empty classes, invalid parameters, a
/// `levels` vector not one entry per link, or a zero worker count.
pub fn run_multirate(
    topo: &Topology,
    classes: &[BandwidthClass],
    policy: MultiratePolicy,
    params: &MultirateParams,
    failures: &FailureSchedule,
    levels: Option<&[u32]>,
    fanout: &Fanout<'_>,
) -> (MultirateResult, Option<RunTelemetry>) {
    validate(topo, classes, params);
    let mut mp = build_plan(topo, classes, params);
    if let Some(levels) = levels {
        assert_eq!(levels.len(), topo.num_links(), "one level per link");
        mp.levels = levels.to_vec();
    }
    let capacities: Vec<u32> = topo.links().iter().map(|l| l.capacity).collect();
    let (runs, telemetry) = fanout.replicate(
        params.seeds as usize,
        |window| RunTelemetry::new(params.warmup, params.horizon, window, capacities.clone()),
        RunTelemetry::merge,
        |scratch, i, telemetry| {
            let seed = params.base_seed + i as u64;
            match telemetry {
                Some(t) => run_one(&mp, classes, policy, params, seed, failures, t, scratch),
                None => run_one(
                    &mp,
                    classes,
                    policy,
                    params,
                    seed,
                    failures,
                    &mut NullRecorder,
                    scratch,
                ),
            }
        },
    );
    (summarize(policy, classes, &runs), telemetry)
}

fn validate(topo: &Topology, classes: &[BandwidthClass], params: &MultirateParams) {
    assert!(!classes.is_empty(), "need at least one class");
    assert!(params.seeds > 0 && params.horizon > 0.0 && params.warmup >= 0.0);
    let n = topo.num_nodes();
    for (i, c) in classes.iter().enumerate() {
        assert!(c.bandwidth > 0, "class {i} has zero bandwidth");
        assert_eq!(c.traffic.num_nodes(), n, "class {i} matrix size mismatch");
    }
}

struct OneRun {
    offered: Vec<u64>,
    blocked: Vec<u64>,
}

fn summarize(
    policy: MultiratePolicy,
    classes: &[BandwidthClass],
    runs: &[OneRun],
) -> MultirateResult {
    let mut class_offered = vec![0u64; classes.len()];
    let mut class_blocked = vec![0u64; classes.len()];
    let mut call_counts = Vec::with_capacity(runs.len());
    let mut bw_counts = Vec::with_capacity(runs.len());
    for run in runs {
        call_counts.push((run.offered.iter().sum(), run.blocked.iter().sum()));
        let offered_bw: u64 = run
            .offered
            .iter()
            .zip(classes)
            .map(|(&o, c)| o * u64::from(c.bandwidth))
            .sum();
        let blocked_bw: u64 = run
            .blocked
            .iter()
            .zip(classes)
            .map(|(&b, c)| b * u64::from(c.bandwidth))
            .sum();
        bw_counts.push((offered_bw, blocked_bw));
        for (acc, v) in class_offered.iter_mut().zip(&run.offered) {
            *acc += v;
        }
        for (acc, v) in class_blocked.iter_mut().zip(&run.blocked) {
            *acc += v;
        }
    }
    let per_class_blocking = class_offered
        .iter()
        .zip(&class_blocked)
        .map(|(&o, &b)| altroute_simcore::stats::blocking_ratio(b, o))
        .collect();
    MultirateResult {
        policy,
        blocking: BlockingSummary::from_counts(call_counts),
        per_class_blocking,
        bandwidth_blocking: BlockingSummary::from_counts(bw_counts),
    }
}

/// The kernel's static description of one multirate replication: one
/// arrival source per (class, pair), in class-major order — the stream
/// id layout (`ci·n² + pair`) keeps the common random numbers of the
/// single-rate engine for class 0 of an n-node network.
fn build_parts(
    mp: &MultiratePlan,
    classes: &[BandwidthClass],
    params: &MultirateParams,
    seed: u64,
    failures: &FailureSchedule,
) -> (Vec<u32>, Vec<ArrivalSource>, Vec<LinkEvent>, KernelConfig) {
    let topo = mp.plan.topology();
    let n = topo.num_nodes();
    let capacities: Vec<u32> = topo.links().iter().map(|l| l.capacity).collect();
    let mut sources = Vec::new();
    for (ci, class) in classes.iter().enumerate() {
        for (i, j, t) in class.traffic.demands() {
            let pair = i * n + j;
            sources.push(ArrivalSource {
                stream: (ci * n * n + pair) as u64,
                src: i,
                dst: j,
                rate: t,
                bandwidth: class.bandwidth,
                tag: (ci * n * n + pair) as u32,
                tally: ci as u32,
                gaps: InterArrival::Exponential,
            });
        }
    }
    let link_events: Vec<LinkEvent> = failures
        .events()
        .iter()
        .map(|ev| LinkEvent {
            at: ev.at,
            link: ev.link,
            up: ev.up,
        })
        .collect();
    let config = KernelConfig {
        warmup: params.warmup,
        horizon: params.horizon,
        seed,
        draw_pick: true,
        tick_interval: None,
        tally_slots: classes.len(),
    };
    (capacities, sources, link_events, config)
}

#[allow(clippy::too_many_arguments)]
fn run_one<R: Recorder>(
    mp: &MultiratePlan,
    classes: &[BandwidthClass],
    policy: MultiratePolicy,
    params: &MultirateParams,
    seed: u64,
    failures: &FailureSchedule,
    recorder: &mut R,
    scratch: &mut KernelScratch,
) -> OneRun {
    let plan = &mp.plan;
    let (capacities, sources, link_events, config) =
        build_parts(mp, classes, params, seed, failures);
    let spec = KernelSpec {
        config,
        capacities: &capacities,
        static_down: failures.statically_down(),
        sources: &sources,
        link_events: &link_events,
        initial_occupancy: &[],
    };
    let mut observer = crate::engine::Instruments {
        sink: &mut NullTraceSink,
        recorder: &mut *recorder,
    };
    let outcome = match policy {
        MultiratePolicy::SinglePath => kernel::run_pooled(
            &spec,
            &mut Uncontrolled,
            &mut TieredSelector::single_path(plan),
            &mut observer,
            scratch,
        ),
        MultiratePolicy::Uncontrolled => kernel::run_pooled(
            &spec,
            &mut Uncontrolled,
            &mut TieredSelector::new(plan),
            &mut observer,
            scratch,
        ),
        MultiratePolicy::Controlled => kernel::run_pooled(
            &spec,
            &mut TrunkReservation::new(mp.levels.clone()),
            &mut TieredSelector::new(plan),
            &mut observer,
            scratch,
        ),
    };
    recorder.finish(params.warmup + params.horizon);
    OneRun {
        offered: outcome.tally_offered,
        blocked: outcome.tally_blocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use altroute_netgraph::topologies;
    use altroute_teletraffic::kaufman_roberts::{kaufman_roberts_blocking, TrafficClass};

    fn two_node(capacity: u32) -> Topology {
        let mut t = Topology::new();
        t.add_nodes(2);
        t.add_duplex(0, 1, capacity);
        t
    }

    /// One replication set on `fanout`, Eq.-15 levels, telemetry dropped.
    fn run_on(
        topo: &Topology,
        classes: &[BandwidthClass],
        policy: MultiratePolicy,
        params: &MultirateParams,
        failures: &FailureSchedule,
        fanout: Fanout<'_>,
    ) -> MultirateResult {
        run_multirate(topo, classes, policy, params, failures, None, &fanout).0
    }

    fn workers(workers: usize) -> Fanout<'static> {
        Fanout {
            workers,
            ..Fanout::default()
        }
    }

    fn one_way(n: usize, i: usize, j: usize, erlangs: f64) -> TrafficMatrix {
        let mut m = TrafficMatrix::zero(n);
        m.set(i, j, erlangs);
        m
    }

    #[test]
    fn single_link_matches_kaufman_roberts() {
        let topo = two_node(40);
        let classes = [
            BandwidthClass {
                bandwidth: 1,
                traffic: one_way(2, 0, 1, 20.0),
            },
            BandwidthClass {
                bandwidth: 4,
                traffic: one_way(2, 0, 1, 3.0),
            },
        ];
        let params = MultirateParams {
            warmup: 20.0,
            horizon: 500.0,
            seeds: 6,
            base_seed: 2,
            max_hops: 1,
        };
        let r = run_on(
            &topo,
            &classes,
            MultiratePolicy::SinglePath,
            &params,
            &FailureSchedule::none(),
            Fanout::default(),
        );
        let analytic = kaufman_roberts_blocking(
            40,
            &[
                TrafficClass {
                    intensity: 20.0,
                    bandwidth: 1,
                },
                TrafficClass {
                    intensity: 3.0,
                    bandwidth: 4,
                },
            ],
        );
        for (ci, (&sim, &exact)) in r.per_class_blocking.iter().zip(&analytic).enumerate() {
            assert!(
                (sim - exact).abs() < 0.02,
                "class {ci}: simulated {sim} vs Kaufman-Roberts {exact}"
            );
        }
        // Wideband calls block more in both.
        assert!(r.per_class_blocking[1] > r.per_class_blocking[0]);
    }

    #[test]
    fn controlled_not_worse_than_single_path_multirate() {
        let topo = topologies::quadrangle();
        let classes = [
            BandwidthClass {
                bandwidth: 1,
                traffic: TrafficMatrix::uniform(4, 60.0),
            },
            BandwidthClass {
                bandwidth: 4,
                traffic: TrafficMatrix::uniform(4, 8.0),
            },
        ];
        let params = MultirateParams {
            warmup: 10.0,
            horizon: 80.0,
            seeds: 4,
            base_seed: 5,
            max_hops: 3,
        };
        let single = run_on(
            &topo,
            &classes,
            MultiratePolicy::SinglePath,
            &params,
            &FailureSchedule::none(),
            Fanout::default(),
        );
        let controlled = run_on(
            &topo,
            &classes,
            MultiratePolicy::Controlled,
            &params,
            &FailureSchedule::none(),
            Fanout::default(),
        );
        let tol = 2.0 * (single.blocking.std_error() + controlled.blocking.std_error()) + 1e-3;
        assert!(
            controlled.blocking_mean() <= single.blocking_mean() + tol,
            "controlled {} vs single {}",
            controlled.blocking_mean(),
            single.blocking_mean()
        );
    }

    #[test]
    fn fanout_never_changes_results() {
        // The worker count must be invisible in the results, for every
        // policy, with and without a telemetry recorder riding the run.
        let topo = topologies::quadrangle();
        let classes = [
            BandwidthClass {
                bandwidth: 1,
                traffic: TrafficMatrix::uniform(4, 40.0),
            },
            BandwidthClass {
                bandwidth: 3,
                traffic: TrafficMatrix::uniform(4, 6.0),
            },
        ];
        let params = MultirateParams {
            warmup: 5.0,
            horizon: 40.0,
            seeds: 3,
            base_seed: 17,
            max_hops: 3,
        };
        let link01 = topo.link_between(0, 1).unwrap();
        let failures = FailureSchedule::none().with_outage(link01, 12.0, 25.0);
        for policy in [
            MultiratePolicy::SinglePath,
            MultiratePolicy::Uncontrolled,
            MultiratePolicy::Controlled,
        ] {
            let serial = run_on(&topo, &classes, policy, &params, &failures, workers(1));
            for window in [None, Some(5.0)] {
                let pooled = Fanout {
                    window,
                    ..workers(4)
                };
                let pooled = run_on(&topo, &classes, policy, &params, &failures, pooled);
                assert_eq!(serial, pooled, "{policy:?} on 4 workers, window {window:?}");
            }
        }
    }

    #[test]
    fn telemetry_is_a_pure_observer() {
        let topo = topologies::quadrangle();
        let classes = [BandwidthClass {
            bandwidth: 2,
            traffic: TrafficMatrix::uniform(4, 25.0),
        }];
        let params = MultirateParams {
            warmup: 5.0,
            horizon: 40.0,
            seeds: 2,
            base_seed: 21,
            max_hops: 3,
        };
        let recorded = Fanout {
            window: Some(5.0),
            ..Fanout::default()
        };
        let (r, telemetry) = run_multirate(
            &topo,
            &classes,
            MultiratePolicy::Controlled,
            &params,
            &FailureSchedule::none(),
            None,
            &recorded,
        );
        let telemetry = telemetry.expect("a window records telemetry");
        let plain = run_on(
            &topo,
            &classes,
            MultiratePolicy::Controlled,
            &params,
            &FailureSchedule::none(),
            Fanout::default(),
        );
        assert_eq!(r.blocking, plain.blocking);
        assert_eq!(r.per_class_blocking, plain.per_class_blocking);
        // The recorder saw every measured arrival of every seed.
        assert!(telemetry.offered > 0, "telemetry counted arrivals");
    }

    #[test]
    fn dynamic_outage_tears_down_multirate_calls() {
        // The kernel port honours timed link failures (the pre-kernel
        // multirate loop ignored them): calls in progress on the failed
        // link are torn down and arrivals during the outage block.
        let topo = two_node(30);
        let classes = [BandwidthClass {
            bandwidth: 3,
            traffic: one_way(2, 0, 1, 8.0),
        }];
        let params = MultirateParams {
            warmup: 5.0,
            horizon: 60.0,
            seeds: 2,
            base_seed: 7,
            max_hops: 1,
        };
        let link01 = topo.link_between(0, 1).unwrap();
        let quiet = run_on(
            &topo,
            &classes,
            MultiratePolicy::SinglePath,
            &params,
            &FailureSchedule::none(),
            Fanout::default(),
        );
        let outage = run_on(
            &topo,
            &classes,
            MultiratePolicy::SinglePath,
            &params,
            &FailureSchedule::none().with_outage(link01, 20.0, 40.0),
            Fanout::default(),
        );
        assert!(
            outage.blocking_mean() > quiet.blocking_mean() + 0.1,
            "outage {} vs quiet {}",
            outage.blocking_mean(),
            quiet.blocking_mean()
        );
    }

    #[test]
    fn wideband_class_suffers_more_on_mesh_too() {
        let topo = topologies::quadrangle();
        let classes = [
            BandwidthClass {
                bandwidth: 1,
                traffic: TrafficMatrix::uniform(4, 70.0),
            },
            BandwidthClass {
                bandwidth: 5,
                traffic: TrafficMatrix::uniform(4, 4.0),
            },
        ];
        let params = MultirateParams {
            warmup: 10.0,
            horizon: 80.0,
            seeds: 4,
            base_seed: 13,
            max_hops: 3,
        };
        let r = run_on(
            &topo,
            &classes,
            MultiratePolicy::Controlled,
            &params,
            &FailureSchedule::none(),
            Fanout::default(),
        );
        assert!(r.per_class_blocking[1] >= r.per_class_blocking[0]);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_bandwidth_class_panics() {
        let topo = two_node(10);
        run_on(
            &topo,
            &[BandwidthClass {
                bandwidth: 0,
                traffic: one_way(2, 0, 1, 1.0),
            }],
            MultiratePolicy::SinglePath,
            &MultirateParams::default(),
            &FailureSchedule::none(),
            Fanout::default(),
        );
    }
}
