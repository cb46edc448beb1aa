//! Multirate calls — the "multiple call types" the paper excludes from
//! its preliminary study, as an extension.
//!
//! Calls come in classes of different bandwidth (in circuit units of the
//! single-rate model). A link admits a primary call of bandwidth `b`
//! while `occupancy + b ≤ C`, and an alternate-routed call while
//! `occupancy + b ≤ C − r` — the natural bandwidth-weighted reading of
//! the paper's state protection. Protection levels are computed from
//! Eq. 15 with the link's primary load measured in **bandwidth units**
//! (`Λ = Σ_classes b_c · Λ_c`, see [`plan`]), a heuristic the
//! single-rate theorem does not formally cover; the single-link
//! behaviour is validated against the exact Kaufman–Roberts recursion
//! ([`altroute_teletraffic::kaufman_roberts`]) in this module's tests.
//!
//! A multirate run is a mesh-engine run with more than one class: the
//! engine's source layout gives each (class, pair) its own arrival
//! source, whose bandwidth the kernel books and the admission policy
//! tests, and whose tally slot `class·n² + pair` makes the kernel's
//! tally vectors the per-(class, pair) offered/blocked counts. The named
//! [`PolicyKind`] goes through the engine's one policy table.
//! Replications fan out through [`Fanout::replicate`] and dynamic link
//! failures are honoured (calls in progress are torn down, the paper's
//! outage model).

use crate::engine::{assert_plan_hops, mesh_spec, run_named, Instruments};
use crate::experiment::SimParams;
use crate::failures::FailureSchedule;
use crate::trace::NullTraceSink;
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_netgraph::graph::Topology;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_simcore::kernel::{InterArrival, KernelScratch, KernelSpec};
use altroute_simcore::pool::Fanout;
use altroute_simcore::stats::BlockingSummary;
use altroute_telemetry::{NullRecorder, Recorder, RunTelemetry};

/// One bandwidth class of offered traffic.
#[derive(Debug, Clone)]
pub struct BandwidthClass {
    /// Bandwidth units each call of this class occupies on every link of
    /// its path.
    pub bandwidth: u32,
    /// Offered calls (Erlangs) per ordered pair.
    pub traffic: TrafficMatrix,
}

/// Aggregated multirate outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MultirateResult {
    /// The policy that ran.
    pub policy: PolicyKind,
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

/// Whether the multirate simulator models `policy`: every named policy
/// except Ott–Krishnan, whose shadow prices value a unit-bandwidth call
/// and ignore the bandwidth of the call being routed.
pub fn models(policy: PolicyKind) -> bool {
    !matches!(policy, PolicyKind::OttKrishnan { .. })
}

/// The routing plan of a multirate instance: min-hop primaries and hop
/// bound `max_hops` on `topo`, with link loads and Eq.-15 protection
/// levels from the bandwidth-weighted traffic `Σ_classes b_c · Λ_c`
/// (candidates and primaries are the same for every class).
///
/// # Panics
///
/// Panics on empty classes, a zero-bandwidth class, a class matrix not
/// sized for `topo`, or `max_hops == 0`.
pub fn plan(topo: &Topology, classes: &[BandwidthClass], max_hops: u32) -> RoutingPlan {
    validate(topo.num_nodes(), classes);
    let mut weighted = TrafficMatrix::zero(topo.num_nodes());
    for (i, j) in topo.ordered_pairs() {
        let total: f64 = classes
            .iter()
            .map(|c| c.traffic.get(i, j) * f64::from(c.bandwidth))
            .sum();
        weighted.set(i, j, total);
    }
    RoutingPlan::min_hop(topo.clone(), &weighted, max_hops)
}

/// Runs `params.seeds` replications of `classes` over `plan` (normally
/// [`plan`]'s) under `policy`, as `fanout` directs — the module's one
/// replication entry. Replication `i` uses seed `params.base_seed + i`.
/// With `fanout.window` set every replication records time-resolved
/// telemetry, merged across seeds in seed order.
///
/// The result is identical for every `fanout`: replications are merged
/// strictly in seed order and telemetry is a pure observer.
///
/// # Panics
///
/// Panics on inconsistent sizes, empty classes, invalid parameters, a
/// policy the simulator does not [model](models) or whose hop bound is
/// not the plan's `H`, or a zero worker count.
pub fn run_multirate(
    plan: &RoutingPlan,
    classes: &[BandwidthClass],
    policy: PolicyKind,
    params: &SimParams,
    failures: &FailureSchedule,
    fanout: &Fanout<'_>,
) -> (MultirateResult, Option<RunTelemetry>) {
    let topo = plan.topology();
    validate(topo.num_nodes(), classes);
    assert!(params.seeds > 0 && params.horizon > 0.0 && params.warmup >= 0.0);
    assert!(
        models(policy),
        "multirate does not model policy '{}'",
        policy.name()
    );
    assert_plan_hops(plan, policy);
    let mesh_classes: Vec<(u32, &TrafficMatrix)> =
        classes.iter().map(|c| (c.bandwidth, &c.traffic)).collect();
    let capacities: Vec<u32> = topo.links().iter().map(|l| l.capacity).collect();
    let (runs, telemetry) = fanout.replicate(
        params.seeds as usize,
        |window| RunTelemetry::new(params.warmup, params.horizon, window, capacities.clone()),
        RunTelemetry::merge,
        |scratch, i, telemetry| {
            let seed = params.base_seed + i as u64;
            let (capacities, sources, link_events, config) = mesh_spec(
                topo,
                &mesh_classes,
                failures,
                (params.warmup, params.horizon, seed),
                InterArrival::Exponential,
            );
            let spec = KernelSpec {
                config,
                capacities: &capacities,
                static_down: failures.statically_down(),
                sources: &sources,
                link_events: &link_events,
                initial_occupancy: &[],
            };
            match telemetry {
                Some(t) => run_one(plan, policy, &spec, t, scratch),
                None => run_one(plan, policy, &spec, &mut NullRecorder, scratch),
            }
        },
    );
    (summarize(policy, classes, &runs), telemetry)
}

fn validate(nodes: usize, classes: &[BandwidthClass]) {
    assert!(!classes.is_empty(), "need at least one class");
    for (i, c) in classes.iter().enumerate() {
        assert!(c.bandwidth > 0, "class {i} has zero bandwidth");
        assert_eq!(
            c.traffic.num_nodes(),
            nodes,
            "class {i} matrix size mismatch"
        );
    }
}

/// Per-class offered and blocked calls of one replication.
struct OneRun {
    offered: Vec<u64>,
    blocked: Vec<u64>,
}

fn run_one<R: Recorder>(
    plan: &RoutingPlan,
    policy: PolicyKind,
    spec: &KernelSpec<'_>,
    recorder: &mut R,
    scratch: &mut KernelScratch,
) -> OneRun {
    let mut observer = Instruments {
        sink: &mut NullTraceSink,
        recorder: &mut *recorder,
    };
    let outcome = run_named(plan, policy, spec, &mut observer, scratch);
    recorder.finish(spec.config.warmup + spec.config.horizon);
    // The tally has one n²-slot slice per class.
    let n = plan.topology().num_nodes();
    let per_class = |tally: &[u64]| tally.chunks(n * n).map(|c| c.iter().sum()).collect();
    OneRun {
        offered: per_class(&outcome.tally_offered),
        blocked: per_class(&outcome.tally_blocked),
    }
}

fn summarize(policy: PolicyKind, classes: &[BandwidthClass], runs: &[OneRun]) -> MultirateResult {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_seed, RunConfig};
    use altroute_netgraph::topologies;
    use altroute_teletraffic::kaufman_roberts::{kaufman_roberts_blocking, TrafficClass};

    const SINGLE: PolicyKind = PolicyKind::SinglePath;

    fn controlled(max_hops: u32) -> PolicyKind {
        PolicyKind::ControlledAlternate { max_hops }
    }

    fn two_node(capacity: u32) -> Topology {
        let mut t = Topology::new();
        t.add_nodes(2);
        t.add_duplex(0, 1, capacity);
        t
    }

    fn params(warmup: f64, horizon: f64, seeds: u32, base_seed: u64) -> SimParams {
        SimParams {
            warmup,
            horizon,
            seeds,
            base_seed,
        }
    }

    /// One replication set on [`plan`]'s plan with hop bound `max_hops`,
    /// telemetry dropped.
    fn run_on(
        topo: &Topology,
        classes: &[BandwidthClass],
        max_hops: u32,
        policy: PolicyKind,
        params: &SimParams,
        failures: &FailureSchedule,
        fanout: Fanout<'_>,
    ) -> MultirateResult {
        let plan = plan(topo, classes, max_hops);
        run_multirate(&plan, classes, policy, params, failures, &fanout).0
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
        let r = run_on(
            &topo,
            &classes,
            1,
            SINGLE,
            &params(20.0, 500.0, 6, 2),
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
    fn one_unit_class_is_the_plain_engine() {
        // A single unit-bandwidth class is the engine's own source layout
        // and plan, so every policy's counts must be the plain runs'.
        let topo = topologies::quadrangle();
        let traffic = TrafficMatrix::uniform(4, 85.0);
        let classes = [BandwidthClass {
            bandwidth: 1,
            traffic: traffic.clone(),
        }];
        let params = params(5.0, 40.0, 3, 31);
        let plan = plan(&topo, &classes, 3);
        let link01 = topo.link_between(0, 1).unwrap();
        let failures = FailureSchedule::none().with_outage(link01, 12.0, 25.0);
        for policy in [
            SINGLE,
            PolicyKind::UncontrolledAlternate { max_hops: 3 },
            controlled(3),
            PolicyKind::DarSticky { max_hops: 3 },
        ] {
            let (r, _) = run_multirate(&plan, &classes, policy, &params, &failures, &workers(1));
            let counts = (0..params.seeds).map(|i| {
                let seed = run_seed(&RunConfig {
                    plan: &plan,
                    policy,
                    traffic: &traffic,
                    warmup: params.warmup,
                    horizon: params.horizon,
                    seed: params.base_seed + u64::from(i),
                    failures: &failures,
                });
                (seed.offered, seed.blocked)
            });
            assert_eq!(
                r.blocking,
                BlockingSummary::from_counts(counts),
                "{policy:?}"
            );
            assert_eq!(r.bandwidth_blocking, r.blocking, "{policy:?}");
        }
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
        let params = params(10.0, 80.0, 4, 5);
        let none = FailureSchedule::none();
        let single = run_on(
            &topo,
            &classes,
            3,
            SINGLE,
            &params,
            &none,
            Fanout::default(),
        );
        let controlled = run_on(
            &topo,
            &classes,
            3,
            controlled(3),
            &params,
            &none,
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
        let params = params(5.0, 40.0, 3, 17);
        let link01 = topo.link_between(0, 1).unwrap();
        let failures = FailureSchedule::none().with_outage(link01, 12.0, 25.0);
        for policy in [
            SINGLE,
            PolicyKind::UncontrolledAlternate { max_hops: 3 },
            controlled(3),
        ] {
            let serial = run_on(&topo, &classes, 3, policy, &params, &failures, workers(1));
            for window in [None, Some(5.0)] {
                let pooled = Fanout {
                    window,
                    ..workers(4)
                };
                let pooled = run_on(&topo, &classes, 3, policy, &params, &failures, pooled);
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
        let params = params(5.0, 40.0, 2, 21);
        let recorded = Fanout {
            window: Some(5.0),
            ..Fanout::default()
        };
        let plan = plan(&topo, &classes, 3);
        let none = FailureSchedule::none();
        let (r, telemetry) =
            run_multirate(&plan, &classes, controlled(3), &params, &none, &recorded);
        let telemetry = telemetry.expect("a window records telemetry");
        let plain = run_on(
            &topo,
            &classes,
            3,
            controlled(3),
            &params,
            &none,
            Fanout::default(),
        );
        assert_eq!(r.blocking, plain.blocking);
        assert_eq!(r.per_class_blocking, plain.per_class_blocking);
        // The recorder saw every measured arrival of every seed.
        assert!(telemetry.offered > 0, "telemetry counted arrivals");
    }

    #[test]
    fn dynamic_outage_tears_down_multirate_calls() {
        // Timed link failures are honoured: calls in progress on the
        // failed link are torn down and arrivals during the outage block.
        let topo = two_node(30);
        let classes = [BandwidthClass {
            bandwidth: 3,
            traffic: one_way(2, 0, 1, 8.0),
        }];
        let params = params(5.0, 60.0, 2, 7);
        let link01 = topo.link_between(0, 1).unwrap();
        let outage = FailureSchedule::none().with_outage(link01, 20.0, 40.0);
        let none = FailureSchedule::none();
        let quiet = run_on(
            &topo,
            &classes,
            1,
            SINGLE,
            &params,
            &none,
            Fanout::default(),
        );
        let outage = run_on(
            &topo,
            &classes,
            1,
            SINGLE,
            &params,
            &outage,
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
        let r = run_on(
            &topo,
            &classes,
            3,
            controlled(3),
            &params(10.0, 80.0, 4, 13),
            &FailureSchedule::none(),
            Fanout::default(),
        );
        assert!(r.per_class_blocking[1] >= r.per_class_blocking[0]);
    }

    #[test]
    #[should_panic(expected = "policy hop bound must match the plan's H")]
    fn mismatched_hop_bound_panics() {
        let topo = topologies::quadrangle();
        let classes = [BandwidthClass {
            bandwidth: 1,
            traffic: TrafficMatrix::uniform(4, 10.0),
        }];
        run_on(
            &topo,
            &classes,
            3,
            controlled(2),
            &SimParams::default(),
            &FailureSchedule::none(),
            Fanout::default(),
        );
    }

    #[test]
    #[should_panic(expected = "multirate does not model policy 'ott-krishnan'")]
    fn ott_krishnan_is_rejected() {
        let topo = topologies::quadrangle();
        let classes = [BandwidthClass {
            bandwidth: 4,
            traffic: TrafficMatrix::uniform(4, 10.0),
        }];
        run_on(
            &topo,
            &classes,
            3,
            PolicyKind::OttKrishnan { max_hops: 3 },
            &SimParams::default(),
            &FailureSchedule::none(),
            Fanout::default(),
        );
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
            1,
            SINGLE,
            &SimParams::default(),
            &FailureSchedule::none(),
            Fanout::default(),
        );
    }
}
