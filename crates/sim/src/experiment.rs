//! Multi-seed experiments: the paper's measurement methodology.
//!
//! An [`Experiment`] is a network instance (topology + traffic matrix,
//! optionally custom primaries and link failures).
//! [`Experiment::replicate`] executes `seeds` independent replications —
//! in parallel, on a worker pool bounded as its [`Fanout`] directs — of
//! 10-unit
//! warm-up + 100-unit measurement (both configurable via [`SimParams`]),
//! and aggregates them into an [`ExperimentResult`]: across-seed blocking
//! statistics, per-pair blocking for the fairness study, and
//! routing-class breakdowns.
//! [`Experiment::erlang_bound`] computes the cut-set lower bound for the
//! same instance (accounting for statically failed links).

use crate::engine::{Run, RunConfig, SeedResult};
use crate::failures::FailureSchedule;
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_core::primary::PrimaryAssignment;
use altroute_netgraph::cuts;
use altroute_netgraph::graph::Topology;
use altroute_netgraph::paths::min_hop_path;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_simcore::metrics::EngineMetrics;
use altroute_simcore::stats::Replications;
use altroute_telemetry::{RunTelemetry, SpanProfile};

pub use altroute_simcore::pool::{Fanout, ProgressObserver};

/// Simulation parameters shared by every replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Warm-up duration discarded from statistics (paper: 10).
    pub warmup: f64,
    /// Measured duration (paper: 100).
    pub horizon: f64,
    /// Number of replications (paper: 10).
    pub seeds: u32,
    /// Base seed; replication `i` uses `base_seed + i`.
    pub base_seed: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        Self {
            warmup: 10.0,
            horizon: 100.0,
            seeds: 10,
            base_seed: 0x0A17_0B75,
        }
    }
}

/// Why an [`Experiment`] could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The traffic matrix is sized for a different node count.
    SizeMismatch {
        /// Nodes in the topology.
        topology_nodes: usize,
        /// Nodes the matrix is sized for.
        traffic_nodes: usize,
    },
    /// A pair with positive demand has no path at all.
    UnroutablePair {
        /// Origin node.
        src: usize,
        /// Destination node.
        dst: usize,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::SizeMismatch {
                topology_nodes,
                traffic_nodes,
            } => write!(
                f,
                "traffic matrix sized for {traffic_nodes} nodes but topology has {topology_nodes}"
            ),
            ExperimentError::UnroutablePair { src, dst } => {
                write!(f, "pair ({src}, {dst}) has demand but no path")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// A network instance ready to simulate.
#[derive(Debug, Clone)]
pub struct Experiment {
    topo: Topology,
    traffic: TrafficMatrix,
    primaries: Option<PrimaryAssignment>,
    failures: FailureSchedule,
}

impl Experiment {
    /// Validates and builds an experiment with min-hop primaries and no
    /// failures.
    pub fn new(topo: Topology, traffic: TrafficMatrix) -> Result<Self, ExperimentError> {
        if traffic.num_nodes() != topo.num_nodes() {
            return Err(ExperimentError::SizeMismatch {
                topology_nodes: topo.num_nodes(),
                traffic_nodes: traffic.num_nodes(),
            });
        }
        for (i, j, _) in traffic.demands() {
            if min_hop_path(&topo, i, j).is_none() {
                return Err(ExperimentError::UnroutablePair { src: i, dst: j });
            }
        }
        Ok(Self {
            topo,
            traffic,
            primaries: None,
            failures: FailureSchedule::none(),
        })
    }

    /// Replaces the primary assignment (e.g. the min-loss bifurcated one).
    pub fn with_primaries(mut self, primaries: PrimaryAssignment) -> Self {
        assert_eq!(
            primaries.num_nodes(),
            self.topo.num_nodes(),
            "primary assignment size mismatch"
        );
        self.primaries = Some(primaries);
        self
    }

    /// Installs a failure schedule.
    pub fn with_failures(mut self, failures: FailureSchedule) -> Self {
        self.failures = failures;
        self
    }

    /// A copy of this experiment with the traffic scaled by `factor` —
    /// one point of a load sweep.
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            topo: self.topo.clone(),
            traffic: self.traffic.scaled(factor),
            primaries: self.primaries.clone(),
            failures: self.failures.clone(),
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The traffic matrix.
    pub fn traffic(&self) -> &TrafficMatrix {
        &self.traffic
    }

    /// Builds the routing plan a policy would use (exposed so callers can
    /// inspect protection levels, e.g. to print Table 1).
    pub fn plan_for(&self, kind: PolicyKind) -> RoutingPlan {
        // Single-path routing never consults alternates or protection;
        // any positive H yields the same behaviour. Use the network-wide
        // loop-free maximum for the alternate policies.
        let h = kind.max_hops().unwrap_or(1);
        match &self.primaries {
            Some(p) => RoutingPlan::with_primaries(self.topo.clone(), &self.traffic, p.clone(), h),
            None => RoutingPlan::min_hop(self.topo.clone(), &self.traffic, h),
        }
    }

    /// Runs `params.seeds` replications of `kind` on the default
    /// [`Fanout`] — `self.replicate(kind, params, &Fanout::default())`
    /// without telemetry.
    pub fn run(&self, kind: PolicyKind, params: &SimParams) -> ExperimentResult {
        self.replicate(kind, params, &Fanout::default()).0
    }

    /// Runs `params.seeds` replications of `kind` (replication `i` uses
    /// seed `params.base_seed + i`) as `fanout` directs, and aggregates
    /// them — the experiment's one replication entry.
    ///
    /// Replications are distributed over a pool of `fanout.workers`
    /// threads that write each seed's result into its own slot, so
    /// results are positionally ordered. With `fanout.window` set, every replication records counters,
    /// histograms, and sim-time windowed series, merged in seed order
    /// into one [`RunTelemetry`] snapshot whose wall-clock span profile
    /// (`plan_build`, `seed_warmup`, `seed_measurement`,
    /// `replication_fan_out`, `aggregation`) is excluded from equality.
    ///
    /// The result and the snapshot's deterministic fields are
    /// byte-identical for every `fanout`: the worker count is a
    /// scheduling detail and telemetry is a pure observer (the
    /// conformance suite pins this down, `EngineMetrics` included).
    ///
    /// # Panics
    ///
    /// Panics if `params.seeds` or `fanout.workers` is zero, or a
    /// telemetry window is not positive.
    pub fn replicate(
        &self,
        kind: PolicyKind,
        params: &SimParams,
        fanout: &Fanout<'_>,
    ) -> (ExperimentResult, Option<RunTelemetry>) {
        assert!(params.seeds > 0, "need at least one replication");
        let mut spans = SpanProfile::new();
        let plan = spans.time("plan_build", || self.plan_for(kind));
        let capacities: Vec<u32> = self.topo.links().iter().map(|l| l.capacity).collect();
        let fanout_started = std::time::Instant::now();
        let (per_seed, telemetry) = fanout.replicate(
            params.seeds as usize,
            |window| RunTelemetry::new(params.warmup, params.horizon, window, capacities.clone()),
            RunTelemetry::merge,
            |scratch, i, telemetry| {
                let config = RunConfig {
                    plan: &plan,
                    policy: kind,
                    traffic: &self.traffic,
                    warmup: params.warmup,
                    horizon: params.horizon,
                    seed: params.base_seed + i as u64,
                    failures: &self.failures,
                };
                let run = Run::new(&config).scratch(scratch);
                match telemetry {
                    Some(telemetry) => run.recorder(telemetry).execute(),
                    None => run.execute(),
                }
            },
        );
        spans.add(
            "replication_fan_out",
            fanout_started.elapsed().as_secs_f64(),
        );
        let aggregation_started = std::time::Instant::now();
        let result = self.summarize(kind, per_seed);
        spans.add("aggregation", aggregation_started.elapsed().as_secs_f64());
        let telemetry = telemetry.map(|mut t| {
            t.spans.merge(&spans);
            t
        });
        (result, telemetry)
    }

    fn summarize(&self, kind: PolicyKind, per_seed: Vec<SeedResult>) -> ExperimentResult {
        let blocking = Replications::summarize(
            &per_seed
                .iter()
                .map(SeedResult::blocking)
                .collect::<Vec<_>>(),
        );
        ExperimentResult {
            policy: kind,
            n: self.topo.num_nodes(),
            per_seed,
            blocking,
        }
    }

    /// The Erlang cut-set lower bound on average blocking for this
    /// instance. Statically failed links contribute no capacity.
    pub fn erlang_bound(&self) -> f64 {
        let topo = if self.failures.statically_down().is_empty() {
            self.topo.clone()
        } else {
            // Rebuild without the failed links (ids are not preserved, but
            // only pooled capacities matter for the bound).
            let mut t = Topology::new();
            for i in 0..self.topo.num_nodes() {
                t.add_node(self.topo.node_name(i));
            }
            for (id, link) in self.topo.links().iter().enumerate() {
                if !self.failures.statically_down().contains(&id) {
                    t.add_link(link.src, link.dst, link.capacity);
                }
            }
            t
        };
        cuts::erlang_bound(&topo, &self.traffic).bound
    }
}

/// Aggregated outcome of one policy on one instance.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The policy that ran.
    pub policy: PolicyKind,
    /// Per-replication counters.
    pub per_seed: Vec<SeedResult>,
    /// Across-seed summary of average network blocking.
    pub blocking: Replications,
    n: usize,
}

impl ExperimentResult {
    /// Mean average network blocking across seeds.
    pub fn blocking_mean(&self) -> f64 {
        self.blocking.mean
    }

    /// Standard error of the blocking mean.
    pub fn blocking_std_error(&self) -> f64 {
        self.blocking.std_error
    }

    /// Pooled per-pair blocking probabilities (row-major `n × n`):
    /// total blocked over total offered per pair across all seeds.
    /// Pairs never offered a call report 0.
    pub fn per_pair_blocking(&self) -> Vec<f64> {
        let mut offered = vec![0u64; self.n * self.n];
        let mut blocked = vec![0u64; self.n * self.n];
        for seed in &self.per_seed {
            for (o, &v) in offered.iter_mut().zip(&seed.per_pair_offered) {
                *o += v;
            }
            for (b, &v) in blocked.iter_mut().zip(&seed.per_pair_blocked) {
                *b += v;
            }
        }
        offered
            .iter()
            .zip(&blocked)
            .map(|(&o, &b)| if o == 0 { 0.0 } else { b as f64 / o as f64 })
            .collect()
    }

    /// The skewness proxy used for the §4.2.2 fairness study: the standard
    /// deviation of per-pair blocking across pairs that were offered
    /// traffic, together with the maximum pair blocking.
    pub fn pair_blocking_spread(&self) -> PairSpread {
        let per_pair = self.per_pair_blocking();
        let offered: Vec<bool> = {
            let mut any = vec![false; self.n * self.n];
            for seed in &self.per_seed {
                for (a, &o) in any.iter_mut().zip(&seed.per_pair_offered) {
                    *a |= o > 0;
                }
            }
            any
        };
        let values: Vec<f64> = per_pair
            .iter()
            .zip(&offered)
            .filter(|(_, &o)| o)
            .map(|(&b, _)| b)
            .collect();
        if values.is_empty() {
            return PairSpread {
                mean: 0.0,
                std_dev: 0.0,
                max: 0.0,
                coefficient_of_variation: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
        let std_dev = var.sqrt();
        let max = values.iter().cloned().fold(0.0, f64::max);
        let cv = if mean > 0.0 { std_dev / mean } else { 0.0 };
        PairSpread {
            mean,
            std_dev,
            max,
            coefficient_of_variation: cv,
        }
    }

    /// Fraction of carried calls routed on alternates, pooled over seeds.
    pub fn alternate_fraction(&self) -> f64 {
        let (mut alt, mut carried) = (0u64, 0u64);
        for s in &self.per_seed {
            alt += s.carried_alternate;
            carried += s.carried_primary + s.carried_alternate;
        }
        if carried == 0 {
            0.0
        } else {
            alt as f64 / carried as f64
        }
    }

    /// Total calls dropped by dynamic failures, pooled over seeds.
    pub fn total_dropped(&self) -> u64 {
        self.per_seed.iter().map(|s| s.dropped).sum()
    }

    /// Engine metrics aggregated across replications: event counts and
    /// wall clock are summed, queue/call peaks take the maximum, and
    /// per-link utilization is the across-seed mean.
    pub fn metrics_summary(&self) -> EngineMetrics {
        let mut total = EngineMetrics::default();
        for s in &self.per_seed {
            total.absorb(&s.metrics);
        }
        total.scale_utilization(self.per_seed.len());
        total
    }
}

/// Spread statistics of per-pair blocking (fairness study).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairSpread {
    /// Mean per-pair blocking over offered pairs.
    pub mean: f64,
    /// Population standard deviation over offered pairs.
    pub std_dev: f64,
    /// Worst pair's blocking.
    pub max: f64,
    /// `std_dev / mean` (0 when mean is 0) — the skewness proxy.
    pub coefficient_of_variation: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use altroute_netgraph::topologies;

    fn quick() -> SimParams {
        SimParams {
            warmup: 5.0,
            horizon: 40.0,
            seeds: 4,
            base_seed: 7,
        }
    }

    #[test]
    fn construction_validates_sizes_and_routability() {
        let topo = topologies::quadrangle();
        assert!(matches!(
            Experiment::new(topo.clone(), TrafficMatrix::uniform(5, 1.0)),
            Err(ExperimentError::SizeMismatch {
                topology_nodes: 4,
                traffic_nodes: 5
            })
        ));
        let mut disconnected = Topology::new();
        disconnected.add_nodes(3);
        disconnected.add_duplex(0, 1, 5);
        let mut m = TrafficMatrix::zero(3);
        m.set(0, 2, 1.0);
        match Experiment::new(disconnected, m) {
            Err(e) => assert_eq!(e, ExperimentError::UnroutablePair { src: 0, dst: 2 }),
            Ok(_) => panic!("unroutable pair must be rejected"),
        }
    }

    #[test]
    fn run_aggregates_replications() {
        let exp =
            Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 80.0)).unwrap();
        let r = exp.run(PolicyKind::ControlledAlternate { max_hops: 3 }, &quick());
        assert_eq!(r.per_seed.len(), 4);
        assert_eq!(r.blocking.replications, 4);
        // Seeds must differ.
        let seeds: Vec<u64> = r.per_seed.iter().map(|s| s.seed).collect();
        assert_eq!(seeds, vec![7, 8, 9, 10]);
        assert!(r.blocking_mean() >= 0.0 && r.blocking_mean() <= 1.0);
    }

    #[test]
    fn parallel_run_matches_sequential_runs() {
        let exp =
            Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 85.0)).unwrap();
        let params = quick();
        let kind = PolicyKind::UncontrolledAlternate { max_hops: 3 };
        let parallel = exp.run(kind, &params);
        // Re-run each seed alone and compare.
        for (i, seed_result) in parallel.per_seed.iter().enumerate() {
            let single = exp.run(
                kind,
                &SimParams {
                    seeds: 1,
                    base_seed: params.base_seed + i as u64,
                    ..params
                },
            );
            assert_eq!(&single.per_seed[0], seed_result);
        }
    }

    #[test]
    fn worker_pool_is_deterministic_with_more_seeds_than_workers() {
        // More seeds than any plausible core count: seeds queue behind
        // the bounded pool, and results must still come back in seed
        // order, byte-identical across runs and to solo executions.
        let exp =
            Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 80.0)).unwrap();
        let params = SimParams {
            warmup: 2.0,
            horizon: 10.0,
            seeds: 32,
            base_seed: 100,
        };
        let kind = PolicyKind::ControlledAlternate { max_hops: 3 };
        let first = exp.run(kind, &params);
        let second = exp.run(kind, &params);
        assert_eq!(first.per_seed, second.per_seed);
        let seeds: Vec<u64> = first.per_seed.iter().map(|s| s.seed).collect();
        assert_eq!(seeds, (100..132).collect::<Vec<u64>>());
        for i in [0usize, 17, 31] {
            let solo = exp.run(
                kind,
                &SimParams {
                    seeds: 1,
                    base_seed: params.base_seed + i as u64,
                    ..params
                },
            );
            assert_eq!(solo.per_seed[0], first.per_seed[i], "seed index {i}");
        }
    }

    #[test]
    fn fanout_never_changes_results() {
        // The bounded replication pool must be a pure scheduling detail:
        // the same seed set through 1 worker and through N workers must
        // produce byte-identical SeedResults, EngineMetrics included
        // (wall clock is excluded from metric equality by design).
        let exp =
            Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 85.0)).unwrap();
        let params = SimParams {
            warmup: 2.0,
            horizon: 15.0,
            seeds: 12,
            base_seed: 0xD0_0D,
        };
        for kind in [
            PolicyKind::SinglePath,
            PolicyKind::ControlledAlternate { max_hops: 3 },
            PolicyKind::DarSticky { max_hops: 3 },
        ] {
            let run = |workers| {
                let fanout = Fanout {
                    workers,
                    ..Fanout::default()
                };
                exp.replicate(kind, &params, &fanout).0
            };
            let sequential = run(1);
            for workers in [2, 8, 32] {
                let other = run(workers);
                assert_eq!(
                    sequential.per_seed, other.per_seed,
                    "{kind:?} with {workers} workers diverged from sequential"
                );
                for (a, b) in sequential.per_seed.iter().zip(&other.per_seed) {
                    assert_eq!(a.metrics, b.metrics);
                }
            }
        }
    }

    #[test]
    fn metrics_summary_aggregates_across_seeds() {
        let exp =
            Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 80.0)).unwrap();
        let r = exp.run(PolicyKind::ControlledAlternate { max_hops: 3 }, &quick());
        let total = r.metrics_summary();
        let events: u64 = r.per_seed.iter().map(|s| s.metrics.events_processed).sum();
        assert_eq!(total.events_processed, events);
        assert!(total.events_processed > 0);
        let peak = r
            .per_seed
            .iter()
            .map(|s| s.metrics.peak_concurrent_calls)
            .max()
            .unwrap();
        assert_eq!(total.peak_concurrent_calls, peak);
        assert_eq!(total.link_utilization.len(), exp.topology().num_links());
        for (l, &u) in total.link_utilization.iter().enumerate() {
            assert!((0.0..=1.0).contains(&u), "link {l} utilization {u}");
        }
        // Quadrangle at 80 Erlangs/pair keeps every link busy.
        assert!(total.link_utilization.iter().all(|&u| u > 0.5));
    }

    #[test]
    fn alternate_routing_beats_single_path_under_asymmetric_load() {
        // One hot pair in a lightly loaded mesh: alternates rescue it.
        let mut m = TrafficMatrix::uniform(4, 10.0);
        m.set(0, 1, 130.0);
        let exp = Experiment::new(topologies::quadrangle(), m).unwrap();
        let params = quick();
        let single = exp.run(PolicyKind::SinglePath, &params);
        let controlled = exp.run(PolicyKind::ControlledAlternate { max_hops: 3 }, &params);
        assert!(
            controlled.blocking_mean() < single.blocking_mean() * 0.8,
            "controlled {} vs single {}",
            controlled.blocking_mean(),
            single.blocking_mean()
        );
        assert!(controlled.alternate_fraction() > 0.0);
        assert_eq!(single.alternate_fraction(), 0.0);
    }

    #[test]
    fn erlang_bound_lower_bounds_simulated_blocking() {
        let exp =
            Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 95.0)).unwrap();
        let bound = exp.erlang_bound();
        let params = SimParams {
            warmup: 10.0,
            horizon: 100.0,
            seeds: 5,
            base_seed: 3,
        };
        for kind in [
            PolicyKind::SinglePath,
            PolicyKind::UncontrolledAlternate { max_hops: 3 },
            PolicyKind::ControlledAlternate { max_hops: 3 },
        ] {
            let r = exp.run(kind, &params);
            // Allow a small statistical margin below the bound.
            assert!(
                r.blocking_mean() > bound - 0.02,
                "{kind:?}: blocking {} below Erlang bound {bound}",
                r.blocking_mean()
            );
        }
    }

    #[test]
    fn failed_links_raise_bound_and_blocking() {
        let exp =
            Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 90.0)).unwrap();
        let l01 = exp.topology().link_between(0, 1).unwrap();
        let l10 = exp.topology().link_between(1, 0).unwrap();
        let failed = exp
            .clone()
            .with_failures(FailureSchedule::static_down([l01, l10]));
        assert!(failed.erlang_bound() >= exp.erlang_bound());
        let params = quick();
        let kind = PolicyKind::ControlledAlternate { max_hops: 3 };
        let healthy = exp.run(kind, &params);
        let broken = failed.run(kind, &params);
        assert!(broken.blocking_mean() >= healthy.blocking_mean());
    }

    #[test]
    fn per_pair_blocking_shape_and_range() {
        let exp =
            Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 90.0)).unwrap();
        let r = exp.run(PolicyKind::SinglePath, &quick());
        let pp = r.per_pair_blocking();
        assert_eq!(pp.len(), 16);
        for (idx, &b) in pp.iter().enumerate() {
            assert!((0.0..=1.0).contains(&b), "pair {idx}: {b}");
        }
        // Diagonal pairs see no traffic.
        for i in 0..4 {
            assert_eq!(pp[i * 4 + i], 0.0);
        }
        let spread = r.pair_blocking_spread();
        assert!(spread.max >= spread.mean);
        assert!(spread.std_dev >= 0.0);
    }

    #[test]
    fn scaled_experiment_scales_traffic() {
        let exp =
            Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 50.0)).unwrap();
        let doubled = exp.scaled(2.0);
        assert!((doubled.traffic().get(0, 1) - 100.0).abs() < 1e-12);
        assert_eq!(doubled.topology().num_links(), 12);
    }

    #[test]
    fn bifurcated_primaries_run_end_to_end() {
        let topo = topologies::nsfnet(100);
        let traffic = altroute_netgraph::estimate::nsfnet_nominal_traffic()
            .traffic
            .scaled(0.6);
        let splits = altroute_core::primary::min_loss_splits(
            &topo,
            &traffic,
            altroute_core::primary::MinLossOptions {
                max_hops: 11,
                iterations: 50,
                prune_below: 1e-2,
            },
        );
        let exp = Experiment::new(topo, traffic)
            .unwrap()
            .with_primaries(splits);
        let params = SimParams {
            warmup: 3.0,
            horizon: 20.0,
            seeds: 2,
            base_seed: 5,
        };
        let r = exp.run(PolicyKind::ControlledAlternate { max_hops: 11 }, &params);
        assert!(r.blocking_mean() < 0.2);
    }
}
