//! Differential oracles: the engine versus the analytic tier.
//!
//! # Tolerance policy
//!
//! Every check compares a simulated blocking estimate (mean over `n`
//! fixed-seed replications) against an analytic value:
//!
//! * **Exact oracles** (birth–death chains, Kaufman–Roberts): tolerance
//!   is `3σ + 0.004`, where `σ` is the across-replication standard error
//!   of the simulated mean. The 0.004 absolute floor absorbs the warm-up
//!   transient and finite-horizon bias that the replication spread does
//!   not measure (both shrink with the horizon but never reach zero).
//! * **Approximate oracle** (Erlang fixed point on meshes): tolerance is
//!   `3σ + max(0.012, 0.25·analytic)` — the reduced-load approximation
//!   itself carries model error (link-independence assumption), so the
//!   margin scales with the predicted blocking. The fixed point is a
//!   consistency check on routing and load bookkeeping, not an exact
//!   reference.
//!
//! Seeds are fixed, so every check is deterministic: a failure is a real
//! behavioural regression, never sampling noise.

use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_netgraph::graph::Topology;
use altroute_netgraph::paths::min_hop_path;
use altroute_netgraph::topologies;
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::engine::{run_seed, RunConfig, SeedResult};
use altroute_sim::failures::FailureSchedule;
use altroute_sim::multirate::{run_multirate, BandwidthClass, MultirateParams, MultiratePolicy};
use altroute_sim::Fanout;
use altroute_simcore::stats::Replications;
use altroute_teletraffic::birth_death::BirthDeathChain;
use altroute_teletraffic::fixed_point::{erlang_fixed_point, Route};
use altroute_teletraffic::kaufman_roberts::{kaufman_roberts_blocking, TrafficClass};

/// Absolute floor added to the 3σ band for exact oracles (warm-up and
/// finite-horizon bias allowance).
pub const EXACT_FLOOR: f64 = 0.004;
/// Absolute floor of the fixed-point tolerance.
pub const FIXED_POINT_FLOOR: f64 = 0.012;
/// Relative slack granted to the fixed-point approximation.
pub const FIXED_POINT_RELATIVE: f64 = 0.25;

/// One oracle comparison.
#[derive(Debug, Clone)]
pub struct OracleCheck {
    /// Scenario and quantity, e.g. `erlang C=20 a=16/network`.
    pub name: String,
    /// Simulated estimate (mean over replications).
    pub simulated: f64,
    /// Analytic reference value.
    pub analytic: f64,
    /// Across-replication standard error of the simulated mean.
    pub sigma: f64,
    /// `|simulated − analytic|` must not exceed this.
    pub tolerance: f64,
    /// Whether the check passed.
    pub pass: bool,
}

impl OracleCheck {
    fn exact(name: String, simulated: f64, analytic: f64, sigma: f64) -> Self {
        let tolerance = 3.0 * sigma + EXACT_FLOOR;
        Self {
            pass: (simulated - analytic).abs() <= tolerance,
            name,
            simulated,
            analytic,
            sigma,
            tolerance,
        }
    }

    fn approximate(name: String, simulated: f64, analytic: f64, sigma: f64) -> Self {
        let tolerance = 3.0 * sigma + FIXED_POINT_FLOOR.max(FIXED_POINT_RELATIVE * analytic);
        Self {
            pass: (simulated - analytic).abs() <= tolerance,
            name,
            simulated,
            analytic,
            sigma,
            tolerance,
        }
    }
}

const SEEDS: u64 = 8;
const WARMUP: f64 = 25.0;
const HORIZON: f64 = 400.0;

fn replicate(
    plan: &RoutingPlan,
    policy: PolicyKind,
    traffic: &TrafficMatrix,
    failures: &FailureSchedule,
    base_seed: u64,
) -> Vec<SeedResult> {
    (0..SEEDS)
        .map(|i| {
            run_seed(&RunConfig {
                plan,
                policy,
                traffic,
                warmup: WARMUP,
                horizon: HORIZON,
                seed: base_seed + i,
                failures,
            })
        })
        .collect()
}

fn network_blocking(results: &[SeedResult]) -> Replications {
    Replications::summarize(&results.iter().map(SeedResult::blocking).collect::<Vec<_>>())
}

fn pair_blocking(results: &[SeedResult], pair: usize) -> Replications {
    Replications::summarize(
        &results
            .iter()
            .map(|r| {
                let offered = r.per_pair_offered[pair];
                assert!(offered > 0, "oracle pair must be offered traffic");
                r.per_pair_blocked[pair] as f64 / offered as f64
            })
            .collect::<Vec<_>>(),
    )
}

/// The plain Erlang single-link scenarios: `(capacity, load)`.
const ERLANG_SCENARIOS: [(u32, f64); 10] = [
    (1, 0.5),
    (2, 1.5),
    (3, 0.4),
    (5, 3.0),
    (10, 8.0),
    (10, 14.0),
    (20, 16.0),
    (25, 31.0),
    (30, 24.0),
    (50, 55.0),
];

/// The trunk-reservation scenarios: `(capacity, primary ν, overflow λ,
/// protection r)`. `r = 0` reduces to free alternate routing; `r = C`
/// shuts alternates out entirely.
const RESERVATION_SCENARIOS: [(u32, f64, f64, u32); 7] = [
    (10, 6.0, 3.0, 2),
    (10, 6.0, 3.0, 0),
    (8, 5.0, 2.0, 1),
    (20, 14.0, 6.0, 3),
    (20, 18.0, 8.0, 5),
    (12, 4.0, 10.0, 4),
    (15, 12.0, 4.0, 15),
];

fn single_link_instance(capacity: u32, load: f64) -> (RoutingPlan, TrafficMatrix) {
    let mut topo = Topology::new();
    topo.add_nodes(2);
    topo.add_duplex(0, 1, capacity);
    let mut m = TrafficMatrix::zero(2);
    m.set(0, 1, load);
    (RoutingPlan::min_hop(topo, &m, 1), m)
}

fn erlang_checks(out: &mut Vec<OracleCheck>) {
    for (i, &(capacity, load)) in ERLANG_SCENARIOS.iter().enumerate() {
        let (plan, m) = single_link_instance(capacity, load);
        let failures = FailureSchedule::none();
        let results = replicate(
            &plan,
            PolicyKind::SinglePath,
            &m,
            &failures,
            0xE71A_0000 + i as u64 * 101,
        );
        let sim = network_blocking(&results);
        let analytic = BirthDeathChain::erlang(load, capacity).time_congestion();
        out.push(OracleCheck::exact(
            format!("erlang C={capacity} a={load}/network"),
            sim.mean,
            analytic,
            sim.std_error,
        ));
    }
}

/// Builds the exact trunk-reservation instance.
///
/// Three nodes. The observed link `0→1` (capacity `C`, protection `r`)
/// carries pair `(0,1)` primary traffic ν. Pair `(2,1)`'s primary link
/// `2→1` is statically failed, so *every* `(2,1)` arrival overflows
/// immediately onto the alternate `2→0→1`; link `2→0` has capacity `4C`
/// and never binds. The alternate stream offered to link `0→1` is
/// therefore exactly Poisson with rate λ, admitted only while the link
/// occupancy is below `C − r` — precisely the
/// [`BirthDeathChain::protected_link`] chain with constant overflow. By
/// PASTA, pair `(0,1)` blocking is `π_C` and pair `(2,1)` blocking is
/// the tail `Σ_{s ≥ C−r} π_s`.
fn reservation_instance(
    capacity: u32,
    nu: f64,
    lambda: f64,
    protection: u32,
) -> (RoutingPlan, TrafficMatrix, FailureSchedule) {
    let mut topo = Topology::new();
    topo.add_nodes(3);
    topo.add_duplex(0, 1, capacity);
    topo.add_duplex(2, 1, capacity);
    topo.add_duplex(2, 0, 4 * capacity);
    let mut m = TrafficMatrix::zero(3);
    m.set(0, 1, nu);
    m.set(2, 1, lambda);
    let observed = topo.link_between(0, 1).expect("0->1 exists");
    let failed = topo.link_between(2, 1).expect("2->1 exists");
    let num_links = topo.num_links();
    let mut levels = vec![0u32; num_links];
    levels[observed] = protection;
    let plan = RoutingPlan::min_hop(topo, &m, 2).with_protection_levels(levels);
    (plan, m, FailureSchedule::static_down([failed]))
}

fn reservation_checks(out: &mut Vec<OracleCheck>) {
    for (i, &(capacity, nu, lambda, r)) in RESERVATION_SCENARIOS.iter().enumerate() {
        let (plan, m, failures) = reservation_instance(capacity, nu, lambda, r);
        let results = replicate(
            &plan,
            PolicyKind::ControlledAlternate { max_hops: 2 },
            &m,
            &failures,
            0x7E5E_0000 + i as u64 * 97,
        );
        let chain =
            BirthDeathChain::protected_link(nu, &vec![lambda; capacity as usize], capacity, r);
        let pi = chain.stationary();
        let primary_analytic = pi[capacity as usize];
        let tail_from = (capacity - r) as usize;
        let alternate_analytic: f64 = pi[tail_from..].iter().sum();
        let n = 3;
        let primary = pair_blocking(&results, 1); // pair (0,1)
        let alternate = pair_blocking(&results, 2 * n + 1); // pair (2,1)
        let tag = format!("reservation C={capacity} nu={nu} lambda={lambda} r={r}");
        out.push(OracleCheck::exact(
            format!("{tag}/primary-pair"),
            primary.mean,
            primary_analytic,
            primary.std_error,
        ));
        out.push(OracleCheck::exact(
            format!("{tag}/alternate-pair"),
            alternate.mean,
            alternate_analytic,
            alternate.std_error,
        ));
    }
}

/// The multirate single-link scenarios: capacity plus
/// `(bandwidth, intensity)` classes.
fn multirate_scenarios() -> Vec<(u32, Vec<(u32, f64)>)> {
    vec![
        (10, vec![(1, 6.0)]),
        (20, vec![(1, 8.0), (3, 2.5)]),
        (30, vec![(1, 10.0), (2, 4.0), (6, 1.2)]),
    ]
}

fn multirate_checks(out: &mut Vec<OracleCheck>) {
    for (i, (capacity, classes)) in multirate_scenarios().into_iter().enumerate() {
        let mut topo = Topology::new();
        topo.add_nodes(2);
        topo.add_duplex(0, 1, capacity);
        let bw_classes: Vec<BandwidthClass> = classes
            .iter()
            .map(|&(bandwidth, intensity)| {
                let mut m = TrafficMatrix::zero(2);
                m.set(0, 1, intensity);
                BandwidthClass {
                    bandwidth,
                    traffic: m,
                }
            })
            .collect();
        let params = MultirateParams {
            warmup: WARMUP,
            horizon: HORIZON,
            seeds: SEEDS as u32,
            base_seed: 0x3417_0000 + i as u64 * 89,
            max_hops: 1,
        };
        let (result, _) = run_multirate(
            &topo,
            &bw_classes,
            MultiratePolicy::SinglePath,
            &params,
            &FailureSchedule::none(),
            None,
            &Fanout::default(),
        );
        let kr_classes: Vec<TrafficClass> = classes
            .iter()
            .map(|&(bandwidth, intensity)| TrafficClass {
                intensity,
                bandwidth,
            })
            .collect();
        let analytic_per_class = kaufman_roberts_blocking(capacity, &kr_classes);
        let total_intensity: f64 = classes.iter().map(|&(_, a)| a).sum();
        let analytic_call: f64 = classes
            .iter()
            .zip(&analytic_per_class)
            .map(|(&(_, a), &b)| a * b)
            .sum::<f64>()
            / total_intensity;
        let tag = format!("kaufman-roberts C={capacity} classes={}", classes.len());
        out.push(OracleCheck::exact(
            format!("{tag}/call-blocking"),
            result.blocking.mean(),
            analytic_call,
            result.blocking.std_error(),
        ));
        for (k, (&(bandwidth, intensity), &analytic)) in
            classes.iter().zip(&analytic_per_class).enumerate()
        {
            // Per-class blocking is pooled across seeds (no per-seed
            // spread is reported), so derive the class σ from the
            // call-blocking σ inflated by the class's share of arrivals:
            // a class offered an `intensity / total` fraction of the
            // calls has roughly `sqrt(total / intensity)` times the
            // sampling error of the pooled estimator.
            let sigma = result.blocking.std_error() * (total_intensity / intensity).sqrt();
            out.push(OracleCheck::exact(
                format!("{tag}/class{k}-bw{bandwidth}"),
                result.per_class_blocking[k],
                analytic,
                sigma,
            ));
        }
    }
}

/// Runs all single-link differential checks (plain Erlang, trunk
/// reservation against the exact protected chain, multirate against
/// Kaufman–Roberts). Fixed seeds; deterministic.
pub fn single_link_checks() -> Vec<OracleCheck> {
    let mut out = Vec::new();
    erlang_checks(&mut out);
    reservation_checks(&mut out);
    multirate_checks(&mut out);
    out
}

/// The mesh scenarios for the fixed-point oracle.
fn mesh_scenarios() -> Vec<(String, Topology, TrafficMatrix)> {
    let nsf = topologies::nsfnet(50);
    let nsf_traffic = altroute_netgraph::estimate::nsfnet_nominal_traffic()
        .traffic
        .scaled(0.45);
    vec![
        (
            "line4 C=30 u=2.5".into(),
            topologies::line(4, 30),
            TrafficMatrix::uniform(4, 2.5),
        ),
        (
            "ring6 C=20 u=1.5".into(),
            topologies::ring(6, 20),
            TrafficMatrix::uniform(6, 1.5),
        ),
        (
            "grid2x3 C=15 u=1.8".into(),
            topologies::grid(2, 3, 15),
            TrafficMatrix::uniform(6, 1.8),
        ),
        (
            "quadrangle u=85".into(),
            topologies::quadrangle(),
            TrafficMatrix::uniform(4, 85.0),
        ),
        ("nsfnet C=50 x0.45".into(), nsf, nsf_traffic),
        (
            "random7 C=25 u=2.0".into(),
            topologies::random_mesh(7, 3, 25, 99),
            TrafficMatrix::uniform(7, 2.0),
        ),
    ]
}

/// Runs the mesh differential checks: single-path simulation versus the
/// Erlang fixed-point (reduced-load) approximation, network blocking
/// weighted by offered traffic. Fixed seeds; deterministic.
pub fn mesh_checks() -> Vec<OracleCheck> {
    let mut out = Vec::new();
    for (i, (name, topo, traffic)) in mesh_scenarios().into_iter().enumerate() {
        let capacities: Vec<u32> = topo.links().iter().map(|l| l.capacity).collect();
        let routes: Vec<Route> = traffic
            .demands()
            .map(|(src, dst, t)| {
                let path = min_hop_path(&topo, src, dst).expect("mesh is connected");
                Route {
                    links: path.links().to_vec(),
                    traffic: t,
                }
            })
            .collect();
        let fp = erlang_fixed_point(&capacities, &routes, 1e-10, 100_000);
        assert!(fp.converged, "{name}: fixed point must converge");
        let total: f64 = routes.iter().map(|r| r.traffic).sum();
        let lost: f64 = routes
            .iter()
            .map(|r| {
                let through: f64 = r.links.iter().map(|&k| 1.0 - fp.blocking[k]).product();
                r.traffic * (1.0 - through)
            })
            .sum();
        let analytic = lost / total;

        let plan = RoutingPlan::min_hop(topo, &traffic, 1);
        let failures = FailureSchedule::none();
        let results = replicate(
            &plan,
            PolicyKind::SinglePath,
            &traffic,
            &failures,
            0xF1D0_0000 + i as u64 * 83,
        );
        let sim = network_blocking(&results);
        out.push(OracleCheck::approximate(
            format!("fixed-point {name}/network"),
            sim.mean,
            analytic,
            sim.std_error,
        ));
    }
    out
}
