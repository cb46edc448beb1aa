//! Large-mesh churn: the `largemesh --preset full` regime, driven from
//! outside.
//!
//! A 1000-node power-law mesh carries 2000 demanded pairs under
//! controlled alternate routing. One work unit is one churn report: ten
//! rounds, each failing one SRLG group through
//! `sim::engine::apply_static_failures` (PathStore invalidation),
//! refilling the demanded pairs' candidate sets, simulating the
//! surviving network with `run_seed_pooled`, and reviving the group with
//! `RoutingPlan::set_link_state`. It is the only workload that writes
//! to the PathStore.

use crate::layers::{fingerprint, ns_since, reach, traced_replication, Trace, Twin};
use crate::{Unit, Workload};
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_experiments::LargeMeshConfig;
use altroute_netgraph::graph::LinkId;
use altroute_netgraph::topologies::{power_law_mesh, srlg_groups, xorshift_stream};
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_sim::engine::{apply_static_failures, run_seed_pooled, RunConfig, SeedResult};
use altroute_sim::failures::FailureSchedule;
use altroute_simcore::kernel::KernelScratch;
use altroute_teletraffic::estimate::protection_levels_for;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// A rolling-SRLG-failure workload.
pub struct Churn {
    /// Mesh shape, demand, and round count; its `seed` fixes the
    /// topology, the SRLG groups, and the demanded pairs, so every run
    /// does the same PathStore work.
    mesh: LargeMeshConfig,
    /// The per-round replication seeds (the arrival streams) derive
    /// from this.
    seed: u64,
    /// Fingerprints of the first unit's replications, which every later
    /// unit must reproduce.
    first: Mutex<Option<Vec<u64>>>,
}

/// Set-up output plus the previous unit's replications, which a traced
/// unit must reproduce.
pub struct ChurnState {
    plan: RoutingPlan,
    traffic: TrafficMatrix,
    demand: Vec<(usize, usize)>,
    groups: Vec<Vec<LinkId>>,
    scratch: KernelScratch,
    /// Replications of the latest untraced unit, one per round.
    last: Vec<Twin>,
}

impl Churn {
    /// The full preset's mesh and demand with shorter per-round windows,
    /// so a run measures several reports.
    pub fn full(seed: u64) -> Self {
        Self {
            mesh: LargeMeshConfig {
                warmup: 1.0,
                horizon: 3.0,
                ..LargeMeshConfig::full()
            },
            seed,
            first: Mutex::new(None),
        }
    }

    /// The smoke preset cut to two short rounds, for probing the churn
    /// layers from workloads that do not reach them.
    pub fn probe(seed: u64) -> Self {
        Self {
            mesh: LargeMeshConfig {
                rounds: 2,
                warmup: 1.0,
                horizon: 3.0,
                ..LargeMeshConfig::smoke()
            },
            seed,
            first: Mutex::new(None),
        }
    }

    /// `count` distinct ordered pairs of an `n`-node mesh, sorted.
    fn demand(&self, n: usize) -> Vec<(usize, usize)> {
        let mut next = xorshift_stream(self.mesh.seed ^ 0xDE3A_4D5A_3313_7E55);
        let mut taken = vec![false; n * n];
        let mut pairs = Vec::with_capacity(self.mesh.demand_pairs);
        while pairs.len() < self.mesh.demand_pairs {
            let i = (next() % n as u64) as usize;
            let j = (next() % n as u64) as usize;
            if i != j && !taken[i * n + j] {
                taken[i * n + j] = true;
                pairs.push((i, j));
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// Builds everything but warms no candidate set.
    fn build(&self) -> ChurnState {
        let m = &self.mesh;
        let topo = power_law_mesh(m.nodes, m.capacity, m.seed);
        let groups = srlg_groups(&topo, m.srlg_groups, m.seed);
        let n = topo.num_nodes();
        let demand = self.demand(n);
        let mut loads = vec![0.0; n * n];
        for &(i, j) in &demand {
            loads[i * n + j] = m.load_per_pair;
        }
        let traffic = TrafficMatrix::from_fn(n, |i, j| loads[i * n + j]);
        let plan = RoutingPlan::min_hop_capped(topo, &traffic, m.max_hops, m.candidate_cap);
        ChurnState {
            plan,
            traffic,
            demand,
            groups,
            scratch: KernelScratch::new(),
            last: Vec::new(),
        }
    }

    fn config<'a>(
        &self,
        plan: &'a RoutingPlan,
        traffic: &'a TrafficMatrix,
        failures: &'a FailureSchedule,
        round: usize,
    ) -> RunConfig<'a> {
        RunConfig {
            plan,
            policy: PolicyKind::ControlledAlternate {
                max_hops: self.mesh.max_hops,
            },
            traffic,
            warmup: self.mesh.warmup,
            horizon: self.mesh.horizon,
            seed: (self.seed.wrapping_mul(0x2545_F491_4F6C_DD1D))
                ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            failures,
        }
    }

    fn group<'s>(&self, state: &'s ChurnState, round: usize) -> &'s [LinkId] {
        &state.groups[round % state.groups.len()]
    }
}

/// Fills the candidate sets of the demanded pairs (only evicted pairs
/// recompute).
fn refill(plan: &RoutingPlan, demand: &[(usize, usize)]) {
    for &(i, j) in demand {
        black_box(plan.candidates(i, j));
    }
}

/// Whether every demanded pair's candidate set avoids the failed links.
fn candidates_avoid(plan: &RoutingPlan, demand: &[(usize, usize)], down: &[LinkId]) -> bool {
    demand.iter().all(|&(i, j)| {
        plan.candidates(i, j)
            .iter()
            .all(|p| p.links().iter().all(|l| !down.contains(l)))
    })
}

/// Whether a round's counters add up.
fn consistent(r: &SeedResult) -> bool {
    r.offered > 0 && r.offered == r.blocked + r.carried_primary + r.carried_alternate
}

impl Workload for Churn {
    type State = ChurnState;
    const REACH: u8 = reach::KERNEL | reach::STORE | reach::CHURN | reach::EQ15;

    fn setup(&self) -> ChurnState {
        let state = self.build();
        refill(&state.plan, &state.demand);
        state
    }

    fn run(&self, state: &mut ChurnState) -> Unit {
        let mut ops = Vec::with_capacity(self.mesh.rounds);
        let mut first = self.first.lock().expect("no panic while holding the lock");
        let mut twins = Vec::with_capacity(self.mesh.rounds);
        let (mut failed, mut events) = (0, 0);
        for round in 0..self.mesh.rounds {
            let group = self.group(state, round).to_vec();
            let failures = FailureSchedule::static_down(group.iter().copied());
            let t = Instant::now();
            apply_static_failures(&mut state.plan, &failures);
            refill(&state.plan, &state.demand);
            let mut op = t.elapsed().as_secs_f64();
            let avoided = candidates_avoid(&state.plan, &state.demand, &group);
            let t = Instant::now();
            let r = run_seed_pooled(
                &self.config(&state.plan, &state.traffic, &failures, round),
                &mut state.scratch,
            );
            for &l in &group {
                state.plan.set_link_state(l, true);
            }
            op += t.elapsed().as_secs_f64();
            let twin = Twin::of(&r);
            let repeated = first.as_ref().is_none_or(|f| f[round] == twin.print);
            failed += u64::from(!(avoided && consistent(&r) && repeated));
            events += r.metrics.events_processed;
            ops.push(op);
            twins.push(twin);
        }
        if first.is_none() {
            *first = Some(twins.iter().map(|t| t.print).collect());
        }
        state.last = twins;
        Unit {
            wall_s: ops.iter().sum(),
            events,
            ops,
            attempted: self.mesh.rounds as u64,
            failed,
        }
    }

    fn trace_setup(&self, trace: &mut Trace) {
        let t = Instant::now();
        let state = self.build();
        trace.plan_build_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        refill(&state.plan, &state.demand);
        trace.fill_s.push(t.elapsed().as_secs_f64());
        let (mut lookups, t) = (0u64, Instant::now());
        while lookups < 200_000 {
            refill(&state.plan, &state.demand);
            lookups += state.demand.len() as u64;
        }
        trace.lookup_ns.push(ns_since(t) as f64 / lookups as f64);
        let caps: Vec<u32> = state
            .plan
            .topology()
            .links()
            .iter()
            .map(|l| l.capacity)
            .collect();
        let (mut solves, t) = (0u64, Instant::now());
        while solves < 20 || t.elapsed().as_secs_f64() < 0.02 {
            black_box(protection_levels_for(
                state.plan.link_loads(),
                &caps,
                self.mesh.max_hops,
            ));
            solves += 1;
        }
        trace.eq15_us.push(ns_since(t) as f64 / solves as f64 / 1e3);
    }

    fn traced(&self, state: &mut ChurnState, trace: &mut Trace) -> Unit {
        let started = Instant::now();
        let unit_span = trace.span("unit", String::new(), None, started, 0, Vec::new());
        let (mut invalidate, mut refill_s, mut evicted) = (0.0, 0.0, 0usize);
        let mut ops = Vec::with_capacity(self.mesh.rounds);
        let (mut failed, mut events) = (0u64, 0u64);
        for round in 0..self.mesh.rounds {
            let group = self.group(state, round).to_vec();
            let failures = FailureSchedule::static_down(group.iter().copied());
            let round_start = Instant::now();
            let t = Instant::now();
            let down = apply_static_failures(&mut state.plan, &failures);
            let fail_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            refill(&state.plan, &state.demand);
            let fill_s = t.elapsed().as_secs_f64();
            let rep_start = Instant::now();
            let (r, rep) = traced_replication(
                &self.config(&state.plan, &state.traffic, &failures, round),
                round == 0,
            );
            let t = Instant::now();
            let up: usize = group
                .iter()
                .map(|&l| state.plan.set_link_state(l, true))
                .sum();
            let revive_s = t.elapsed().as_secs_f64();
            invalidate += fail_s + revive_s;
            refill_s += fill_s;
            evicted += down + up;
            ops.push(round_start.elapsed().as_secs_f64());
            let twin = &state.last[round];
            failed += u64::from(fingerprint(&r) != twin.print);
            events += r.metrics.events_processed;
            let round_span = trace.span(
                "round",
                format!("round={round} links_down={}", group.len()),
                unit_span,
                round_start,
                ns_since(round_start),
                vec![
                    ("invalidate.ns", ((fail_s + revive_s) * 1e9) as u64),
                    ("refill.ns", (fill_s * 1e9) as u64),
                    ("evicted_pairs", (down + up) as u64),
                ],
            );
            if let Some(stream) = &rep.stream {
                failed += u64::from(!trace.add_stream(stream));
            }
            trace.add_replication(
                &rep,
                &r,
                twin.kernel_s,
                format!("round={round}"),
                round_span,
                rep_start,
            );
        }
        trace.invalidate_s.push(invalidate);
        trace.refill_s.push(refill_s);
        trace.evicted_pairs.push(evicted as f64);
        if let Some(s) = unit_span {
            trace.spans[s].dur_ns = ns_since(started);
        }
        Unit {
            wall_s: started.elapsed().as_secs_f64(),
            events,
            ops,
            attempted: self.mesh.rounds as u64,
            failed,
        }
    }
}
