//! Scenario fuzzing: metamorphic invariants on random instances.
//!
//! [`fuzz_instances`] draws random topologies, traffic matrices, and hop
//! bounds from [`random_instance`] and cross-checks relations that must
//! hold for *any* instance:
//!
//! * **Conservation** — offered = blocked + carried (primary +
//!   alternate), exactly, network-wide and as per-pair sums. (Torn-down
//!   calls are a subset of carried, and no dynamic outages are scheduled
//!   here, so `dropped = 0`.)
//! * **`r = 0` reduction** — the controlled policy with every protection
//!   level forced to zero is *byte-identical* to free (uncontrolled)
//!   alternate routing: same [`SeedResult`], including engine metrics.
//! * **`H = 1` reduction** — with the hop bound at one, the only
//!   candidate is the primary itself, so controlled alternate routing is
//!   byte-identical to the primary-only policy.
//! * **Best-of-`d` reductions** — at `H = 1` the best-of-`d` policy has
//!   no tandems to sample and must match single-path byte for byte; at
//!   `r = 0` the named policy (trunk reservation + sampling selector)
//!   must match the explicit `(Uncontrolled, BestOfDSelector)` pair on
//!   the same private stream.
//! * **Load monotonicity** — scaling every demand up cannot decrease
//!   network blocking, checked statistically (seeds pooled, small
//!   margin) because the relation is a coupling argument, not a per-seed
//!   identity.
//!
//! The `r = 0` and `H = 1` reductions are also applied to the other
//! kernel-backed engines: the **multirate** engine (all-zero protection
//! levels ≡ uncontrolled; hop bound one ≡ single-path, both per-class
//! and in bandwidth blocking) and the **adaptive** engine (an update
//! interval beyond the horizon with zero initial levels ≡ the
//! uncontrolled engine on the same arrivals; a hop-one plan ≡ the
//! single-path engine). Since all of these ride the same kernel, a
//! violation pinpoints a policy/selector divergence, not an event-loop
//! one.
//!
//! Violations are collected as human-readable strings naming the
//! instance seed, so a failure is reproducible in isolation.

use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_core::select::BestOfDSelector;
use altroute_netgraph::topologies::random_instance;
use altroute_sim::adaptive::{
    replicate_adaptive, ControllerTuning, InitialLevels, ADAPTIVE_TUNING,
};
use altroute_sim::engine::{run_seed, Run, RunConfig, SeedResult, BOD_SAMPLE_STREAM};
use altroute_sim::failures::FailureSchedule;
use altroute_sim::multirate::{self, run_multirate, BandwidthClass, MultirateResult};
use altroute_sim::{Fanout, SimParams};
use altroute_simcore::kernel::Uncontrolled;
use altroute_simcore::rng::StreamFactory;

/// Margin granted to the statistical load-monotonicity check (the exact
/// reductions get none).
pub const MONOTONE_MARGIN: f64 = 0.02;

/// Outcome of a fuzzing session.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Random instances examined.
    pub instances: usize,
    /// Engine runs executed in total.
    pub runs: usize,
    /// Invariant violations found (empty on success).
    pub violations: Vec<String>,
}

/// Equality of everything except the policy label (the two sides of a
/// reduction necessarily carry different [`PolicyKind`] tags).
fn multirate_agree(a: &MultirateResult, b: &MultirateResult) -> bool {
    a.blocking == b.blocking
        && a.per_class_blocking == b.per_class_blocking
        && a.bandwidth_blocking == b.bandwidth_blocking
}

fn conservation(tag: &str, seed: u64, r: &SeedResult, violations: &mut Vec<String>) {
    let carried = r.carried_primary + r.carried_alternate;
    if r.offered != r.blocked + carried {
        violations.push(format!(
            "[{seed:#x}] {tag}: offered {} != blocked {} + carried {}",
            r.offered, r.blocked, carried
        ));
    }
    if r.per_pair_offered.iter().sum::<u64>() != r.offered {
        violations.push(format!(
            "[{seed:#x}] {tag}: per-pair offered does not sum to {}",
            r.offered
        ));
    }
    if r.per_pair_blocked.iter().sum::<u64>() != r.blocked {
        violations.push(format!(
            "[{seed:#x}] {tag}: per-pair blocked does not sum to {}",
            r.blocked
        ));
    }
    if r.dropped != 0 {
        violations.push(format!(
            "[{seed:#x}] {tag}: {} calls dropped with no outage scheduled",
            r.dropped
        ));
    }
}

/// Fuzzes `count` random instances derived from `master_seed`, checking
/// every metamorphic invariant. Deterministic for a fixed seed.
pub fn fuzz_instances(master_seed: u64, count: usize) -> FuzzReport {
    let mut violations = Vec::new();
    let mut runs = 0usize;
    let mut extra_runs = 0usize;
    for k in 0..count {
        let inst_seed = master_seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let inst = random_instance(inst_seed);
        let h = inst.max_hops;
        let plan = RoutingPlan::min_hop(inst.topology.clone(), &inst.traffic, h);
        let failures = FailureSchedule::none();
        let warmup = 0.5;
        let horizon = 4.0;
        let mut run = |plan: &RoutingPlan,
                       policy: PolicyKind,
                       traffic: &altroute_netgraph::traffic::TrafficMatrix,
                       seed: u64| {
            runs += 1;
            run_seed(&RunConfig {
                plan,
                policy,
                traffic,
                warmup,
                horizon,
                seed,
                failures: &failures,
            })
        };

        // Conservation on the instance's own controlled policy.
        let controlled = run(
            &plan,
            PolicyKind::ControlledAlternate { max_hops: h },
            &inst.traffic,
            inst_seed ^ 0xC0,
        );
        conservation("controlled", inst_seed, &controlled, &mut violations);

        // r = 0: controlled alternate routing degenerates to free
        // alternate routing, bit for bit.
        let free_plan = plan
            .clone()
            .with_protection_levels(vec![0; plan.topology().num_links()]);
        let zero_controlled = run(
            &free_plan,
            PolicyKind::ControlledAlternate { max_hops: h },
            &inst.traffic,
            inst_seed ^ 0xF1,
        );
        let uncontrolled = run(
            &free_plan,
            PolicyKind::UncontrolledAlternate { max_hops: h },
            &inst.traffic,
            inst_seed ^ 0xF1,
        );
        if zero_controlled != uncontrolled {
            violations.push(format!(
                "[{inst_seed:#x}] r=0 controlled != uncontrolled: blocking {} vs {}",
                zero_controlled.blocking(),
                uncontrolled.blocking()
            ));
        }
        conservation("uncontrolled", inst_seed, &uncontrolled, &mut violations);

        // H = 1: the primary is the only candidate, so controlled
        // routing degenerates to single-path, bit for bit.
        let plan_h1 = RoutingPlan::min_hop(inst.topology.clone(), &inst.traffic, 1);
        let h1_controlled = run(
            &plan_h1,
            PolicyKind::ControlledAlternate { max_hops: 1 },
            &inst.traffic,
            inst_seed ^ 0x41,
        );
        let single = run(
            &plan_h1,
            PolicyKind::SinglePath,
            &inst.traffic,
            inst_seed ^ 0x41,
        );
        if h1_controlled != single {
            violations.push(format!(
                "[{inst_seed:#x}] H=1 controlled != single-path: blocking {} vs {}",
                h1_controlled.blocking(),
                single.blocking()
            ));
        }

        // Best-of-d, H = 1: with the primary as the only candidate there
        // is nothing to sample, so the selector never touches its private
        // stream and the policy is byte-identical to single-path.
        let bod_h1 = run(
            &plan_h1,
            PolicyKind::BestOfD { max_hops: 1, d: 2 },
            &inst.traffic,
            inst_seed ^ 0xB0D1,
        );
        let single_for_bod = run(
            &plan_h1,
            PolicyKind::SinglePath,
            &inst.traffic,
            inst_seed ^ 0xB0D1,
        );
        if bod_h1 != single_for_bod {
            violations.push(format!(
                "[{inst_seed:#x}] bod H=1 != single-path: blocking {} vs {}",
                bod_h1.blocking(),
                single_for_bod.blocking()
            ));
        }

        // Best-of-d, r = 0: the named policy rides trunk reservation;
        // with every level zero it must collapse onto the explicit
        // (Uncontrolled, BestOfDSelector) pair driven by the same
        // sampling stream, byte for byte.
        let bod_named = run(
            &free_plan,
            PolicyKind::BestOfD { max_hops: h, d: 2 },
            &inst.traffic,
            inst_seed ^ 0xB0D0,
        );
        let bod_config = RunConfig {
            plan: &free_plan,
            policy: PolicyKind::BestOfD { max_hops: h, d: 2 },
            traffic: &inst.traffic,
            warmup,
            horizon,
            seed: inst_seed ^ 0xB0D0,
            failures: &failures,
        };
        let mut bod_selector = BestOfDSelector::new(
            &free_plan,
            2,
            StreamFactory::new(bod_config.seed).stream(BOD_SAMPLE_STREAM),
        );
        let bod_explicit = Run::new(&bod_config).execute_with(&mut Uncontrolled, &mut bod_selector);
        extra_runs += 1;
        if bod_named != bod_explicit {
            violations.push(format!(
                "[{inst_seed:#x}] bod r=0 != uncontrolled best-of-d: blocking {} vs {}",
                bod_named.blocking(),
                bod_explicit.blocking()
            ));
        }

        // Load monotonicity: 1.4× the demand cannot lower blocking
        // (statistical — common random numbers couple the runs, but the
        // relation is not a per-seed identity).
        let heavier = inst.traffic.scaled(1.4);
        let pool = |traffic: &altroute_netgraph::traffic::TrafficMatrix,
                    run: &mut dyn FnMut(
            &RoutingPlan,
            PolicyKind,
            &altroute_netgraph::traffic::TrafficMatrix,
            u64,
        ) -> SeedResult| {
            let mut offered = 0u64;
            let mut blocked = 0u64;
            for s in 0..3u64 {
                let r = run(
                    &plan,
                    PolicyKind::ControlledAlternate { max_hops: h },
                    traffic,
                    inst_seed ^ (0x10AD + s),
                );
                offered += r.offered;
                blocked += r.blocked;
            }
            if offered == 0 {
                0.0
            } else {
                blocked as f64 / offered as f64
            }
        };
        let base_blocking = pool(&inst.traffic, &mut run);
        let heavy_blocking = pool(&heavier, &mut run);
        if heavy_blocking + MONOTONE_MARGIN < base_blocking {
            violations.push(format!(
                "[{inst_seed:#x}] blocking not monotone in load: {base_blocking} at 1.0x vs {heavy_blocking} at 1.4x"
            ));
        }

        // Multirate reductions: two classes carved from the instance's
        // traffic, narrowband and broadband.
        let classes = [
            BandwidthClass {
                bandwidth: 1,
                traffic: inst.traffic.scaled(0.6),
            },
            BandwidthClass {
                bandwidth: 3,
                traffic: inst.traffic.scaled(0.2),
            },
        ];
        let mr_params = SimParams {
            warmup,
            horizon,
            seeds: 2,
            base_seed: inst_seed ^ 0x3A7E,
        };
        // r = 0: forcing every protection level to zero must collapse the
        // controlled policy onto the uncontrolled one, bit for bit.
        let mr_plan = multirate::plan(&inst.topology, &classes, h);
        let mr_zero_plan = mr_plan
            .clone()
            .with_protection_levels(vec![0; inst.topology.num_links()]);
        let one_worker = Fanout {
            workers: 1,
            ..Fanout::default()
        };
        let (mr_zero, _) = run_multirate(
            &mr_zero_plan,
            &classes,
            PolicyKind::ControlledAlternate { max_hops: h },
            &mr_params,
            &failures,
            &one_worker,
        );
        let (mr_free, _) = run_multirate(
            &mr_plan,
            &classes,
            PolicyKind::UncontrolledAlternate { max_hops: h },
            &mr_params,
            &failures,
            &one_worker,
        );
        extra_runs += 2 * mr_params.seeds as usize;
        if !multirate_agree(&mr_zero, &mr_free) {
            violations.push(format!(
                "[{inst_seed:#x}] multirate r=0 controlled != uncontrolled: blocking {} vs {}",
                mr_zero.blocking_mean(),
                mr_free.blocking_mean()
            ));
        }
        // H = 1: a hop bound of one leaves the primary as the only
        // candidate, so controlled routing degenerates to single-path.
        let mr_h1_plan = multirate::plan(&inst.topology, &classes, 1);
        let (mr_h1, _) = run_multirate(
            &mr_h1_plan,
            &classes,
            PolicyKind::ControlledAlternate { max_hops: 1 },
            &mr_params,
            &failures,
            &one_worker,
        );
        let (mr_single, _) = run_multirate(
            &mr_h1_plan,
            &classes,
            PolicyKind::SinglePath,
            &mr_params,
            &failures,
            &one_worker,
        );
        extra_runs += 2 * mr_params.seeds as usize;
        if !multirate_agree(&mr_h1, &mr_single) {
            violations.push(format!(
                "[{inst_seed:#x}] multirate H=1 controlled != single-path: blocking {} vs {}",
                mr_h1.blocking_mean(),
                mr_single.blocking_mean()
            ));
        }

        // Adaptive reductions. With the first update scheduled past the
        // end of the run and zero initial levels, the adaptive engine
        // never protects anything and must reproduce the uncontrolled
        // engine's counters on the same arrival process.
        let frozen = ControllerTuning {
            window: warmup + horizon + 1.0,
            alpha: 0.5,
            ..ADAPTIVE_TUNING
        };
        let adaptive = |plan: &RoutingPlan, seed: u64, tuning: &ControllerTuning| {
            let params = SimParams {
                warmup,
                horizon,
                seeds: 1,
                base_seed: seed,
            };
            let (per_seed, _, _) = replicate_adaptive(
                plan,
                &inst.traffic,
                &params,
                &failures,
                tuning,
                InitialLevels::Zero,
                &one_worker,
            );
            per_seed[0].clone()
        };
        let ad_free = adaptive(&plan, inst_seed ^ 0xADA0, &frozen);
        let eng_free = run(
            &plan,
            PolicyKind::UncontrolledAlternate { max_hops: h },
            &inst.traffic,
            inst_seed ^ 0xADA0,
        );
        extra_runs += 1;
        if (ad_free.offered, ad_free.blocked) != (eng_free.offered, eng_free.blocked) {
            violations.push(format!(
                "[{inst_seed:#x}] adaptive r=0 != uncontrolled: {}/{} vs {}/{}",
                ad_free.blocked, ad_free.offered, eng_free.blocked, eng_free.offered
            ));
        }
        // H = 1: on a hop-one plan the adaptive engine has no alternates
        // to protect, so it must match the single-path engine whatever
        // its levels do.
        let ad_h1 = adaptive(&plan_h1, inst_seed ^ 0xADA1, &ADAPTIVE_TUNING);
        let eng_single = run(
            &plan_h1,
            PolicyKind::SinglePath,
            &inst.traffic,
            inst_seed ^ 0xADA1,
        );
        extra_runs += 1;
        if (ad_h1.offered, ad_h1.blocked) != (eng_single.offered, eng_single.blocked) {
            violations.push(format!(
                "[{inst_seed:#x}] adaptive H=1 != single-path: {}/{} vs {}/{}",
                ad_h1.blocked, ad_h1.offered, eng_single.blocked, eng_single.offered
            ));
        }
    }
    FuzzReport {
        instances: count,
        runs: runs + extra_runs,
        violations,
    }
}
