//! Shard-parity regression: the sharded kernel backend is a pure
//! scheduling detail. For every shard count and every link partition,
//! sharded runs must be byte-identical to the single-threaded oracle —
//! on the checked-in golden scenarios and on random instances alike.

use altroute_conformance::golden::{golden_names, golden_path, scenario_runs, RunOptions};
use altroute_core::plan::RoutingPlan;
use altroute_core::policy::PolicyKind;
use altroute_netgraph::topologies::random_instance;
use altroute_sim::engine::{run_seed, Run, RunConfig};
use altroute_sim::failures::FailureSchedule;
use altroute_simcore::shard::{Partition, ShardSpec};

/// Uninstrumented sharded runs — the genuinely parallel path — must
/// produce `SeedResult`s byte-identical to the serial oracle on every
/// golden scenario, for every tested shard count and both built-in
/// partitions; traced ones must still record the golden trace byte for
/// byte. (`SeedResult` equality includes the engine metrics, so this
/// is full byte parity; wall clock is excluded by design.) The full
/// option matrix at three shards lives in `run_parity.rs`.
#[test]
fn every_shard_count_matches_the_serial_oracle_on_golden_scenarios() {
    for name in golden_names() {
        let golden = std::fs::read(golden_path(name))
            .unwrap_or_else(|e| panic!("{name}: cannot read golden trace: {e}"));
        let oracle = scenario_runs(name, 4, &RunOptions::default());
        for count in [1usize, 2, 3, 4, 8] {
            for partition in [Partition::Contiguous, Partition::RoundRobin] {
                let shards = Some((count, partition.clone()));
                let sharded = scenario_runs(
                    name,
                    4,
                    &RunOptions {
                        shards: shards.clone(),
                        recycled_scratch: true,
                        ..RunOptions::default()
                    },
                );
                assert_eq!(
                    oracle, sharded,
                    "{name}: {count} shards ({partition:?}) diverged from the serial oracle"
                );
                let traced = scenario_runs(
                    name,
                    1,
                    &RunOptions {
                        shards,
                        sink: true,
                        ..RunOptions::default()
                    },
                );
                assert_eq!(
                    traced[0].trace.as_ref(),
                    Some(&golden),
                    "{name}: {count} shards ({partition:?}) diverged from the golden trace"
                );
            }
        }
    }
}

/// A tiny deterministic generator for the hand-rolled property test
/// below (`splitmix64` seeding + `xorshift64*`, the same family the
/// instance generator uses).
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    state ^= state >> 31;
    state |= 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Hand-rolled property test: on random instances, with random shard
/// counts and random partitions (including explicit random per-link
/// assignments), the sharded backend matches `run_seed` bit for bit —
/// for the controlled policy and for the free (uncontrolled) one.
#[test]
fn random_instances_shard_identically_under_random_partitions() {
    let mut draw = rng(0x5AA2_C0DE);
    for k in 0..12u64 {
        let inst_seed = 0xBEEF_0000u64 ^ (k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let inst = random_instance(inst_seed);
        let h = inst.max_hops;
        let plan = RoutingPlan::min_hop(inst.topology.clone(), &inst.traffic, h);
        let num_links = plan.topology().num_links();
        let failures = FailureSchedule::none();
        let config = |policy: PolicyKind, seed: u64| RunConfig {
            plan: &plan,
            policy,
            traffic: &inst.traffic,
            warmup: 0.5,
            horizon: 4.0,
            seed,
            failures: &failures,
        };
        let policies = [
            PolicyKind::ControlledAlternate { max_hops: h },
            PolicyKind::UncontrolledAlternate { max_hops: h },
        ];
        for policy in policies {
            let run_seed_value = inst_seed ^ 0x5EED;
            let oracle = run_seed(&config(policy, run_seed_value));
            // Three random shard specs per (instance, policy): count in
            // 2..=5 and a partition drawn from all three kinds.
            for _ in 0..3 {
                let shards = 2 + (draw() % 4) as usize;
                let partition = match draw() % 3 {
                    0 => Partition::Contiguous,
                    1 => Partition::RoundRobin,
                    _ => Partition::Explicit(
                        (0..num_links)
                            .map(|_| (draw() % shards as u64) as u32)
                            .collect(),
                    ),
                };
                let label = format!("{partition:?}");
                let spec = ShardSpec::new(num_links, shards, partition);
                let sharded = Run::new(&config(policy, run_seed_value))
                    .shards(Some(&spec))
                    .execute();
                assert_eq!(
                    oracle, sharded,
                    "[{inst_seed:#x}] {policy:?}: {shards} shards ({label}) \
                     diverged from run_seed"
                );
            }
        }
    }
}
