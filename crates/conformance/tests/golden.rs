//! Golden-trace acceptance: byte stability, replay against the
//! checked-in traces, worker fan-out parity on the golden scenarios, and
//! proof that the diff has teeth.

use altroute_conformance::golden::{
    golden_names, record_scenario, replay_check, scenario_replications, Perturbation,
};
use altroute_sim::trace::{decode_trace, diff_traces, TraceDiff, TraceRecordKind};

#[test]
fn recording_is_byte_stable_across_runs() {
    for name in golden_names() {
        let a = record_scenario(name, Perturbation::Nominal);
        let b = record_scenario(name, Perturbation::Nominal);
        assert_eq!(a, b, "{name}: two recordings differ");
    }
}

#[test]
fn replay_matches_checked_in_traces() {
    for name in golden_names() {
        if let Some(divergence) = replay_check(name) {
            panic!("{name}: golden trace diverged:\n{divergence}");
        }
    }
}

/// Replication fan-out over the kernel is a pure scheduling detail: the
/// same seeds through 1 worker and through N workers must produce
/// byte-identical `SeedResult`s (engine metrics included; wall clock is
/// excluded from equality by design) on every golden scenario.
#[test]
fn worker_fanout_is_bit_identical_on_golden_scenarios() {
    for name in golden_names() {
        let solo = scenario_replications(name, 6, 1);
        assert_eq!(solo.len(), 6);
        for workers in [2usize, 8] {
            let pooled = scenario_replications(name, 6, workers);
            assert_eq!(
                solo, pooled,
                "{name}: {workers} workers diverged from sequential"
            );
            for (a, b) in solo.iter().zip(&pooled) {
                assert_eq!(a.metrics, b.metrics, "{name}: metrics diverged");
            }
        }
    }
}

#[test]
fn golden_traces_decode_and_are_nontrivial() {
    for name in golden_names() {
        let bytes = record_scenario(name, Perturbation::Nominal);
        let (header, records) = decode_trace(&bytes).expect("well-formed trace");
        assert_eq!(header.label, *name);
        assert!(
            records.len() > 1000,
            "{name}: only {} events recorded",
            records.len()
        );
        // The quadrangle scenario schedules an outage, so its trace must
        // pin link events and failure teardowns too.
        if *name == "quadrangle-fig3" {
            assert!(records
                .iter()
                .any(|r| matches!(r.kind, TraceRecordKind::Link { .. })));
            assert!(records
                .iter()
                .any(|r| matches!(r.kind, TraceRecordKind::Teardown { .. })));
        }
    }
}

/// A one-line admission-logic change (protection levels bumped by one)
/// must flip the trace diff red with a record-level divergence.
#[test]
fn admission_change_flips_the_diff_red() {
    for name in golden_names() {
        let nominal = record_scenario(name, Perturbation::Nominal);
        let perturbed = record_scenario(name, Perturbation::BumpProtection);
        match diff_traces(&nominal, &perturbed).expect("both decodable") {
            TraceDiff::Record { index, left, right } => {
                assert_ne!(left, right);
                // The divergence is a specific event, not just a length
                // mismatch — the report is actionable.
                assert!(index > 0 || left != right);
            }
            TraceDiff::Length { left, right } => {
                panic!("{name}: only a length diff ({left} vs {right}); expected a record diff")
            }
            other => panic!("{name}: perturbation not detected ({other:?})"),
        }
    }
}
