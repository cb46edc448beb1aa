//! Run-parity regression: every option of a [`Run`] other than a warm
//! start is an execution detail. On every golden scenario, each
//! combination of {cold, zero-fill, half-full, saturated warm start} ×
//! {no sink, golden sink} × {no recorder, `RunTelemetry`} × {fresh,
//! recycled scratch} must reproduce the plain oracle byte for byte —
//! counters and engine metrics, trace bytes, and telemetry alike — and
//! the cold traced run of the first seed must be the checked-in golden
//! trace.
//!
//! [`Run`]: altroute_sim::engine::Run

use altroute_conformance::golden::{golden_names, golden_path, scenario_runs, RunOptions};

const SEEDS: u32 = 2;

#[test]
fn every_run_combination_matches_the_serial_oracle() {
    for name in golden_names() {
        let golden = std::fs::read(golden_path(name))
            .unwrap_or_else(|e| panic!("{name}: cannot read golden trace: {e}"));
        let cold = scenario_runs(name, SEEDS, &RunOptions::default());
        for warm_fill in [None, Some(0), Some(50), Some(100)] {
            let plain = scenario_runs(
                name,
                SEEDS,
                &RunOptions {
                    warm_fill,
                    ..RunOptions::default()
                },
            );
            if warm_fill == Some(0) {
                assert_eq!(
                    plain, cold,
                    "{name}: all-zero warm start diverged from cold"
                );
            }
            // The instrumented oracle: trace and telemetry of
            // every seed, observed together.
            let observed = scenario_runs(
                name,
                SEEDS,
                &RunOptions {
                    warm_fill,
                    sink: true,
                    recorder: true,
                    ..RunOptions::default()
                },
            );
            if warm_fill.is_none() {
                assert_eq!(
                    observed[0].trace.as_ref(),
                    Some(&golden),
                    "{name}: cold traced run diverged from the golden trace"
                );
            }
            for sink in [false, true] {
                for recorder in [false, true] {
                    for recycled_scratch in [false, true] {
                        let options = RunOptions {
                            warm_fill,
                            sink,
                            recorder,
                            recycled_scratch,
                        };
                        let runs = scenario_runs(name, SEEDS, &options);
                        for (i, run) in runs.iter().enumerate() {
                            let label = format!("{name} seed {i} {options:?}");
                            assert_eq!(run.result, plain[i].result, "{label}: result");
                            assert_eq!(
                                run.result.metrics, plain[i].result.metrics,
                                "{label}: metrics"
                            );
                            if sink {
                                assert_eq!(run.trace, observed[i].trace, "{label}: trace");
                            }
                            if recorder {
                                assert_eq!(
                                    run.telemetry, observed[i].telemetry,
                                    "{label}: telemetry"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
