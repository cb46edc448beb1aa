//! Integration tests pinning the reproduction to the paper's published
//! artifacts: Table 1, the path-count statistics, and the methodology
//! (identical arrivals, determinism, replication independence).

use altroute::core::policy::PolicyKind;
use altroute::netgraph::estimate::{nsfnet_nominal_traffic, nsfnet_table1_loads, NSFNET_TABLE1};
use altroute::netgraph::topologies;
use altroute::netgraph::traffic::TrafficMatrix;
use altroute::sim::experiment::{Experiment, SimParams};
use altroute::teletraffic::reservation::protection_level;

/// The reconstructed traffic matrix reproduces Table 1's link loads to
/// within printing precision, and the protection levels derived from it
/// match the paper's two r columns except where Table 1's rounding of Λ
/// moves the steep high-load solutions by a circuit or two.
#[test]
fn table1_reproduction_fidelity() {
    let topo = topologies::nsfnet(100);
    let fit = nsfnet_nominal_traffic();
    assert!(
        fit.relative_residual < 1e-6,
        "residual {}",
        fit.relative_residual
    );
    let targets = nsfnet_table1_loads(&topo);
    for (l, (a, b)) in fit.achieved_loads.iter().zip(&targets).enumerate() {
        assert!((a - b).abs() < 0.51, "link {l}: {a} vs {b}");
    }
    let mut exact = 0;
    for &(s, d, _, r6, r11) in &NSFNET_TABLE1 {
        let l = topo.link_between(s, d).unwrap();
        let load = fit.achieved_loads[l];
        let ours6 = protection_level(load, 100, 6);
        let ours11 = protection_level(load, 100, 11);
        assert!(
            (i64::from(ours6) - i64::from(r6)).abs() <= 2,
            "{s}->{d} H=6"
        );
        assert!(
            (i64::from(ours11) - i64::from(r11)).abs() <= 2,
            "{s}->{d} H=11"
        );
        if ours6 == r6 && ours11 == r11 {
            exact += 1;
        }
    }
    assert!(exact >= 26, "only {exact}/30 links match Table 1 exactly");
}

/// §4.2.2's alternate-path counts at unlimited length: ~9 on average,
/// min 5, max 15.
#[test]
fn nsfnet_alternate_availability_matches_paper() {
    use altroute::netgraph::paths::{alternate_paths, min_hop_path};
    let topo = topologies::nsfnet(100);
    let (mut total, mut min, mut max, mut pairs) = (0usize, usize::MAX, 0usize, 0usize);
    for (i, j) in topo.ordered_pairs() {
        let primary = min_hop_path(&topo, i, j).unwrap();
        let alts = alternate_paths(&topo, i, j, 11, &primary);
        total += alts.len();
        min = min.min(alts.len());
        max = max.max(alts.len());
        pairs += 1;
    }
    assert_eq!(min, 5);
    assert_eq!(max, 15);
    let avg = total as f64 / pairs as f64;
    assert!((8.0..=9.5).contains(&avg), "avg {avg}");
}

/// The whole pipeline is a pure function of the seed: run the NSFNet
/// experiment twice and demand byte-identical counters.
#[test]
fn end_to_end_determinism() {
    let traffic = nsfnet_nominal_traffic().traffic;
    let exp = Experiment::new(topologies::nsfnet(100), traffic).unwrap();
    let params = SimParams {
        warmup: 5.0,
        horizon: 25.0,
        seeds: 3,
        base_seed: 42,
    };
    let kind = PolicyKind::ControlledAlternate { max_hops: 11 };
    let a = exp.run(kind, &params);
    let b = exp.run(kind, &params);
    assert_eq!(a.per_seed, b.per_seed);
    assert_eq!(a.blocking_mean(), b.blocking_mean());
}

/// The paper's common-random-numbers methodology across all four
/// policies on NSFNet: identical per-pair offered counts.
#[test]
fn common_random_numbers_across_policies() {
    let traffic = nsfnet_nominal_traffic().traffic;
    let exp = Experiment::new(topologies::nsfnet(100), traffic).unwrap();
    let params = SimParams {
        warmup: 5.0,
        horizon: 20.0,
        seeds: 2,
        base_seed: 9,
    };
    let mut seen: Option<Vec<Vec<u64>>> = None;
    for kind in [
        PolicyKind::SinglePath,
        PolicyKind::UncontrolledAlternate { max_hops: 11 },
        PolicyKind::ControlledAlternate { max_hops: 11 },
        PolicyKind::OttKrishnan { max_hops: 11 },
    ] {
        let r = exp.run(kind, &params);
        let offered: Vec<Vec<u64>> = r
            .per_seed
            .iter()
            .map(|s| s.per_pair_offered.clone())
            .collect();
        match &seen {
            None => seen = Some(offered),
            Some(prev) => assert_eq!(prev, &offered, "{}", kind.name()),
        }
    }
}

/// Replications with different seeds genuinely differ (no accidental
/// stream reuse), while their blocking estimates agree loosely.
#[test]
fn replications_are_independent_but_consistent() {
    let exp = Experiment::new(topologies::quadrangle(), TrafficMatrix::uniform(4, 90.0)).unwrap();
    let params = SimParams {
        warmup: 10.0,
        horizon: 60.0,
        seeds: 6,
        base_seed: 100,
    };
    let r = exp.run(PolicyKind::ControlledAlternate { max_hops: 3 }, &params);
    let blockings: Vec<f64> = r.per_seed.iter().map(|s| s.blocking()).collect();
    // All distinct (continuous statistics collide with probability ~0).
    for i in 0..blockings.len() {
        for j in (i + 1)..blockings.len() {
            assert_ne!(blockings[i], blockings[j], "seeds {i} and {j} identical");
        }
    }
    // And close to each other: max within 3x min for this easy regime.
    let min = blockings.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = blockings.iter().cloned().fold(0.0, f64::max);
    assert!(max < 3.0 * min + 0.05, "spread too wide: {blockings:?}");
}

/// Scaling the traffic matrix scales the simulated load: offered call
/// counts roughly double when the matrix doubles.
#[test]
fn load_scaling_reflects_in_offered_calls() {
    let traffic = nsfnet_nominal_traffic().traffic;
    let exp = Experiment::new(topologies::nsfnet(100), traffic).unwrap();
    let params = SimParams {
        warmup: 2.0,
        horizon: 20.0,
        seeds: 2,
        base_seed: 5,
    };
    let base = exp.run(PolicyKind::SinglePath, &params);
    let double = exp.scaled(2.0).run(PolicyKind::SinglePath, &params);
    let o1: u64 = base.per_seed.iter().map(|s| s.offered).sum();
    let o2: u64 = double.per_seed.iter().map(|s| s.offered).sum();
    let ratio = o2 as f64 / o1 as f64;
    assert!((1.8..=2.2).contains(&ratio), "ratio {ratio}");
}

/// Ott–Krishnan on the sparse mesh at high load does worse than the
/// controlled scheme — the paper's §4.2.2 observation.
#[test]
fn ott_krishnan_underperforms_on_sparse_mesh_at_high_load() {
    let traffic = nsfnet_nominal_traffic().traffic.scaled(1.3);
    let exp = Experiment::new(topologies::nsfnet(100), traffic).unwrap();
    let params = SimParams {
        warmup: 10.0,
        horizon: 60.0,
        seeds: 4,
        base_seed: 17,
    };
    let ok = exp
        .run(PolicyKind::OttKrishnan { max_hops: 11 }, &params)
        .blocking_mean();
    let controlled = exp
        .run(PolicyKind::ControlledAlternate { max_hops: 11 }, &params)
        .blocking_mean();
    assert!(
        ok > controlled * 1.1,
        "ott-krishnan {ok} vs controlled {controlled}"
    );
}

/// The header and numeric rows of a committed `results/<name>.csv`
/// (which `scripts/check.sh parity` pins to the code's output).
fn pinned_csv(name: &str) -> (Vec<String>, Vec<Vec<f64>>) {
    let path = format!("{}/results/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut lines = text.lines();
    let header = lines.next().expect("header").split(',').map(String::from);
    let rows = lines
        .map(|line| line.split(',').map(|c| c.parse().expect(c)).collect())
        .collect();
    (header.collect(), rows)
}

/// A pinned table keyed by (leading number, policy name): `at(key,
/// policy)` is that row's remaining numeric cells. Panics unless the
/// committed header is `header` and the table has `len` rows.
fn pinned_policy_table(name: &str, header: &[&str], len: usize) -> impl Fn(f64, &str) -> Vec<f64> {
    let path = format!("{}/results/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut lines = text.lines();
    assert_eq!(
        lines.next().expect("header").split(',').collect::<Vec<_>>(),
        header
    );
    let rows: Vec<(f64, String, Vec<f64>)> = lines
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            let values = cells[2..].iter().map(|c| c.parse().expect(c)).collect();
            (
                cells[0].parse().expect(cells[0]),
                cells[1].to_string(),
                values,
            )
        })
        .collect();
    assert_eq!(rows.len(), len);
    move |key, policy| {
        let row = rows.iter().find(|(k, p, _)| *k == key && p == policy);
        row.unwrap_or_else(|| panic!("no {policy} row at {key}"))
            .2
            .clone()
    }
}

const POLICIES: [&str; 3] = ["single-path", "uncontrolled", "controlled"];

/// The pinned multirate table keeps the claims its transcript and
/// EXPERIMENTS.md make: the 4-unit class blocks more than the 1-unit
/// class on every row, controlled call blocking never exceeds
/// single-path's and equals it at 80 Erlangs, and at 70 Erlangs
/// uncontrolled routing at least doubles the wideband blocking of
/// controlled routing.
#[test]
fn pinned_multirate_table_keeps_its_claims() {
    let at = pinned_policy_table(
        "multirate",
        &[
            "narrow_load",
            "policy",
            "call_blocking",
            "bw_blocking",
            "narrowband",
            "wideband",
        ],
        12,
    );
    let (call, narrow, wide) = (0, 2, 3);
    for load in [50.0, 60.0, 70.0, 80.0] {
        for policy in POLICIES {
            let row = at(load, policy);
            assert!(row[wide] > row[narrow], "{policy} at {load}: {row:?}");
        }
        let (single, controlled) = (at(load, "single-path"), at(load, "controlled"));
        assert!(
            controlled[call] <= single[call],
            "controlled > single-path at {load}"
        );
    }
    assert_eq!(at(80.0, "controlled"), at(80.0, "single-path"));
    assert!(at(70.0, "uncontrolled")[wide] >= 2.0 * at(70.0, "controlled")[wide]);
}

/// The pinned signaling-delay table keeps the claims its transcript and
/// EXPERIMENTS.md make: with no delay there are no booking races and no
/// set-up latency; uncontrolled routing races more than controlled at
/// every delay; at a realistic 2e-4 holding times controlled blocking
/// stays within 0.001 of the idealised value; and from no delay to 2e-2
/// uncontrolled blocking rises more than controlled blocking.
#[test]
fn pinned_signaling_delay_table_keeps_its_claims() {
    let at = pinned_policy_table(
        "signaling_delay",
        &[
            "hop_delay",
            "policy",
            "blocking",
            "booking_races",
            "mean_setup_latency",
            "mean_attempts",
        ],
        12,
    );
    let (blocking, races, latency) = (0, 1, 2);
    for policy in POLICIES {
        let row = at(0.0, policy);
        assert_eq!((row[races], row[latency]), (0.0, 0.0), "{policy}: {row:?}");
    }
    for delay in [2e-4, 2e-3, 2e-2] {
        assert!(at(delay, "uncontrolled")[races] > at(delay, "controlled")[races]);
    }
    let controlled = |delay| at(delay, "controlled")[blocking];
    let uncontrolled = |delay| at(delay, "uncontrolled")[blocking];
    assert!((controlled(2e-4) - controlled(0.0)).abs() <= 1e-3);
    assert!(uncontrolled(2e-2) - uncontrolled(0.0) > controlled(2e-2) - controlled(0.0));
}

/// The pinned Fig. 3 (quadrangle) and Fig. 6 (NSFNet) tables keep the
/// claims their transcripts and EXPERIMENTS.md make: controlled never
/// blocks more than single-path; on the quadrangle uncontrolled beats
/// single-path at 85 E and avalanches past it by 90 E, controlled wins
/// by ≥ 2.3× over single-path and ≥ 1.6× over uncontrolled at 85 E, and
/// coincides with single-path from 100 E on; on NSFNet uncontrolled
/// crosses single-path between loads 12 and 13, single-path sits within
/// 13 % of the Erlang bound at 14, and Ott–Krishnan is the worst policy
/// at loads 11–14 while tracking single-path at 10.
#[test]
fn pinned_fig3_and_fig6_tables_keep_their_claims() {
    fn at(rows: &[Vec<f64>], load: f64) -> &[f64] {
        rows.iter()
            .find(|r| r[0] == load)
            .unwrap_or_else(|| panic!("no row at load {load}"))
    }

    let (header, fig3) = pinned_csv("fig3_fig4_quadrangle");
    assert_eq!(
        header[..5],
        [
            "load",
            "single-path",
            "uncontrolled",
            "controlled",
            "erlang-bound"
        ]
    );
    assert_eq!(fig3.len(), 15);
    let (single, uncontrolled, controlled) = (1, 2, 3);
    for row in &fig3 {
        assert!(
            row[controlled] <= row[single],
            "fig3 controlled > single: {row:?}"
        );
    }
    let r85 = at(&fig3, 85.0);
    assert!(r85[uncontrolled] < r85[single], "fig3 at 85: {r85:?}");
    assert!(r85[single] / r85[controlled] >= 2.3, "fig3 at 85: {r85:?}");
    assert!(
        r85[uncontrolled] / r85[controlled] >= 1.6,
        "fig3 at 85: {r85:?}"
    );
    let r90 = at(&fig3, 90.0);
    assert!(r90[uncontrolled] > r90[single], "fig3 at 90: {r90:?}");
    for row in fig3.iter().filter(|r| r[0] >= 100.0) {
        assert!(
            (row[controlled] - row[single]).abs() < 1e-4,
            "fig3 controlled leaves single-path: {row:?}"
        );
    }

    let (header, fig6) = pinned_csv("fig6_fig7_nsfnet");
    assert_eq!(
        header[..6],
        [
            "load",
            "single-path",
            "uncontrolled",
            "controlled",
            "ott-krishnan",
            "erlang-bound"
        ]
    );
    assert_eq!(fig6.len(), 13);
    let (ott_krishnan, bound) = (4, 5);
    for row in &fig6 {
        assert!(
            row[controlled] <= row[single],
            "fig6 controlled > single: {row:?}"
        );
    }
    let (r12, r13) = (at(&fig6, 12.0), at(&fig6, 13.0));
    assert!(r12[uncontrolled] < r12[single], "fig6 at 12: {r12:?}");
    assert!(r13[uncontrolled] > r13[single], "fig6 at 13: {r13:?}");
    let r14 = at(&fig6, 14.0);
    assert!(
        r14[single] >= r14[bound] && r14[single] <= 1.13 * r14[bound],
        "fig6 single-path vs Erlang bound at 14: {r14:?}"
    );
    for load in [11.0, 12.0, 13.0, 14.0] {
        let row = at(&fig6, load);
        for policy in [single, uncontrolled, controlled] {
            assert!(row[ott_krishnan] > row[policy], "fig6 at {load}: {row:?}");
        }
    }
    let r10 = at(&fig6, 10.0);
    assert!(
        (r10[ott_krishnan] - r10[single]).abs() <= 0.01 * r10[single],
        "fig6 Ott-Krishnan vs single-path at 10: {r10:?}"
    );
}

/// The pinned bursty-arrivals (H2, assumption A2) table keeps the claims
/// its transcript and EXPERIMENTS.md make: controlled ≤ single-path on
/// every row, blocking non-decreasing in cv² at each load for every
/// policy, and at cv² = 4 the uncontrolled avalanche already beats
/// single-path's blocking at 85 Erlangs.
#[test]
fn pinned_bursty_arrivals_table_keeps_its_claims() {
    let (header, rows) = pinned_csv("bursty_arrivals");
    assert_eq!(
        header,
        ["cv2", "load", "single-path", "uncontrolled", "controlled"]
    );
    assert_eq!(rows.len(), 9);
    for row in &rows {
        assert!(row[4] <= row[2], "controlled > single-path: {row:?}");
    }
    for a in &rows {
        for b in rows.iter().filter(|b| b[1] == a[1] && b[0] > a[0]) {
            for policy in 2..5 {
                assert!(a[policy] <= b[policy], "not monotone in cv2: {a:?} {b:?}");
            }
        }
    }
    let row = rows.iter().find(|r| r[0] == 4.0 && r[1] == 85.0).unwrap();
    assert!(
        row[3] > row[2],
        "uncontrolled not worse at cv2 4, 85 E: {row:?}"
    );
}

/// Relative tolerance between the simulated overflow moments and
/// Riordan's formula (DESIGN.md quotes the same figure).
const RIORDAN_TOLERANCE: f64 = 0.03;

/// The pinned overflow-peakedness (assumption A1) table: overflow is
/// burstier than Poisson on every row, and the simulated mean and
/// peakedness agree with Riordan's formula within [`RIORDAN_TOLERANCE`].
#[test]
fn pinned_overflow_peakedness_table_matches_riordan() {
    let (header, rows) = pinned_csv("overflow_peakedness");
    assert_eq!(
        header,
        [
            "load",
            "capacity",
            "riordan_mean",
            "measured_mean",
            "riordan_z",
            "measured_z"
        ]
    );
    assert_eq!(rows.len(), 5);
    for row in &rows {
        assert!(row[5] > 1.0, "overflow not peaked: {row:?}");
        for (riordan, measured) in [(row[2], row[3]), (row[4], row[5])] {
            let rel = (measured - riordan).abs() / riordan;
            assert!(rel <= RIORDAN_TOLERANCE, "{rel:.4} off Riordan: {row:?}");
        }
    }
}
