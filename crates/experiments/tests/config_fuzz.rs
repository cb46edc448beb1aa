//! Fuzzing the two JSON config readers: the simulate-family schema
//! (`altroute_experiments::config`) and the daemon's `DaemonConfig`.
//!
//! Every input — arbitrary bytes, schema-shaped documents full of zero,
//! negative, fractional and huge numbers, and those documents with bytes
//! overwritten — must decode to `Ok` or `Err`, never panic, through
//! `altroute_json::parse`, `Config::from_json` and the topology/traffic
//! build, and through `DaemonConfig::from_json`. Every accepted simulate
//! config must also meet the run's preconditions, so running it cannot
//! panic on its parameters, and offer a replication at most
//! `MAX_OFFERED_CALLS` calls and the whole run at most `MAX_RUN_CALLS`
//! over at most `MAX_SEEDS` seeds, so running it ends and its seed pool
//! is bounded, and keep at most `MAX_TALLY_BYTES` of per-pair tallies
//! over its seeds. Every config the repository ships stays accepted.

use altroute_experiments::config::{
    Config, EXAMPLE_CONFIG, MAX_OFFERED_CALLS, MAX_RUN_CALLS, MAX_SEEDS, MAX_TALLY_BYTES,
};
use altroute_netgraph::graph::{MAX_CAPACITY, MAX_NODES};
use altrouted::config::DaemonConfig;
use proptest::prelude::*;

/// The numbers documents are built from: the valid small ones, and zero,
/// negative, fractional, huge, infinite (`1e999` parses to `inf`) and
/// just-past-`u32`/`u64` values. Node counts stay small enough that an
/// accepted topology builds in microseconds.
const NUMBERS: [&str; 20] = [
    "0",
    "1",
    "2",
    "3",
    "4",
    "12",
    "0.5",
    "2.5",
    "-1",
    "-0.5",
    "-0",
    "1e-300",
    "1e300",
    "-1e300",
    "1e999",
    "-1e999",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "1e20",
];

/// A valid value for each number slot of a document: simulate slots
/// 0..32 (see [`simulate_doc`]), daemon slots 32..39 (see [`daemon_doc`]).
const VALID: [&str; 39] = [
    "4", "10", "0", "3", "10", "10", "2", "3", "1", "2", "2", "7", "0", "1", "0.5", "1.5", "1",
    "0", "1", "1", "1", "1", "0", "1", "1", "1", "1", "0", "1", "1", "1", "1", "4", "10", "2", "1",
    "1", "0.5", "1",
];

/// One pick per slot: about one slot in ten takes a value from
/// [`NUMBERS`], the rest keep their [`VALID`] value, so most documents
/// fail on one field at a time and a good share are accepted.
fn picks() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..10 * NUMBERS.len(), VALID.len())
}

/// The number in slot `slot`.
fn number(picks: &[usize], slot: usize) -> &'static str {
    NUMBERS.get(picks[slot]).unwrap_or(&VALID[slot])
}

/// A simulate config with every number drawn from `picks`; `shape`
/// chooses the topology and traffic variants and which optional members
/// appear.
fn simulate_doc(picks: &[usize], shape: (usize, usize, usize)) -> String {
    let n = |slot: usize| number(picks, slot);
    let topology = match shape.0 {
        0 => r#"{"builtin": "quadrangle"}"#.to_string(),
        1 => r#"{"builtin": "nsfnet"}"#.to_string(),
        2 => format!(
            r#"{{"full_mesh": {{"nodes": {}, "capacity": {}}}}}"#,
            n(0),
            n(1)
        ),
        3 => format!(r#"{{"ring": {{"nodes": {}, "capacity": {}}}}}"#, n(0), n(1)),
        _ => format!(
            r#"{{"links": {{"nodes": {}, "duplex": [[{}, {}, {}], [1, 2, {}], [2, 3, 10], [0, 1, 10]]}}}}"#,
            n(0),
            n(2),
            n(3),
            n(4),
            n(5)
        ),
    };
    let traffic = match shape.1 {
        0 => format!(r#"{{"uniform": {}}}"#, n(6)),
        1 => format!(r#"{{"nsfnet_nominal": {{"scale": {}}}}}"#, n(6)),
        _ => {
            let row = |i: usize| format!("[{}, {}, {}, {}]", n(i), n(i + 1), n(i + 2), n(i + 3));
            format!(
                r#"{{"matrix": [{}, {}, {}, {}]}}"#,
                row(16),
                row(20),
                row(24),
                row(28)
            )
        }
    };
    let mut doc = format!(
        r#"{{"topology": {topology}, "traffic": {traffic}, "policies": ["single-path", "controlled"], "max_hops": {}"#,
        n(7)
    );
    for (bit, key, slot) in [
        (0, "warmup", 8),
        (1, "horizon", 9),
        (2, "seeds", 10),
        (3, "base_seed", 11),
    ] {
        if shape.2 >> bit & 1 == 1 {
            doc.push_str(&format!(r#", "{key}": {}"#, n(slot)));
        }
    }
    if shape.2 >> 4 & 1 == 1 {
        doc.push_str(&format!(
            r#", "failed_duplex": [[{}, {}]], "outages": [[0, 1, {}, {}]]"#,
            n(12),
            n(13),
            n(14),
            n(15)
        ));
    }
    doc.push('}');
    doc
}

/// A daemon config with every number drawn from `picks`.
fn daemon_doc(picks: &[usize]) -> String {
    let n = |slot: usize| number(picks, slot);
    format!(
        r#"{{"mesh": {{"nodes": {}, "capacity": {}}}, "max_hops": {}, "window": {}, "recompute_every": {}, "alpha": {}, "mean_holding": {}}}"#,
        n(32),
        n(33),
        n(34),
        n(35),
        n(36),
        n(37),
        n(38)
    )
}

/// Runs `text` through both readers; `Err` if an accepted config breaks
/// a precondition of what runs it. A panic anywhere fails the test.
fn check(text: &str) -> Result<(), TestCaseError> {
    let Ok(value) = altroute_json::parse(text) else {
        return Ok(());
    };
    if let Ok(config) = Config::from_json(&value) {
        let p = config.params;
        prop_assert!(
            (1..=MAX_SEEDS).contains(&p.seeds),
            "accepted {} seeds: {text}",
            p.seeds
        );
        prop_assert!(p.warmup.is_finite() && p.warmup >= 0.0, "warm-up: {text}");
        prop_assert!(
            p.horizon > 0.0 && (p.warmup + p.horizon).is_finite(),
            "{text}"
        );
        prop_assert!(config.max_hops >= 1, "accepted max_hops 0: {text}");
        prop_assert!(
            p.base_seed.checked_add(u64::from(p.seeds) - 1).is_some(),
            "seeds overflow: {text}"
        );
        if let Ok(exp) = config.experiment() {
            let offered = exp.traffic().total() * (p.warmup + p.horizon);
            prop_assert!(
                offered <= MAX_OFFERED_CALLS,
                "offers {offered:e} calls: {text}"
            );
            let total = offered * f64::from(p.seeds);
            prop_assert!(total <= MAX_RUN_CALLS, "offers {total:e} in all: {text}");
            let topo = exp.topology();
            prop_assert!((2..=MAX_NODES).contains(&topo.num_nodes()), "{text}");
            let n = topo.num_nodes() as u64;
            prop_assert!(
                16 * u64::from(p.seeds) * n * n <= MAX_TALLY_BYTES,
                "tallies over {} seeds: {text}",
                p.seeds
            );
            prop_assert!(
                topo.links()
                    .iter()
                    .all(|l| (1..=MAX_CAPACITY).contains(&l.capacity)),
                "capacity out of range: {text}"
            );
        }
    }
    if let Ok(daemon) = DaemonConfig::from_json(&value) {
        prop_assert!(daemon
            .plane
            .capacities
            .iter()
            .all(|&c| (1..=MAX_CAPACITY).contains(&c)));
        prop_assert!(daemon.tuning.window > 0.0 && daemon.tuning.window.is_finite());
        daemon.controller();
    }
    Ok(())
}

/// The quadrangle at `uniform` Erlangs per pair with `seeds` seeds,
/// decoded and built.
fn quadrangle_run(uniform: &str, seeds: &str) -> Result<(), String> {
    let text = format!(
        r#"{{"topology": {{"builtin": "quadrangle"}}, "traffic": {{"uniform": {uniform}}}, "policies": [], "max_hops": 3, "seeds": {seeds}}}"#
    );
    Config::from_json(&altroute_json::parse(&text).unwrap())?
        .experiment()
        .map(|_| ())
}

#[test]
fn seed_counts_and_run_totals_are_bounded() {
    // A seed count the pool would allocate 4 billion result slots for,
    // even with nothing to simulate.
    assert_eq!(
        quadrangle_run("0.0", "4294967295"),
        Err("\"seeds\" 4294967295 is too large; at most 10000 are allowed".into())
    );
    assert!(quadrangle_run("0.0", "10000").is_ok());
    // 12 pairs x 7e5 Erlangs x 110 time units: 9.24e8 calls a seed.
    assert!(quadrangle_run("7e5", "10").is_ok());
    assert_eq!(
        quadrangle_run("7e5", "11"),
        Err("the config offers 1.016e10 calls over its 11 seeds; at most 1e10 are allowed".into())
    );
}

/// A `nodes`-node ring carrying no traffic, run over `seeds` seeds,
/// decoded and built.
fn idle_ring(nodes: usize, seeds: u32) -> Result<(), String> {
    let text = format!(
        r#"{{"topology": {{"ring": {{"nodes": {nodes}, "capacity": 10}}}}, "traffic": {{"uniform": 0.0}}, "policies": [], "max_hops": 3, "seeds": {seeds}}}"#
    );
    Config::from_json(&altroute_json::parse(&text).unwrap())?
        .experiment()
        .map(|_| ())
}

#[test]
fn per_seed_tallies_are_bounded() {
    // Nothing to simulate, yet every seed would keep two 10⁶-entry
    // per-pair tallies: 160 GB over 10,000 seeds.
    assert_eq!(
        idle_ring(MAX_NODES, MAX_SEEDS),
        Err(
            "the config's 10000 seeds over 1000 nodes keep 160000000000 bytes of \
             per-pair tallies; at most 2147483648 are allowed"
                .into()
        )
    );
    // 16 B x 134 x 10⁶ fits in 2 GiB; one more seed does not.
    assert!(idle_ring(MAX_NODES, 134).is_ok());
    assert!(idle_ring(MAX_NODES, 135).is_err());
    assert!(idle_ring(100, MAX_SEEDS).is_ok());
}

/// Every simulate config the repository ships: `example-config` and the
/// configs `scripts/check.sh` writes (its `<<'EOF'` heredocs).
fn shipped_configs() -> Vec<String> {
    let script = include_str!("../../../scripts/check.sh");
    let mut configs = vec![EXAMPLE_CONFIG.to_string()];
    let mut lines = script.lines();
    while let Some(line) = lines.next() {
        if line.ends_with("<<'EOF'") {
            let body: Vec<&str> = lines.by_ref().take_while(|l| *l != "EOF").collect();
            configs.push(body.join("\n"));
        }
    }
    configs
}

#[test]
fn shipped_configs_are_accepted() {
    let configs = shipped_configs();
    assert!(configs.len() >= 4, "found {} configs", configs.len());
    for text in &configs {
        let value = altroute_json::parse(text).expect("valid JSON");
        let config = Config::from_json(&value).unwrap_or_else(|e| panic!("{e}: {text}"));
        config
            .experiment()
            .unwrap_or_else(|e| panic!("{e}: {text}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    fn schema_shaped_configs_are_refused_or_runnable(
        picks in picks(),
        shape in (0..5usize, 0..3usize, 0..32usize),
    ) {
        check(&simulate_doc(&picks, shape))?;
        check(&daemon_doc(&picks))?;
    }

    fn overwritten_bytes_never_panic(
        picks in picks(),
        shape in (0..5usize, 0..3usize, 0..32usize),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        for doc in [simulate_doc(&picks, shape), daemon_doc(&picks)] {
            let mut bytes = doc.into_bytes();
            for &(at, byte) in &edits {
                let len = bytes.len();
                bytes[at % len] = byte;
            }
            check(&String::from_utf8_lossy(&bytes))?;
        }
    }
}
