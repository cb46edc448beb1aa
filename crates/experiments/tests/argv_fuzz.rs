//! Fuzzing the argv grammar (`altroute_experiments::cli`) of
//! `altroute_cli` and the result binaries.
//!
//! Every argv — arbitrary strings, and lines built from the subcommand
//! names, every flag name in both spellings and the values 0, -1, NaN,
//! inf, 1e999, `u64::MAX + 1` and the empty string — must parse to a
//! run, the usage or one error, never panic. Every accepted invocation
//! must meet its subcommand's argv-only preconditions: only its own flags
//! set, every value in its flag's domain (`--workers` at most
//! `MAX_WORKERS`, `--nodes` at most `MAX_NODES`), its positionals in
//! range and its preset's overrides within the command's bounds. Only
//! parsing runs here; nothing is simulated.

use altroute_experiments::cli::{parse, parse_bin, Command, Flag, Flags, COMMANDS, MAX_WORKERS};
use altroute_experiments::config::parse_policy;
use altroute_netgraph::graph::{MAX_CAPACITY, MAX_NODES};
use altroute_telemetry::TimeGrid;
use proptest::prelude::*;

/// The values tokens are built from: out-of-domain ones first, then
/// numbers on both sides of each cap, presets, policy names and paths.
const VALUES: [&str; 26] = [
    "0",
    "-1",
    "NaN",
    "inf",
    "1e999",
    "18446744073709551616",
    "",
    "1",
    "2",
    "3",
    "5",
    "0.5",
    "1e-9",
    "257",
    "1000",
    "1001",
    "10000",
    "10001",
    "4294967295",
    "smoke",
    "paper",
    "full",
    "ramp",
    "controlled",
    "bod",
    "c.json",
];

/// One flag of an argv, from `pick`: mostly one of `accepted` (any flag
/// otherwise), as `--flag=value`, `--flag value` or a bare `--flag`;
/// rarely an unknown flag or `-h`.
fn flag_tokens(accepted: &[Flag], (kind, a, b): (usize, usize, usize)) -> Vec<String> {
    let pool: &[Flag] = if accepted.is_empty() || a % 4 == 0 {
        &Flag::ALL
    } else {
        accepted
    };
    let flag = pool[a / 4 % pool.len()].name();
    let value = VALUES[b % VALUES.len()].to_string();
    match kind {
        0..=3 => vec![format!("--{flag}={value}")],
        4..=7 => vec![format!("--{flag}"), value],
        8..=10 => vec![format!("--{flag}")],
        11 => vec![format!("--{value}")],
        _ => vec!["-h".to_string()],
    }
}

/// A flag-shaped argv: a subcommand, mostly with as many values as it
/// has positionals, and flags drawn mostly from the ones it accepts,
/// some of them before the subcommand.
fn flag_shaped() -> impl Strategy<Value = Vec<String>> {
    (
        0..COMMANDS.len(),
        proptest::collection::vec(0..64usize, 0..4),
        0..4usize,
        proptest::collection::vec((0..13usize, 0..256usize, 0..64usize), 0..5),
        0..3usize,
    )
        .prop_map(|(lead, values, exact, picks, before)| {
            let spec = &COMMANDS[lead];
            let arity = spec.usage.split(' ').count() - 1;
            let count = if exact == 0 { values.len() } else { arity };
            let positionals = values.iter().cycle().take(count);
            let groups: Vec<Vec<String>> = picks
                .into_iter()
                .map(|pick| flag_tokens(spec.flags, pick))
                .collect();
            let split = before.min(groups.len());
            let mut argv = groups[..split].concat();
            argv.push(spec.name().to_string());
            argv.extend(positionals.map(|&v| VALUES[v % VALUES.len()].to_string()));
            argv.extend(groups[split..].concat());
            argv
        })
}

/// The name of every flag `flags` sets.
fn set_flags(f: &Flags) -> Vec<&'static str> {
    [
        ("metrics-json", f.metrics_json),
        ("progress", f.progress),
        ("bless", f.bless),
        ("quick", f.quick),
        ("telemetry", f.telemetry.is_some()),
        ("window", f.window.is_some()),
        ("policy", f.policy.is_some()),
        ("hop-delay", f.hop_delay.is_some()),
        ("workers", f.workers.is_some()),
        ("d", f.d.is_some()),
        ("preset", f.preset.is_some()),
        ("nodes", f.nodes.is_some()),
        ("serve", f.serve.is_some()),
    ]
    .into_iter()
    .filter_map(|(name, set)| set.then_some(name))
    .collect()
}

/// Every flag value lies in its flag's domain.
fn check_domains(f: &Flags, argv: &[String]) -> Result<(), TestCaseError> {
    if let Some(n) = f.workers {
        prop_assert!((1..=MAX_WORKERS).contains(&n), "--workers {n}: {argv:?}");
    }
    if let Some(n) = f.nodes {
        prop_assert!((1..=MAX_NODES).contains(&n), "--nodes {n}: {argv:?}");
    }
    if let Some(w) = f.window {
        prop_assert!(w.is_finite() && w > 0.0, "--window {w}: {argv:?}");
    }
    if let Some(h) = f.hop_delay {
        prop_assert!(h.is_finite() && h >= 0.0, "--hop-delay {h}: {argv:?}");
    }
    prop_assert!(f.d.is_none_or(|d| d >= 1), "--d 0: {argv:?}");
    if let Some(p) = &f.policy {
        prop_assert!(parse_policy(p, 1, 1).is_ok(), "--policy {p}: {argv:?}");
    }
    Ok(())
}

/// The subcommand name of `command`.
fn command_name(command: &Command) -> &'static str {
    match command {
        Command::Erlang(..) => "erlang",
        Command::Dimension(..) => "dimension",
        Command::Protect(..) => "protect",
        Command::Simulate(_) => "simulate",
        Command::Adaptive(_) => "adaptive",
        Command::Multirate(_) => "multirate",
        Command::Signaling(_) => "signaling",
        Command::Metastability(..) => "metastability",
        Command::Controlled(..) => "controlled",
        Command::Largemesh(..) => "largemesh",
        Command::Feed(_) => "feed",
        Command::Telemetry(_) => "telemetry",
        Command::Replay(_) => "replay",
        Command::ExampleConfig => "example-config",
        Command::Conformance => "conformance",
    }
}

/// Parses `argv` as `altroute_cli`'s; `Err` if it accepts an invocation
/// that breaks a precondition. A panic anywhere fails the test.
fn check(argv: &[String]) -> Result<(), TestCaseError> {
    let Ok(Some(inv)) = parse(argv) else {
        return Ok(());
    };
    let f = &inv.flags;
    check_domains(f, argv)?;
    let name = command_name(&inv.command);
    let spec = COMMANDS
        .iter()
        .find(|c| c.name() == name)
        .expect("a listed command");
    for set in set_flags(f) {
        prop_assert!(
            spec.flags.iter().any(|a| a.name() == set),
            "{name} took --{set}: {argv:?}"
        );
    }
    let load_ok = |load: f64| load.is_finite() && load >= 0.0;
    match &inv.command {
        Command::Erlang(load, capacity) => {
            prop_assert!(load_ok(*load) && *capacity <= MAX_CAPACITY, "{argv:?}");
        }
        Command::Dimension(load, target) => {
            prop_assert!(
                load_ok(*load) && *target > 0.0 && *target <= 1.0,
                "{argv:?}"
            );
        }
        Command::Protect(load, capacity, h) => {
            prop_assert!(load_ok(*load), "{argv:?}");
            prop_assert!((1..=MAX_CAPACITY).contains(capacity) && *h >= 1, "{argv:?}");
        }
        Command::Simulate(_)
        | Command::Adaptive(_)
        | Command::Multirate(_)
        | Command::Signaling(_) => {
            prop_assert!(
                f.window.is_none() || f.telemetry.is_some(),
                "--window without --telemetry: {argv:?}"
            );
        }
        Command::Metastability(_, cfg) => {
            prop_assert!((3..=MAX_NODES).contains(&cfg.nodes), "{argv:?}");
            prop_assert!(cfg.d >= 1, "{argv:?}");
            let windows = (cfg.horizon / cfg.window).ceil();
            prop_assert!(windows <= TimeGrid::MAX_WINDOWS as f64, "{argv:?}");
        }
        Command::Largemesh(_, cfg) => {
            prop_assert!((5..=MAX_NODES).contains(&cfg.nodes), "{argv:?}");
            prop_assert!(
                cfg.demand_pairs <= cfg.nodes * (cfg.nodes - 1) / 2,
                "{argv:?}"
            );
        }
        _ => {}
    }
    Ok(())
}

/// Parses `argv` as a result binary's accepting the flags picked by the
/// bits of `mask`; an accepted run sets no other flag.
fn check_bin(mask: u32, argv: &[String]) -> Result<(), TestCaseError> {
    let accepted: Vec<Flag> = Flag::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, f)| f)
        .collect();
    if let Ok(Some(flags)) = parse_bin("bin", &accepted, argv) {
        check_domains(&flags, argv)?;
        for set in set_flags(&flags) {
            prop_assert!(
                accepted.iter().any(|a| a.name() == set),
                "took --{set}: {argv:?}"
            );
        }
    }
    Ok(())
}

#[test]
fn every_flag_is_named_in_the_checks() {
    let names: Vec<_> = Flag::ALL.iter().map(|f| f.name()).collect();
    let all = Flags {
        metrics_json: true,
        progress: true,
        bless: true,
        quick: true,
        telemetry: Some(String::new()),
        window: Some(1.0),
        policy: Some(String::new()),
        hop_delay: Some(0.0),
        workers: Some(1),
        d: Some(1),
        preset: Some(String::new()),
        nodes: Some(1),
        serve: Some(String::new()),
    };
    assert_eq!(set_flags(&all), names);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16384))]

    fn arbitrary_argv_never_panics(
        argv in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..12)
                .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
            0..6,
        ),
    ) {
        check(&argv)?;
        check_bin(u32::MAX, &argv)?;
    }

    fn accepted_invocations_meet_their_preconditions(argv in flag_shaped()) {
        check(&argv)?;
    }

    fn result_binaries_take_only_their_flags(
        mask in any::<u32>(),
        argv in flag_shaped(),
    ) {
        check_bin(mask, &argv[1..])?;
    }
}
