//! `altroute_cli`'s one-link calculators refuse arguments they would
//! panic on or could not afford — a capacity above `MAX_CAPACITY` (Eq. 15
//! at `C = 4294967295` would ask for a 32 GiB table), a negative load, a
//! zero capacity or `H` — with one `error:` line and exit status 1,
//! before computing anything. Every result binary refuses a flag it does
//! not take the same way, and every binary prints its usage on `--help`.

use std::process::Command;

/// Runs the CLI on `args`; returns its exit code and stderr.
fn cli(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_altroute_cli"))
        .args(args)
        .output()
        .expect("altroute_cli runs");
    (
        out.status.code(),
        String::from_utf8(out.stderr).expect("UTF-8 stderr"),
    )
}

#[test]
fn calculators_refuse_out_of_domain_arguments() {
    let too_big = "error: capacity 4294967295 is too large; at most 10000 circuits are allowed\n";
    for (args, expected) in [
        (&["protect", "50", "4294967295", "2"][..], too_big),
        (&["erlang", "50", "4294967295"], too_big),
        (
            &["erlang", "-1", "10"],
            "error: load must be finite and >= 0, got '-1'\n",
        ),
        (
            &["protect", "10", "0", "2"],
            "error: protect needs a capacity and an H of at least 1\n",
        ),
        (
            &["protect", "10", "20", "0"],
            "error: protect needs a capacity and an H of at least 1\n",
        ),
        (
            &["dimension", "10", "0"],
            "error: target blocking must be in (0, 1], got '0'\n",
        ),
    ] {
        assert_eq!(cli(args), (Some(1), expected.to_string()), "{args:?}");
    }
}

#[test]
fn calculators_accept_the_capacity_cap() {
    let (code, stderr) = cli(&["protect", "9000", "10000", "2"]);
    assert_eq!((code, stderr.as_str()), (Some(0), ""));
}

/// Every result binary, by name.
const RESULT_BINARIES: [(&str, &str); 19] = [
    (
        "adaptive_estimation",
        env!("CARGO_BIN_EXE_adaptive_estimation"),
    ),
    ("bursty_arrivals", env!("CARGO_BIN_EXE_bursty_arrivals")),
    ("channel_borrowing", env!("CARGO_BIN_EXE_channel_borrowing")),
    ("failures", env!("CARGO_BIN_EXE_failures")),
    ("fig1_chain", env!("CARGO_BIN_EXE_fig1_chain")),
    (
        "fig2_protection_curves",
        env!("CARGO_BIN_EXE_fig2_protection_curves"),
    ),
    ("fig3_quadrangle", env!("CARGO_BIN_EXE_fig3_quadrangle")),
    ("fig5_topology", env!("CARGO_BIN_EXE_fig5_topology")),
    ("fig6_nsfnet", env!("CARGO_BIN_EXE_fig6_nsfnet")),
    ("h6_limited", env!("CARGO_BIN_EXE_h6_limited")),
    ("minloss_primaries", env!("CARGO_BIN_EXE_minloss_primaries")),
    ("mitra_gibbens", env!("CARGO_BIN_EXE_mitra_gibbens")),
    ("multirate", env!("CARGO_BIN_EXE_multirate")),
    ("od_skewness", env!("CARGO_BIN_EXE_od_skewness")),
    (
        "overflow_peakedness",
        env!("CARGO_BIN_EXE_overflow_peakedness"),
    ),
    ("per_link_h", env!("CARGO_BIN_EXE_per_link_h")),
    ("protection_sweep", env!("CARGO_BIN_EXE_protection_sweep")),
    ("signaling_delay", env!("CARGO_BIN_EXE_signaling_delay")),
    (
        "table1_protection_levels",
        env!("CARGO_BIN_EXE_table1_protection_levels"),
    ),
];

/// Runs `exe` on `args` in a scratch working directory (a binary that
/// ran would write `results/` there), removed afterwards; returns its
/// exit code, stdout and stderr.
fn run_in_scratch(exe: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let thread = format!("{:?}", std::thread::current().id());
    let dir = std::env::temp_dir().join(format!("cli_args_{}_{thread}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(exe)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("UTF-8 stdout"),
        String::from_utf8(out.stderr).expect("UTF-8 stderr"),
    )
}

#[test]
fn result_binaries_refuse_a_misspelled_flag_before_running() {
    for (name, exe) in RESULT_BINARIES {
        let (code, stdout, stderr) = run_in_scratch(exe, &["--quik"]);
        assert_eq!(code, Some(1), "{name}");
        assert_eq!(stdout, "", "{name} printed on stdout");
        assert_eq!(stderr, "error: unknown flag --quik\n", "{name}");
    }
}

#[test]
fn help_prints_the_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let (code, stdout, stderr) = run_in_scratch(env!("CARGO_BIN_EXE_altroute_cli"), &[flag]);
        assert_eq!((code, stderr.as_str()), (Some(0), ""), "{flag}");
        assert_eq!(stdout, altroute_experiments::cli::usage(), "{flag}");
    }
    for (name, exe) in RESULT_BINARIES {
        let (code, stdout, stderr) = run_in_scratch(exe, &["--help"]);
        assert_eq!((code, stderr.as_str()), (Some(0), ""), "{name}");
        assert!(
            stdout.starts_with(&format!("usage: {name}")),
            "{name}: {stdout}"
        );
    }
}
