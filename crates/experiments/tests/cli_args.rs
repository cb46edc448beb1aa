//! `altroute_cli`'s one-link calculators refuse arguments they would
//! panic on or could not afford — a capacity above `MAX_CAPACITY` (Eq. 15
//! at `C = 4294967295` would ask for a 32 GiB table), a negative load, a
//! zero capacity or `H` — with one `error:` line and exit status 1,
//! before computing anything.

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
