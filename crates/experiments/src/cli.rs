//! The argv grammar of `altroute_cli` and of the result binaries, stated
//! once: [`Flag`] names every flag (its name and whether it takes a
//! value), `Flags::set` holds every flag's domain check, and
//! [`COMMANDS`] lists every `altroute_cli` subcommand (its name and
//! positionals, the flags it accepts, and the argv-only checks that
//! build its [`Command`]).
//!
//! [`parse`] and [`parse_bin`] are pure: an argv comes back as a
//! validated invocation, as a request for the usage the tables generate
//! (`-h` or `--help` anywhere), or as one error. Flags go anywhere on the
//! line, as `--flag value` or `--flag=value`; an unknown flag, a flag the
//! command does not accept and a value out of its domain are all refused
//! before anything runs.

use crate::config::parse_policy;
use crate::{FeedConfig, LargeMeshConfig, MetastabilityConfig};
use altroute_netgraph::graph::{MAX_CAPACITY, MAX_NODES};
use altroute_sim::experiment::{Fanout, ProgressObserver, SimParams};
use altroute_simcore::pool::default_workers;
use altroute_telemetry::{MetricsServer, TimeGrid};
use std::str::FromStr;

/// The most replication threads `--workers` may ask for. The seed pool
/// spawns `min(workers, seeds)` threads at once; 256 is well past any
/// core count the runs are sized for.
pub const MAX_WORKERS: usize = 256;

/// Every flag of the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--metrics-json`.
    MetricsJson,
    /// `--progress`.
    Progress,
    /// `--bless`.
    Bless,
    /// `--quick`.
    Quick,
    /// `--telemetry DIR`.
    Telemetry,
    /// `--window W`.
    Window,
    /// `--policy NAME`.
    Policy,
    /// `--hop-delay D`.
    HopDelay,
    /// `--workers N`.
    Workers,
    /// `--d K`.
    D,
    /// `--preset NAME`.
    Preset,
    /// `--nodes N`.
    Nodes,
    /// `--serve ADDR`.
    Serve,
}

impl Flag {
    /// Every flag, in the usage's order.
    pub const ALL: [Flag; 13] = [
        Flag::MetricsJson,
        Flag::Progress,
        Flag::Bless,
        Flag::Quick,
        Flag::Telemetry,
        Flag::Window,
        Flag::Policy,
        Flag::HopDelay,
        Flag::Workers,
        Flag::D,
        Flag::Preset,
        Flag::Nodes,
        Flag::Serve,
    ];

    /// The flag's name (without the leading `--`) and its value's
    /// placeholder in the usage (`None` for a switch).
    fn spec(self) -> (&'static str, Option<&'static str>) {
        match self {
            Flag::MetricsJson => ("metrics-json", None),
            Flag::Progress => ("progress", None),
            Flag::Bless => ("bless", None),
            Flag::Quick => ("quick", None),
            Flag::Telemetry => ("telemetry", Some("DIR")),
            Flag::Window => ("window", Some("W")),
            Flag::Policy => ("policy", Some("NAME")),
            Flag::HopDelay => ("hop-delay", Some("D")),
            Flag::Workers => ("workers", Some("N")),
            Flag::D => ("d", Some("K")),
            Flag::Preset => ("preset", Some("NAME")),
            Flag::Nodes => ("nodes", Some("N")),
            Flag::Serve => ("serve", Some("ADDR")),
        }
    }

    /// The flag's line in the usage.
    fn help(self) -> &'static str {
        match self {
            Flag::MetricsJson => "print a machine-readable JSON document instead of the table",
            Flag::Progress => "print a replications-completed heartbeat with an ETA on stderr",
            Flag::Bless => "regenerate the golden traces instead of checking them",
            Flag::Quick => "a fast low-fidelity run instead of the paper's parameters",
            Flag::Telemetry => "record telemetry and write its exports under DIR",
            Flag::Window => "telemetry (and mode-detector) window width in sim time",
            Flag::Policy => "run only this policy (a name the config's policies take)",
            Flag::HopDelay => "per-hop set-up delay in mean holding times (default 0.0002)",
            Flag::Workers => "replication threads (default: every core)",
            Flag::D => "tandems best-of-d samples per overflow (default 2)",
            Flag::Preset => "the named instance to run (each command lists its own)",
            Flag::Nodes => "override the preset's mesh size",
            Flag::Serve => "serve /metrics, /healthz and /status over HTTP (port 0: any)",
        }
    }

    /// The flag's name, without the leading `--`.
    pub fn name(self) -> &'static str {
        self.spec().0
    }

    /// The usage's spelling: `--name` or `--name VALUE`.
    fn spelled(self) -> String {
        match self.spec() {
            (name, None) => format!("--{name}"),
            (name, Some(placeholder)) => format!("--{name} {placeholder}"),
        }
    }
}

/// Every flag's value, as parsed; a flag not given keeps its default.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Flags {
    /// `--metrics-json`.
    pub metrics_json: bool,
    /// `--progress`.
    pub progress: bool,
    /// `--bless`.
    pub bless: bool,
    /// `--quick`.
    pub quick: bool,
    /// `--telemetry DIR`.
    pub telemetry: Option<String>,
    /// `--window W`: finite and positive.
    pub window: Option<f64>,
    /// `--policy NAME`: a name [`parse_policy`] knows.
    pub policy: Option<String>,
    /// `--hop-delay D`: finite and non-negative.
    pub hop_delay: Option<f64>,
    /// `--workers N`: between 1 and [`MAX_WORKERS`].
    pub workers: Option<usize>,
    /// `--d K`: at least 1.
    pub d: Option<u32>,
    /// `--preset NAME`.
    pub preset: Option<String>,
    /// `--nodes N`: between 1 and [`MAX_NODES`] (each command sets its
    /// own minimum).
    pub nodes: Option<usize>,
    /// `--serve ADDR`.
    pub serve: Option<String>,
}

/// `v` as a `T`, or an error saying `what` must be `kind`.
fn number<T: FromStr>(v: &str, what: &str, kind: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{what} must be {kind}, got '{v}'"))
}

/// A finite number that is `ok`, or an error saying `what` must be
/// `must`.
fn finite(v: &str, what: &str, ok: fn(f64) -> bool, must: &str) -> Result<f64, String> {
    let x: f64 = number(v, what, "a number")?;
    if !(x.is_finite() && ok(x)) {
        return Err(format!("{what} must be {must}, got {x}"));
    }
    Ok(x)
}

/// A count between 1 and `max` `units`.
fn count(v: &str, what: &str, max: usize, units: &str) -> Result<usize, String> {
    let n: usize = number(v, what, "a positive integer")?;
    if n == 0 {
        return Err(format!("{what} must be at least 1"));
    }
    if n > max {
        return Err(format!(
            "{what} {n} is too large; at most {max} {units} are allowed"
        ));
    }
    Ok(n)
}

impl Flags {
    /// Checks `v` (empty for a switch) against `flag`'s domain and
    /// stores it.
    fn set(&mut self, flag: Flag, v: &str) -> Result<(), String> {
        let what = &format!("--{}", flag.name());
        let text = || Some(v.to_string());
        match flag {
            Flag::MetricsJson => self.metrics_json = true,
            Flag::Progress => self.progress = true,
            Flag::Bless => self.bless = true,
            Flag::Quick => self.quick = true,
            Flag::Telemetry => self.telemetry = text(),
            Flag::Window => self.window = Some(finite(v, what, |w| w > 0.0, "positive")?),
            Flag::Policy => {
                parse_policy(v, 1, 1)?;
                self.policy = text();
            }
            Flag::HopDelay => self.hop_delay = Some(finite(v, what, |d| d >= 0.0, ">= 0")?),
            Flag::Workers => self.workers = Some(count(v, what, MAX_WORKERS, "threads")?),
            Flag::D => {
                let d = number(v, what, "a non-negative integer")?;
                if d == 0 {
                    return Err(format!(
                        "{what} must be at least 1 (tandems sampled per overflow)"
                    ));
                }
                self.d = Some(d);
            }
            Flag::Preset => self.preset = text(),
            Flag::Nodes => self.nodes = Some(count(v, what, MAX_NODES, "nodes")?),
            Flag::Serve => self.serve = text(),
        }
        Ok(())
    }

    /// `full`, or under `--quick` the low-fidelity run most result
    /// binaries share: warm-up 5, horizon 30, 3 seeds, `full`'s base
    /// seed.
    pub fn sim_params(&self, full: SimParams) -> SimParams {
        if self.quick {
            SimParams {
                warmup: 5.0,
                horizon: 30.0,
                seeds: 3,
                ..full
            }
        } else {
            full
        }
    }

    /// Binds the `--serve` metrics server (if requested) under `label`
    /// and announces the endpoints on stderr.
    pub fn bind_server(&self, label: &str) -> Result<Option<MetricsServer>, String> {
        match &self.serve {
            None => Ok(None),
            Some(addr) => {
                let server =
                    MetricsServer::bind(addr, label).map_err(|e| format!("--serve {addr}: {e}"))?;
                eprintln!(
                    "serving http://{0}/metrics, http://{0}/healthz, http://{0}/status",
                    server.addr()
                );
                Ok(Some(server))
            }
        }
    }

    /// The replication fan-out the flags select: `--workers` threads
    /// (default: every core) fan replications out, and `--telemetry`
    /// records on `window`-wide windows.
    pub fn fanout<'a>(
        &self,
        window: f64,
        progress: Option<&'a dyn ProgressObserver>,
    ) -> Fanout<'a> {
        Fanout {
            workers: self.workers.unwrap_or_else(default_workers),
            progress,
            window: self.telemetry.is_some().then_some(window),
        }
    }
}

/// Refuses a `--window` width that would split `[0, end)` into more than
/// [`TimeGrid::MAX_WINDOWS`] windows: each windowed series allocates a
/// slot per window.
pub fn check_window_count(width: f64, end: f64) -> Result<(), String> {
    let windows = (end / width).ceil();
    if windows > TimeGrid::MAX_WINDOWS as f64 {
        return Err(format!(
            "--window {width} splits [0, {end}) into {windows} windows; at most {} are allowed",
            TimeGrid::MAX_WINDOWS
        ));
    }
    Ok(())
}

/// A validated `altroute_cli` subcommand: its positionals parsed, its
/// preset resolved with the flags' overrides applied.
#[derive(Debug, Clone)]
pub enum Command {
    /// `erlang`: a finite non-negative load, at most [`MAX_CAPACITY`]
    /// circuits.
    Erlang(f64, u32),
    /// `dimension`: a load and a target blocking in `(0, 1]`.
    Dimension(f64, f64),
    /// `protect`: a load, `1..=MAX_CAPACITY` circuits and `H >= 1`.
    Protect(f64, u32, u32),
    /// `simulate`: the config's path.
    Simulate(String),
    /// `adaptive`: the config's path.
    Adaptive(String),
    /// `multirate`: the config's path.
    Multirate(String),
    /// `signaling`: the config's path.
    Signaling(String),
    /// `metastability`: the preset's name and its instance.
    Metastability(String, MetastabilityConfig),
    /// `controlled`: the preset's name and its instance.
    Controlled(String, MetastabilityConfig),
    /// `largemesh`: the preset's name and its instance.
    Largemesh(String, LargeMeshConfig),
    /// `feed`: the recording to play.
    Feed(FeedConfig),
    /// `telemetry`: the export directory.
    Telemetry(String),
    /// `replay`: the trace's path.
    Replay(String),
    /// `example-config`.
    ExampleConfig,
    /// `conformance`.
    Conformance,
}

/// One `altroute_cli` subcommand of the grammar.
pub struct CommandSpec {
    /// Its name, then its positionals' placeholders: the usage's
    /// spelling, as `"erlang LOAD CAP"`.
    pub usage: &'static str,
    /// The flags it accepts.
    pub flags: &'static [Flag],
    /// Its line in the usage.
    about: &'static str,
    /// The argv-only checks: builds the command from its positionals and
    /// the parsed flags.
    build: fn(&[String], &Flags) -> Result<Command, String>,
}

impl CommandSpec {
    /// The subcommand's name.
    pub fn name(&self) -> &'static str {
        self.usage.split(' ').next().unwrap_or_default()
    }
}

/// Every `altroute_cli` subcommand.
pub const COMMANDS: [CommandSpec; 15] = {
    use Flag::*;
    [
        CommandSpec {
            usage: "erlang LOAD CAP",
            flags: &[],
            about: "Erlang-B blocking, carried and lost traffic",
            build: |a, _| Ok(Command::Erlang(load(&a[0])?, capacity(&a[1])?)),
        },
        CommandSpec {
            usage: "dimension LOAD TARGET",
            flags: &[],
            about: "the smallest capacity whose Erlang-B blocking meets TARGET",
            build: |a, _| {
                let target: f64 = number(&a[1], "target blocking", "a number")?;
                if !(target > 0.0 && target <= 1.0) {
                    return Err(format!("target blocking must be in (0, 1], got '{target}'"));
                }
                Ok(Command::Dimension(load(&a[0])?, target))
            },
        },
        CommandSpec {
            usage: "protect LOAD CAP H",
            flags: &[],
            about: "the Eq. 15 protection level and its Theorem 1 bound",
            build: |a, _| {
                let (load, capacity) = (load(&a[0])?, capacity(&a[1])?);
                let h: u32 = number(&a[2], "H", "a non-negative integer")?;
                if capacity == 0 || h == 0 {
                    return Err("protect needs a capacity and an H of at least 1".into());
                }
                Ok(Command::Protect(load, capacity, h))
            },
        },
        CommandSpec {
            usage: "simulate CONFIG.json",
            flags: &[
                Policy,
                D,
                MetricsJson,
                Progress,
                Telemetry,
                Window,
                Workers,
                Serve,
            ],
            about: "every policy of a JSON config (see example-config)",
            build: |a, f| Ok(Command::Simulate(config_path(a, f)?)),
        },
        CommandSpec {
            usage: "adaptive CONFIG.json",
            flags: &[MetricsJson, Telemetry, Window, Workers, Serve],
            about: "controlled routing with online load estimation",
            build: |a, f| Ok(Command::Adaptive(config_path(a, f)?)),
        },
        CommandSpec {
            usage: "multirate CONFIG.json",
            flags: &[MetricsJson, Telemetry, Window, Workers],
            about: "a 1-unit and a 4-unit bandwidth class from the config's traffic",
            build: |a, f| Ok(Command::Multirate(config_path(a, f)?)),
        },
        CommandSpec {
            usage: "signaling CONFIG.json",
            flags: &[MetricsJson, Telemetry, Window, HopDelay],
            about: "hop-by-hop call set-up with a per-hop delay",
            build: |a, f| Ok(Command::Signaling(config_path(a, f)?)),
        },
        CommandSpec {
            usage: "metastability",
            flags: &[Preset, Nodes, D, Window, MetricsJson, Telemetry, Serve],
            about: "four-arm hysteresis demonstration (presets smoke, paper)",
            build: |_, f| {
                let (name, mut cfg) =
                    preset(f, "smoke", MetastabilityConfig::preset, "smoke, paper")?;
                if let Some(n) = f.nodes {
                    if n < 3 {
                        return Err("--nodes must be at least 3 (a mesh needs tandems)".into());
                    }
                    cfg.nodes = n;
                }
                if let Some(d) = f.d {
                    cfg.d = d;
                }
                if let Some(w) = f.window {
                    check_window_count(w, cfg.horizon)?;
                    cfg.window = w;
                }
                Ok(Command::Metastability(name, cfg))
            },
        },
        CommandSpec {
            usage: "controlled",
            flags: &[Preset, MetricsJson, Serve],
            about: "closed-loop Eq. 15 demonstration (presets smoke, paper)",
            build: |_, f| {
                let (name, cfg) = preset(f, "smoke", MetastabilityConfig::preset, "smoke, paper")?;
                Ok(Command::Controlled(name, cfg))
            },
        },
        CommandSpec {
            usage: "largemesh",
            flags: &[Preset, Nodes, MetricsJson],
            about: "ISP-scale mesh under rolling SRLG failures (presets smoke, full)",
            build: |_, f| {
                let (name, mut cfg) = preset(f, "smoke", LargeMeshConfig::preset, "smoke, full")?;
                if let Some(n) = f.nodes {
                    if n < 5 {
                        return Err("--nodes must be at least 5 (power-law seed ring)".into());
                    }
                    cfg.nodes = n;
                    // Keep demand sparse relative to the mesh when shrunk.
                    cfg.demand_pairs = cfg.demand_pairs.min(n * (n - 1) / 2);
                }
                Ok(Command::Largemesh(name, cfg))
            },
        },
        CommandSpec {
            usage: "feed",
            flags: &[Preset],
            about: "record an altrouted arrival feed on stdout (preset ramp)",
            build: |_, f| {
                Ok(Command::Feed(
                    preset(f, "ramp", FeedConfig::preset, "ramp")?.1,
                ))
            },
        },
        CommandSpec {
            usage: "telemetry DIR",
            flags: &[],
            about: "render DIR/telemetry.json as a report",
            build: |a, _| Ok(Command::Telemetry(a[0].clone())),
        },
        CommandSpec {
            usage: "replay TRACE",
            flags: &[],
            about: "decode and summarise a binary trace",
            build: |a, _| Ok(Command::Replay(a[0].clone())),
        },
        CommandSpec {
            usage: "example-config",
            flags: &[],
            about: "print an example config",
            build: |_, _| Ok(Command::ExampleConfig),
        },
        CommandSpec {
            usage: "conformance",
            flags: &[Bless],
            about: "run the oracle, golden-trace and fuzz suite",
            build: |_, _| Ok(Command::Conformance),
        },
    ]
};

/// An offered load in Erlangs: finite and non-negative.
fn load(s: &str) -> Result<f64, String> {
    let load: f64 = number(s, "load", "a number")?;
    if !(load.is_finite() && load >= 0.0) {
        return Err(format!("load must be finite and >= 0, got '{s}'"));
    }
    Ok(load)
}

/// A link capacity, at most [`MAX_CAPACITY`] circuits: Erlang B and
/// Eq. 15 take time, and Eq. 15 memory, linear in it.
fn capacity(s: &str) -> Result<u32, String> {
    let c: u32 = number(s, "capacity", "a non-negative integer")?;
    if c > MAX_CAPACITY {
        return Err(format!(
            "capacity {c} is too large; at most {MAX_CAPACITY} circuits are allowed"
        ));
    }
    Ok(c)
}

/// A config engine's one positional; `--window` sizes telemetry
/// windows, so it needs `--telemetry`.
fn config_path(a: &[String], f: &Flags) -> Result<String, String> {
    if f.window.is_some() && f.telemetry.is_none() {
        return Err("--window only makes sense with --telemetry".into());
    }
    Ok(a[0].clone())
}

/// `--preset` (default `default`) as `lookup` finds it; `names` lists
/// the ones it knows.
fn preset<T>(
    f: &Flags,
    default: &str,
    lookup: fn(&str) -> Option<T>,
    names: &str,
) -> Result<(String, T), String> {
    let name = f.preset.as_deref().unwrap_or(default);
    let cfg = lookup(name).ok_or_else(|| format!("unknown preset '{name}' (try {names})"))?;
    Ok((name.to_string(), cfg))
}

/// A validated `altroute_cli` invocation.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// The subcommand.
    pub command: Command,
    /// Every flag (only the subcommand's own can be set).
    pub flags: Flags,
}

/// An argv's positionals, its flags, and the flags given.
type Scanned = (Vec<String>, Flags, Vec<Flag>);

/// Splits `args` into positionals and checked flags; `None` on `-h` or
/// `--help`.
fn scan(args: &[String]) -> Result<Option<Scanned>, String> {
    let mut flags = Flags::default();
    let (mut positionals, mut given) = (Vec::new(), Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "-h" || arg == "--help" {
            return Ok(None);
        }
        let Some(rest) = arg.strip_prefix("--") else {
            positionals.push(arg.clone());
            continue;
        };
        let (name, inline) = match rest.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (rest, None),
        };
        let flag = *Flag::ALL
            .iter()
            .find(|f| f.name() == name)
            .ok_or_else(|| format!("unknown flag --{name}"))?;
        let value = match (flag.spec().1, inline) {
            (None, Some(_)) => return Err(format!("--{name} takes no value")),
            (None, None) => "",
            (Some(_), Some(v)) => v,
            (Some(_), None) => args
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?,
        };
        flags.set(flag, value)?;
        given.push(flag);
    }
    Ok(Some((positionals, flags, given)))
}

/// Refuses a flag in `given` that `accepted` lacks.
fn refuse_others(who: &str, accepted: &[Flag], given: &[Flag]) -> Result<(), String> {
    match given.iter().find(|g| !accepted.contains(g)) {
        Some(g) => Err(format!("'{who}' does not accept --{}", g.name())),
        None => Ok(()),
    }
}

/// Parses `altroute_cli`'s argv (without the program name); `None`
/// asks for the [`usage`].
pub fn parse(args: &[String]) -> Result<Option<Invocation>, String> {
    let Some((positionals, flags, given)) = scan(args)? else {
        return Ok(None);
    };
    let Some((name, rest)) = positionals.split_first() else {
        return Err("no command given (altroute_cli --help lists them)".into());
    };
    let spec = COMMANDS
        .iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| format!("unknown command '{name}' (altroute_cli --help lists them)"))?;
    if rest.len() != spec.usage.split(' ').count() - 1 {
        return Err(format!("usage: altroute_cli {}", spec.usage));
    }
    refuse_others(spec.name(), spec.flags, &given)?;
    let command = (spec.build)(rest, &flags)?;
    Ok(Some(Invocation { command, flags }))
}

/// Parses the argv (without the program name) of the result binary
/// `name`, which takes no positionals and the flags `accepted`; `None`
/// asks for its [`bin_usage`].
pub fn parse_bin(name: &str, accepted: &[Flag], args: &[String]) -> Result<Option<Flags>, String> {
    let Some((positionals, flags, given)) = scan(args)? else {
        return Ok(None);
    };
    if let Some(p) = positionals.first() {
        return Err(format!("unexpected argument '{p}'"));
    }
    refuse_others(name, accepted, &given)?;
    Ok(Some(flags))
}

/// The process's flags for a result binary accepting `accepted`: prints
/// the usage and exits 0 on `--help`, prints one `error:` line and exits
/// 1 on a refused argv.
pub fn bin_flags(accepted: &[Flag]) -> Flags {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let name = std::path::Path::new(&program)
        .file_name()
        .map_or(program.clone(), |n| n.to_string_lossy().into_owned());
    match parse_bin(&name, accepted, &args.collect::<Vec<_>>()) {
        Ok(Some(flags)) => flags,
        Ok(None) => {
            print!("{}", bin_usage(&name, accepted));
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1)
        }
    }
}

/// `head` followed by `flags`, bracketed, as the usage spells them.
fn synopsis(head: &str, flags: &[Flag]) -> String {
    let flags = flags.iter().map(|f| format!(" [{}]", f.spelled()));
    head.to_string() + &flags.collect::<String>()
}

/// The flags section of a usage: each of `flags` with its help, then
/// `--help`.
fn flag_lines(flags: &[Flag]) -> String {
    let width = flags.iter().map(|f| f.spelled().len()).max().unwrap_or(0);
    let mut out = String::from("flags (`--flag VALUE` or `--flag=VALUE`, anywhere on the line):\n");
    for f in flags {
        out += &format!("  {:width$}  {}\n", f.spelled(), f.help());
    }
    out + &format!("  {:width$}  print this usage and exit\n", "-h, --help")
}

/// `altroute_cli`'s usage, generated from [`COMMANDS`] and [`Flag`].
pub fn usage() -> String {
    let mut out = String::from("usage: altroute_cli COMMAND [flags]\n\ncommands:\n");
    for c in &COMMANDS {
        let line = synopsis(c.usage, c.flags);
        out += &format!("  {line}\n      {}\n", c.about);
    }
    let used = |f: &Flag| COMMANDS.iter().any(|c| c.flags.contains(f));
    let flags: Vec<Flag> = Flag::ALL.into_iter().filter(used).collect();
    out + "\n" + &flag_lines(&flags)
}

/// The usage of the result binary `name`, which accepts `accepted`.
pub fn bin_usage(name: &str, accepted: &[Flag]) -> String {
    let line = synopsis(name, accepted);
    format!("usage: {line}\n\n{}", flag_lines(accepted))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn run(s: &str) -> Result<Invocation, String> {
        parse(&argv(s))?.ok_or_else(|| "help".into())
    }

    #[test]
    fn flag_and_command_names_are_unique() {
        for (i, f) in Flag::ALL.iter().enumerate() {
            assert!(!Flag::ALL[..i].contains(f), "{f:?} listed twice");
            let named = Flag::ALL[..i].iter().any(|g| g.name() == f.name());
            assert!(!named, "{}", f.name());
        }
        for (i, c) in COMMANDS.iter().enumerate() {
            let named = COMMANDS[..i].iter().any(|d| d.name() == c.name());
            assert!(!named, "{}", c.name());
        }
    }

    #[test]
    fn flags_go_anywhere_in_both_spellings() {
        let inv = run("--workers=2 simulate cfg.json --telemetry out --window 5").unwrap();
        assert!(matches!(inv.command, Command::Simulate(ref p) if p == "cfg.json"));
        assert_eq!(inv.flags.workers, Some(2));
        assert_eq!(inv.flags.window, Some(5.0));
        assert_eq!(inv.flags.telemetry.as_deref(), Some("out"));
    }

    #[test]
    fn refusals_are_one_line_each() {
        for (line, expected) in [
            ("simulate c.json --bogus", "unknown flag --bogus"),
            (
                "erlang 1 2 --metrics-json",
                "'erlang' does not accept --metrics-json",
            ),
            (
                "simulate c.json --metrics-json=1",
                "--metrics-json takes no value",
            ),
            ("simulate c.json --workers", "--workers needs a value"),
            (
                "simulate c.json --workers 0",
                "--workers must be at least 1",
            ),
            (
                "simulate c.json --workers 257",
                "--workers 257 is too large; at most 256 threads are allowed",
            ),
            (
                "simulate c.json --window 5",
                "--window only makes sense with --telemetry",
            ),
            (
                "simulate c.json --window=inf",
                "--window must be positive, got inf",
            ),
            (
                "signaling c.json --hop-delay -1",
                "--hop-delay must be >= 0, got -1",
            ),
            (
                "simulate c.json --d 0",
                "--d must be at least 1 (tandems sampled per overflow)",
            ),
            (
                "simulate c.json --policy nope",
                "unknown policy 'nope' (try single-path, uncontrolled, controlled, \
                 ott-krishnan, dar, bod)",
            ),
            (
                "metastability --nodes 2",
                "--nodes must be at least 3 (a mesh needs tandems)",
            ),
            (
                "largemesh --nodes 4",
                "--nodes must be at least 5 (power-law seed ring)",
            ),
            (
                "controlled --preset full",
                "unknown preset 'full' (try smoke, paper)",
            ),
            ("feed --preset smoke", "unknown preset 'smoke' (try ramp)"),
            ("erlang 1", "usage: altroute_cli erlang LOAD CAP"),
            ("example-config x", "usage: altroute_cli example-config"),
            ("", "no command given (altroute_cli --help lists them)"),
            (
                "frobnicate",
                "unknown command 'frobnicate' (altroute_cli --help lists them)",
            ),
        ] {
            assert_eq!(run(line).unwrap_err(), expected, "{line}");
        }
    }

    #[test]
    fn presets_take_their_overrides() {
        let inv = run("metastability --nodes 5 --d 3 --window 2").unwrap();
        let Command::Metastability(preset, cfg) = inv.command else {
            panic!("not metastability");
        };
        assert_eq!(
            (preset.as_str(), cfg.nodes, cfg.d, cfg.window),
            ("smoke", 5, 3, 2.0)
        );
        let Command::Largemesh(_, cfg) = run("largemesh --nodes 6").unwrap().command else {
            panic!("not largemesh");
        };
        assert_eq!((cfg.nodes, cfg.demand_pairs), (6, 15));
    }

    #[test]
    fn help_wins_anywhere() {
        for line in ["--help", "-h", "simulate --help", "erlang 1 -h --bogus"] {
            assert!(matches!(parse(&argv(line)), Ok(None)), "{line}");
        }
        let usage = usage();
        for c in &COMMANDS {
            let listed = usage
                .lines()
                .any(|l| l.split_whitespace().next() == Some(c.name()));
            assert!(listed, "{}", c.name());
        }
        assert!(!usage.contains("--quick"), "no subcommand takes --quick");
    }

    #[test]
    fn result_binaries_refuse_what_they_do_not_take() {
        let accepted = [Flag::Quick, Flag::Progress];
        let parse = |line: &str| parse_bin("fig", &accepted, &argv(line));
        assert!(matches!(
            parse("--quick --progress"),
            Ok(Some(Flags {
                quick: true,
                progress: true,
                ..
            }))
        ));
        assert_eq!(parse("--quik").unwrap_err(), "unknown flag --quik");
        assert_eq!(
            parse("--metrics-json").unwrap_err(),
            "'fig' does not accept --metrics-json"
        );
        assert_eq!(parse("quick").unwrap_err(), "unexpected argument 'quick'");
        assert!(matches!(parse("-h"), Ok(None)));
        let usage = bin_usage("fig", &accepted);
        assert!(
            usage.starts_with("usage: fig [--quick] [--progress]\n"),
            "{usage}"
        );
    }

    #[test]
    fn quick_params_keep_the_base_seed() {
        let full = SimParams {
            base_seed: 9,
            ..SimParams::default()
        };
        let quick = Flags {
            quick: true,
            ..Flags::default()
        };
        assert_eq!(Flags::default().sim_params(full), full);
        assert_eq!(
            quick.sim_params(full),
            SimParams {
                warmup: 5.0,
                horizon: 30.0,
                seeds: 3,
                base_seed: 9
            }
        );
    }
}
