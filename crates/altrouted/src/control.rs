//! The deterministic controller: feed events in, level updates out.
//!
//! [`Controller`] is the whole control law with the I/O stripped away.
//! It consumes validated [`FeedEvent`]s (or, on the in-process path,
//! per-window arrival counts straight from a simulating selector),
//! folds them into its windowed per-pair load estimator, and at every
//! `recompute_every`-th completed window sums the estimates onto links
//! through the [`ControlPlane`]'s primary table (Eq. 1) and re-solves
//! Eq. 15 over all links. When the re-solve changes any level it emits a
//! [`LevelsUpdate`] — the unit the daemon writes to its update stream,
//! pushes into an [`AdmissionPolicy::set_levels`] hook, and publishes to
//! `/status`.
//!
//! Nothing in here reads a clock, allocates nondeterministically, or
//! touches a socket: given the same event sequence the update sequence
//! is byte-reproducible, which is what the golden fixture test pins.
//!
//! [`AdmissionPolicy::set_levels`]: LevelsUpdate

mod estimator;

use altroute_core::primary::PrimaryAssignment;
use altroute_netgraph::Topology;
use altroute_telemetry::feed::FeedEvent;
use altroute_teletraffic::reservation::LevelSolver;
use estimator::LoadEstimator;

/// The static description of what the controller controls: the primary
/// table (which links each ordered pair's arrivals load, and with what
/// split fraction — the Eq.-1 incidence), and the per-link capacities
/// and design parameter `H`.
///
/// Pairs are indexed row-major, `src * nodes + dst`, with the table's
/// node count; pairs with no primary (the diagonal, or disconnected
/// pairs) load no link.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    /// Each ordered pair's primary paths and split fractions; its node
    /// count bounds the feed's node ids.
    pub primaries: PrimaryAssignment,
    /// Per-link capacities `C^k`.
    pub capacities: Vec<u32>,
    /// The paper's `H`: the worst alternate-path hop count Eq. 15
    /// guards against.
    pub max_hops: u32,
}

impl ControlPlane {
    /// The control plane of `topo` routed on `primaries`: the table, the
    /// topology's link numbering and capacities, and the design
    /// parameter `H = max_hops`. A pair that splits its primary loads
    /// each path by its fraction, as the offline plan does.
    ///
    /// # Panics
    ///
    /// Panics if `primaries` is for another node count or `max_hops` is 0.
    pub fn from_primaries(topo: &Topology, primaries: PrimaryAssignment, max_hops: u32) -> Self {
        assert_eq!(
            primaries.num_nodes(),
            topo.num_nodes(),
            "primary table size mismatch"
        );
        assert!(max_hops > 0, "H must be positive");
        Self {
            primaries,
            capacities: topo.links().iter().map(|l| l.capacity).collect(),
            max_hops,
        }
    }
}

/// Estimator and cadence knobs (see [`crate::config`] for the JSON
/// surface and defaults).
#[derive(Debug, Clone, Copy)]
pub struct ControllerTuning {
    /// Estimator window width (sim-time units).
    pub window: f64,
    /// Re-solve Eq. 15 every this many completed windows.
    pub recompute_every: u32,
    /// EWMA weight on the newest window (`1.0` = latest window only).
    pub alpha: f64,
    /// Mean call holding time, converting arrival rates to Erlangs
    /// (`1.0` for the kernel's unit-mean exponential holds).
    pub mean_holding: f64,
}

impl Default for ControllerTuning {
    fn default() -> Self {
        Self {
            window: 1.0,
            recompute_every: 1,
            alpha: 1.0,
            mean_holding: 1.0,
        }
    }
}

/// One emitted level change: the re-solve at window boundary `at`
/// produced levels different from the ones currently pushed.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelsUpdate {
    /// The window boundary (sim time) the re-solve happened at.
    pub at: f64,
    /// Completed-window count at emission (1-based: the first window
    /// closes as window 1).
    pub window: u64,
    /// How many links changed level.
    pub changed: usize,
    /// The full new per-link level vector `r^k`.
    pub levels: Vec<u32>,
    /// Largest estimated link load `Λ^k` at the re-solve (diagnostic).
    pub max_load: f64,
}

/// Appends `levels` to `out` in decimal, comma-separated: the bytes a
/// `write!(out, "{r}")` per level gives, without `fmt`'s per-call cost.
/// The update line and `/status` both list the levels this way.
pub(crate) fn push_levels(out: &mut String, levels: &[u32]) {
    for &r in levels {
        push_decimal(out, r);
        out.push(',');
    }
    if !levels.is_empty() {
        out.pop(); // the last comma
    }
}

/// `"00"` to `"99"` back to back: the digits of `n < 100` start at `2n`.
const DIGIT_PAIRS: &str = concat!(
    "00010203040506070809",
    "10111213141516171819",
    "20212223242526272829",
    "30313233343536373839",
    "40414243444546474849",
    "50515253545556575859",
    "60616263646566676869",
    "70717273747576777879",
    "80818283848586878889",
    "90919293949596979899",
);

/// Appends `n` in decimal. A level is at most `C`, usually one or two
/// digits, which take a straight path; longer ones fill a digit buffer
/// from the right.
fn push_decimal(out: &mut String, n: u32) {
    if n < 10 {
        out.push(char::from(b'0' + n as u8));
    } else if n < 100 {
        let at = 2 * n as usize;
        out.push_str(&DIGIT_PAIRS[at..at + 2]);
    } else {
        let mut digits = [0u8; 10]; // `u32::MAX` has 10
        let (mut n, mut at) = (n, digits.len());
        while n > 0 {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        out.extend(digits[at..].iter().map(|&d| char::from(d)));
    }
}

/// Why the controller refused a structurally valid feed record. The
/// daemon counts these and keeps going (skip-and-count), exactly like
/// parse errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// `src` or `dst` is not a node of the controlled network, or the
    /// pair is degenerate (`src == dst`).
    NodeOutOfRange,
    /// The record's time precedes an already-accepted record.
    TimeRegressed,
    /// The record's window index `time / window` reaches 2⁵³, where
    /// consecutive window boundaries are no longer distinct `f64`s.
    TimeOutOfRange,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Reject::NodeOutOfRange => "node id out of range",
            Reject::TimeRegressed => "time regressed",
            Reject::TimeOutOfRange => "time past the last representable window",
        })
    }
}

/// The resident control law. See the module docs for the contract.
#[derive(Debug, Clone)]
pub struct Controller {
    plane: ControlPlane,
    tuning: ControllerTuning,
    estimator: LoadEstimator,
    loads: Vec<f64>,
    levels: Vec<u32>,
    /// The last re-solve's levels, before they are compared with
    /// `levels`.
    solved: Vec<u32>,
    solver: LevelSolver,
    updates: u64,
    solves: u64,
    arrivals: u64,
    windows_since_solve: u32,
    done: bool,
}

impl Controller {
    /// A controller for `plane`, starting from all-zero levels (no
    /// reservation until the first measured re-solve says otherwise —
    /// levels are never hand-set).
    ///
    /// # Panics
    ///
    /// Panics on out-of-domain `tuning` (non-positive window, zero
    /// cadence, EWMA weight outside `(0, 1]`, non-positive holding time).
    pub fn new(plane: ControlPlane, tuning: ControllerTuning) -> Self {
        assert!(tuning.recompute_every > 0, "recompute cadence must be >= 1");
        assert!(
            tuning.mean_holding > 0.0 && tuning.mean_holding.is_finite(),
            "mean holding time must be positive"
        );
        let nodes = plane.primaries.num_nodes();
        let estimator = LoadEstimator::new(nodes * nodes, tuning.window, tuning.alpha);
        let links = plane.capacities.len();
        Self {
            plane,
            tuning,
            estimator,
            loads: vec![0.0; links],
            levels: vec![0; links],
            solved: vec![0; links],
            solver: LevelSolver::new(),
            updates: 0,
            solves: 0,
            arrivals: 0,
            windows_since_solve: 0,
            done: false,
        }
    }

    /// The controlled network description.
    pub fn plane(&self) -> &ControlPlane {
        &self.plane
    }

    /// The currently pushed per-link levels.
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// The estimated per-link loads `Λ^k` (Erlangs) of the last Eq.-15
    /// re-solve; all zero before the first.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Number of emitted [`LevelsUpdate`]s (re-solves that changed
    /// something).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Number of Eq.-15 re-solves (including no-change ones).
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Accepted arrivals.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Completed estimator windows.
    pub fn windows(&self) -> u64 {
        self.estimator.windows_completed()
    }

    /// Timestamp of the last accepted record — the estimate's freshness.
    pub fn last_time(&self) -> f64 {
        self.estimator.last_time()
    }

    /// Whether an `end` record has been accepted.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Feeds one validated event. Emitted updates (zero or more — a
    /// sparse feed can close several windows at once) are appended to
    /// `out`. Rejected events leave the controller untouched.
    pub fn push(&mut self, ev: FeedEvent, out: &mut Vec<LevelsUpdate>) -> Result<(), Reject> {
        if !self.estimator.in_range(ev.time()) {
            return Err(Reject::TimeOutOfRange);
        }
        if ev.time() < self.estimator.last_time() {
            return Err(Reject::TimeRegressed);
        }
        match ev {
            FeedEvent::Arrival { time, src, dst } => {
                let n = self.plane.primaries.num_nodes();
                if src >= n || dst >= n || src == dst {
                    return Err(Reject::NodeOutOfRange);
                }
                self.advance_to(time, out);
                self.estimator.record(time, src * n + dst);
                self.arrivals += 1;
            }
            FeedEvent::End { time } => {
                self.advance_to(time, out);
                self.estimator.touch(time);
                self.done = true;
            }
        }
        Ok(())
    }

    /// The in-process path: a controlling selector tallied one whole
    /// window of per-pair arrival counts itself (between kernel ticks)
    /// and hands it over at the boundary. Returns the update when the
    /// cadence fired and the re-solve changed a level. Equivalent to
    /// pushing the same arrivals through [`push`](Self::push).
    ///
    /// # Panics
    ///
    /// Panics if `counts` is not one entry per ordered pair.
    pub fn ingest_window(&mut self, counts: &[u64]) -> Option<LevelsUpdate> {
        self.arrivals += counts.iter().sum::<u64>();
        let end = self.estimator.fold_window(counts);
        self.after_window(end)
    }

    /// Closes every window the feed time `t` has passed, re-solving on
    /// cadence. The window holding the counts closes as usual; the empty
    /// windows between it and `t`'s own window close in closed form, so
    /// a jump far ahead costs O(pairs) rather than O(pairs) per window.
    /// Their cadence boundaries re-solve at most once, at the last one
    /// inside the gap: an earlier solve's levels would be overwritten
    /// before any arrival could see them.
    fn advance_to(&mut self, t: f64, out: &mut Vec<LevelsUpdate>) {
        if self.estimator.pending_boundary(t).is_none() {
            return;
        }
        let gap = self.estimator.windows_between(t);
        let end = self.estimator.close_window();
        if let Some(update) = self.after_window(end) {
            out.push(update);
        }
        let cadence = u64::from(self.tuning.recompute_every);
        let since = u64::from(self.windows_since_solve) + gap;
        if since >= cadence {
            // Windows into the gap at which the last cadence boundary falls.
            let last_solve = gap - since % cadence;
            let end = self.estimator.close_empty_windows(last_solve);
            if let Some(update) = self.solve(end) {
                out.push(update);
            }
            self.estimator.close_empty_windows(gap - last_solve);
        } else {
            self.estimator.close_empty_windows(gap);
        }
        self.windows_since_solve = (since % cadence) as u32;
    }

    fn after_window(&mut self, end: f64) -> Option<LevelsUpdate> {
        self.windows_since_solve += 1;
        if self.windows_since_solve < self.tuning.recompute_every {
            return None;
        }
        self.windows_since_solve = 0;
        self.solve(end)
    }

    /// Sums the current rate estimates, in Erlangs, onto links (Eq. 1)
    /// and re-solves Eq. 15, in buffers kept between solves: the one
    /// allocation is the levels of the update it emits.
    fn solve(&mut self, at: f64) -> Option<LevelsUpdate> {
        self.solves += 1;
        let holding = self.tuning.mean_holding;
        let erlangs = self.estimator.rates().iter().map(|r| r * holding);
        self.plane
            .primaries
            .link_loads_into(&mut self.loads, erlangs.enumerate());
        self.solver.levels_into(
            &self.loads,
            &self.plane.capacities,
            self.plane.max_hops,
            &mut self.solved,
        );
        let changed = self
            .solved
            .iter()
            .zip(&self.levels)
            .filter(|(a, b)| a != b)
            .count();
        if changed == 0 {
            return None;
        }
        self.levels.copy_from_slice(&self.solved);
        self.updates += 1;
        Some(LevelsUpdate {
            at,
            window: self.estimator.windows_completed(),
            changed,
            levels: self.levels.clone(),
            max_load: self.loads.iter().cloned().fold(0.0, f64::max),
        })
    }

    /// Renders the controller's state as JSON members for the `/status`
    /// document (no surrounding braces; see
    /// [`ServeStatus::extra`](altroute_telemetry::ServeStatus)).
    pub fn status_extra(&self, parse_errors: u64, rejected: u64) -> String {
        let mut levels = String::with_capacity(4 * self.levels.len());
        push_levels(&mut levels, &self.levels);
        format!(
            concat!(
                "\"controller\":{{\"nodes\":{},\"links\":{},\"arrivals\":{},",
                "\"parse_errors\":{},\"rejected\":{},\"windows\":{},",
                "\"solves\":{},\"updates\":{},\"last_time\":{},",
                "\"feed_done\":{},\"levels\":[{}]}}"
            ),
            self.plane.primaries.num_nodes(),
            self.plane.capacities.len(),
            self.arrivals,
            parse_errors,
            rejected,
            self.windows(),
            self.solves,
            self.updates,
            self.last_time(),
            self.done,
            levels,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two nodes, one duplex pair of links; pair (0,1) -> link 0,
    /// pair (1,0) -> link 1.
    fn tiny_plane(capacity: u32) -> ControlPlane {
        let topo = altroute_netgraph::topologies::line(2, capacity);
        ControlPlane::from_primaries(&topo, PrimaryAssignment::min_hop(&topo), 2)
    }

    fn arrivals(
        controller: &mut Controller,
        t0: f64,
        dt: f64,
        count: usize,
        src: usize,
        dst: usize,
        out: &mut Vec<LevelsUpdate>,
    ) {
        for i in 0..count {
            controller
                .push(
                    FeedEvent::Arrival {
                        time: t0 + dt * i as f64,
                        src,
                        dst,
                    },
                    out,
                )
                .expect("valid arrival");
        }
    }

    #[test]
    fn levels_rise_with_measured_load_and_updates_only_on_change() {
        let mut c = Controller::new(
            tiny_plane(20),
            ControllerTuning {
                window: 1.0,
                ..ControllerTuning::default()
            },
        );
        assert_eq!(c.levels(), &[0, 0]);
        let mut out = Vec::new();
        // Window 0: 18 arrivals on (0,1) -> 18 Erlangs on link 0.
        arrivals(&mut c, 0.0, 0.05, 18, 0, 1, &mut out);
        assert!(out.is_empty(), "no boundary crossed yet");
        // First arrival of window 1 closes window 0 and re-solves.
        c.push(
            FeedEvent::Arrival {
                time: 1.1,
                src: 0,
                dst: 1,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 1, "measured load must raise levels");
        let up = &out[0];
        assert_eq!(up.window, 1);
        assert_eq!(up.at, 1.0);
        assert!(up.levels[0] > 0, "18 Erlangs on C=20 wants protection");
        assert_eq!(up.levels[1], 0, "reverse link saw no traffic");
        assert_eq!(up.changed, 1);
        assert_eq!(c.levels(), up.levels.as_slice());
        assert_eq!(c.updates(), 1);

        // A steady second window re-solves to the same levels: no update.
        let before = out.len();
        arrivals(&mut c, 1.15, 0.05, 17, 0, 1, &mut out);
        c.push(FeedEvent::End { time: 3.0 }, &mut out).unwrap();
        // End at 3.0 closes windows 1 and 2; window 2 is empty so the
        // estimate collapses to zero and levels drop back.
        let tail: Vec<_> = out[before..].iter().collect();
        assert_eq!(c.solves(), 3);
        assert!(c.done());
        assert_eq!(
            tail.last().unwrap().levels,
            vec![0, 0],
            "idle window drains the estimate"
        );
    }

    #[test]
    fn rejects_are_counted_not_fatal_and_leave_state_untouched() {
        let mut c = Controller::new(tiny_plane(10), ControllerTuning::default());
        let mut out = Vec::new();
        c.push(
            FeedEvent::Arrival {
                time: 5.0,
                src: 0,
                dst: 1,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(
            c.push(
                FeedEvent::Arrival {
                    time: 4.0,
                    src: 0,
                    dst: 1
                },
                &mut out
            ),
            Err(Reject::TimeRegressed)
        );
        assert_eq!(
            c.push(
                FeedEvent::Arrival {
                    time: 5.0,
                    src: 0,
                    dst: 7
                },
                &mut out
            ),
            Err(Reject::NodeOutOfRange)
        );
        assert_eq!(
            c.push(
                FeedEvent::Arrival {
                    time: 5.0,
                    src: 1,
                    dst: 1
                },
                &mut out
            ),
            Err(Reject::NodeOutOfRange)
        );
        assert_eq!(c.arrivals(), 1);
        assert!(out.is_empty());
    }

    #[test]
    fn time_jump_catches_up_like_the_per_window_loop() {
        // The feed path jumps over `gap` empty windows in closed form;
        // the reference folds the same windows one by one through
        // `ingest_window`. Rates (hence loads), levels, the window count
        // and the cadence phase must agree, for cadences that land a
        // re-solve mid-gap, at its end, or not at all.
        for recompute_every in 1..=3 {
            for gap in [1u32, 3, 4] {
                let tuning = ControllerTuning {
                    window: 1.0,
                    recompute_every,
                    alpha: 0.5,
                    ..ControllerTuning::default()
                };
                let label = format!("cadence {recompute_every}, gap {gap}");
                let mut jumped = Controller::new(tiny_plane(20), tuning);
                let mut out = Vec::new();
                arrivals(&mut jumped, 0.0, 0.05, 18, 0, 1, &mut out);
                arrivals(&mut jumped, 0.9, 0.01, 7, 1, 0, &mut out);
                let after = f64::from(gap) + 1.5;
                arrivals(&mut jumped, after, 0.1, 1, 0, 1, &mut out);

                let mut looped = Controller::new(tiny_plane(20), tuning);
                looped.ingest_window(&[0, 18, 7, 0]);
                for _ in 0..gap {
                    looped.ingest_window(&[0; 4]);
                }
                let agree = |a: &Controller, b: &Controller, when: &str| {
                    assert_eq!(a.levels(), b.levels(), "{label} {when}: levels");
                    assert_eq!(a.windows(), b.windows(), "{label} {when}: windows");
                    for (x, y) in a.loads().iter().zip(b.loads()) {
                        assert!(
                            (x - y).abs() <= 1e-12 * x.abs(),
                            "{label} {when}: load {x} vs {y}"
                        );
                    }
                };
                agree(&jumped, &looped, "after the jump");

                // The cadence phase survives the jump: the next windows
                // re-solve at the same boundaries on both paths.
                for counts in [[0, 1, 0, 0], [0; 4], [0; 4]] {
                    let before = jumped.solves();
                    let t = jumped.windows() as f64 + 1.0;
                    jumped.push(FeedEvent::End { time: t }, &mut out).unwrap();
                    let looped_before = looped.solves();
                    looped.ingest_window(&counts);
                    assert_eq!(
                        jumped.solves() - before,
                        looped.solves() - looped_before,
                        "{label}: cadence phase"
                    );
                    agree(&jumped, &looped, "after the jump and a window");
                }
                assert!(jumped.solves() <= looped.solves(), "{label}");
            }
        }
    }

    #[test]
    fn records_past_the_last_representable_window_are_rejected() {
        let mut c = Controller::new(tiny_plane(10), ControllerTuning::default());
        let mut out = Vec::new();
        arrivals(&mut c, 0.5, 0.1, 3, 0, 1, &mut out);
        let before = format!("{c:?}");
        for ev in [
            FeedEvent::Arrival {
                time: 1e300,
                src: 0,
                dst: 1,
            },
            FeedEvent::End { time: 1e300 },
            FeedEvent::End {
                time: 9_007_199_254_740_992.0,
            },
        ] {
            assert_eq!(c.push(ev, &mut out), Err(Reject::TimeOutOfRange));
        }
        assert_eq!(
            format!("{c:?}"),
            before,
            "a rejected record changes nothing"
        );
        assert!(out.is_empty());
        // Just inside the domain a jump is accepted and costs one window
        // close plus the closed-form catch-up.
        c.push(
            FeedEvent::End {
                time: 9_007_199_254_740_990.0,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(c.windows(), 9_007_199_254_740_990);
        assert!(c.solves() <= 2);
    }

    #[test]
    fn ingest_window_equals_feed_path() {
        let tuning = ControllerTuning {
            window: 2.0,
            alpha: 0.5,
            ..ControllerTuning::default()
        };
        let mut by_feed = Controller::new(tiny_plane(20), tuning);
        let mut out = Vec::new();
        arrivals(&mut by_feed, 0.0, 0.05, 30, 0, 1, &mut out);
        arrivals(&mut by_feed, 1.5, 0.01, 10, 1, 0, &mut out);

        let mut by_counts = Controller::new(tiny_plane(20), tuning);
        let update = by_counts.ingest_window(&[0, 30, 10, 0]);

        // Drive the feed-path controller over the same boundary.
        by_feed
            .push(FeedEvent::End { time: 2.0 }, &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        let update = update.expect("load must raise levels");
        assert_eq!(update, out[0]);
        assert_eq!(by_feed.levels(), by_counts.levels());
        assert_eq!(by_feed.arrivals(), by_counts.arrivals());
    }

    #[test]
    fn cadence_spaces_out_re_solves() {
        let mut c = Controller::new(
            tiny_plane(20),
            ControllerTuning {
                window: 1.0,
                recompute_every: 3,
                ..ControllerTuning::default()
            },
        );
        for _ in 0..2 {
            assert!(c.ingest_window(&[0, 18, 0, 0]).is_none());
        }
        let up = c
            .ingest_window(&[0, 18, 0, 0])
            .expect("third window solves");
        assert_eq!(up.window, 3);
        assert_eq!(c.solves(), 1);
    }

    #[test]
    fn status_extra_is_valid_json_members() {
        let mut c = Controller::new(tiny_plane(20), ControllerTuning::default());
        c.ingest_window(&[0, 18, 0, 0]);
        let extra = c.status_extra(2, 1);
        let wrapped = format!("{{{extra}}}");
        let v = altroute_json::parse(&wrapped).expect("valid JSON");
        let ctl = v.get("controller").expect("controller member");
        assert_eq!(ctl.get("parse_errors").unwrap().as_u64(), Some(2));
        assert_eq!(ctl.get("updates").unwrap().as_u64(), Some(1));
        assert!(ctl.get("levels").unwrap().as_array().unwrap().len() == 2);
    }

    #[test]
    fn levels_render_as_fmt_does() {
        let mut all: Vec<u32> = (0..=altroute_netgraph::graph::MAX_CAPACITY).collect();
        all.extend([99_999, 100_000, 4_294_967_295]);
        let mut out = String::new();
        push_levels(&mut out, &all);
        let want: Vec<String> = all.iter().map(|r| format!("{r}")).collect();
        assert_eq!(out, want.join(","));
        out.clear();
        push_levels(&mut out, &[]);
        assert!(out.is_empty());
    }
}
