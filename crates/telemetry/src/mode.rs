//! Mode-switch detection over windowed series.
//!
//! Networks with alternate routing are bistable near critical load: they
//! linger in a *good* mode (most calls on primaries, low blocking) or a
//! *bad* mode (alternates everywhere, each carried call burning two
//! trunks), and flip between the two on fluctuations. A run-level mean
//! cannot see this; the windowed network-occupancy series can. This
//! module classifies such a series into [`Mode::Low`] / [`Mode::High`]
//! with a threshold-with-hysteresis detector: the series must climb to
//! `enter_high` to enter the high mode and fall back to `exit_high`
//! (≤ `enter_high`) to leave it, so noise inside the band cannot chatter.
//!
//! The output [`ModeReport`] carries the switch times, per-mode dwell
//! histograms (completed dwells only — the final, censored dwell would
//! bias them low), and the time split between modes, which is the
//! quantity the hysteresis experiments compare across starting states.

use crate::hist::Histogram;
use crate::series::TimeGrid;

/// One of the two metastable regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The good regime: the series sits below the hysteresis band.
    Low,
    /// The bad (congested) regime: the series sits above the band.
    High,
}

/// Hysteresis band of the detector.
///
/// A series in [`Mode::Low`] switches to [`Mode::High`] when a window
/// value reaches `enter_high`; it switches back only when a value drops
/// to `exit_high` or below. Values strictly inside `(exit_high,
/// enter_high)` never cause a switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeThresholds {
    enter_high: f64,
    exit_high: f64,
}

impl ModeThresholds {
    /// A band with the given entry and exit levels.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ exit_high ≤ enter_high`, both finite.
    pub fn new(enter_high: f64, exit_high: f64) -> Self {
        assert!(
            exit_high.is_finite()
                && enter_high.is_finite()
                && 0.0 <= exit_high
                && exit_high <= enter_high,
            "invalid hysteresis band: enter_high={enter_high}, exit_high={exit_high}"
        );
        Self {
            enter_high,
            exit_high,
        }
    }

    /// Level at which the low mode gives way to the high mode.
    pub fn enter_high(&self) -> f64 {
        self.enter_high
    }

    /// Level at which the high mode gives way back to the low mode.
    pub fn exit_high(&self) -> f64 {
        self.exit_high
    }

    /// The hysteresis step shared by [`detect`] and the flight
    /// recorder's trigger: the mode of a window with value `v`, given the
    /// previous window's mode. The first window (`previous = None`) is
    /// classified directly — at or above `enter_high` is
    /// [`Mode::High`], else [`Mode::Low`] — and is never a switch.
    pub fn classify(&self, previous: Option<Mode>, v: f64) -> Mode {
        match previous {
            None | Some(Mode::Low) if v >= self.enter_high => Mode::High,
            Some(Mode::High) if v > self.exit_high => Mode::High,
            _ => Mode::Low,
        }
    }
}

/// One detected regime change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeSwitch {
    /// Sim time of the switch (the start of the first window classified
    /// in the new mode).
    pub at: f64,
    /// The mode entered at `at`.
    pub to: Mode,
}

/// The detector's full account of one series.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeReport {
    /// Mode of the first window.
    pub initial: Mode,
    /// Every regime change, in time order.
    pub switches: Vec<ModeSwitch>,
    /// Durations of completed low-mode dwells (ones ended by a switch).
    pub dwell_low: Histogram,
    /// Durations of completed high-mode dwells.
    pub dwell_high: Histogram,
    /// Total sim time classified low (including the censored final dwell).
    pub time_low: f64,
    /// Total sim time classified high.
    pub time_high: f64,
}

impl ModeReport {
    /// Fraction of the covered time spent in the high (bad) mode.
    pub fn fraction_high(&self) -> f64 {
        let total = self.time_low + self.time_high;
        if total == 0.0 {
            0.0
        } else {
            self.time_high / total
        }
    }

    /// The mode at the end of the series.
    pub fn final_mode(&self) -> Mode {
        self.switches.last().map_or(self.initial, |s| s.to)
    }

    /// Number of regime changes.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }
}

/// Classifies one per-window series over `grid` into modes.
///
/// The first window sets the initial mode directly (at or above
/// `enter_high` → [`Mode::High`], else [`Mode::Low`]) without a switch;
/// every later window is classified with hysteresis against the previous
/// window's mode ([`ModeThresholds::classify`], the step the flight
/// recorder's trigger takes too).
/// Switch times are the starts of the windows where the new mode first
/// holds — the finest statement the windowed series supports.
///
/// # Panics
///
/// Panics unless `values` has exactly one entry per grid window.
pub fn detect(grid: TimeGrid, values: &[f64], thresholds: ModeThresholds) -> ModeReport {
    assert_eq!(
        values.len(),
        grid.num_windows(),
        "mode detection needs one value per window"
    );
    let initial = thresholds.classify(None, values[0]);
    let mut report = ModeReport {
        initial,
        switches: Vec::new(),
        dwell_low: Histogram::new(),
        dwell_high: Histogram::new(),
        time_low: 0.0,
        time_high: 0.0,
    };
    let mut mode = initial;
    let mut dwell_start = 0.0;
    for (k, &v) in values.iter().enumerate() {
        let (start, end) = grid.window_range(k);
        let next = thresholds.classify((k > 0).then_some(mode), v);
        if next != mode {
            match mode {
                Mode::Low => report.dwell_low.record(start - dwell_start),
                Mode::High => report.dwell_high.record(start - dwell_start),
            }
            report.switches.push(ModeSwitch {
                at: start,
                to: next,
            });
            dwell_start = start;
            mode = next;
        }
        match mode {
            Mode::Low => report.time_low += end - start,
            Mode::High => report.time_high += end - start,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn band() -> ModeThresholds {
        ModeThresholds::new(0.8, 0.5)
    }

    #[test]
    fn constant_series_has_zero_switches() {
        let grid = TimeGrid::new(1.0, 10.0);
        let low = detect(grid, &[0.2; 10], band());
        assert_eq!(low.initial, Mode::Low);
        assert_eq!(low.num_switches(), 0);
        assert_eq!(low.fraction_high(), 0.0);
        assert_eq!(low.time_low, 10.0);
        assert_eq!(low.dwell_low.count(), 0, "censored dwell is not recorded");

        let high = detect(grid, &[0.95; 10], band());
        assert_eq!(high.initial, Mode::High);
        assert_eq!(high.num_switches(), 0);
        assert_eq!(high.fraction_high(), 1.0);
        assert_eq!(high.final_mode(), Mode::High);
    }

    #[test]
    fn square_wave_recovers_switch_times_and_dwells() {
        // 4 low, 4 high, 4 low on unit windows: switches at t = 4 and
        // t = 8, one completed dwell in each mode, both 4 long.
        let grid = TimeGrid::new(1.0, 12.0);
        let mut values = vec![0.1; 4];
        values.extend([0.9; 4]);
        values.extend([0.1; 4]);
        let r = detect(grid, &values, band());
        assert_eq!(r.initial, Mode::Low);
        assert_eq!(
            r.switches,
            vec![
                ModeSwitch {
                    at: 4.0,
                    to: Mode::High
                },
                ModeSwitch {
                    at: 8.0,
                    to: Mode::Low
                },
            ]
        );
        assert_eq!(r.dwell_low.count(), 1);
        assert_eq!(r.dwell_low.sum(), 4.0);
        assert_eq!(r.dwell_high.count(), 1);
        assert_eq!(r.dwell_high.sum(), 4.0);
        assert_eq!(r.time_high, 4.0);
        assert!((r.fraction_high() - 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(r.final_mode(), Mode::Low);
    }

    #[test]
    fn noisy_two_level_series_recovers_the_clean_switch_structure() {
        // A two-level signal with deterministic per-window jitter that
        // never bridges the hysteresis band: the detector must recover
        // exactly the underlying square wave, jitter notwithstanding.
        let grid = TimeGrid::new(2.0, 120.0);
        let mut values = Vec::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut noise = || {
            // xorshift — deterministic, no external RNG in this crate.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f64 / 1000.0
        };
        for k in 0..60 {
            let phase_high = (k / 15) % 2 == 1;
            let base = if phase_high { 0.85 } else { 0.15 };
            values.push(base + 0.1 * noise());
        }
        let r = detect(grid, &values, band());
        assert_eq!(r.initial, Mode::Low);
        assert_eq!(
            r.switches.iter().map(|s| (s.at, s.to)).collect::<Vec<_>>(),
            vec![(30.0, Mode::High), (60.0, Mode::Low), (90.0, Mode::High),]
        );
        assert_eq!(r.dwell_low.count(), 2);
        assert_eq!(r.dwell_high.count(), 1);
        assert_eq!(r.dwell_low.mean(), 30.0);
        assert_eq!(r.dwell_high.mean(), 30.0);
        assert!((r.fraction_high() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hysteresis_band_prevents_chattering() {
        // The series oscillates across a single mid-band threshold every
        // window; a bare-threshold detector would switch 19 times, the
        // band holds the initial mode throughout.
        let grid = TimeGrid::new(1.0, 20.0);
        let values: Vec<f64> = (0..20)
            .map(|k| if k % 2 == 0 { 0.55 } else { 0.75 })
            .collect();
        let r = detect(grid, &values, band());
        assert_eq!(r.num_switches(), 0);
        assert_eq!(r.initial, Mode::Low);

        // Same oscillation entered from above: stays high instead.
        let mut from_high = values.clone();
        from_high[0] = 0.9;
        let r = detect(grid, &from_high, band());
        assert_eq!(r.initial, Mode::High);
        assert_eq!(r.num_switches(), 0);
        assert_eq!(r.fraction_high(), 1.0);
    }

    #[test]
    fn boundary_values_enter_and_exit_inclusively() {
        let grid = TimeGrid::new(1.0, 3.0);
        // Exactly enter_high enters; exactly exit_high exits.
        let r = detect(grid, &[0.1, 0.8, 0.5], band());
        assert_eq!(
            r.switches,
            vec![
                ModeSwitch {
                    at: 1.0,
                    to: Mode::High
                },
                ModeSwitch {
                    at: 2.0,
                    to: Mode::Low
                },
            ]
        );
    }

    #[test]
    fn degenerate_band_is_a_plain_threshold() {
        let grid = TimeGrid::new(1.0, 4.0);
        let t = ModeThresholds::new(0.5, 0.5);
        let r = detect(grid, &[0.4, 0.6, 0.5, 0.6], t);
        // enter at 0.6 (≥ 0.5), exit at 0.5 (≤ 0.5), enter again.
        assert_eq!(r.num_switches(), 3);
    }

    #[test]
    fn degenerate_band_switches_are_the_flight_triggers_fires() {
        // enter == exit on a series sitting at the threshold: window 0
        // classifies the initial mode and is not a switch, so the offline
        // report and the online trigger agree on every window.
        use crate::flight::{FlightTrigger, TriggerReason};
        let grid = TimeGrid::new(1.0, 3.0);
        let values = [0.5; 3];
        let t = ModeThresholds::new(0.5, 0.5);
        let r = detect(grid, &values, t);
        let mut trigger = FlightTrigger::new(t);
        let fires: Vec<ModeSwitch> = values
            .iter()
            .enumerate()
            .filter_map(|(k, &v)| trigger.observe_window(grid.window_range(k).0, v))
            .map(|TriggerReason::ModeSwitch { at, to }| ModeSwitch { at, to })
            .collect();
        assert_eq!(r.switches, fires);
        assert_eq!(r.initial, Mode::High);
        assert_eq!(
            r.switches.iter().map(|s| s.at).collect::<Vec<_>>(),
            vec![1.0, 2.0]
        );
        assert_eq!(r.dwell_high.count(), 1, "no zero-length dwell at t = 0");
        assert_eq!(r.dwell_high.sum(), 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid hysteresis band")]
    fn exit_above_enter_is_rejected() {
        ModeThresholds::new(0.5, 0.8);
    }

    #[test]
    #[should_panic(expected = "one value per window")]
    fn series_length_must_match_the_grid() {
        detect(TimeGrid::new(1.0, 10.0), &[0.0; 3], band());
    }
}
