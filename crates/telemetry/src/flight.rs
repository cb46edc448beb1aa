//! Anomaly flight recorder policy: when to freeze the recording.
//!
//! Metastable mode flips are rare and fast: by the time a run-level
//! report shows the network switched regimes, the events that carried it
//! across the boundary are long gone. The flight recorder keeps the
//! newest kernel events as encoded golden-trace records (the sim layer's
//! `altroute-sim::trace::FlightSink`); when a trigger fires (a hysteresis
//! mode switch in the windowed occupancy series) the recording *freezes*
//! — later events are dropped — so the dump shows the approach to the
//! anomaly, not its aftermath, and replays through the conformance
//! golden-trace machinery.
//!
//! This module is the policy half: the windowed [`FlightTrigger`] and
//! the [`TriggerReason`] it fires. The freeze itself is a
//! [`FlightLatch`] the recording sink reads and the
//! [`LiveRecorder`](crate::serve::LiveRecorder) sets, first trigger
//! winning.

use crate::mode::{Mode, ModeThresholds};
use std::cell::Cell;
use std::fmt;

/// The flight recorder's freeze latch: empty while recording, set once
/// to the first trigger that fired.
pub type FlightLatch = Cell<Option<TriggerReason>>;

/// Why the flight recorder froze.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TriggerReason {
    /// The hysteresis detector saw the occupancy series switch modes.
    ModeSwitch {
        /// Start of the first window classified in the new mode.
        at: f64,
        /// The mode entered.
        to: Mode,
    },
}

impl fmt::Display for TriggerReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TriggerReason::ModeSwitch { at, to } => {
                let label = match to {
                    Mode::Low => "low",
                    Mode::High => "high",
                };
                write!(f, "mode switch to {label} at t={at}")
            }
        }
    }
}

/// Windowed trigger policy for the flight recorder.
///
/// Fed one completed window's network utilization at a time, it takes
/// the same hysteresis step as [`crate::mode::detect`]
/// ([`ModeThresholds::classify`]): the first window classifies the
/// initial mode without firing, every later window is classified against
/// the previous mode, and a change fires a
/// [`TriggerReason::ModeSwitch`] stamped with the window's start — the
/// same `at` the offline detector reports.
#[derive(Debug, Clone)]
pub struct FlightTrigger {
    thresholds: ModeThresholds,
    mode: Option<Mode>,
}

impl FlightTrigger {
    /// A trigger watching for hysteresis mode switches across the band
    /// `thresholds`.
    pub fn new(thresholds: ModeThresholds) -> Self {
        Self {
            thresholds,
            mode: None,
        }
    }

    /// The current mode, once the first window has classified it.
    pub fn mode(&self) -> Option<Mode> {
        self.mode
    }

    /// Feeds one completed window starting at `window_start`; returns the
    /// trigger that fired, if any. Keeps tracking the mode after a fire
    /// so live status displays stay current even on a frozen recording.
    pub fn observe_window(&mut self, window_start: f64, utilization: f64) -> Option<TriggerReason> {
        let next = self.thresholds.classify(self.mode, utilization);
        // The first window classifies without firing, as detect() treats
        // the initial mode as a state, not a switch.
        let fired =
            self.mode
                .is_some_and(|mode| mode != next)
                .then_some(TriggerReason::ModeSwitch {
                    at: window_start,
                    to: next,
                });
        self.mode = Some(next);
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_mirrors_the_offline_detector() {
        // Same series as mode::detect would see: low, low, high, high,
        // low. detect() reports switches at window starts 2 and 4.
        let band = ModeThresholds::new(0.8, 0.5);
        let mut t = FlightTrigger::new(band);
        assert_eq!(t.observe_window(0.0, 0.2), None);
        assert_eq!(t.mode(), Some(Mode::Low));
        assert_eq!(t.observe_window(1.0, 0.7), None, "inside the band");
        assert_eq!(
            t.observe_window(2.0, 0.9),
            Some(TriggerReason::ModeSwitch {
                at: 2.0,
                to: Mode::High
            })
        );
        assert_eq!(t.observe_window(3.0, 0.6), None, "inside the band");
        assert_eq!(
            t.observe_window(4.0, 0.3),
            Some(TriggerReason::ModeSwitch {
                at: 4.0,
                to: Mode::Low
            })
        );
        assert_eq!(t.mode(), Some(Mode::Low));
    }

    #[test]
    fn initial_high_window_does_not_fire() {
        let mut t = FlightTrigger::new(ModeThresholds::new(0.8, 0.5));
        assert_eq!(t.observe_window(0.0, 0.95), None);
        assert_eq!(t.mode(), Some(Mode::High));
    }

    #[test]
    fn reasons_render_for_humans() {
        let m = TriggerReason::ModeSwitch {
            at: 12.0,
            to: Mode::High,
        };
        assert_eq!(m.to_string(), "mode switch to high at t=12");
    }
}
