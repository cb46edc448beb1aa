//! Anomaly flight recorder: a bounded ring of recent events, frozen on
//! trigger.
//!
//! Metastable mode flips are rare and fast: by the time a run-level
//! report shows the network switched regimes, the events that carried it
//! across the boundary are long gone. The flight recorder keeps the last
//! `capacity` kernel events in a preallocated overwrite-oldest ring; when
//! a trigger fires (a hysteresis mode switch in the windowed occupancy
//! series, or windowed blocking above a threshold) the ring *freezes* —
//! later pushes are dropped — so the dump shows the approach to the
//! anomaly, not its aftermath. The frozen ring is encoded as a versioned
//! binary trace by the sim layer (`altroute-sim::trace::encode_flight`)
//! and replayed by the conformance golden-trace machinery.
//!
//! This module is pure data and policy: [`FlightEvent`], the fixed-size
//! ring [`FlightRing`], and the windowed [`FlightTrigger`]. Feeding the
//! ring from the engine's trace hooks lives in `altroute-sim`, which
//! knows the trace vocabulary.

use crate::mode::{Mode, ModeThresholds};
use std::fmt;

/// Longest path recorded inline in a [`FlightEvent::Routed`] record.
///
/// Paths are stored in a fixed array so the ring never allocates after
/// construction; the simulator's alternates are at most two hops, so the
/// cap is generous. Longer paths are truncated to the first
/// `FLIGHT_MAX_HOPS` links (the `hops` field still reports the truncated
/// length).
pub const FLIGHT_MAX_HOPS: usize = 8;

/// One kernel event as seen by the flight recorder.
///
/// The vocabulary mirrors the binary trace format's record set (blocked /
/// routed / departure / teardown / link transition) with inline storage
/// only, so a ring of these is a single flat allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightEvent {
    /// An arrival was blocked.
    Blocked {
        /// Event time.
        time: f64,
        /// Offered-traffic pair index.
        pair: u32,
    },
    /// An arrival was routed.
    Routed {
        /// Event time.
        time: f64,
        /// Offered-traffic pair index.
        pair: u32,
        /// True when carried on an alternate path.
        alternate: bool,
        /// Number of links recorded in `links`.
        hops: u8,
        /// The booked path, first `hops` entries valid.
        links: [u32; FLIGHT_MAX_HOPS],
    },
    /// A departure event fired.
    Departure {
        /// Event time.
        time: f64,
        /// Call-table slot.
        call: u32,
        /// Generation of the departing call.
        generation: u32,
        /// True when the generational call table rejected it.
        stale: bool,
    },
    /// A link failure tore down one in-progress call.
    Teardown {
        /// Event time.
        time: f64,
        /// Call-table slot.
        call: u32,
        /// Generation of the torn-down call.
        generation: u32,
    },
    /// A link changed operational state.
    Link {
        /// Event time.
        time: f64,
        /// Link id.
        link: u32,
        /// New state.
        up: bool,
    },
}

impl FlightEvent {
    /// The event's sim time.
    pub fn time(&self) -> f64 {
        match *self {
            FlightEvent::Blocked { time, .. }
            | FlightEvent::Routed { time, .. }
            | FlightEvent::Departure { time, .. }
            | FlightEvent::Teardown { time, .. }
            | FlightEvent::Link { time, .. } => time,
        }
    }
}

/// Why a [`FlightRing`] froze.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TriggerReason {
    /// The hysteresis detector saw the occupancy series switch modes.
    ModeSwitch {
        /// Start of the first window classified in the new mode.
        at: f64,
        /// The mode entered.
        to: Mode,
    },
    /// A completed window's blocking probability exceeded the threshold.
    BlockingAbove {
        /// Start of the offending window.
        at: f64,
        /// The window's blocking probability.
        blocking: f64,
        /// The configured threshold it exceeded.
        threshold: f64,
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
            TriggerReason::BlockingAbove {
                at,
                blocking,
                threshold,
            } => write!(f, "blocking {blocking} > {threshold} at t={at}"),
        }
    }
}

/// Fixed-capacity overwrite-oldest ring of [`FlightEvent`]s.
///
/// All storage is allocated up front; `push` never allocates. Once
/// [frozen](FlightRing::freeze), pushes are silently dropped so the
/// captured window survives until it is dumped.
#[derive(Debug, Clone)]
pub struct FlightRing {
    buf: Vec<FlightEvent>,
    capacity: usize,
    /// Index the next push writes to (wraps modulo `capacity`).
    next: usize,
    len: usize,
    frozen: Option<TriggerReason>,
}

impl FlightRing {
    /// A ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight ring needs capacity > 0");
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            len: 0,
            frozen: None,
        }
    }

    /// Appends an event, overwriting the oldest when full. Dropped
    /// without effect once the ring is frozen.
    pub fn push(&mut self, event: FlightEvent) {
        if self.frozen.is_some() {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.next] = event;
        }
        self.next = (self.next + 1) % self.capacity;
        self.len = (self.len + 1).min(self.capacity);
    }

    /// Freezes the ring with the given reason. The first freeze wins;
    /// later calls are ignored so the dump describes the first anomaly.
    pub fn freeze(&mut self, reason: TriggerReason) {
        if self.frozen.is_none() {
            self.frozen = Some(reason);
        }
    }

    /// The reason the ring froze, if it has.
    pub fn trigger(&self) -> Option<TriggerReason> {
        self.frozen
    }

    /// Whether the ring is frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no event has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum events held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        let split = if self.len == self.capacity {
            self.next
        } else {
            0
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Clears events and the frozen state, keeping the allocation.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.len = 0;
        self.frozen = None;
    }
}

/// Windowed trigger policy for the flight recorder.
///
/// Fed one completed window at a time (network utilization and blocking),
/// it takes the same hysteresis step as [`crate::mode::detect`]
/// ([`ModeThresholds::classify`]): the first window classifies the
/// initial mode without firing, every later window is classified against
/// the previous mode, and a change fires a
/// [`TriggerReason::ModeSwitch`] stamped with the window's start — the
/// same `at` the offline detector reports. Independently, a window whose
/// blocking exceeds `blocking_threshold` fires
/// [`TriggerReason::BlockingAbove`]. Mode switches take precedence when
/// both fire on the same window.
#[derive(Debug, Clone)]
pub struct FlightTrigger {
    thresholds: Option<ModeThresholds>,
    blocking_threshold: Option<f64>,
    mode: Option<Mode>,
}

impl FlightTrigger {
    /// A trigger watching for hysteresis mode switches (when `thresholds`
    /// is set) and/or windowed blocking above `blocking_threshold`.
    pub fn new(thresholds: Option<ModeThresholds>, blocking_threshold: Option<f64>) -> Self {
        Self {
            thresholds,
            blocking_threshold,
            mode: None,
        }
    }

    /// The current mode, once the first window has classified it.
    pub fn mode(&self) -> Option<Mode> {
        self.mode
    }

    /// Feeds one completed window starting at `window_start`; returns the
    /// trigger that fired, if any. Keeps tracking the mode after a fire
    /// so live status displays stay current even on a frozen ring.
    pub fn observe_window(
        &mut self,
        window_start: f64,
        utilization: f64,
        blocking: f64,
    ) -> Option<TriggerReason> {
        let mut fired = None;
        if let Some(t) = self.thresholds {
            let next = t.classify(self.mode, utilization);
            // The first window classifies without firing, as detect()
            // treats the initial mode as a state, not a switch.
            if self.mode.is_some_and(|mode| mode != next) {
                fired = Some(TriggerReason::ModeSwitch {
                    at: window_start,
                    to: next,
                });
            }
            self.mode = Some(next);
        }
        if fired.is_none() {
            if let Some(th) = self.blocking_threshold {
                if blocking > th {
                    fired = Some(TriggerReason::BlockingAbove {
                        at: window_start,
                        blocking,
                        threshold: th,
                    });
                }
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn routed(time: f64, pair: u32) -> FlightEvent {
        FlightEvent::Routed {
            time,
            pair,
            alternate: false,
            hops: 1,
            links: [pair, 0, 0, 0, 0, 0, 0, 0],
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_iterates_in_order() {
        let mut r = FlightRing::new(3);
        assert!(r.is_empty());
        r.push(routed(1.0, 1));
        r.push(routed(2.0, 2));
        assert_eq!(r.len(), 2);
        let times: Vec<f64> = r.events().map(FlightEvent::time).collect();
        assert_eq!(times, vec![1.0, 2.0]);

        r.push(routed(3.0, 3));
        r.push(routed(4.0, 4));
        r.push(routed(5.0, 5));
        assert_eq!(r.len(), 3);
        let times: Vec<f64> = r.events().map(FlightEvent::time).collect();
        assert_eq!(times, vec![3.0, 4.0, 5.0], "oldest two evicted");
    }

    #[test]
    fn freeze_drops_later_pushes_and_first_reason_wins() {
        let mut r = FlightRing::new(4);
        r.push(routed(1.0, 1));
        r.freeze(TriggerReason::ModeSwitch {
            at: 2.0,
            to: Mode::High,
        });
        r.push(routed(3.0, 3));
        assert_eq!(r.len(), 1, "post-freeze push dropped");
        r.freeze(TriggerReason::BlockingAbove {
            at: 4.0,
            blocking: 0.5,
            threshold: 0.1,
        });
        assert_eq!(
            r.trigger(),
            Some(TriggerReason::ModeSwitch {
                at: 2.0,
                to: Mode::High
            }),
            "first freeze wins"
        );
        r.reset();
        assert!(!r.is_frozen());
        assert!(r.is_empty());
    }

    #[test]
    fn trigger_mirrors_the_offline_detector() {
        // Same series as mode::detect would see: low, low, high, high,
        // low. detect() reports switches at window starts 2 and 4.
        let band = ModeThresholds::new(0.8, 0.5);
        let mut t = FlightTrigger::new(Some(band), None);
        assert_eq!(t.observe_window(0.0, 0.2, 0.0), None);
        assert_eq!(t.mode(), Some(Mode::Low));
        assert_eq!(t.observe_window(1.0, 0.7, 0.0), None, "inside the band");
        assert_eq!(
            t.observe_window(2.0, 0.9, 0.0),
            Some(TriggerReason::ModeSwitch {
                at: 2.0,
                to: Mode::High
            })
        );
        assert_eq!(t.observe_window(3.0, 0.6, 0.0), None, "inside the band");
        assert_eq!(
            t.observe_window(4.0, 0.3, 0.0),
            Some(TriggerReason::ModeSwitch {
                at: 4.0,
                to: Mode::Low
            })
        );
        assert_eq!(t.mode(), Some(Mode::Low));
    }

    #[test]
    fn initial_high_window_does_not_fire() {
        let mut t = FlightTrigger::new(Some(ModeThresholds::new(0.8, 0.5)), None);
        assert_eq!(t.observe_window(0.0, 0.95, 0.0), None);
        assert_eq!(t.mode(), Some(Mode::High));
    }

    #[test]
    fn blocking_trigger_fires_strictly_above_threshold() {
        let mut t = FlightTrigger::new(None, Some(0.1));
        assert_eq!(t.observe_window(0.0, 0.0, 0.1), None, "at threshold");
        assert_eq!(
            t.observe_window(1.0, 0.0, 0.25),
            Some(TriggerReason::BlockingAbove {
                at: 1.0,
                blocking: 0.25,
                threshold: 0.1
            })
        );
        assert_eq!(t.mode(), None, "no mode tracking without thresholds");
    }

    #[test]
    fn mode_switch_takes_precedence_over_blocking() {
        let band = ModeThresholds::new(0.8, 0.5);
        let mut t = FlightTrigger::new(Some(band), Some(0.1));
        assert_eq!(t.observe_window(0.0, 0.2, 0.0), None);
        let fired = t.observe_window(1.0, 0.9, 0.5);
        assert_eq!(
            fired,
            Some(TriggerReason::ModeSwitch {
                at: 1.0,
                to: Mode::High
            })
        );
    }

    #[test]
    fn reasons_render_for_humans() {
        let m = TriggerReason::ModeSwitch {
            at: 12.0,
            to: Mode::High,
        };
        assert_eq!(m.to_string(), "mode switch to high at t=12");
        let b = TriggerReason::BlockingAbove {
            at: 3.0,
            blocking: 0.5,
            threshold: 0.25,
        };
        assert_eq!(b.to_string(), "blocking 0.5 > 0.25 at t=3");
    }
}
