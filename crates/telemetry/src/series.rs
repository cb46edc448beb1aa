//! Sim-time-windowed time series.
//!
//! All series share a [`TimeGrid`]: fixed-width windows aligned to sim
//! time 0 and covering `[0, end)` where `end = warmup + horizon`. The
//! final window is allowed to be partial (when `end` is not a multiple of
//! the width); rate-like quantities normalise by each window's *actual*
//! covered duration, so partial edge windows report unbiased rates
//! instead of deflated ones. Windows that lie partly before the warmup
//! cut simply show the warm-up transient — time series deliberately keep
//! it, since watching the network *enter* the congested regime is the
//! point.
//!
//! Two primitives cover the engine's needs:
//!
//! * [`WindowedCounter`] — event counts per window (offered, blocked,
//!   alternate-routed, teardowns).
//! * [`WindowedTimeWeighted`] — the per-window time integral of a
//!   piecewise-constant process (link occupancy), i.e. mean occupancy
//!   per window after dividing by window duration.

/// Fixed-width sim-time windows covering `[0, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeGrid {
    width: f64,
    end: f64,
}

impl TimeGrid {
    /// Most windows a grid may hold. Every windowed series allocates one
    /// slot per window (per link, for occupancy), so an unbounded count
    /// is an unbounded allocation; runs use tens of windows.
    pub const MAX_WINDOWS: usize = 10_000;

    /// A grid of `width`-wide windows covering `[0, end)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < width` and `0 < end`, both finite, and the grid
    /// holds at most [`MAX_WINDOWS`](Self::MAX_WINDOWS) windows.
    pub fn new(width: f64, end: f64) -> Self {
        assert!(
            width > 0.0 && width.is_finite() && end > 0.0 && end.is_finite(),
            "invalid time grid: width={width}, end={end}"
        );
        assert!(
            (end / width).ceil() <= Self::MAX_WINDOWS as f64,
            "time grid of width {width} over [0, {end}) exceeds {} windows",
            Self::MAX_WINDOWS
        );
        Self { width, end }
    }

    /// Window width in sim-time units.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// End of the covered range (`warmup + horizon`).
    pub fn end(&self) -> f64 {
        self.end
    }

    /// Number of windows (the last may be partial).
    pub fn num_windows(&self) -> usize {
        (self.end / self.width).ceil().max(1.0) as usize
    }

    /// The window index containing sim time `t`, clamping times at or
    /// past `end` into the last window (the engine's clock never passes
    /// `end`, but release events exactly at it must still land).
    pub fn index(&self, t: f64) -> usize {
        ((t / self.width) as usize).min(self.num_windows() - 1)
    }

    /// The `[start, end)` range of window `k` (end clipped to the grid's).
    pub fn window_range(&self, k: usize) -> (f64, f64) {
        let start = self.width * k as f64;
        (start, (start + self.width).min(self.end))
    }

    /// Actual covered duration of window `k`.
    pub fn window_len(&self, k: usize) -> f64 {
        let (s, e) = self.window_range(k);
        e - s
    }
}

/// Event counts per window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedCounter {
    grid: TimeGrid,
    counts: Vec<u64>,
}

impl WindowedCounter {
    /// A zeroed counter over `grid`.
    pub fn new(grid: TimeGrid) -> Self {
        Self {
            counts: vec![0; grid.num_windows()],
            grid,
        }
    }

    /// Counts one event at sim time `t`.
    pub fn incr(&mut self, t: f64) {
        self.counts[self.grid.index(t)] += 1;
    }

    /// The per-window counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total events across all windows.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another counter's windows (grids must match).
    pub fn merge(&mut self, other: &WindowedCounter) {
        assert_eq!(self.grid, other.grid, "merging counters on different grids");
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The grid.
    pub fn grid(&self) -> TimeGrid {
        self.grid
    }
}

/// Per-window time integral of a piecewise-constant process.
///
/// Feed it every change point via [`WindowedTimeWeighted::record`] and
/// close it with [`WindowedTimeWeighted::finish`]; each window then holds
/// `∫ value dt` over that window, spread correctly across boundaries when
/// the value holds through several windows.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedTimeWeighted {
    grid: TimeGrid,
    integral: Vec<f64>,
    last_t: f64,
    last_v: f64,
    finished: bool,
}

impl WindowedTimeWeighted {
    /// A process starting at value 0 at time 0.
    pub fn new(grid: TimeGrid) -> Self {
        Self {
            integral: vec![0.0; grid.num_windows()],
            grid,
            last_t: 0.0,
            last_v: 0.0,
            finished: false,
        }
    }

    /// Spreads the held value over `[last_t, t)` into the windows.
    fn accumulate(&mut self, t: f64) {
        if self.last_v != 0.0 && t > self.last_t {
            let mut from = self.last_t;
            let upto = t.min(self.grid.end());
            // Step the window index directly instead of re-deriving it
            // from `from`: when the width is not exactly representable,
            // `index(from)` can floor back into a window whose end equals
            // `from`, and a sweep keyed on it never advances.
            let mut k = self.grid.index(from);
            while from < upto {
                let (_, wend) = self.grid.window_range(k);
                if wend > from {
                    self.integral[k] += self.last_v * (upto.min(wend) - from);
                    from = wend;
                }
                if k + 1 >= self.integral.len() {
                    break;
                }
                k += 1;
            }
        }
        self.last_t = t;
    }

    /// The process takes value `v` from sim time `t` on.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes an earlier record (time must not rewind).
    pub fn record(&mut self, t: f64, v: f64) {
        assert!(!self.finished, "record after finish");
        assert!(
            t >= self.last_t,
            "time went backwards: {t} < {}",
            self.last_t
        );
        self.accumulate(t);
        self.last_v = v;
    }

    /// Closes the series at the grid's end, spreading the final value.
    pub fn finish(&mut self) {
        if !self.finished {
            self.accumulate(self.grid.end());
            self.finished = true;
        }
    }

    /// Per-window integrals (call [`WindowedTimeWeighted::finish`] first).
    pub fn integrals(&self) -> &[f64] {
        assert!(self.finished, "integrals before finish");
        &self.integral
    }

    /// Mean value over window `k`.
    pub fn window_mean(&self, k: usize) -> f64 {
        assert!(self.finished, "means before finish");
        self.integral[k] / self.grid.window_len(k)
    }

    /// Adds another process's integrals (for across-seed aggregation;
    /// grids must match and both must be finished).
    pub fn merge(&mut self, other: &WindowedTimeWeighted) {
        assert_eq!(self.grid, other.grid, "merging series on different grids");
        assert!(
            self.finished && other.finished,
            "merge requires finished series"
        );
        for (a, &b) in self.integral.iter_mut().zip(&other.integral) {
            *a += b;
        }
    }

    /// The grid.
    pub fn grid(&self) -> TimeGrid {
        self.grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_range_with_partial_last_window() {
        let g = TimeGrid::new(10.0, 35.0);
        assert_eq!(g.num_windows(), 4);
        assert_eq!(g.window_range(0), (0.0, 10.0));
        assert_eq!(g.window_range(3), (30.0, 35.0));
        assert_eq!(g.window_len(3), 5.0);
        assert_eq!(g.index(0.0), 0);
        assert_eq!(g.index(9.999), 0);
        assert_eq!(g.index(10.0), 1);
        assert_eq!(g.index(34.9), 3);
        // Times at or past the end clamp into the last window.
        assert_eq!(g.index(35.0), 3);
        assert_eq!(g.index(1e9), 3);
    }

    #[test]
    fn grid_may_hold_exactly_the_window_cap() {
        let g = TimeGrid::new(1.0, TimeGrid::MAX_WINDOWS as f64);
        assert_eq!(g.num_windows(), TimeGrid::MAX_WINDOWS);
    }

    #[test]
    #[should_panic(expected = "exceeds 10000 windows")]
    fn grid_past_the_window_cap_is_rejected() {
        // The cap plus one partial window.
        TimeGrid::new(1.0, TimeGrid::MAX_WINDOWS as f64 + 0.5);
    }

    #[test]
    fn exact_multiple_grid_has_no_partial_window() {
        let g = TimeGrid::new(5.0, 20.0);
        assert_eq!(g.num_windows(), 4);
        for k in 0..4 {
            assert_eq!(g.window_len(k), 5.0);
        }
    }

    #[test]
    fn counter_assigns_events_to_windows() {
        let mut c = WindowedCounter::new(TimeGrid::new(10.0, 25.0));
        for t in [0.0, 1.0, 9.99, 10.0, 19.0, 24.9] {
            c.incr(t);
        }
        assert_eq!(c.counts(), &[3, 2, 1]);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn counter_merge_adds_windows() {
        let g = TimeGrid::new(1.0, 3.0);
        let mut a = WindowedCounter::new(g);
        a.incr(0.5);
        let mut b = WindowedCounter::new(g);
        b.incr(0.1);
        b.incr(2.5);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 0, 1]);
    }

    #[test]
    fn time_weighted_spreads_across_window_boundaries() {
        // Value 2 held over [1, 12), then 0: windows of width 5 over
        // [0, 12) receive integrals 8, 10, 4.
        let mut w = WindowedTimeWeighted::new(TimeGrid::new(5.0, 12.0));
        w.record(1.0, 2.0);
        w.record(12.0, 0.0);
        w.finish();
        let i = w.integrals();
        assert!((i[0] - 8.0).abs() < 1e-12);
        assert!((i[1] - 10.0).abs() < 1e-12);
        assert!((i[2] - 4.0).abs() < 1e-12);
        assert!(
            (w.window_mean(2) - 2.0).abs() < 1e-12,
            "partial window mean"
        );
    }

    #[test]
    fn time_weighted_integral_is_conserved() {
        // Total integral equals the piecewise sum regardless of windowing.
        let changes = [(0.5, 3.0), (2.0, 1.0), (7.25, 4.0), (13.0, 0.0)];
        let mut w = WindowedTimeWeighted::new(TimeGrid::new(3.7, 16.0));
        let mut exact = 0.0;
        let mut last = (0.0, 0.0);
        for &(t, v) in &changes {
            exact += last.1 * (t - last.0);
            w.record(t, v);
            last = (t, v);
        }
        exact += last.1 * (16.0 - last.0);
        w.finish();
        let total: f64 = w.integrals().iter().sum();
        assert!((total - exact).abs() < 1e-9, "{total} vs {exact}");
    }

    #[test]
    fn finish_spreads_held_value_to_end() {
        let mut w = WindowedTimeWeighted::new(TimeGrid::new(2.0, 6.0));
        w.record(1.0, 5.0);
        w.finish();
        // Held at 5 from t=1 to t=6: integrals 5, 10, 10.
        assert_eq!(w.integrals(), &[5.0, 10.0, 10.0]);
        // finish is idempotent.
        w.finish();
        assert_eq!(w.integrals(), &[5.0, 10.0, 10.0]);
    }

    #[test]
    fn accumulate_advances_on_inexact_window_boundaries() {
        // 0.55 is not exactly representable: at from = 16.5 the index
        // floors into a window whose computed end equals `from`, which
        // used to stall the accumulation sweep forever.
        let mut w = WindowedTimeWeighted::new(TimeGrid::new(0.55, 22.0));
        for k in 0..40 {
            w.record(0.55 * f64::from(k), f64::from(k % 7) + 1.0);
        }
        w.finish();
        let total: f64 = w.integrals().iter().sum();
        // The mean value of the recorded staircase is 4 (values 1..=7
        // cycling), held over [0, 22); allow slack for the partial cycle.
        assert!(
            total.is_finite() && total > 60.0 && total < 110.0,
            "{total}"
        );
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_rewind_is_rejected() {
        let mut w = WindowedTimeWeighted::new(TimeGrid::new(1.0, 2.0));
        w.record(1.5, 1.0);
        w.record(1.0, 2.0);
    }
}
