//! The controller's windowed per-pair load estimator, whose window
//! arithmetic `Controller::advance_to` drives.

/// Windowed per-pair offered-load estimation over an unbounded time
/// range.
///
/// Windows are `width` wide and aligned to sim time 0: window `k` is
/// `[k·width, (k+1)·width)`, so a resident feed needs no horizon.
///
/// Each completed window folds its empirical per-pair rate `count /
/// width` into the running estimate with EWMA weight `alpha` (`alpha =
/// 1` keeps just the latest window). The first window is taken raw —
/// there is no earlier estimate to smooth against, and folding it into
/// zero would under-read the load by `(1 − alpha)^k` for the first `k`
/// windows. With unit-mean holding times the rate in calls per sim-time
/// unit *is* the offered load in Erlangs; scale by the mean holding time
/// otherwise.
#[derive(Debug, Clone)]
pub(super) struct LoadEstimator {
    width: f64,
    alpha: f64,
    /// Index of the currently-accumulating window.
    window: usize,
    counts: Vec<u64>,
    rates: Vec<f64>,
    windows_completed: u64,
    last_time: f64,
}

impl LoadEstimator {
    /// 2⁵³: from this window index on, consecutive window boundaries are
    /// no longer distinct `f64`s, so a time whose window index reaches it
    /// has no well-defined window. Consumers reject such records (see
    /// [`in_range`](Self::in_range)).
    const WINDOW_LIMIT: f64 = 9_007_199_254_740_992.0;

    /// An estimator for `pairs` demand pairs on `width`-wide windows.
    ///
    /// # Panics
    ///
    /// Panics unless `pairs > 0`, `width > 0` and finite, and
    /// `0 < alpha <= 1`.
    pub(super) fn new(pairs: usize, width: f64, alpha: f64) -> Self {
        assert!(pairs > 0, "need at least one pair");
        assert!(
            width > 0.0 && width.is_finite(),
            "window width must be positive and finite, got {width}"
        );
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA weight must be in (0, 1], got {alpha}"
        );
        Self {
            width,
            alpha,
            window: 0,
            counts: vec![0; pairs],
            rates: vec![0.0; pairs],
            windows_completed: 0,
            last_time: 0.0,
        }
    }

    /// Smoothed per-pair rate estimates (calls per sim-time unit), as of
    /// the last completed window.
    pub(super) fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of completed (folded) windows so far.
    pub(super) fn windows_completed(&self) -> u64 {
        self.windows_completed
    }

    /// Timestamp of the most recently accepted record — the estimate's
    /// freshness.
    pub(super) fn last_time(&self) -> f64 {
        self.last_time
    }

    /// Whether time `t`'s window index `t / width` lies below
    /// [`WINDOW_LIMIT`](Self::WINDOW_LIMIT).
    pub(super) fn in_range(&self, t: f64) -> bool {
        t / self.width < Self::WINDOW_LIMIT
    }

    /// End time of the currently-accumulating window.
    fn current_window_end(&self) -> f64 {
        self.width * (self.window as f64 + 1.0)
    }

    /// If time `t` lies at or past the current window's end, returns
    /// that boundary time (the caller should [`close_window`] and check
    /// again — several windows may close before `t`'s own window opens).
    ///
    /// [`close_window`]: Self::close_window
    pub(super) fn pending_boundary(&self, t: f64) -> Option<f64> {
        let end = self.current_window_end();
        (t >= end).then_some(end)
    }

    /// Folds the current window's counts into the rate estimates (the
    /// first window raw, later ones by EWMA) and opens the next window.
    /// Returns the folded window's end time.
    pub(super) fn close_window(&mut self) -> f64 {
        let end = self.current_window_end();
        let alpha = if self.windows_completed == 0 {
            1.0
        } else {
            self.alpha
        };
        for (rate, count) in self.rates.iter_mut().zip(&mut self.counts) {
            let observed = *count as f64 / self.width;
            *rate += alpha * (observed - *rate);
            *count = 0;
        }
        self.window += 1;
        self.windows_completed += 1;
        end
    }

    /// How many windows lie between the currently-accumulating window
    /// and the one holding time `t`: the number of further
    /// [`close_window`] calls the [`pending_boundary`] loop would make
    /// after closing the current window (0 when `t` is in the current
    /// window or the next one).
    ///
    /// # Panics
    ///
    /// Panics unless [`in_range`](Self::in_range)`(t)`.
    ///
    /// [`close_window`]: Self::close_window
    /// [`pending_boundary`]: Self::pending_boundary
    pub(super) fn windows_between(&self, t: f64) -> u64 {
        assert!(self.in_range(t), "time {t} is past the last window");
        let current = self.window as u64;
        let mut target = ((t / self.width).floor() as u64).max(current);
        // `floor(t / width)` can land one off the boundary comparison
        // the loop makes; settle on that comparison itself.
        while t >= self.width * (target as f64 + 1.0) {
            target += 1;
        }
        while target > current && t < self.width * target as f64 {
            target -= 1;
        }
        target.saturating_sub(current + 1)
    }

    /// Closes `k` windows that saw no arrivals — the current one and the
    /// `k − 1` after it — in closed form: every rate decays by
    /// `(1 − alpha)^k`, as `k` [`close_window`] calls on empty windows
    /// would leave it. Returns the last closed window's end time (the
    /// current window's start when `k = 0`).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the current window holds counts.
    ///
    /// [`close_window`]: Self::close_window
    pub(super) fn close_empty_windows(&mut self, k: u64) -> f64 {
        debug_assert!(
            self.counts.iter().all(|&c| c == 0),
            "closing a window that holds counts as empty"
        );
        if k > 0 {
            // An empty first window is taken raw, which zeroes every rate.
            let decay = if self.windows_completed == 0 {
                0.0
            } else {
                (1.0 - self.alpha).powf(k as f64)
            };
            for rate in &mut self.rates {
                *rate *= decay;
            }
            self.window += k as usize;
            self.windows_completed += k;
        }
        self.width * self.window as f64
    }

    /// Folds one *externally counted* window: replaces the current
    /// window's counts with `counts` and closes it, returning the folded
    /// window's end time. This is the in-process path — a selector that
    /// tallies arrivals itself between kernel ticks hands the whole
    /// window over at the boundary, and lands in exactly the same
    /// estimator state as the per-record feed path.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is not one entry per pair.
    pub(super) fn fold_window(&mut self, counts: &[u64]) -> f64 {
        assert_eq!(counts.len(), self.counts.len(), "one count per pair");
        self.counts.copy_from_slice(counts);
        let end = self.close_window();
        self.last_time = end;
        end
    }

    /// Counts one arrival for `pair` at time `t`.
    ///
    /// The caller must have drained [`pending_boundary`] /
    /// [`close_window`] first so `t` falls in the currently-accumulating
    /// window, and must reject regressing times itself (the skip-and-
    /// count policy lives in the consumer).
    ///
    /// # Panics
    ///
    /// Panics if `pair` is out of range, or (debug) if `t` lies outside
    /// the current window.
    ///
    /// [`pending_boundary`]: Self::pending_boundary
    /// [`close_window`]: Self::close_window
    pub(super) fn record(&mut self, t: f64, pair: usize) {
        debug_assert!(
            t >= self.width * self.window as f64 && t < self.current_window_end(),
            "record at t={t} outside current window {}",
            self.window
        );
        self.counts[pair] += 1;
        self.last_time = t;
    }

    /// Notes a non-arrival record's timestamp (freshness bookkeeping for
    /// `end` records).
    pub(super) fn touch(&mut self, t: f64) {
        self.last_time = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_rates_are_count_over_width() {
        let mut est = LoadEstimator::new(4, 2.0, 1.0);
        // Six arrivals for pair 1 in window [0, 2).
        for i in 0..6 {
            est.record(0.3 * i as f64, 1);
        }
        assert_eq!(est.pending_boundary(2.5), Some(2.0));
        est.close_window();
        assert_eq!(est.pending_boundary(2.5), None);
        assert_eq!(est.rates(), &[0.0, 3.0, 0.0, 0.0]);
        assert_eq!(est.windows_completed(), 1);
    }

    #[test]
    fn ewma_folds_windows_and_idle_windows_decay() {
        let mut est = LoadEstimator::new(1, 1.0, 0.5);
        est.record(0.5, 0);
        est.record(0.6, 0);
        est.close_window(); // the first window is taken raw: rate = 2.0
        assert_eq!(est.rates(), &[2.0]);
        // Two empty windows halve the estimate each time.
        est.close_window();
        est.close_window();
        assert_eq!(est.rates(), &[0.5]);
        assert_eq!(est.windows_completed(), 3);
    }

    #[test]
    fn empty_windows_close_in_closed_form() {
        for alpha in [0.5, 0.3, 1.0] {
            let mut looped = LoadEstimator::new(2, 2.0, alpha);
            looped.record(0.1, 0);
            looped.record(0.2, 1);
            looped.record(0.3, 1);
            looped.close_window();
            let mut closed = looped.clone();
            for _ in 0..3 {
                looped.close_window();
            }
            assert_eq!(closed.close_empty_windows(3), 8.0);
            for (a, b) in looped.rates().iter().zip(closed.rates()) {
                assert!(
                    (a - b).abs() <= 1e-12 * a.abs(),
                    "alpha {alpha}: {a} vs {b}"
                );
            }
            assert_eq!(looped.windows_completed(), closed.windows_completed());
            assert_eq!(looped.current_window_end(), closed.current_window_end());
        }
        // An empty first window is taken raw, like the loop's first close.
        let mut first = LoadEstimator::new(1, 1.0, 0.5);
        assert_eq!(first.close_empty_windows(0), 0.0);
        assert_eq!(first.close_empty_windows(4), 4.0);
        assert_eq!(first.rates(), &[0.0]);
        assert_eq!(first.windows_completed(), 4);
    }

    #[test]
    fn windows_between_counts_what_the_boundary_loop_closes() {
        for width in [2.0, 0.1, 0.3] {
            let mut est = LoadEstimator::new(1, width, 1.0);
            for t in [0.0, 0.05, 0.3, 0.6, 0.9, 2.0, 2.05, 7.3, 19.99, 1e4] {
                let predicted = est.windows_between(t);
                let mut closed = 0u64;
                while est.pending_boundary(t).is_some() {
                    est.close_window();
                    closed += 1;
                }
                assert_eq!(predicted, closed.saturating_sub(1), "width {width}, t {t}");
            }
        }
    }

    #[test]
    fn fold_window_matches_per_record_path() {
        let mut by_record = LoadEstimator::new(2, 2.0, 0.5);
        by_record.record(0.1, 0);
        by_record.record(0.2, 0);
        by_record.record(1.9, 1);
        by_record.close_window();

        let mut by_fold = LoadEstimator::new(2, 2.0, 0.5);
        assert_eq!(by_fold.fold_window(&[2, 1]), 2.0);

        assert_eq!(by_record.rates(), by_fold.rates());
        assert_eq!(by_record.windows_completed(), by_fold.windows_completed());
    }

    #[test]
    fn boundaries_survive_grid_growth() {
        let mut est = LoadEstimator::new(1, 2.0, 1.0);
        est.touch(0.0);
        // Jump far past the initial 1024-window range; boundary
        // arithmetic must still report the *next* boundary of the
        // current (first) window.
        assert_eq!(est.pending_boundary(10_000.0), Some(2.0));
        let mut closed = 0;
        while let Some(_b) = est.pending_boundary(10_000.0) {
            est.close_window();
            closed += 1;
        }
        assert_eq!(closed, 5_000);
        est.record(10_000.5, 0);
        assert_eq!(est.last_time(), 10_000.5);
    }
}
