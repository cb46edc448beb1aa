//! Traffic matrices.
//!
//! A [`TrafficMatrix`] holds the offered traffic `T(i, j)` in Erlangs for
//! every ordered node pair — the paper's `𝒯`. Load sweeps linearly scale a
//! nominal matrix ([`TrafficMatrix::scaled`]), exactly as §4.2.2 scales the
//! NSFNet nominal load. The per-link primary loads `Λ^k` of Eq. 1 need a
//! primary assignment, so `altroute_core::primary` sums them.

/// Offered traffic in Erlangs per ordered node pair.
///
/// Row-major `n × n`; the diagonal is zero by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMatrix {
    n: usize,
    values: Vec<f64>,
}

impl TrafficMatrix {
    /// An all-zero matrix for `n` nodes.
    pub fn zero(n: usize) -> Self {
        Self {
            n,
            values: vec![0.0; n * n],
        }
    }

    /// Uniform traffic: `per_pair` Erlangs for every ordered pair.
    pub fn uniform(n: usize, per_pair: f64) -> Self {
        let mut m = Self::zero(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m.set(i, j, per_pair);
                }
            }
        }
        m
    }

    /// Builds a matrix from a function of the ordered pair.
    ///
    /// The diagonal is forced to zero regardless of `f`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zero(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    m.set(i, j, f(i, j));
                }
            }
        }
        m
    }

    /// A gravity-model matrix: `T(i, j) ∝ w_i · w_j`, scaled so the total
    /// offered traffic is `total`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != n`, any weight is negative, or all
    /// weights are zero while `total > 0`.
    pub fn gravity(n: usize, weights: &[f64], total: f64) -> Self {
        assert_eq!(weights.len(), n, "one weight per node");
        assert!(
            weights.iter().all(|&w| w.is_finite() && w >= 0.0),
            "weights must be >= 0"
        );
        let mut m = Self::from_fn(n, |i, j| weights[i] * weights[j]);
        let sum = m.total();
        if total > 0.0 {
            assert!(
                sum > 0.0,
                "cannot scale all-zero gravity weights to positive total"
            );
            let k = total / sum;
            for v in &mut m.values {
                *v *= k;
            }
        } else {
            m = Self::zero(n);
        }
        m
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The demand for an ordered pair.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "pair ({i}, {j}) out of range");
        self.values[i * self.n + j]
    }

    /// Sets the demand for an ordered pair.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices, `i == j` with nonzero value, or a
    /// negative/non-finite value.
    pub fn set(&mut self, i: usize, j: usize, erlangs: f64) {
        assert!(i < self.n && j < self.n, "pair ({i}, {j}) out of range");
        assert!(
            erlangs.is_finite() && erlangs >= 0.0,
            "demand must be finite and >= 0, got {erlangs}"
        );
        if i == j {
            assert!(erlangs == 0.0, "diagonal demand must be zero");
            return;
        }
        self.values[i * self.n + j] = erlangs;
    }

    /// Total offered traffic `Σ_{i,j} T(i, j)`.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// A copy scaled by `factor` — the paper's load sweep
    /// ("the 𝒯's used for the other loads were got by linearly scaling the
    /// 𝒯 corresponding to the nominal load").
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be >= 0"
        );
        Self {
            n: self.n,
            values: self.values.iter().map(|v| v * factor).collect(),
        }
    }

    /// Iterates over `(src, dst, erlangs)` entries with positive demand.
    pub fn demands(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let n = self.n;
        self.values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0.0)
            .map(move |(idx, &v)| (idx / n, idx % n, v))
    }
}

/// Pretty-prints a matrix (fixed-width, one row per origin) — handy for
/// the experiment binaries' output.
pub fn format_matrix(m: &TrafficMatrix) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for i in 0..m.num_nodes() {
        for j in 0..m.num_nodes() {
            let _ = write!(s, "{:8.2}", m.get(i, j));
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_total() {
        let m = TrafficMatrix::uniform(4, 2.5);
        assert_eq!(m.total(), 12.0 * 2.5);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(2, 3), 2.5);
    }

    #[test]
    fn from_fn_zeroes_diagonal() {
        let m = TrafficMatrix::from_fn(3, |_, _| 7.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(0, 2), 7.0);
        assert_eq!(m.total(), 42.0);
    }

    #[test]
    fn gravity_scales_to_total() {
        let m = TrafficMatrix::gravity(3, &[1.0, 2.0, 3.0], 60.0);
        assert!((m.total() - 60.0).abs() < 1e-9);
        // Proportionality: T(1,2)/T(0,1) = (2*3)/(1*2) = 3.
        assert!((m.get(1, 2) / m.get(0, 1) - 3.0).abs() < 1e-9);
        let z = TrafficMatrix::gravity(3, &[1.0, 1.0, 1.0], 0.0);
        assert_eq!(z.total(), 0.0);
    }

    #[test]
    fn scaling_is_linear() {
        let m = TrafficMatrix::uniform(3, 4.0);
        let s = m.scaled(0.25);
        assert_eq!(s.get(0, 1), 1.0);
        assert_eq!(s.total(), m.total() * 0.25);
        assert_eq!(m.scaled(0.0).total(), 0.0);
    }

    #[test]
    fn demands_iterator_skips_zeros() {
        let mut m = TrafficMatrix::zero(3);
        m.set(0, 1, 5.0);
        m.set(2, 0, 1.0);
        let got: Vec<_> = m.demands().collect();
        assert_eq!(got, vec![(0, 1, 5.0), (2, 0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "diagonal demand")]
    fn diagonal_set_panics() {
        let mut m = TrafficMatrix::zero(3);
        m.set(1, 1, 1.0);
    }
}
