//! Seed-derived independent random-number streams.
//!
//! The paper runs "each algorithm … with identical call arrivals and call
//! holding times". The clean way to achieve that is **common random
//! numbers**: derive one independent stream per origin–destination pair
//! from a master seed, and draw that pair's arrivals and holding times
//! only from its own stream. Every policy then sees byte-identical
//! traffic, and blocking differences between policies are pure policy
//! effects — the variance-reduction technique the paper's methodology
//! implies.
//!
//! [`StreamFactory`] derives sub-seeds via SplitMix64 (a bijective mixer,
//! so distinct stream ids can never collide on the same sub-seed for a
//! given master seed); [`RngStream`] wraps a local xoshiro256++ generator
//! with the distributions the simulators need. The generator is
//! hand-rolled because this build environment has no crates.io access:
//! xoshiro256++ is tiny (four `u64`s of state), passes BigCrush, and is
//! trivially reproducible across platforms.

/// Derives independent [`RngStream`]s from a master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFactory {
    master: u64,
}

impl StreamFactory {
    /// A factory for the given master seed.
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// The master seed.
    pub fn master_seed(&self) -> u64 {
        self.master
    }

    /// The stream with the given id. The same `(master, id)` always yields
    /// the same stream.
    pub fn stream(&self, id: u64) -> RngStream {
        // SplitMix64 over master ⊕ golden-ratio-spread id.
        let mut z = self.master ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        RngStream::from_seed(z)
    }
}

/// xoshiro256++ core state (Blackman & Vigna 2019).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Fills the 256-bit state from a 64-bit seed with SplitMix64, the
    /// seeding procedure the xoshiro authors recommend (guarantees a
    /// non-zero state for every seed).
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *slot = z ^ (z >> 31);
        }
        Self { s }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` from the top 53 bits (all values exactly
    /// representable, standard mantissa-fill construction).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// One deterministic random stream with teletraffic distributions.
#[derive(Debug, Clone)]
pub struct RngStream {
    rng: Xoshiro256pp,
}

impl RngStream {
    /// A stream seeded directly (mostly for tests; prefer
    /// [`StreamFactory::stream`]).
    pub fn from_seed(seed: u64) -> Self {
        Self {
            rng: Xoshiro256pp::seed_from_u64(seed),
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// Exponential with the given rate (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(
            rate.is_finite() && rate > 0.0,
            "rate must be finite and > 0, got {rate}"
        );
        // Inverse CDF on 1-U in (0,1]: avoids ln(0).
        let u: f64 = 1.0 - self.rng.next_f64();
        -u.ln() / rate
    }

    /// Unit-mean exponential — the paper's call holding time.
    pub fn holding_time(&mut self) -> f64 {
        self.exp(1.0)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // Fixed-point multiply (Lemire): maps 64 random bits onto [0, n)
        // with bias at most n/2^64 — immaterial for the n ≤ a few hundred
        // used here, and cheaper than rejection sampling.
        ((u128::from(self.rng.next_u64()) * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let f = StreamFactory::new(7);
        let mut a = f.stream(3);
        let mut b = f.stream(3);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_ids_differ() {
        let f = StreamFactory::new(7);
        let mut a = f.stream(1);
        let mut b = f.stream(2);
        let va: Vec<f64> = (0..10).map(|_| a.uniform()).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.uniform()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_masters_differ() {
        let mut a = StreamFactory::new(1).stream(0);
        let mut b = StreamFactory::new(2).stream(0);
        let va: Vec<f64> = (0..10).map(|_| a.uniform()).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.uniform()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn exponential_has_right_mean_and_support() {
        let mut s = RngStream::from_seed(42);
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = s.exp(2.0);
            assert!(x > 0.0 && x.is_finite());
            sum += x;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 0.5).abs() < 0.01,
            "mean of Exp(2) should be 0.5, got {mean}"
        );
    }

    #[test]
    fn holding_time_is_unit_mean() {
        let mut s = RngStream::from_seed(1);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| s.holding_time()).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "got {mean}");
    }

    #[test]
    fn uniform_is_in_unit_interval_and_roughly_uniform() {
        let mut s = RngStream::from_seed(9);
        let n = 100_000;
        let mut buckets = [0usize; 10];
        for _ in 0..n {
            let u = s.uniform();
            assert!((0.0..1.0).contains(&u));
            buckets[(u * 10.0) as usize] += 1;
        }
        for &b in &buckets {
            let frac = b as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "bucket fraction {frac}");
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut s = RngStream::from_seed(5);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            let k = s.below(3);
            assert!(k < 3);
            counts[k] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 30_000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "bucket fraction {frac}");
        }
        assert_eq!(s.below(1), 0);
    }

    #[test]
    fn poisson_process_via_exponential_gaps() {
        // The count of Exp(λ)-gap arrivals in [0, T) is ~Poisson(λT).
        let mut s = RngStream::from_seed(11);
        let (rate, horizon) = (5.0, 1000.0);
        let mut t = 0.0;
        let mut count = 0u64;
        loop {
            t += s.exp(rate);
            if t >= horizon {
                break;
            }
            count += 1;
        }
        let expected = rate * horizon;
        let sd = expected.sqrt();
        assert!(
            (count as f64 - expected).abs() < 5.0 * sd,
            "count {count} vs expected {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "rate must be finite")]
    fn zero_rate_panics() {
        RngStream::from_seed(0).exp(0.0);
    }
}
