//! Per-link shadow prices for separable state-dependent routing
//! (the Ott–Krishnan baseline of the paper's related work, §1 and §4.2.2).
//!
//! Ott & Krishnan approximate the network-wide shadow price of accepting a
//! call on a path by a sum of per-link prices, each a function of the
//! link's current occupancy. For an M/M/C/C link of offered (primary) load
//! `Λ`, the exact expected increase in infinite-horizon lost calls caused
//! by occupying one extra circuit while the link is in state `s` is
//!
//! `p(s) = B(Λ, C) / B(Λ, s + 1)`,
//!
//! the very quantity the paper's Theorem 1 derives (Eq. 3 with the exact
//! `E[τ] = 1/(ν·B(ν, s+1))` of the no-overflow chain). The routing rule is:
//! route the call on the candidate path minimising `Σ_k p_k(s_k)`; block it
//! if even the minimum exceeds the call's revenue (1 for the single-service
//! case studied here).
//!
//! Per the paper's §4.2.2, we drive the prices with the *unreduced* primary
//! loads `Λ^k`; the reduced-load alternative is available through
//! [`crate::fixed_point`].

use crate::erlang::inverse_erlang_b_log_table;

/// Precomputed shadow prices `p(0), …, p(C−1)` for one link, plus the
/// convention that a full link has infinite price.
///
/// Prices are non-decreasing in the occupancy and bounded by 1:
/// occupying a circuit on a nearly full link is nearly as bad as losing a
/// primary call outright; on an empty link it costs almost nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowPriceTable {
    prices: Vec<f64>,
    capacity: u32,
}

impl ShadowPriceTable {
    /// Builds the table for a link of `capacity` circuits offered `load`
    /// Erlangs of primary traffic.
    ///
    /// A zero load gives all-zero prices (occupying a circuit can cost
    /// nothing if no primary call ever wants it).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `load` is negative/non-finite.
    pub fn new(load: f64, capacity: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            load.is_finite() && load >= 0.0,
            "load must be finite and >= 0, got {load}"
        );
        let prices = if load == 0.0 {
            vec![0.0; capacity as usize]
        } else {
            let log_y = inverse_erlang_b_log_table(load, capacity);
            let log_bc = -log_y[capacity as usize];
            (0..capacity as usize)
                // p(s) = B(Λ,C)/B(Λ,s+1) = exp(ln B(Λ,C) + ln y_{s+1})
                .map(|s| (log_bc + log_y[s + 1]).exp())
                .collect()
        };
        Self { prices, capacity }
    }

    /// The shadow price of accepting a call while the link holds
    /// `occupancy` calls. Returns `f64::INFINITY` when the link is full
    /// (`occupancy >= capacity`): the call physically cannot be carried.
    pub fn price(&self, occupancy: u32) -> f64 {
        if occupancy >= self.capacity {
            f64::INFINITY
        } else {
            self.prices[occupancy as usize]
        }
    }

    /// Link capacity the table was built for.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// All finite prices, indexed by occupancy `0..capacity`.
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erlang::erlang_b;

    #[test]
    fn prices_match_definition() {
        let load = 74.0;
        let cap = 100;
        let t = ShadowPriceTable::new(load, cap);
        let bc = erlang_b(load, cap);
        for s in 0..cap {
            let expect = bc / erlang_b(load, s + 1);
            let got = t.price(s);
            assert!(
                (got - expect).abs() < 1e-9 * expect.max(1e-12),
                "s={s}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn prices_are_monotone_and_bounded() {
        for &(load, cap) in &[(10.0, 20u32), (74.0, 100), (120.0, 100)] {
            let t = ShadowPriceTable::new(load, cap);
            let mut prev = 0.0;
            for s in 0..cap {
                let p = t.price(s);
                assert!(p >= prev - 1e-15, "price must not decrease with occupancy");
                assert!(p > 0.0 && p <= 1.0 + 1e-12, "price in (0, 1]");
                prev = p;
            }
            // The last accepting state has price exactly 1: taking the final
            // circuit when Λ-load primaries want it costs B(Λ,C)/B(Λ,C) = 1.
            assert!((t.price(cap - 1) - 1.0).abs() < 1e-12);
            assert!(t.price(cap).is_infinite());
            assert!(t.price(cap + 5).is_infinite());
        }
    }

    #[test]
    fn zero_load_prices_are_zero() {
        let t = ShadowPriceTable::new(0.0, 10);
        for s in 0..10 {
            assert_eq!(t.price(s), 0.0);
        }
        assert!(t.price(10).is_infinite());
    }

    #[test]
    fn heavier_load_raises_prices() {
        let light = ShadowPriceTable::new(30.0, 100);
        let heavy = ShadowPriceTable::new(95.0, 100);
        for s in 0..100 {
            assert!(heavy.price(s) >= light.price(s) - 1e-15, "s={s}");
        }
    }

    #[test]
    fn prices_relate_to_theorem1_bound() {
        // Theorem 1's bound with protection r is exactly the price at the
        // protection threshold occupancy: p(C−r−1) = B(Λ,C)/B(Λ,C−r).
        let load = 80.0;
        let cap = 100;
        let t = ShadowPriceTable::new(load, cap);
        for r in 0..cap {
            let bound = crate::reservation::shadow_price_bound(load, cap, r);
            let price = t.price(cap - r - 1);
            assert!((bound - price).abs() < 1e-9 * bound.max(1e-12), "r={r}");
        }
    }
}
