//! Node-cut enumeration and the network-wide Erlang bound (paper §4).
//!
//! For every node subset `S`, pool the capacity crossing the cut in each
//! direction and the traffic that must cross it; the weighted Erlang
//! blocking of the pooled links lower-bounds the average network blocking
//! of *any* routing scheme (even with re-packing). The network bound is
//! the maximum over all cuts. The per-cut arithmetic lives in
//! [`altroute_teletraffic::bound`]; this module does the graph-side
//! enumeration.

use crate::graph::Topology;
use crate::traffic::TrafficMatrix;
use altroute_teletraffic::bound::{cut_bound, CutLoad};

/// The Erlang bound of a network: the best (largest) cut-set lower bound
/// on average blocking, with the cut that attains it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErlangBound {
    /// The lower bound on average network blocking, in `[0, 1]`.
    pub bound: f64,
    /// Bitmask over nodes of the maximising cut `S` (bit `i` set ⇔ node
    /// `i ∈ S`).
    pub cut_mask: u32,
}

/// Computes the traffic and pooled capacity crossing the cut given by
/// `mask` (bit `i` set ⇔ node `i` inside the cut).
pub fn cut_load(topo: &Topology, traffic: &TrafficMatrix, mask: u32) -> CutLoad {
    CutSides::new(topo, traffic).load(mask)
}

/// The network as [`cut_load`] reads it, flattened once for a sweep over
/// many masks: each link's `(src bit, dst bit, capacity)` and each
/// demand's `(src bit, dst bit, Erlangs)`, in `links()` and `demands()`
/// order, so every mask sums in the order `cut_load` always has.
struct CutSides {
    links: Vec<(u32, u32, u32)>,
    demands: Vec<(u32, u32, f64)>,
}

impl CutSides {
    fn new(topo: &Topology, traffic: &TrafficMatrix) -> Self {
        Self {
            links: topo
                .links()
                .iter()
                .map(|l| (1 << l.src, 1 << l.dst, l.capacity))
                .collect(),
            demands: traffic
                .demands()
                .map(|(i, j, t)| (1 << i, 1 << j, t))
                .collect(),
        }
    }

    /// The traffic and pooled capacity crossing the cut `mask`.
    fn load(&self, mask: u32) -> CutLoad {
        let inside = |bit: u32| mask & bit != 0;
        let mut cl = CutLoad {
            traffic_out: 0.0,
            capacity_out: 0,
            traffic_in: 0.0,
            capacity_in: 0,
        };
        for &(src, dst, capacity) in &self.links {
            match (inside(src), inside(dst)) {
                (true, false) => cl.capacity_out += capacity,
                (false, true) => cl.capacity_in += capacity,
                _ => {}
            }
        }
        for &(i, j, t) in &self.demands {
            match (inside(i), inside(j)) {
                (true, false) => cl.traffic_out += t,
                (false, true) => cl.traffic_in += t,
                _ => {}
            }
        }
        cl
    }
}

/// An upper bound on [`erlang_b`](altroute_teletraffic::erlang::erlang_b)
/// `(a, capacity)` from two logarithms and one exponential instead of
/// the `capacity`-step recurrence; 1 where none applies cheaply.
///
/// `B(a, C) = P(X = C) / P(X ≤ C)` for `X ~ Poisson(a)`. Once
/// `C ≥ a + 1`, `C` lies above the median of `X` (which is below
/// `a + 1/3`), so `P(X ≤ C) ≥ 1/2`, and Robbins' `C! ≥ √(2πC) (C/e)^C`
/// bounds `P(X = C)` by `exp(C − a − C ln(C/a) − ½ ln(2πC))`. The bound
/// is doubled once more so rounding in either computation cannot put the
/// recurrence's result above it.
fn erlang_b_ceiling(a: f64, capacity: u32) -> f64 {
    let c = f64::from(capacity);
    if c < a + 1.0 {
        return 1.0;
    }
    let ln_p = c - a - c * (c / a).ln() - 0.5 * (2.0 * std::f64::consts::PI * c).ln();
    (4.0 * ln_p.exp()).min(1.0)
}

/// An upper bound on [`cut_bound`]`(cut, total)`: each direction's
/// traffic share times the [`erlang_b_ceiling`] of its pooled link, in
/// `cut_bound`'s float operations, so the computed ceiling is never below
/// the computed bound.
fn cut_ceiling(cut: CutLoad, total: f64) -> f64 {
    cut.traffic_out / total * erlang_b_ceiling(cut.traffic_out, cut.capacity_out)
        + cut.traffic_in / total * erlang_b_ceiling(cut.traffic_in, cut.capacity_in)
}

/// The Erlang bound over all `2^n − 2` non-trivial node cuts.
///
/// Complementary cuts give identical values (the two directions swap), so
/// only masks with node 0 outside the cut are enumerated. A cut whose
/// closed-form ceiling (a Poisson-tail bound on each direction's Erlang
/// B) is already below the best bound so far cannot replace it and skips
/// the Erlang-B recurrences, so the result (bound and cut) is the
/// exhaustive maximum's.
///
/// # Panics
///
/// Panics if the network has more than 24 nodes (enumeration would be
/// prohibitive; the paper's networks have 4 and 12) or the matrix size
/// mismatches.
pub fn erlang_bound(topo: &Topology, traffic: &TrafficMatrix) -> ErlangBound {
    let n = topo.num_nodes();
    assert!(n >= 2, "need at least two nodes");
    assert!(
        n <= 24,
        "cut enumeration supports at most 24 nodes, got {n}"
    );
    assert_eq!(traffic.num_nodes(), n, "traffic matrix size mismatch");
    let total = traffic.total();
    let mut best = ErlangBound {
        bound: 0.0,
        cut_mask: 0,
    };
    let sides = CutSides::new(topo, traffic);
    // Enumerate subsets of {1, …, n−1}: node 0 always outside S.
    let limit: u32 = 1 << (n - 1);
    for rest in 1..limit {
        let mask = rest << 1;
        let cl = sides.load(mask);
        // Pruning compares against a normal best only: subnormal
        // recurrence results carry no relative accuracy.
        if best.bound >= f64::MIN_POSITIVE && cut_ceiling(cl, total) < best.bound {
            continue;
        }
        let b = cut_bound(cl, total);
        if b > best.bound {
            best = ErlangBound {
                bound: b,
                cut_mask: mask,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;
    use altroute_teletraffic::erlang::erlang_b;

    #[test]
    fn two_node_network_bound_is_erlang_b() {
        let mut topo = Topology::new();
        topo.add_nodes(2);
        topo.add_duplex(0, 1, 10);
        let mut m = TrafficMatrix::zero(2);
        m.set(0, 1, 9.0);
        m.set(1, 0, 9.0);
        let eb = erlang_bound(&topo, &m);
        // Only one cut: {1}. Both directions offered 9 Erlangs on 10 ckts.
        assert!((eb.bound - erlang_b(9.0, 10)).abs() < 1e-12);
        assert_eq!(eb.cut_mask, 0b10);
    }

    #[test]
    fn isolating_cut_dominates_on_uniform_k4() {
        // For K4 uniform with per-pair load a and C per link: the cut
        // isolating one node pools 3C against 3a in each direction.
        let topo = topologies::full_mesh(4, 100);
        let m = TrafficMatrix::uniform(4, 95.0);
        let eb = erlang_bound(&topo, &m);
        let single = erlang_b(3.0 * 95.0, 300);
        let weight = (3.0 * 95.0) / m.total();
        let expect = 2.0 * weight * single;
        assert!((eb.bound - expect).abs() < 1e-9, "{} vs {expect}", eb.bound);
        // The maximising cut isolates a single node.
        assert_eq!(eb.cut_mask.count_ones(), 1);
    }

    #[test]
    fn bound_scales_with_load() {
        let topo = topologies::nsfnet(100);
        let nominal = crate::estimate::nsfnet_nominal_traffic().traffic;
        let low = erlang_bound(&topo, &nominal.scaled(0.5)).bound;
        let mid = erlang_bound(&topo, &nominal).bound;
        let high = erlang_bound(&topo, &nominal.scaled(1.5)).bound;
        assert!(low <= mid && mid <= high);
        assert!(high > 0.05, "heavily overloaded NSFNet must show blocking");
    }

    #[test]
    fn nsfnet_nominal_bound_is_meaningful() {
        // At the nominal load several links exceed capacity (Λ up to 167 on
        // C = 100), so the bound must be clearly positive but below 1.
        let topo = topologies::nsfnet(100);
        let nominal = crate::estimate::nsfnet_nominal_traffic().traffic;
        let eb = erlang_bound(&topo, &nominal);
        assert!(eb.bound > 0.005 && eb.bound < 0.5, "bound {}", eb.bound);
        assert_ne!(eb.cut_mask, 0);
    }

    #[test]
    fn zero_traffic_bound_is_zero() {
        let topo = topologies::full_mesh(3, 10);
        let eb = erlang_bound(&topo, &TrafficMatrix::zero(3));
        assert_eq!(eb.bound, 0.0);
    }

    #[test]
    fn cut_load_counts_both_directions() {
        let topo = topologies::line(3, 7);
        let mut m = TrafficMatrix::zero(3);
        m.set(0, 2, 4.0);
        m.set(2, 0, 1.0);
        // Cut S = {0}: out crosses 0->1, in crosses 1->0.
        let cl = cut_load(&topo, &m, 0b001);
        assert_eq!(cl.capacity_out, 7);
        assert_eq!(cl.capacity_in, 7);
        assert!((cl.traffic_out - 4.0).abs() < 1e-12);
        assert!((cl.traffic_in - 1.0).abs() < 1e-12);
        // Cut S = {0, 2}: both links of the middle node cross.
        let cl = cut_load(&topo, &m, 0b101);
        assert_eq!(cl.capacity_out, 14);
        assert_eq!(cl.capacity_in, 14);
        // 0->2 and 2->0 both start and end inside S: they do not cross.
        assert_eq!(cl.traffic_out, 0.0);
        assert_eq!(cl.traffic_in, 0.0);
    }

    #[test]
    #[should_panic(expected = "at most 24 nodes")]
    fn too_many_nodes_panics() {
        let topo = topologies::ring(25, 1);
        erlang_bound(&topo, &TrafficMatrix::zero(25));
    }
}
