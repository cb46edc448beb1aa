//! Primary-path selection: the state-independent first tier.
//!
//! Two selectors are implemented:
//!
//! * [`PrimaryAssignment::min_hop`] — the paper's default: the unique
//!   minimum-hop path per ordered pair (deterministic tie-break).
//! * [`min_loss_splits`] — the §4.2.2 variant: primary flows chosen "so as
//!   to minimize overall system blocking of primary calls, under the
//!   independent link assumption", i.e. minimise the convex separable
//!   objective `Σ_k Λ_k·B(Λ_k, C_k)` over how each pair splits its demand
//!   across its loop-free paths. The optimum generally *bifurcates*: a
//!   pair routes over several paths with probabilities. The paper solves
//!   this with conjugate gradients; we use Frank–Wolfe flow deviation
//!   (each iteration routes a shrinking fraction of all demand onto the
//!   paths that are cheapest under the marginal costs
//!   `d/dΛ [Λ·B(Λ, C)]`), which converges to the same global optimum of
//!   this convex program.

use altroute_netgraph::graph::{LinkId, Topology};
use altroute_netgraph::paths::{loop_free_paths, min_hop_primaries, min_hop_tree, Path};
use altroute_netgraph::traffic::TrafficMatrix;
use altroute_teletraffic::loss::{lost_traffic, lost_traffic_derivative};

/// A (possibly bifurcated) primary assignment: for each ordered pair,
/// a set of paths with routing probabilities summing to 1.
///
/// Pairs are indexed row-major (`src * n + dst`); diagonal entries and
/// unreachable pairs have no paths.
///
/// Every call looks its pair up here once, so the table is one flat CSR
/// layout with no allocation per pair or per path, and a lookup reads a
/// few dense columns: `links` holds every path's links back to back, path
/// `k` owns `links[link_ends[k]..link_ends[k + 1]]`, and pair `idx` owns
/// the paths from `pairs[idx].path` up to `pairs[idx + 1].path`. Each pair
/// entry also records where its links start, so a pair with one path —
/// every pair of a min-hop table — finds its links from its own two
/// entries without reading `link_ends`.
#[derive(Debug, Clone)]
pub struct PrimaryAssignment {
    n: usize,
    /// Per pair, where its paths and their links start; `n² + 1` entries.
    pairs: Vec<PairStart>,
    /// Per path, where its links end, after a leading 0.
    link_ends: Vec<u32>,
    /// Per path, its routing probability.
    fractions: Vec<f64>,
    /// Per path, the running sum of its pair's fractions up to and
    /// including it.
    cumulative: Vec<f64>,
    /// Every path's links, back to back.
    links: Vec<LinkId>,
}

/// Where a pair's paths, and the links of the first of them, start.
#[derive(Debug, Clone, Copy)]
struct PairStart {
    path: u32,
    link: u32,
}

impl PrimaryAssignment {
    fn empty(n: usize) -> Self {
        let mut pairs = Vec::with_capacity(n * n + 1);
        pairs.push(PairStart { path: 0, link: 0 });
        Self {
            n,
            pairs,
            link_ends: vec![0],
            fractions: Vec::new(),
            cumulative: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Closes the links appended since the last path as one path.
    fn end_path(&mut self, fraction: f64, cumulative: f64) {
        self.link_ends.push(offset(self.links.len()));
        self.fractions.push(fraction);
        self.cumulative.push(cumulative);
    }

    /// Closes the paths appended since the last pair as the next pair.
    fn end_pair(&mut self) {
        self.pairs.push(PairStart {
            path: offset(self.fractions.len()),
            link: offset(self.links.len()),
        });
    }

    /// The links of path `k`.
    fn path(&self, k: usize) -> &[LinkId] {
        &self.links[self.link_ends[k] as usize..self.link_ends[k + 1] as usize]
    }

    /// The paths of a pair (row-major index), as an index range.
    fn paths(&self, pair: usize) -> std::ops::Range<usize> {
        self.pairs[pair].path as usize..self.pairs[pair + 1].path as usize
    }

    /// The paper's default: the unique minimum-hop primary per pair
    /// (probability 1).
    pub fn min_hop(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        let mut table = Self::empty(n);
        for i in 0..n {
            let tree = min_hop_tree(topo, i);
            for parent in &tree {
                if let Some(mut l) = *parent {
                    // Walk back to the root, then flip the walk in place.
                    let start = table.links.len();
                    loop {
                        table.links.push(l);
                        match tree[topo.link(l).src] {
                            Some(up) => l = up,
                            None => break,
                        }
                    }
                    table.links[start..].reverse();
                    table.end_path(1.0, 1.0);
                }
                table.end_pair();
            }
        }
        table
    }

    /// Builds an assignment from explicit splits (validated).
    ///
    /// # Panics
    ///
    /// Panics if `splits.len() != n*n`, a non-empty split's fractions do
    /// not sum to ~1, any fraction is negative, or a path does not match
    /// its pair.
    pub fn from_splits(topo: &Topology, splits: Vec<Vec<(Path, f64)>>) -> Self {
        let n = topo.num_nodes();
        assert_eq!(splits.len(), n * n, "one split per ordered pair");
        let mut table = Self::empty(n);
        for (idx, split) in splits.iter().enumerate() {
            let (i, j) = (idx / n, idx % n);
            if !split.is_empty() {
                let total: f64 = split.iter().map(|(_, f)| f).sum();
                assert!(
                    (total - 1.0).abs() < 1e-6,
                    "pair ({i}, {j}) fractions sum to {total}"
                );
            }
            // `choose` compares `u` against these running sums, added left
            // to right in split order.
            let mut acc = 0.0;
            for (p, f) in split {
                assert!(*f >= 0.0, "negative fraction for pair ({i}, {j})");
                assert_eq!((p.src(), p.dst()), (i, j), "path endpoints mismatch");
                acc += f;
                table.links.extend_from_slice(p.links());
                table.end_path(*f, acc);
            }
            table.end_pair();
        }
        table
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The split for an ordered pair: each path's links with its routing
    /// probability, in split order (empty when unreachable/diagonal).
    pub fn split(
        &self,
        src: usize,
        dst: usize,
    ) -> impl ExactSizeIterator<Item = (&[LinkId], f64)> + '_ {
        self.paths(src * self.n + dst)
            .map(|k| (self.path(k), self.fractions[k]))
    }

    /// Whether `links` is one of the pair's primary paths. For two
    /// loop-free paths from one source, equal link sequences mean equal
    /// paths.
    pub fn is_primary(&self, src: usize, dst: usize, links: &[LinkId]) -> bool {
        self.split(src, dst).any(|(p, _)| p == links)
    }

    /// Whether any pair bifurcates over more than one path.
    pub fn is_bifurcated(&self) -> bool {
        self.pairs.windows(2).any(|w| w[1].path - w[0].path > 1)
    }

    /// Picks the primary path for a call using a uniform random number in
    /// `[0, 1)` — the state-independent probabilistic choice of §4.2.2 —
    /// and returns its links.
    ///
    /// Returns `None` for pairs without paths.
    pub fn choose(&self, src: usize, dst: usize, u: f64) -> Option<&[LinkId]> {
        let idx = src * self.n + dst;
        let (start, end) = (self.pairs[idx], self.pairs[idx + 1]);
        let (first, last) = (start.path as usize, end.path as usize);
        match last - first {
            0 => None,
            1 => Some(&self.links[start.link as usize..end.link as usize]),
            _ => {
                // The first path whose running sum exceeds `u`; the last
                // path catches whatever rounding leaves past the final sum.
                let k = self.cumulative[first..last - 1]
                    .iter()
                    .position(|&c| u < c)
                    .map_or(last - 1, |k| first + k);
                Some(self.path(k))
            }
        }
    }

    /// The expected per-link loads `Λ^k` that `traffic` induces on this
    /// assignment (Eq. 1, generalised to bifurcated flows).
    ///
    /// # Panics
    ///
    /// Panics if a pair with demand has no primary path.
    pub fn link_loads(&self, topo: &Topology, traffic: &TrafficMatrix) -> Vec<f64> {
        let demands = traffic.demands().map(|(i, j, t)| {
            let pair = i * self.n + j;
            assert!(
                !self.paths(pair).is_empty(),
                "pair ({i}, {j}) has demand but no primary path"
            );
            (pair, t)
        });
        self.link_loads_from(topo.num_links(), demands)
    }

    /// Eq. 1 over per-pair offered loads, the one `Λ^k` sum of the plan
    /// and the online controller: each `(pair, erlangs)` of `offered`
    /// (pairs row-major, `src * n + dst`) adds `erlangs · f` to every link
    /// of each of the pair's primary paths, `f` being the path's split
    /// fraction; a pair without a primary adds nothing. Loads add up in
    /// the order given, and a min-hop table's fractions are exactly 1.
    ///
    /// # Panics
    ///
    /// Panics if a pair index or one of its links is out of range.
    pub fn link_loads_from(
        &self,
        num_links: usize,
        offered: impl IntoIterator<Item = (usize, f64)>,
    ) -> Vec<f64> {
        let mut loads = vec![0.0; num_links];
        self.link_loads_into(&mut loads, offered);
        loads
    }

    /// [`link_loads_from`](Self::link_loads_from) into `loads`, one entry
    /// per link, which it zeroes first: the same sums in the same order,
    /// without a fresh vector.
    ///
    /// # Panics
    ///
    /// As [`link_loads_from`](Self::link_loads_from).
    pub fn link_loads_into(
        &self,
        loads: &mut [f64],
        offered: impl IntoIterator<Item = (usize, f64)>,
    ) {
        loads.fill(0.0);
        for (pair, erlangs) in offered {
            for k in self.paths(pair) {
                let load = erlangs * self.fractions[k];
                for &l in self.path(k) {
                    loads[l] += load;
                }
            }
        }
    }
}

/// A table offset; the table indexes its columns with `u32` to keep them
/// dense.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("primary table exceeds u32 offsets")
}

/// Options for the min-loss Frank–Wolfe optimiser.
#[derive(Debug, Clone, Copy)]
pub struct MinLossOptions {
    /// Candidate paths per pair: all loop-free paths up to this many hops.
    pub max_hops: usize,
    /// Frank–Wolfe iterations.
    pub iterations: usize,
    /// Split fractions below this are dropped and the rest renormalised.
    pub prune_below: f64,
}

impl Default for MinLossOptions {
    fn default() -> Self {
        Self {
            max_hops: 11,
            iterations: 300,
            prune_below: 1e-3,
        }
    }
}

/// Minimises `Σ_k Λ_k·B(Λ_k, C_k)` over per-pair path splits by
/// Frank–Wolfe flow deviation; returns the bifurcated primary assignment.
///
/// # Panics
///
/// Panics if a pair with demand has no loop-free path within
/// `opts.max_hops`, or sizes mismatch.
pub fn min_loss_splits(
    topo: &Topology,
    traffic: &TrafficMatrix,
    opts: MinLossOptions,
) -> PrimaryAssignment {
    let n = topo.num_nodes();
    assert_eq!(traffic.num_nodes(), n, "traffic matrix size mismatch");
    // Candidate path sets per demand pair.
    struct Pair {
        idx: usize,
        demand: f64,
        paths: Vec<Path>,
        frac: Vec<f64>,
    }
    let mut pairs: Vec<Pair> = Vec::new();
    for (i, j, t) in traffic.demands() {
        let paths = loop_free_paths(topo, i, j, opts.max_hops);
        assert!(
            !paths.is_empty(),
            "pair ({i}, {j}) has demand but no path within {} hops",
            opts.max_hops
        );
        let mut frac = vec![0.0; paths.len()];
        frac[0] = 1.0; // start on the shortest path
        pairs.push(Pair {
            idx: i * n + j,
            demand: t,
            paths,
            frac,
        });
    }
    let caps: Vec<u32> = topo.links().iter().map(|l| l.capacity).collect();
    let mut loads = vec![0.0; topo.num_links()];
    let recompute_loads = |pairs: &[Pair], loads: &mut Vec<f64>| {
        for v in loads.iter_mut() {
            *v = 0.0;
        }
        for p in pairs {
            for (path, &f) in p.paths.iter().zip(&p.frac) {
                if f > 0.0 {
                    for &l in path.links() {
                        loads[l] += p.demand * f;
                    }
                }
            }
        }
    };
    recompute_loads(&pairs, &mut loads);
    for it in 0..opts.iterations {
        // Marginal link costs at the current loads.
        let weights: Vec<f64> = loads
            .iter()
            .zip(&caps)
            .map(|(&a, &c)| lost_traffic_derivative(a, c))
            .collect();
        // All-or-nothing assignment onto each pair's cheapest candidate.
        let gamma = 2.0 / (it as f64 + 2.0);
        for p in &mut pairs {
            let mut best = 0;
            let mut best_cost = f64::INFINITY;
            for (k, path) in p.paths.iter().enumerate() {
                let cost: f64 = path.links().iter().map(|&l| weights[l]).sum();
                if cost < best_cost {
                    best_cost = cost;
                    best = k;
                }
            }
            for f in &mut p.frac {
                *f *= 1.0 - gamma;
            }
            p.frac[best] += gamma;
        }
        recompute_loads(&pairs, &mut loads);
    }
    // Prune negligible fractions and renormalise.
    let mut splits: Vec<Vec<(Path, f64)>> = vec![Vec::new(); n * n];
    for p in pairs {
        let kept: Vec<(Path, f64)> = p
            .paths
            .into_iter()
            .zip(p.frac)
            .filter(|(_, f)| *f >= opts.prune_below)
            .collect();
        let total: f64 = kept.iter().map(|(_, f)| f).sum();
        splits[p.idx] = kept
            .into_iter()
            .map(|(path, f)| (path, f / total))
            .collect();
    }
    // Pairs without demand still need a primary for completeness: fall
    // back to min-hop so the assignment covers every reachable pair.
    let fallback = min_hop_primaries(topo);
    for (idx, split) in splits.iter_mut().enumerate() {
        if split.is_empty() {
            if let Some(p) = &fallback[idx] {
                split.push((p.clone(), 1.0));
            }
        }
    }
    PrimaryAssignment::from_splits(topo, splits)
}

/// The objective value `Σ_k Λ_k·B(Λ_k, C_k)` for an assignment — exposed
/// for tests and the experiment binaries.
pub fn expected_primary_loss(topo: &Topology, loads: &[f64]) -> f64 {
    assert_eq!(loads.len(), topo.num_links(), "one load per link");
    loads
        .iter()
        .zip(topo.links())
        .map(|(&a, l)| lost_traffic(a, l.capacity))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use altroute_netgraph::topologies;

    #[test]
    fn min_hop_assignment_is_unsplit() {
        let topo = topologies::nsfnet(100);
        let a = PrimaryAssignment::min_hop(&topo);
        assert!(!a.is_bifurcated());
        for (i, j) in topo.ordered_pairs() {
            let s: Vec<_> = a.split(i, j).collect();
            assert_eq!(s.len(), 1, "{i}->{j}");
            assert_eq!(s[0].1, 1.0);
            let (first, last) = (s[0].0[0], *s[0].0.last().unwrap());
            assert_eq!((topo.link(first).src, topo.link(last).dst), (i, j));
        }
        assert_eq!(a.split(3, 3).len(), 0);
    }

    #[test]
    fn choose_respects_probabilities() {
        let topo = topologies::full_mesh(3, 10);
        let direct = Path::from_nodes(&topo, &[0, 1]).unwrap();
        let via2 = Path::from_nodes(&topo, &[0, 2, 1]).unwrap();
        let mut splits = vec![Vec::new(); 9];
        splits[1] = vec![(direct.clone(), 0.3), (via2.clone(), 0.7)];
        // Other pairs need their own trivial splits for validity.
        for (i, j) in [(0, 2), (1, 0), (1, 2), (2, 0), (2, 1)] {
            splits[i * 3 + j] = vec![(Path::from_nodes(&topo, &[i, j]).unwrap(), 1.0)];
        }
        let a = PrimaryAssignment::from_splits(&topo, splits);
        assert!(a.is_bifurcated());
        assert_eq!(a.choose(0, 1, 0.0).unwrap(), direct.links());
        assert_eq!(a.choose(0, 1, 0.29).unwrap(), direct.links());
        assert_eq!(a.choose(0, 1, 0.31).unwrap(), via2.links());
        assert_eq!(a.choose(0, 1, 0.999).unwrap(), via2.links());
        assert!(a.choose(1, 1, 0.5).is_none());
    }

    #[test]
    fn link_loads_match_traffic_eq1() {
        let topo = topologies::full_mesh(4, 100);
        let m = TrafficMatrix::uniform(4, 9.0);
        let a = PrimaryAssignment::min_hop(&topo);
        let loads = a.link_loads(&topo, &m);
        for &l in &loads {
            assert!((l - 9.0).abs() < 1e-12);
        }
    }

    #[test]
    fn min_loss_balances_a_two_path_bottleneck() {
        // Two nodes joined by a direct small link and a two-hop detour of
        // large links: with heavy demand the optimum splits the flow.
        let mut topo = Topology::new();
        topo.add_nodes(3);
        topo.add_duplex(0, 1, 20); // direct, small
        topo.add_duplex(0, 2, 100);
        topo.add_duplex(2, 1, 100);
        let mut m = TrafficMatrix::zero(3);
        m.set(0, 1, 40.0);
        let a = min_loss_splits(
            &topo,
            &m,
            MinLossOptions {
                max_hops: 2,
                ..Default::default()
            },
        );
        let s: Vec<_> = a.split(0, 1).collect();
        assert!(s.len() == 2, "expected bifurcation, got {s:?}");
        // The detour should carry a substantial share.
        let detour_frac: f64 = s
            .iter()
            .filter(|(p, _)| p.len() == 2)
            .map(|(_, f)| *f)
            .sum();
        assert!(
            detour_frac > 0.3 && detour_frac < 1.0,
            "detour fraction {detour_frac}"
        );
        // The objective must beat pure min-hop.
        let min_hop = PrimaryAssignment::min_hop(&topo);
        let loss_opt = expected_primary_loss(&topo, &a.link_loads(&topo, &m));
        let loss_mh = expected_primary_loss(&topo, &min_hop.link_loads(&topo, &m));
        assert!(
            loss_opt < loss_mh * 0.9,
            "optimised {loss_opt} should beat min-hop {loss_mh}"
        );
    }

    #[test]
    fn min_loss_on_light_load_stays_near_min_hop() {
        // With light traffic the marginal costs are tiny everywhere and
        // shortest paths win; objective can't be (much) worse than min-hop.
        let topo = topologies::nsfnet(100);
        let m = TrafficMatrix::uniform(12, 1.0);
        let a = min_loss_splits(
            &topo,
            &m,
            MinLossOptions {
                max_hops: 11,
                iterations: 100,
                prune_below: 1e-3,
            },
        );
        let min_hop = PrimaryAssignment::min_hop(&topo);
        let loss_opt = expected_primary_loss(&topo, &a.link_loads(&topo, &m));
        let loss_mh = expected_primary_loss(&topo, &min_hop.link_loads(&topo, &m));
        assert!(loss_opt <= loss_mh * 1.01 + 1e-9);
    }

    #[test]
    fn min_loss_improves_on_min_hop_for_nominal_nsfnet() {
        // §4.2.2: "The results for the case without alternate routing did
        // better than in the minimum-hop primary path scenario."
        let topo = topologies::nsfnet(100);
        let m = altroute_netgraph::estimate::nsfnet_nominal_traffic().traffic;
        let a = min_loss_splits(
            &topo,
            &m,
            MinLossOptions {
                max_hops: 11,
                iterations: 200,
                prune_below: 1e-3,
            },
        );
        let min_hop = PrimaryAssignment::min_hop(&topo);
        let loss_opt = expected_primary_loss(&topo, &a.link_loads(&topo, &m));
        let loss_mh = expected_primary_loss(&topo, &min_hop.link_loads(&topo, &m));
        assert!(
            loss_opt < loss_mh,
            "optimised {loss_opt} should beat min-hop {loss_mh}"
        );
        assert!(a.is_bifurcated(), "nominal NSFNet optimum should bifurcate");
    }

    #[test]
    fn split_fractions_sum_to_one_after_pruning() {
        let topo = topologies::nsfnet(100);
        let m = altroute_netgraph::estimate::nsfnet_nominal_traffic().traffic;
        let a = min_loss_splits(
            &topo,
            &m,
            MinLossOptions {
                max_hops: 11,
                iterations: 60,
                prune_below: 1e-2,
            },
        );
        for (i, j) in topo.ordered_pairs() {
            let total: f64 = a.split(i, j).map(|(_, f)| f).sum();
            assert!((total - 1.0).abs() < 1e-9, "{i}->{j} sums to {total}");
        }
    }

    #[test]
    #[should_panic(expected = "fractions sum")]
    fn invalid_split_fractions_panic() {
        let topo = topologies::full_mesh(3, 10);
        let mut splits = vec![Vec::new(); 9];
        splits[1] = vec![(Path::from_nodes(&topo, &[0, 1]).unwrap(), 0.4)];
        PrimaryAssignment::from_splits(&topo, splits);
    }
}
