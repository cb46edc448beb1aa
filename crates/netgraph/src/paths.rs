//! Path algorithms: minimum-hop routing, exhaustive loop-free alternate
//! path enumeration, and Dijkstra.
//!
//! The paper's base state-independent policy routes every ordered pair on
//! its unique **minimum-hop** path ([`min_hop_path`]), computed here by
//! breadth-first search with a deterministic tie-break (prefer the
//! lexicographically smallest node sequence), standing in for whatever
//! fixed rule a deployed distributed protocol would converge on.
//!
//! Alternate paths are "computed using a K-shortest path algorithm" and
//! "attempted in order of increasing length" (§1, §4.2.1). On the paper's
//! sparse meshes the full set of loop-free paths is small (NSFNet averages
//! about 9 usable alternates per pair), so [`loop_free_paths`] enumerates
//! them all by depth-first search, ordered by `(hop count, node sequence)`
//! — exactly the order the paper's calls try them in; on larger graphs
//! [`loop_free_paths_capped`] emits a prefix of that order without
//! enumerating the rest. [`dijkstra`] supports arbitrary non-negative
//! link weights (the link-disjoint path search in [`crate::disjoint`]
//! runs on it).

use crate::graph::{LinkId, NodeId, Topology};

/// A loop-free directed path through a topology.
///
/// Stores both the node sequence and the traversed link ids; the two are
/// kept consistent by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
}

impl Path {
    /// Builds a path from a node sequence, resolving links against `topo`.
    ///
    /// Returns `None` if consecutive nodes are unconnected, the sequence
    /// has fewer than two nodes, or a node repeats (paths are loop-free).
    pub fn from_nodes(topo: &Topology, nodes: &[NodeId]) -> Option<Self> {
        if nodes.len() < 2 {
            return None;
        }
        let mut seen = vec![false; topo.num_nodes()];
        for &n in nodes {
            if n >= topo.num_nodes() || seen[n] {
                return None;
            }
            seen[n] = true;
        }
        let links = topo.links_along(nodes)?;
        Some(Self {
            nodes: nodes.to_vec(),
            links,
        })
    }

    /// Builds a path from a node sequence and the links it already
    /// resolved, for the searches here that hold each link id as they walk
    /// and visit every node at most once: no per-path `seen` bitmap and no
    /// link lookups.
    fn from_walk(topo: &Topology, nodes: &[NodeId], links: &[LinkId]) -> Self {
        debug_assert!(nodes.len() >= 2 && links.len() + 1 == nodes.len());
        debug_assert!(links.iter().zip(nodes.windows(2)).all(|(&l, w)| {
            let link = topo.link(l);
            (link.src, link.dst) == (w[0], w[1])
        }));
        debug_assert!(nodes
            .iter()
            .enumerate()
            .all(|(k, n)| !nodes[k + 1..].contains(n)));
        Self {
            nodes: nodes.to_vec(),
            links: links.to_vec(),
        }
    }

    /// Origin node.
    pub fn src(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination node.
    pub fn dst(&self) -> NodeId {
        *self.nodes.last().unwrap()
    }

    /// Number of links (hops).
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// The node sequence, origin first.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The traversed link ids, in order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Whether the path traverses the given link.
    pub fn uses_link(&self, link: LinkId) -> bool {
        self.links.contains(&link)
    }
}

/// The minimum-hop path from `src` to `dst`, breaking ties towards the
/// lexicographically smallest node sequence; `None` if unreachable.
///
/// Determinism matters: the paper assigns every ordered pair a *unique*
/// primary path, and the state-protection levels are derived from the
/// loads that this fixed assignment induces.
pub fn min_hop_path(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
    if src == dst || src >= topo.num_nodes() || dst >= topo.num_nodes() {
        return None;
    }
    // BFS from src; because out_links are sorted by destination id, the
    // first parent assigned to each node yields the lexicographically
    // smallest shortest node sequence when reconstructed from dst.
    let n = topo.num_nodes();
    let mut parent: Vec<Option<LinkId>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[src] = true;
    let mut frontier = std::collections::VecDeque::new();
    frontier.push_back(src);
    while let Some(u) = frontier.pop_front() {
        if u == dst {
            break;
        }
        for &l in topo.out_links(u) {
            let v = topo.link(l).dst;
            if !seen[v] {
                seen[v] = true;
                parent[v] = Some(l);
                frontier.push_back(v);
            }
        }
    }
    if !seen[dst] {
        return None;
    }
    let (mut nodes, mut links) = (Vec::new(), Vec::new());
    tree_walk(topo, &parent, dst, &mut nodes, &mut links);
    debug_assert_eq!(nodes[0], src);
    Some(Path::from_walk(topo, &nodes, &links))
}

/// Writes the tree path from the root to `dst` into `nodes` and `links`
/// (both cleared first), following `parent` links back from `dst`.
fn tree_walk(
    topo: &Topology,
    parent: &[Option<LinkId>],
    dst: NodeId,
    nodes: &mut Vec<NodeId>,
    links: &mut Vec<LinkId>,
) {
    nodes.clear();
    links.clear();
    nodes.push(dst);
    let mut cur = dst;
    while let Some(l) = parent[cur] {
        links.push(l);
        cur = topo.link(l).src;
        nodes.push(cur);
    }
    nodes.reverse();
    links.reverse();
}

/// The BFS shortest-path tree rooted at `src`: for every node, the link
/// from its parent on the lexicographically smallest minimum-hop path from
/// `src` (`None` for `src` itself and for unreachable nodes); the parent is
/// that link's source.
///
/// Because [`Topology::out_links`] is sorted by destination, the first
/// parent BFS assigns to each node is exactly the parent the per-pair
/// search in [`min_hop_path`] would assign — that search's early exit at
/// `dst` only truncates exploration *after* every settled node already
/// holds its final parent, so one full tree reconstructs the identical
/// path for every destination.
pub fn min_hop_tree(topo: &Topology, src: NodeId) -> Vec<Option<LinkId>> {
    let n = topo.num_nodes();
    let mut parent: Vec<Option<LinkId>> = vec![None; n];
    let mut seen = vec![false; n];
    if src >= n {
        return parent;
    }
    seen[src] = true;
    let mut frontier = std::collections::VecDeque::new();
    frontier.push_back(src);
    while let Some(u) = frontier.pop_front() {
        for &l in topo.out_links(u) {
            let v = topo.link(l).dst;
            if !seen[v] {
                seen[v] = true;
                parent[v] = Some(l);
                frontier.push_back(v);
            }
        }
    }
    parent
}

/// The complete minimum-hop primary path assignment: one path per ordered
/// pair (row-major `src * n + dst`; `None` on the diagonal and for
/// unreachable pairs).
///
/// Computed from one shortest-path tree per source ([`min_hop_tree`],
/// O(N·E) total) rather than one BFS per ordered pair (O(N²·E)); the
/// resulting paths are byte-identical to per-pair [`min_hop_path`] calls
/// (pinned by a parity test), because the tree *is* the per-pair search's
/// parent assignment.
pub fn min_hop_primaries(topo: &Topology) -> Vec<Option<Path>> {
    let n = topo.num_nodes();
    let mut out = Vec::with_capacity(n * n);
    let (mut nodes, mut links) = (Vec::new(), Vec::new());
    for i in 0..n {
        let tree = min_hop_tree(topo, i);
        for (j, parent) in tree.iter().enumerate() {
            if parent.is_none() {
                out.push(None);
                continue;
            }
            tree_walk(topo, &tree, j, &mut nodes, &mut links);
            debug_assert_eq!(nodes[0], i);
            out.push(Some(Path::from_walk(topo, &nodes, &links)));
        }
    }
    out
}

/// Reusable depth-first-search scratch for the loop-free path
/// enumerators: the visited bitmap and the node and link stacks that
/// [`loop_free_paths`]/[`loop_free_paths_capped`] would otherwise
/// allocate afresh on every call.
///
/// Callers enumerating many pairs (plan construction, the
/// [`crate::store::PathStore`] cache) thread one scratch through
/// [`loop_free_paths_in`]/[`loop_free_paths_capped_in`] to amortise the
/// allocations; the buffers are re-prepared per call, so a scratch can be
/// reused across topologies of any size.
#[derive(Debug, Clone, Default)]
pub struct DfsScratch {
    visited: Vec<bool>,
    stack: Vec<NodeId>,
    links: Vec<LinkId>,
}

impl DfsScratch {
    /// A fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the buffers for a search from `src` on an `n`-node graph.
    fn prepare(&mut self, n: usize, src: NodeId) {
        self.visited.clear();
        self.visited.resize(n, false);
        self.visited[src] = true;
        self.stack.clear();
        self.stack.push(src);
        self.links.clear();
    }

    /// Extends the current walk by link `l` into node `v`.
    fn push(&mut self, v: NodeId, l: LinkId) {
        self.stack.push(v);
        self.links.push(l);
    }

    /// Retracts the last step of the current walk.
    fn pop(&mut self) {
        self.stack.pop();
        self.links.pop();
    }
}

/// All loop-free paths from `src` to `dst` with at most `max_hops` links,
/// ordered by `(hop count, node sequence)` — the order in which the
/// paper's blocked calls attempt alternates.
///
/// The search is a depth-first enumeration over simple paths; on sparse
/// meshes like NSFNet the result sets are small (§4.2.2 reports ~9 paths
/// per pair on average).
pub fn loop_free_paths(topo: &Topology, src: NodeId, dst: NodeId, max_hops: usize) -> Vec<Path> {
    loop_free_paths_in(topo, src, dst, max_hops, &mut DfsScratch::new(), |_| true)
}

/// As [`loop_free_paths`], but reusing a caller-provided [`DfsScratch`]
/// and restricted to links for which `live(link)` is true.
///
/// With `live` always true the output is identical to
/// [`loop_free_paths`]; a mask that excludes failed links yields exactly
/// the enumeration of the surviving subgraph, in the same canonical
/// `(hop count, node sequence)` order.
pub fn loop_free_paths_in<F>(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
    scratch: &mut DfsScratch,
    live: F,
) -> Vec<Path>
where
    F: Fn(LinkId) -> bool,
{
    let mut result = Vec::new();
    if src == dst || src >= topo.num_nodes() || dst >= topo.num_nodes() || max_hops == 0 {
        return result;
    }
    scratch.prepare(topo.num_nodes(), src);
    dfs_paths(topo, dst, max_hops, scratch, &mut result, &live);
    // DFS in sorted-adjacency order yields lexicographic order per length
    // already for equal-length prefixes, but mixed lengths interleave;
    // sort by (hops, node sequence) for the canonical attempt order.
    result.sort_by(|a, b| {
        a.hops()
            .cmp(&b.hops())
            .then_with(|| a.nodes().cmp(b.nodes()))
    });
    result
}

fn dfs_paths<F>(
    topo: &Topology,
    dst: NodeId,
    max_hops: usize,
    s: &mut DfsScratch,
    result: &mut Vec<Path>,
    live: &F,
) where
    F: Fn(LinkId) -> bool,
{
    let u = *s.stack.last().unwrap();
    if s.links.len() == max_hops {
        return;
    }
    for &l in topo.out_links(u) {
        if !live(l) {
            continue;
        }
        let v = topo.link(l).dst;
        if v == dst {
            s.push(v, l);
            result.push(Path::from_walk(topo, &s.stack, &s.links));
            s.pop();
        } else if !s.visited[v] {
            s.visited[v] = true;
            s.push(v, l);
            dfs_paths(topo, dst, max_hops, s, result, live);
            s.pop();
            s.visited[v] = false;
        }
    }
}

/// The first `cap` entries of [`loop_free_paths`], in the same
/// `(hop count, node sequence)` attempt order, without materialising the
/// full set.
///
/// On dense topologies the loop-free path count explodes combinatorially
/// (K_N has N−2 two-hop tandems per pair, and `loop_free_paths` over all
/// n² pairs is O(N³) path allocations at H=2 alone), so large-mesh plans
/// enumerate lazily: an iterative-deepening search emits paths of exactly
/// 1, 2, … `max_hops` links, each length in sorted-adjacency (hence
/// lexicographic node-sequence) order, and stops as soon as `cap` paths
/// have been produced. The output is therefore a strict prefix of the
/// uncapped enumeration.
pub fn loop_free_paths_capped(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
    cap: usize,
) -> Vec<Path> {
    loop_free_paths_capped_in(
        topo,
        src,
        dst,
        max_hops,
        cap,
        &mut DfsScratch::new(),
        |_| true,
    )
}

/// As [`loop_free_paths_capped`], but reusing a caller-provided
/// [`DfsScratch`] and restricted to links for which `live(link)` is true.
///
/// With `live` always true the output is identical to
/// [`loop_free_paths_capped`]; with a failure mask it is the first `cap`
/// entries of the surviving subgraph's canonical enumeration.
pub fn loop_free_paths_capped_in<F>(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
    cap: usize,
    scratch: &mut DfsScratch,
    live: F,
) -> Vec<Path>
where
    F: Fn(LinkId) -> bool,
{
    let mut result = Vec::new();
    if src == dst || src >= topo.num_nodes() || dst >= topo.num_nodes() || max_hops == 0 || cap == 0
    {
        return result;
    }
    scratch.prepare(topo.num_nodes(), src);
    for hops in 1..=max_hops {
        if result.len() >= cap {
            break;
        }
        dfs_paths_exact(topo, dst, hops, scratch, &mut result, cap, &live);
    }
    result
}

/// Emit the simple paths with exactly `hops` links ending at `dst`, in
/// lexicographic node-sequence order, stopping once `result` holds `cap`
/// paths.
fn dfs_paths_exact<F>(
    topo: &Topology,
    dst: NodeId,
    hops: usize,
    s: &mut DfsScratch,
    result: &mut Vec<Path>,
    cap: usize,
    live: &F,
) where
    F: Fn(LinkId) -> bool,
{
    if result.len() >= cap {
        return;
    }
    let u = *s.stack.last().unwrap();
    let remaining = hops - s.links.len();
    for &l in topo.out_links(u) {
        if !live(l) {
            continue;
        }
        let v = topo.link(l).dst;
        if remaining == 1 {
            if v == dst {
                s.push(v, l);
                result.push(Path::from_walk(topo, &s.stack, &s.links));
                s.pop();
                if result.len() >= cap {
                    return;
                }
            }
        } else if v != dst && !s.visited[v] {
            s.visited[v] = true;
            s.push(v, l);
            dfs_paths_exact(topo, dst, hops, s, result, cap, live);
            s.pop();
            s.visited[v] = false;
            if result.len() >= cap {
                return;
            }
        }
    }
}

/// The number of loop-free paths of at most `max_hops` links summed over
/// every ordered pair (the lengths of [`loop_free_paths`] pair by pair),
/// or `cap` when that total reaches `cap`.
///
/// A simple walk of `k ≥ 1` links from a node is exactly one such path,
/// to the node the walk ends at, so one depth-first walk per source
/// counts them all without building any. The walk stops at `cap`, and
/// each of its steps counts a path or skips a link back into the walk,
/// so the count is bounded by `cap` times the largest out-degree
/// whatever the topology and hop bound: a config check can refuse a
/// combinatorial candidate set (K_N has about e·(N−2)! per pair at
/// `H = N − 1`) without enumerating it.
pub fn count_loop_free_paths(topo: &Topology, max_hops: usize, cap: u64) -> u64 {
    fn walk(
        topo: &Topology,
        u: NodeId,
        hops: usize,
        visited: &mut [bool],
        count: &mut u64,
        cap: u64,
    ) {
        for &l in topo.out_links(u) {
            let v = topo.link(l).dst;
            if *count >= cap {
                return;
            }
            if !visited[v] {
                *count += 1;
                if hops > 1 {
                    visited[v] = true;
                    walk(topo, v, hops - 1, visited, count, cap);
                    visited[v] = false;
                }
            }
        }
    }
    let mut visited = vec![false; topo.num_nodes()];
    let mut count = 0;
    for src in 0..topo.num_nodes() {
        if max_hops == 0 || count >= cap {
            break;
        }
        visited[src] = true;
        walk(topo, src, max_hops, &mut visited, &mut count, cap);
        visited[src] = false;
    }
    count.min(cap)
}

/// The alternate-path set of an ordered pair: all loop-free paths of at
/// most `max_hops` hops, in attempt order, with the primary path removed.
pub fn alternate_paths(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
    primary: &Path,
) -> Vec<Path> {
    loop_free_paths(topo, src, dst, max_hops)
        .into_iter()
        .filter(|p| p != primary)
        .collect()
}

/// Dijkstra shortest path under non-negative per-link weights.
///
/// `weight(link_id)` must return a finite value `>= 0`; `f64::INFINITY`
/// excludes a link. Ties broken towards lexicographically smaller node
/// sequences via the sorted adjacency iteration order. Returns `None` if
/// `dst` is unreachable.
pub fn dijkstra<F>(topo: &Topology, src: NodeId, dst: NodeId, weight: F) -> Option<Path>
where
    F: Fn(LinkId) -> f64,
{
    if src == dst || src >= topo.num_nodes() || dst >= topo.num_nodes() {
        return None;
    }
    let n = topo.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut done = vec![false; n];
    dist[src] = 0.0;
    // Binary heap of (Reverse(dist), node) — f64 is not Ord, so use a
    // simple O(n^2) scan; the paper's networks have ≤ a few dozen nodes
    // and this routine sits outside the simulation hot loop.
    for _ in 0..n {
        let mut u = usize::MAX;
        let mut best = f64::INFINITY;
        for v in 0..n {
            if !done[v] && dist[v] < best {
                best = dist[v];
                u = v;
            }
        }
        if u == usize::MAX {
            break;
        }
        done[u] = true;
        if u == dst {
            break;
        }
        for &l in topo.out_links(u) {
            let w = weight(l);
            assert!(
                !w.is_nan() && w >= 0.0,
                "link weights must be non-negative, got {w}"
            );
            let v = topo.link(l).dst;
            let cand = dist[u] + w;
            if cand < dist[v] {
                dist[v] = cand;
                parent[v] = Some(u);
            }
        }
    }
    if dist[dst].is_infinite() {
        return None;
    }
    let mut nodes = vec![dst];
    let mut cur = dst;
    while let Some(p) = parent[cur] {
        nodes.push(p);
        cur = p;
    }
    nodes.reverse();
    Path::from_nodes(topo, &nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;

    fn diamond() -> Topology {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, plus reverse; and a long way 1 -> 2.
        let mut t = Topology::new();
        t.add_nodes(4);
        t.add_duplex(0, 1, 5);
        t.add_duplex(0, 2, 5);
        t.add_duplex(1, 3, 5);
        t.add_duplex(2, 3, 5);
        t.add_duplex(1, 2, 5);
        t
    }

    #[test]
    fn path_construction_and_accessors() {
        let t = diamond();
        let p = Path::from_nodes(&t, &[0, 1, 3]).unwrap();
        assert_eq!(p.src(), 0);
        assert_eq!(p.dst(), 3);
        assert_eq!(p.hops(), 2);
        assert_eq!(p.nodes(), &[0, 1, 3]);
        assert_eq!(p.links().len(), 2);
        assert!(p.uses_link(t.link_between(0, 1).unwrap()));
        assert!(!p.uses_link(t.link_between(0, 2).unwrap()));
        // Loops rejected.
        assert!(Path::from_nodes(&t, &[0, 1, 0]).is_none());
        // Too short.
        assert!(Path::from_nodes(&t, &[0]).is_none());
        // Unconnected hop.
        assert!(Path::from_nodes(&t, &[0, 3]).is_none());
    }

    #[test]
    fn min_hop_prefers_lexicographic_tie_break() {
        let t = diamond();
        // Both 0-1-3 and 0-2-3 are two hops; the tie-break picks 0-1-3.
        let p = min_hop_path(&t, 0, 3).unwrap();
        assert_eq!(p.nodes(), &[0, 1, 3]);
        // Adjacent pair gets the direct link.
        assert_eq!(min_hop_path(&t, 1, 2).unwrap().hops(), 1);
        // Diagonal/unknown.
        assert!(min_hop_path(&t, 2, 2).is_none());
        assert!(min_hop_path(&t, 0, 99).is_none());
    }

    #[test]
    fn min_hop_unreachable_is_none() {
        let mut t = Topology::new();
        t.add_nodes(3);
        t.add_link(0, 1, 1);
        assert!(min_hop_path(&t, 1, 0).is_none());
        assert!(min_hop_path(&t, 0, 2).is_none());
    }

    #[test]
    fn primaries_table_layout() {
        let t = diamond();
        let prim = min_hop_primaries(&t);
        assert_eq!(prim.len(), 16);
        for i in 0..4 {
            assert!(prim[i * 4 + i].is_none());
            for j in 0..4 {
                if i != j {
                    let p = prim[i * 4 + j].as_ref().unwrap();
                    assert_eq!((p.src(), p.dst()), (i, j));
                }
            }
        }
    }

    #[test]
    fn tree_primaries_match_per_pair_bfs() {
        // The one-tree-per-source assignment must be byte-identical to the
        // old one-BFS-per-pair construction on every topology shape we ship.
        let topos = [
            diamond(),
            topologies::nsfnet(100),
            topologies::full_mesh(6, 10),
            topologies::grid(4, 5, 30),
            topologies::random_mesh(12, 8, 40, 0xA11CE),
        ];
        for t in &topos {
            let n = t.num_nodes();
            let prim = min_hop_primaries(t);
            for i in 0..n {
                for j in 0..n {
                    let direct = if i == j { None } else { min_hop_path(t, i, j) };
                    assert_eq!(prim[i * n + j], direct, "pair {i}->{j}");
                }
            }
        }
    }

    #[test]
    fn filtered_enumeration_matches_subgraph_filter() {
        // Enumerating with a live-link mask must equal filtering the full
        // enumeration down to paths avoiding the dead links (same order).
        let t = topologies::nsfnet(100);
        let dead = [
            t.link_between(1, 2).unwrap(),
            t.link_between(2, 1).unwrap(),
            t.link_between(5, 6).unwrap(),
        ];
        let live = |l: LinkId| !dead.contains(&l);
        let mut scratch = DfsScratch::new();
        for (i, j) in [(0usize, 6usize), (3, 9), (1, 13)] {
            let expected: Vec<Path> = loop_free_paths(&t, i, j, 4)
                .into_iter()
                .filter(|p| p.links().iter().all(|&l| live(l)))
                .collect();
            let got = loop_free_paths_in(&t, i, j, 4, &mut scratch, live);
            assert_eq!(got, expected, "pair {i}->{j}");
            let capped = loop_free_paths_capped_in(&t, i, j, 4, 3, &mut scratch, live);
            assert_eq!(capped.as_slice(), &expected[..3.min(expected.len())]);
        }
    }

    #[test]
    fn scratch_reuse_across_topologies_is_clean() {
        // A scratch carried from a larger graph must not leak state into a
        // search on a smaller one.
        let mut scratch = DfsScratch::new();
        let big = topologies::full_mesh(20, 10);
        let _ = loop_free_paths_in(&big, 0, 19, 3, &mut scratch, |_| true);
        let small = diamond();
        let reused = loop_free_paths_in(&small, 0, 3, 3, &mut scratch, |_| true);
        assert_eq!(reused, loop_free_paths(&small, 0, 3, 3));
    }

    #[test]
    fn loop_free_enumeration_diamond() {
        let t = diamond();
        let paths = loop_free_paths(&t, 0, 3, 3);
        // 0-1-3, 0-2-3 (2 hops), 0-1-2-3, 0-2-1-3 (3 hops).
        let seqs: Vec<&[usize]> = paths.iter().map(|p| p.nodes()).collect();
        assert_eq!(
            seqs,
            vec![&[0, 1, 3][..], &[0, 2, 3], &[0, 1, 2, 3], &[0, 2, 1, 3]]
        );
        // Hop cap respected.
        assert_eq!(loop_free_paths(&t, 0, 3, 2).len(), 2);
        assert_eq!(loop_free_paths(&t, 0, 3, 1).len(), 0);
        assert_eq!(loop_free_paths(&t, 0, 3, 0).len(), 0);
    }

    #[test]
    fn path_counts_match_the_enumeration_and_stop_at_the_cap() {
        for topo in [
            diamond(),
            topologies::quadrangle(),
            topologies::nsfnet(10),
            topologies::full_mesh(6, 1),
            topologies::ring(7, 1),
        ] {
            let n = topo.num_nodes();
            for h in 0..=n {
                let total: usize = (0..n)
                    .flat_map(|s| (0..n).map(move |d| (s, d)))
                    .map(|(s, d)| loop_free_paths(&topo, s, d, h).len())
                    .sum();
                let total = total as u64;
                assert_eq!(count_loop_free_paths(&topo, h, u64::MAX), total);
                assert_eq!(count_loop_free_paths(&topo, h, total + 1), total);
                assert_eq!(count_loop_free_paths(&topo, h, total / 2), total / 2);
            }
        }
    }

    #[test]
    fn alternate_paths_exclude_primary() {
        let t = diamond();
        let primary = min_hop_path(&t, 0, 3).unwrap();
        let alts = alternate_paths(&t, 0, 3, 3, &primary);
        assert_eq!(alts.len(), 3);
        assert!(!alts.contains(&primary));
        // Ordered by increasing length.
        for w in alts.windows(2) {
            assert!(w[0].hops() <= w[1].hops());
        }
    }

    #[test]
    fn full_mesh_path_counts() {
        // K4: between any pair there are 1 one-hop, 2 two-hop, 2 three-hop
        // loop-free paths.
        let t = topologies::full_mesh(4, 10);
        let paths = loop_free_paths(&t, 0, 3, 3);
        assert_eq!(paths.len(), 5);
        assert_eq!(paths.iter().filter(|p| p.hops() == 1).count(), 1);
        assert_eq!(paths.iter().filter(|p| p.hops() == 2).count(), 2);
        assert_eq!(paths.iter().filter(|p| p.hops() == 3).count(), 2);
    }

    #[test]
    fn capped_enumeration_is_a_prefix_of_the_uncapped_order() {
        let diamond_t = diamond();
        let nsf = topologies::nsfnet(100);
        let k6 = topologies::full_mesh(6, 10);
        let cases = [
            (&diamond_t, [(0, 3), (1, 2)], 3),
            (&nsf, [(0, 6), (3, 9)], 4),
            (&k6, [(0, 5), (2, 1)], 3),
        ];
        for (t, pairs, h) in cases {
            for (i, j) in pairs {
                let all = loop_free_paths(t, i, j, h);
                for cap in [0, 1, 2, 3, all.len(), all.len() + 7] {
                    let capped = loop_free_paths_capped(t, i, j, h, cap);
                    assert_eq!(
                        capped.as_slice(),
                        &all[..cap.min(all.len())],
                        "{i}->{j} cap={cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn capped_enumeration_stays_cheap_on_large_meshes() {
        // K_200 at H=2 has 198 two-hop tandems per pair; the capped
        // enumerator must emit only the first few in attempt order.
        let t = topologies::full_mesh(200, 10);
        let paths = loop_free_paths_capped(&t, 0, 1, 2, 8);
        assert_eq!(paths.len(), 8);
        assert_eq!(paths[0].hops(), 1);
        for p in &paths[1..] {
            assert_eq!(p.hops(), 2);
        }
        // Lowest-numbered intermediates come first.
        assert_eq!(paths[1].nodes(), &[0, 2, 1]);
        assert_eq!(paths[2].nodes(), &[0, 3, 1]);
    }

    #[test]
    fn dijkstra_unit_weights_matches_min_hop() {
        let t = topologies::nsfnet(100);
        for (i, j) in t.ordered_pairs() {
            let d = dijkstra(&t, i, j, |_| 1.0).unwrap();
            let b = min_hop_path(&t, i, j).unwrap();
            assert_eq!(d.hops(), b.hops(), "{i}->{j}");
        }
    }

    #[test]
    fn dijkstra_respects_weights() {
        let t = diamond();
        let heavy = t.link_between(0, 1).unwrap();
        // Make the tie-break path expensive; Dijkstra must divert via 2.
        let p = dijkstra(&t, 0, 3, |l| if l == heavy { 10.0 } else { 1.0 }).unwrap();
        assert_eq!(p.nodes(), &[0, 2, 3]);
        // Infinite weight excludes a link entirely.
        let p = dijkstra(&t, 0, 1, |l| if l == heavy { f64::INFINITY } else { 1.0 }).unwrap();
        assert_eq!(p.nodes(), &[0, 2, 1]);
    }

    #[test]
    fn nsfnet_alternate_counts_match_paper() {
        // §4.2.2: with unlimited (≤ 11 link) alternates, each pair has
        // "about 9" alternate paths on average, max 15, min 5. Our
        // reconstruction reproduces the max/min exactly (avg 8.33).
        //
        // For "limited to 6 hops" the paper reports avg ≈ 7, max 13, min 5,
        // which a literal 6-link cap cannot produce on this topology
        // (avg 3.3, max 6); the reported counts match a 9-link cap instead,
        // so the paper's hop accounting there appears to differ from its
        // H parameter. The unambiguous H = 6 quantity — the r^k column of
        // Table 1 — is validated in the estimate module; here we pin the
        // literal per-cap counts of the reconstructed topology.
        let t = topologies::nsfnet(100);
        let stats = |max_hops: usize| {
            let (mut total, mut min, mut max) = (0usize, usize::MAX, 0usize);
            let mut pairs = 0usize;
            for (i, j) in t.ordered_pairs() {
                let primary = min_hop_path(&t, i, j).unwrap();
                let alts = alternate_paths(&t, i, j, max_hops, &primary);
                total += alts.len();
                min = min.min(alts.len());
                max = max.max(alts.len());
                pairs += 1;
            }
            (total as f64 / pairs as f64, min, max)
        };
        let (avg11, min11, max11) = stats(11);
        assert!(
            (8.0..=9.5).contains(&avg11),
            "avg alternates at H=11: {avg11}"
        );
        assert_eq!(min11, 5, "min alternates at H=11");
        assert_eq!(max11, 15, "max alternates at H=11");
        let (avg9, min9, max9) = stats(9);
        assert!(
            (7.0..=7.7).contains(&avg9),
            "avg alternates at 9-link cap: {avg9}"
        );
        assert_eq!(min9, 4, "min alternates at 9-link cap");
        assert_eq!(max9, 13, "max alternates at 9-link cap");
        let (avg6, min6, max6) = stats(6);
        assert!(
            (3.0..=3.6).contains(&avg6),
            "avg alternates at 6-link cap: {avg6}"
        );
        assert_eq!(min6, 1, "min alternates at 6-link cap");
        assert_eq!(max6, 6, "max alternates at 6-link cap");
    }
}
