//! A lazy, incrementally-maintained cache of per-O-D candidate path sets.
//!
//! The paper's control scheme fixes a candidate-path set per ordered pair
//! (§4.2.1); historically `RoutingPlan` enumerated every pair's set
//! eagerly at construction. On ISP-scale meshes (thousand-node power-law
//! graphs, [`crate::topologies::power_law_mesh`]) that preprocessing step
//! is the dominant cost and a single link failure forced a full O(N²)
//! re-enumeration. [`PathStore`] replaces it with a demand-driven cache:
//!
//! - **Lazy fill** — a pair's set is computed on the first
//!   [`PathStore::candidates`] call, by the same capped/uncapped loop-free
//!   enumerators the eager plan used (so the produced sets are
//!   byte-identical), then memoized in a `OnceLock` cell.
//! - **Reverse link→pair index** — at fill time every distinct link of the
//!   cached set registers the pair, mirroring the engine's per-link
//!   teardown index. A link going *down* evicts exactly the pairs whose
//!   cached sets traverse it; every other cached set is provably unchanged
//!   (removing links a set never used cannot alter the enumeration prefix).
//! - **Hop-bounded revival eviction** — a link coming back *up* can only
//!   add paths for pairs `(s, t)` with
//!   `dist(s, link.src) + 1 + dist(link.dst, t) ≤ H` over live links, so
//!   two breadth-first sweeps bound the eviction set exactly.
//!
//! Recomputation is then just the lazy fill of the evicted pairs on next
//! access — incremental recompute after a link change touches only the
//! affected O-D pairs instead of all O(N²). A full rebuild (or
//! [`PathStore::invalidate_all`]) is still required when the *rules*
//! change — hop bound, candidate cap, or the topology's node/link set —
//! rather than link availability.

use std::sync::{Mutex, OnceLock};

use crate::graph::{LinkId, NodeId, Topology};
use crate::paths::{loop_free_paths_capped_in, loop_free_paths_in, DfsScratch, Path};

/// Mutable state shared across lazy fills: the DFS scratch reused by every
/// enumeration and the reverse link→pair index over *cached* sets.
#[derive(Debug, Default)]
struct Shared {
    scratch: DfsScratch,
    /// `by_link[l]` lists the row-major pair indices whose cached candidate
    /// sets traverse link `l`. Maintained only for currently-cached cells.
    by_link: Vec<Vec<usize>>,
}

/// A lazily-filled, incrementally-invalidated cache of loop-free candidate
/// path sets for every ordered O-D pair of a topology.
///
/// See the [module docs](self) for the architecture. The store is `Sync`:
/// concurrent readers fill distinct cells under a shared interior lock
/// (enumeration scratch + reverse index), while invalidation requires
/// `&mut self` and so cannot race with readers.
#[derive(Debug)]
pub struct PathStore {
    topo: Topology,
    max_hops: usize,
    /// Per-pair candidate cap; `usize::MAX` means uncapped enumeration.
    cap: usize,
    link_up: Vec<bool>,
    /// Row-major `src * n + dst` cells; empty slice for the diagonal.
    cells: Vec<OnceLock<Box<[Path]>>>,
    shared: Mutex<Shared>,
}

impl PathStore {
    /// A store enumerating *all* loop-free paths of at most `max_hops`
    /// links per pair (the paper's sparse-mesh regime).
    pub fn new(topo: Topology, max_hops: usize) -> Self {
        Self::build(topo, max_hops, usize::MAX)
    }

    /// A store keeping only the first `cap` paths per pair in the
    /// canonical `(hop count, node sequence)` attempt order (the
    /// large-mesh regime where full enumeration explodes).
    ///
    /// # Panics
    /// If `cap` is zero.
    pub fn with_cap(topo: Topology, max_hops: usize, cap: usize) -> Self {
        assert!(cap > 0, "candidate cap must be positive");
        Self::build(topo, max_hops, cap)
    }

    fn build(topo: Topology, max_hops: usize, cap: usize) -> Self {
        let n = topo.num_nodes();
        let m = topo.num_links();
        let mut cells = Vec::with_capacity(n * n);
        cells.resize_with(n * n, OnceLock::new);
        PathStore {
            topo,
            max_hops,
            cap,
            link_up: vec![true; m],
            cells,
            shared: Mutex::new(Shared {
                scratch: DfsScratch::new(),
                by_link: vec![Vec::new(); m],
            }),
        }
    }

    /// The topology the store enumerates over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The hop bound H applied to every candidate path.
    pub fn max_hops(&self) -> usize {
        self.max_hops
    }

    /// The per-pair candidate cap, or `None` if enumeration is uncapped.
    pub fn candidate_cap(&self) -> Option<usize> {
        (self.cap != usize::MAX).then_some(self.cap)
    }

    /// Whether `link` is currently up (candidate sets avoid down links).
    pub fn is_up(&self, link: LinkId) -> bool {
        self.link_up[link]
    }

    /// Number of O-D pairs with a currently-cached candidate set.
    pub fn cached_pairs(&self) -> usize {
        self.cells.iter().filter(|c| c.get().is_some()).count()
    }

    /// The candidate path set for `(src, dst)` over the currently-live
    /// links, in `(hop count, node sequence)` attempt order, computed on
    /// first access and memoized.
    pub fn candidates(&self, src: NodeId, dst: NodeId) -> &[Path] {
        let n = self.topo.num_nodes();
        let idx = src * n + dst;
        self.cells[idx].get_or_init(|| {
            let mut shared = self.shared.lock().unwrap();
            let Shared { scratch, by_link } = &mut *shared;
            let live = |l: LinkId| self.link_up[l];
            let paths = if self.cap == usize::MAX {
                loop_free_paths_in(&self.topo, src, dst, self.max_hops, scratch, live)
            } else {
                loop_free_paths_capped_in(
                    &self.topo,
                    src,
                    dst,
                    self.max_hops,
                    self.cap,
                    scratch,
                    live,
                )
            };
            for p in &paths {
                for &l in p.links() {
                    // Within one fill all registrations for this pair are
                    // consecutive (the lock is held), so checking the tail
                    // deduplicates links shared by several of its paths.
                    if by_link[l].last() != Some(&idx) {
                        by_link[l].push(idx);
                    }
                }
            }
            paths.into_boxed_slice()
        })
    }

    /// Marks `link` up or down, evicting exactly the cached pairs whose
    /// candidate sets may change. Returns the number of pairs evicted
    /// (each will be recomputed lazily on its next [`Self::candidates`]
    /// call). A no-op returning 0 if the link is already in that state.
    pub fn set_link_state(&mut self, link: LinkId, up: bool) -> usize {
        if self.link_up[link] == up {
            return 0;
        }
        self.link_up[link] = up;
        if up {
            self.evict_for_revival(link)
        } else {
            self.evict_traversing(link)
        }
    }

    /// Drops every cached set and the reverse index; the next access per
    /// pair recomputes from the current link state. Returns the number of
    /// pairs that were cached. Use when the change is not expressible as
    /// link up/down events (hop bound, cap, or wholesale topology swap).
    pub fn invalidate_all(&mut self) -> usize {
        let mut evicted = 0;
        for cell in &mut self.cells {
            if cell.take().is_some() {
                evicted += 1;
            }
        }
        let shared = self.shared.get_mut().unwrap();
        for list in &mut shared.by_link {
            list.clear();
        }
        evicted
    }

    /// Down-eviction: only pairs whose cached sets traverse the failed
    /// link can change (a capped set is a prefix of the canonical
    /// enumeration; dropping a link that prefix never used leaves the
    /// prefix intact), so the reverse index is the exact eviction set.
    fn evict_traversing(&mut self, link: LinkId) -> usize {
        let shared = self.shared.get_mut().unwrap();
        let affected = std::mem::take(&mut shared.by_link[link]);
        for &idx in &affected {
            if let Some(paths) = self.cells[idx].take() {
                // Unregister the evicted pair from every other link its
                // cached paths traversed.
                for p in paths.iter() {
                    for &l in p.links() {
                        if l != link {
                            shared.by_link[l].retain(|&i| i != idx);
                        }
                    }
                }
            }
        }
        affected.len()
    }

    /// Up-eviction: a revived link `u -> v` can only add candidates for
    /// pairs `(s, t)` admitting a live walk `s ~> u -> v ~> t` of at most
    /// `max_hops` links, so `dist(s, u) + 1 + dist(v, t) ≤ H` (hop
    /// distances over live links) bounds the eviction set. Pairs outside
    /// the bound keep their cached sets: they cannot gain a path through
    /// the link, and their sets never used it while it was down.
    fn evict_for_revival(&mut self, link: LinkId) -> usize {
        let n = self.topo.num_nodes();
        let l = self.topo.link(link);
        let dist_to_u = self.live_hop_distances(l.src, true);
        let dist_from_v = self.live_hop_distances(l.dst, false);
        let mut evicted = 0;
        for (src, du) in dist_to_u.iter().enumerate() {
            let Some(ds) = *du else { continue };
            if ds + 1 > self.max_hops {
                continue;
            }
            for (dst, dv) in dist_from_v.iter().enumerate() {
                if src == dst {
                    continue;
                }
                let Some(dt) = *dv else { continue };
                if ds + 1 + dt > self.max_hops {
                    continue;
                }
                let idx = src * n + dst;
                if let Some(paths) = self.cells[idx].take() {
                    evicted += 1;
                    let shared = self.shared.get_mut().unwrap();
                    for p in paths.iter() {
                        for &pl in p.links() {
                            shared.by_link[pl].retain(|&i| i != idx);
                        }
                    }
                }
            }
        }
        evicted
    }

    /// Hop distances from every node *to* `target` (`reverse = true`) or
    /// *from* `target` (`reverse = false`), over currently-live links.
    fn live_hop_distances(&self, target: NodeId, reverse: bool) -> Vec<Option<usize>> {
        let n = self.topo.num_nodes();
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (id, link) in self.topo.links().iter().enumerate() {
            if !self.link_up[id] {
                continue;
            }
            if reverse {
                adj[link.dst].push(link.src);
            } else {
                adj[link.src].push(link.dst);
            }
        }
        let mut dist = vec![None; n];
        dist[target] = Some(0);
        let mut frontier = std::collections::VecDeque::new();
        frontier.push_back(target);
        while let Some(u) = frontier.pop_front() {
            let du = dist[u].expect("queued nodes have distances");
            for &v in &adj[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    frontier.push_back(v);
                }
            }
        }
        dist
    }
}

impl Clone for PathStore {
    fn clone(&self) -> Self {
        let cells = self
            .cells
            .iter()
            .map(|cell| {
                let fresh = OnceLock::new();
                if let Some(v) = cell.get() {
                    let _ = fresh.set(v.clone());
                }
                fresh
            })
            .collect();
        let shared = self.shared.lock().unwrap();
        PathStore {
            topo: self.topo.clone(),
            max_hops: self.max_hops,
            cap: self.cap,
            link_up: self.link_up.clone(),
            cells,
            shared: Mutex::new(Shared {
                scratch: DfsScratch::new(),
                by_link: shared.by_link.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::{loop_free_paths, loop_free_paths_capped};
    use crate::topologies;

    /// Reference: enumerate a pair from scratch against an explicit live
    /// mask, exactly as a freshly-built store over the subgraph would.
    fn reference(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        h: usize,
        cap: usize,
        down: &[LinkId],
    ) -> Vec<Path> {
        let live = |l: LinkId| !down.contains(&l);
        let mut scratch = DfsScratch::new();
        if cap == usize::MAX {
            loop_free_paths_in(topo, src, dst, h, &mut scratch, live)
        } else {
            loop_free_paths_capped_in(topo, src, dst, h, cap, &mut scratch, live)
        }
    }

    fn assert_matches_reference(store: &PathStore, down: &[LinkId]) {
        let n = store.topology().num_nodes();
        let cap = store.candidate_cap().unwrap_or(usize::MAX);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let expected = reference(store.topology(), i, j, store.max_hops(), cap, down);
                assert_eq!(store.candidates(i, j), expected.as_slice(), "pair {i}->{j}");
            }
        }
    }

    #[test]
    fn lazy_fill_matches_eager_enumerators() {
        let t = topologies::nsfnet(100);
        let store = PathStore::new(t.clone(), 4);
        assert_eq!(store.cached_pairs(), 0);
        assert_eq!(
            store.candidates(0, 6),
            loop_free_paths(&t, 0, 6, 4).as_slice()
        );
        assert_eq!(store.cached_pairs(), 1);
        // Memoized: second call returns the same cached slice.
        let first = store.candidates(0, 6).as_ptr();
        assert_eq!(store.candidates(0, 6).as_ptr(), first);

        let capped = PathStore::with_cap(t.clone(), 4, 3);
        assert_eq!(
            capped.candidates(3, 9),
            loop_free_paths_capped(&t, 3, 9, 4, 3).as_slice()
        );
    }

    #[test]
    fn down_eviction_touches_exactly_the_traversing_pairs() {
        let t = topologies::nsfnet(100);
        let mut store = PathStore::new(t.clone(), 4);
        let n = t.num_nodes();
        for (i, j) in t.ordered_pairs().collect::<Vec<_>>() {
            store.candidates(i, j);
        }
        assert_eq!(store.cached_pairs(), n * n - n);

        let link = t.link_between(5, 6).unwrap();
        let traversing = t
            .ordered_pairs()
            .filter(|&(i, j)| {
                store
                    .candidates(i, j)
                    .iter()
                    .any(|p| p.links().contains(&link))
            })
            .count();
        assert!(traversing > 0);
        let evicted = store.set_link_state(link, false);
        assert_eq!(evicted, traversing);
        assert_eq!(store.cached_pairs(), n * n - n - evicted);
        assert!(!store.is_up(link));
        // Repeat is a no-op.
        assert_eq!(store.set_link_state(link, false), 0);

        assert_matches_reference(&store, &[link]);
    }

    #[test]
    fn incremental_equals_full_after_sequential_failures() {
        let t = topologies::random_mesh(10, 6, 30, 0xBEEF);
        for cap in [usize::MAX, 2] {
            let mut store = if cap == usize::MAX {
                PathStore::new(t.clone(), 4)
            } else {
                PathStore::with_cap(t.clone(), 4, cap)
            };
            for (i, j) in t.ordered_pairs().collect::<Vec<_>>() {
                store.candidates(i, j);
            }
            let mut down = Vec::new();
            for link in [0usize, 7, 3] {
                down.push(link);
                store.set_link_state(link, false);
                assert_matches_reference(&store, &down);
            }
        }
    }

    #[test]
    fn revival_restores_the_all_up_sets() {
        let t = topologies::nsfnet(100);
        let mut store = PathStore::new(t.clone(), 4);
        for (i, j) in t.ordered_pairs().collect::<Vec<_>>() {
            store.candidates(i, j);
        }
        let (a, b) = (t.link_between(1, 2).unwrap(), t.link_between(2, 1).unwrap());
        store.set_link_state(a, false);
        store.set_link_state(b, false);
        assert_matches_reference(&store, &[a, b]);
        let up_a = store.set_link_state(a, true);
        assert!(up_a > 0, "revival must evict the pairs in hop range");
        store.set_link_state(b, true);
        assert_matches_reference(&store, &[]);
    }

    #[test]
    fn invalidate_all_counts_and_clears() {
        let t = topologies::quadrangle();
        let mut store = PathStore::new(t.clone(), 3);
        store.candidates(0, 1);
        store.candidates(1, 0);
        assert_eq!(store.invalidate_all(), 2);
        assert_eq!(store.cached_pairs(), 0);
        assert_matches_reference(&store, &[]);
    }

    #[test]
    fn clone_preserves_cache_and_independence() {
        let t = topologies::quadrangle();
        let mut store = PathStore::new(t.clone(), 3);
        store.candidates(0, 3);
        let snapshot = store.clone();
        assert_eq!(snapshot.cached_pairs(), 1);
        let link = t.link_between(0, 3).unwrap();
        store.set_link_state(link, false);
        // The clone is unaffected by mutations of the original.
        assert!(snapshot.is_up(link));
        assert_eq!(
            snapshot.candidates(0, 3),
            loop_free_paths(&t, 0, 3, 3).as_slice()
        );
    }

    #[test]
    fn single_link_change_invalidates_a_small_fraction_at_scale() {
        // Work-proportionality on a larger sparse mesh: one link failure
        // must evict far fewer pairs than the full O(N²) table — the
        // structural fact that makes incremental recompute cheaper than
        // full re-enumeration.
        let t = topologies::random_mesh(120, 60, 30, 0xFACE);
        let mut store = PathStore::with_cap(t.clone(), 3, 4);
        let total = t.ordered_pairs().count();
        for (i, j) in t.ordered_pairs().collect::<Vec<_>>() {
            store.candidates(i, j);
        }
        let evicted = store.set_link_state(0, false);
        assert!(evicted > 0);
        assert!(
            evicted * 10 <= total,
            "evicted {evicted} of {total} pairs; invalidation is not incremental"
        );
    }
}
