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
//!   two breadth-first sweeps bound the eviction set exactly. The sweeps
//!   walk the topology's out-links and an in-link index built once, stop
//!   at depth H − 1, and the bound is tested only against the list of
//!   filled cells, so a revival costs O(links + cached pairs), not O(N²).
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

/// Lock-poisoning message: a fill panics only on a broken internal
/// condition.
const POISONED: &str = "no fill panicked while holding the store lock";

/// Mutable state shared across lazy fills: the DFS scratch reused by every
/// enumeration, the reverse link→pair index over *cached* sets, and the
/// list of filled cells.
#[derive(Debug, Default)]
struct Shared {
    scratch: DfsScratch,
    /// `by_link[l]` lists the row-major pair indices whose cached candidate
    /// sets traverse link `l`. Maintained only for currently-cached cells.
    by_link: Vec<Vec<usize>>,
    /// Row-major indices of filled cells: every cached cell exactly once,
    /// plus `stale` entries left by down-eviction (cells since evicted,
    /// or repeats of cells evicted and then refilled).
    filled: Vec<usize>,
    /// Number of entries in `filled` beyond one per cached cell; zero
    /// right after [`PathStore::compact_filled`].
    stale: usize,
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
    /// Link ids grouped by destination node: the links ending at `v` are
    /// `in_links[in_start[v]..in_start[v + 1]]`, the reverse of
    /// [`Topology::out_links`] for revival's sweep towards a link's tail.
    /// Two flat vectors rather than one per node: one small allocation
    /// per node on every store build raised the 1000-node
    /// largemesh_churn workload's peak RSS by 1.6 %.
    in_links: Vec<LinkId>,
    in_start: Vec<usize>,
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
        let mut in_links: Vec<LinkId> = (0..m).collect();
        in_links.sort_by_key(|&id| topo.link(id).dst);
        let in_start = (0..=n)
            .map(|v| in_links.partition_point(|&id| topo.link(id).dst < v))
            .collect();
        PathStore {
            topo,
            max_hops,
            cap,
            link_up: vec![true; m],
            in_links,
            in_start,
            cells,
            shared: Mutex::new(Shared {
                scratch: DfsScratch::new(),
                by_link: vec![Vec::new(); m],
                filled: Vec::new(),
                stale: 0,
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
        let shared = self.shared.lock().expect(POISONED);
        shared.filled.len() - shared.stale
    }

    /// The candidate path set for `(src, dst)` over the currently-live
    /// links, in `(hop count, node sequence)` attempt order, computed on
    /// first access and memoized.
    pub fn candidates(&self, src: NodeId, dst: NodeId) -> &[Path] {
        let n = self.topo.num_nodes();
        let idx = src * n + dst;
        self.cells[idx].get_or_init(|| {
            let mut shared = self.shared.lock().expect(POISONED);
            let Shared {
                scratch,
                by_link,
                filled,
                ..
            } = &mut *shared;
            filled.push(idx);
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
        let shared = self.shared.get_mut().expect(POISONED);
        let mut evicted = 0;
        for idx in shared.filled.drain(..) {
            if self.cells[idx].take().is_some() {
                evicted += 1;
            }
        }
        shared.stale = 0;
        for list in &mut shared.by_link {
            list.clear();
        }
        evicted
    }

    /// Drops the stale entries of the filled-cell list, leaving each
    /// cached cell's index exactly once.
    fn compact_filled(&mut self) {
        let shared = self.shared.get_mut().expect(POISONED);
        if shared.stale == 0 {
            return;
        }
        let cells = &self.cells;
        shared.filled.retain(|&idx| cells[idx].get().is_some());
        shared.filled.sort_unstable();
        shared.filled.dedup();
        shared.stale = 0;
    }

    /// Down-eviction: only pairs whose cached sets traverse the failed
    /// link can change (a capped set is a prefix of the canonical
    /// enumeration; dropping a link that prefix never used leaves the
    /// prefix intact), so the reverse index is the exact eviction set.
    fn evict_traversing(&mut self, link: LinkId) -> usize {
        let shared = self.shared.get_mut().expect(POISONED);
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
        shared.stale += affected.len();
        // Compact once stale entries outnumber cached ones, so the list
        // stays within twice the cached pairs under failure-only churn.
        if 2 * shared.stale > shared.filled.len() {
            self.compact_filled();
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
        self.compact_filled();
        let h = self.max_hops;
        let cells = &mut self.cells;
        let Shared {
            by_link, filled, ..
        } = self.shared.get_mut().expect(POISONED);
        let mut evicted = 0;
        filled.retain(|&idx| {
            let (src, dst) = (idx / n, idx % n);
            let in_range = src != dst
                && matches!(
                    (dist_to_u[src], dist_from_v[dst]),
                    (Some(ds), Some(dt)) if ds + 1 + dt <= h
                );
            if !in_range {
                return true;
            }
            let paths = cells[idx].take().expect("compacted entries are cached");
            evicted += 1;
            for p in paths.iter() {
                for &pl in p.links() {
                    by_link[pl].retain(|&i| i != idx);
                }
            }
            false
        });
        evicted
    }

    /// Hop distances from every node *to* `target` (`reverse = true`) or
    /// *from* `target` (`reverse = false`), over currently-live links.
    /// Only distances up to H − 1 can satisfy the revival bound, so the
    /// sweep stops there; farther or unreachable nodes are `None`.
    fn live_hop_distances(&self, target: NodeId, reverse: bool) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.topo.num_nodes()];
        dist[target] = Some(0);
        let mut frontier = std::collections::VecDeque::from([target]);
        while let Some(x) = frontier.pop_front() {
            let dx = dist[x].expect("queued nodes have distances");
            if dx + 2 > self.max_hops {
                continue;
            }
            let links = if reverse {
                &self.in_links[self.in_start[x]..self.in_start[x + 1]]
            } else {
                self.topo.out_links(x)
            };
            for &id in links.iter().filter(|&&id| self.link_up[id]) {
                let link = self.topo.link(id);
                let y = if reverse { link.src } else { link.dst };
                if dist[y].is_none() {
                    dist[y] = Some(dx + 1);
                    frontier.push_back(y);
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
        let shared = self.shared.lock().expect(POISONED);
        PathStore {
            topo: self.topo.clone(),
            max_hops: self.max_hops,
            cap: self.cap,
            link_up: self.link_up.clone(),
            in_links: self.in_links.clone(),
            in_start: self.in_start.clone(),
            cells,
            shared: Mutex::new(Shared {
                scratch: DfsScratch::new(),
                by_link: shared.by_link.clone(),
                filled: shared.filled.clone(),
                stale: shared.stale,
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

    /// Brute-force revival reference: scans every cell and counts the
    /// cached off-diagonal pairs with `dist(s, u) + 1 + dist(v, t) ≤ H`,
    /// by full breadth-first searches over the live links (with `link`
    /// counted as up).
    fn revival_reference(store: &PathStore, link: LinkId) -> usize {
        let topo = store.topology();
        let n = topo.num_nodes();
        let live = |id: LinkId| id == link || store.is_up(id);
        let bfs = |start: NodeId, reverse: bool| {
            let mut dist = vec![usize::MAX; n];
            dist[start] = 0;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(x) = queue.pop_front() {
                for (id, l) in topo.links().iter().enumerate() {
                    let (from, to) = if reverse {
                        (l.dst, l.src)
                    } else {
                        (l.src, l.dst)
                    };
                    if from == x && live(id) && dist[to] == usize::MAX {
                        dist[to] = dist[x] + 1;
                        queue.push_back(to);
                    }
                }
            }
            dist
        };
        let l = topo.link(link);
        let (to_u, from_v) = (bfs(l.src, true), bfs(l.dst, false));
        (0..n * n)
            .filter(|&idx| {
                let (s, t) = (idx / n, idx % n);
                s != t
                    && store.cells[idx].get().is_some()
                    && to_u[s] != usize::MAX
                    && from_v[t] != usize::MAX
                    && to_u[s] + 1 + from_v[t] <= store.max_hops()
            })
            .count()
    }

    fn scanned_cached_pairs(store: &PathStore) -> usize {
        store.cells.iter().filter(|c| c.get().is_some()).count()
    }

    #[test]
    fn revival_evicts_exactly_the_cached_pairs_in_hop_range() {
        let t = topologies::power_law_mesh(60, 20, 0x5EED);
        let groups = topologies::srlg_groups(&t, 4, 0x5EED);
        let mut store = PathStore::with_cap(t.clone(), 4, 5);
        let warmed: Vec<_> = t
            .ordered_pairs()
            .filter(|&(i, j)| (i + 2 * j) % 3 == 0)
            .collect();
        for &(i, j) in &warmed {
            store.candidates(i, j);
        }
        for group in &groups[..2] {
            for &l in group {
                store.set_link_state(l, false);
            }
            // Refill what the failure evicted, so the filled-cell list
            // holds stale entries and repeats of refilled cells.
            for &(i, j) in &warmed {
                store.candidates(i, j);
            }
            assert_eq!(store.cached_pairs(), scanned_cached_pairs(&store));
        }
        // A cached diagonal cell counts as cached but is never in range.
        assert!(store.candidates(7, 7).is_empty());
        assert_eq!(store.cached_pairs(), scanned_cached_pairs(&store));
        let mut revived = 0;
        for &l in groups[..2].iter().flatten() {
            let expected = revival_reference(&store, l);
            assert_eq!(store.set_link_state(l, true), expected, "link {l}");
            assert_eq!(store.cached_pairs(), scanned_cached_pairs(&store));
            revived += expected;
        }
        assert!(revived > 0, "revival must evict pairs in hop range");
        assert!(store.cells[7 * 60 + 7].get().is_some());
        assert_matches_reference(&store, &[]);
        assert_eq!(store.cached_pairs(), 60 * 60 - 60 + 1);
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
