//! Built-in topologies: the paper's two experimental networks and generic
//! generators.
//!
//! * [`quadrangle`] — the fully connected 4-node network of §4.1.
//! * [`nsfnet`] — the 12-node NSFNet T3 backbone model of §4.2/Fig. 5,
//!   reconstructed from the 30 directed links listed in Table 1.
//! * [`full_mesh`], [`ring`], [`line()`], [`grid`], [`random_mesh`] —
//!   generators for tests, examples, and benches.
//! * [`power_law_mesh`], [`grid_ring`], [`srlg_groups`] — the ISP-scale
//!   tier: thousand-node preferential-attachment meshes with realistic
//!   skewed degree distributions, grid-core/ring-periphery composites,
//!   and SRLG-style correlated outage groups that fail as a unit.
//!
//! All links are duplex pairs of unidirectional links with equal capacity,
//! matching the paper's modelling assumption.

use crate::graph::{LinkId, Topology};
use crate::traffic::TrafficMatrix;

/// Deterministic u64 stream: splitmix64 seeding then xorshift64*.
/// Dependency-free, and adjacent seeds give unrelated streams.
///
/// Public so downstream tiers (demand sampling in the `largemesh`
/// experiment, SRLG schedules) can derive reproducible randomness from
/// the same generator family the topology generators use.
pub fn xorshift_stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    state ^= state >> 31;
    state |= 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Maps a raw u64 to a uniform f64 in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The undirected edge list of the NSFNet T3 backbone model, exactly the
/// 15 node pairs whose 30 directed links appear in Table 1 of the paper.
pub const NSFNET_EDGES: [(usize, usize); 15] = [
    (0, 1),
    (0, 11),
    (1, 2),
    (1, 5),
    (2, 3),
    (3, 4),
    (4, 5),
    (4, 11),
    (5, 6),
    (6, 7),
    (7, 8),
    (7, 9),
    (8, 10),
    (9, 10),
    (10, 11),
];

/// Illustrative city labels for the 12 NSFNet core nodes.
///
/// The paper's Fig. 5 names each Core Nodal Switching Subsystem after the
/// Exterior NSS sites attached to it; the figure is not machine-readable in
/// our source, so these labels are *approximate* stand-ins chosen from the
/// Fall-1992 NSFNet sites, consistent in spirit with a west-to-east
/// numbering. They are cosmetic: every experiment depends only on the
/// adjacency and capacities.
pub const NSFNET_NODE_NAMES: [&str; 12] = [
    "Seattle",
    "Palo Alto",
    "San Diego",
    "Houston",
    "St. Louis",
    "Boulder",
    "Lincoln",
    "Champaign",
    "Ann Arbor",
    "Pittsburgh",
    "Ithaca",
    "Salt Lake City",
];

/// The 12-node NSFNet T3 backbone model of the paper's §4.2 (Fig. 5),
/// with every directed link given `capacity` circuits.
///
/// The paper forecasts 155 Mb/s links with 100 Mb/s reserved for
/// rate-based traffic and 1 Mb/s prototype calls, i.e. `capacity = 100`.
pub fn nsfnet(capacity: u32) -> Topology {
    let mut t = Topology::new();
    for name in NSFNET_NODE_NAMES {
        t.add_node(name);
    }
    for (a, b) in NSFNET_EDGES {
        t.add_duplex(a, b, capacity);
    }
    t
}

/// A fully connected network on `n` nodes (`n·(n−1)` directed links).
pub fn full_mesh(n: usize, capacity: u32) -> Topology {
    let mut t = Topology::new();
    t.add_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            t.add_duplex(i, j, capacity);
        }
    }
    t
}

/// The fully connected quadrangle of the paper's §4.1 with the
/// conventional `C = 100` per directed link.
pub fn quadrangle() -> Topology {
    full_mesh(4, 100)
}

/// A bidirectional ring on `n >= 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize, capacity: u32) -> Topology {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut t = Topology::new();
    t.add_nodes(n);
    for i in 0..n {
        t.add_duplex(i, (i + 1) % n, capacity);
    }
    t
}

/// A bidirectional line (path graph) on `n >= 2` nodes.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn line(n: usize, capacity: u32) -> Topology {
    assert!(n >= 2, "a line needs at least 2 nodes");
    let mut t = Topology::new();
    t.add_nodes(n);
    for i in 0..n - 1 {
        t.add_duplex(i, i + 1, capacity);
    }
    t
}

/// A `rows × cols` bidirectional grid.
///
/// # Panics
///
/// Panics if either dimension is zero or the grid has fewer than 2 nodes.
pub fn grid(rows: usize, cols: usize, capacity: u32) -> Topology {
    assert!(rows > 0 && cols > 0 && rows * cols >= 2, "grid too small");
    let mut t = Topology::new();
    t.add_nodes(rows * cols);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                t.add_duplex(id(r, c), id(r, c + 1), capacity);
            }
            if r + 1 < rows {
                t.add_duplex(id(r, c), id(r + 1, c), capacity);
            }
        }
    }
    t
}

/// A deterministic pseudo-random connected mesh: a ring (guaranteeing
/// strong connectivity) plus `extra_edges` chords chosen by a seeded
/// xorshift generator.
///
/// Deterministic by construction (no external RNG dependency), so tests
/// and benches get reproducible graphs from a seed.
///
/// # Panics
///
/// Panics if `n < 3` or `extra_edges` exceeds the number of available
/// chords.
pub fn random_mesh(n: usize, extra_edges: usize, capacity: u32, seed: u64) -> Topology {
    assert!(n >= 3, "mesh needs at least 3 nodes");
    let max_chords = n * (n - 1) / 2 - n;
    assert!(
        extra_edges <= max_chords,
        "at most {max_chords} chords exist beyond the ring on {n} nodes"
    );
    let mut t = ring(n, capacity);
    let mut next = xorshift_stream(seed);
    let mut added = 0;
    while added < extra_edges {
        let a = (next() % n as u64) as usize;
        let b = (next() % n as u64) as usize;
        if a == b || t.link_between(a, b).is_some() {
            continue;
        }
        t.add_duplex(a, b, capacity);
        added += 1;
    }
    t
}

/// A self-contained randomly generated problem instance: a connected
/// topology, a traffic matrix sized for it, and a routing hop bound.
#[derive(Debug, Clone)]
pub struct RandomInstance {
    /// The generated mesh (ring plus random chords; strongly connected).
    pub topology: Topology,
    /// Offered Erlangs per ordered pair (some pairs may be zero).
    pub traffic: TrafficMatrix,
    /// Maximum alternate-path hop count `H` for this instance.
    pub max_hops: u32,
}

/// Generates a deterministic pseudo-random problem instance from `seed`:
/// a [`random_mesh`] on 4–8 nodes, per-pair loads spanning light load to
/// overload, and a hop bound `H ∈ 1..=4`.
///
/// This is the instance source behind the conformance crate's scenario
/// fuzzer: the metamorphic invariants it checks (conservation, `r = 0`
/// equals free alternate routing, `H = 1` equals primary-only routing)
/// must hold on *every* instance this returns, so the generator aims for
/// variety — node counts, sparse and chord-rich meshes, small and large
/// capacities, silent pairs, and loads up to twice a link's capacity.
pub fn random_instance(seed: u64) -> RandomInstance {
    let mut next = xorshift_stream(seed ^ 0xC0FF_EE00_D15C_0DE5);
    let n = 4 + (next() % 5) as usize; // 4..=8 nodes
    let max_chords = n * (n - 1) / 2 - n;
    let extra = (next() % (max_chords.min(4) + 1) as u64) as usize;
    let capacity = 6 + (next() % 19) as u32; // 6..=24 circuits
    let topology = random_mesh(n, extra, capacity, next());
    let demand_probability = 0.4 + 0.5 * unit(next());
    let peak = f64::from(capacity) * (0.3 + 1.7 * unit(next()));
    let mut loads = vec![0.0_f64; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j && unit(next()) < demand_probability {
                loads[i * n + j] = 0.05 + peak * unit(next());
            }
        }
    }
    let traffic = TrafficMatrix::from_fn(n, |i, j| loads[i * n + j]);
    let max_hops = 1 + (next() % 4) as u32; // 1..=4
    RandomInstance {
        topology,
        traffic,
        max_hops,
    }
}

/// An ISP-scale mesh with a power-law-ish degree distribution, grown by
/// preferential attachment: a 4-node seed ring, then each new node
/// attaches two duplex uplinks to distinct existing nodes sampled with
/// probability proportional to current degree (Barabási–Albert with
/// m = 2). Early nodes accumulate hub degrees while the tail stays at
/// degree ~2–3, matching the skewed degree profiles of real backbone
/// topologies.
///
/// Strongly connected by construction (every node attaches to the
/// existing connected component with duplex links) and deterministic per
/// seed.
///
/// # Panics
///
/// Panics if `n < 5`.
pub fn power_law_mesh(n: usize, capacity: u32, seed: u64) -> Topology {
    assert!(n >= 5, "power-law mesh needs at least 5 nodes");
    let mut t = Topology::new();
    t.add_nodes(n);
    // Degree-weighted sampling pool: every duplex edge contributes both
    // endpoints, so a uniform draw from the pool is a draw proportional
    // to degree.
    let mut pool: Vec<usize> = Vec::with_capacity(4 * n);
    for i in 0..4 {
        let j = (i + 1) % 4;
        t.add_duplex(i, j, capacity);
        pool.push(i);
        pool.push(j);
    }
    let mut next = xorshift_stream(seed ^ 0x15B4_BA51_A77A_C4ED);
    for i in 4..n {
        let mut attached = 0;
        while attached < 2 {
            let target = pool[(next() % pool.len() as u64) as usize];
            if target == i || t.link_between(i, target).is_some() {
                continue;
            }
            t.add_duplex(i, target, capacity);
            pool.push(i);
            pool.push(target);
            attached += 1;
        }
    }
    t
}

/// A grid/ring composite: a `rows × cols` grid core (a metro backbone)
/// surrounded by a `ring_nodes`-node peripheral ring (an access loop),
/// with one spoke from every ring node down to a grid node, spread evenly
/// around the core. Node ids are grid-first (`0 .. rows·cols`), ring
/// nodes follow.
///
/// Deterministic (no randomness) and strongly connected.
///
/// # Panics
///
/// Panics if the grid is smaller than 2 nodes or `ring_nodes < 3`.
pub fn grid_ring(rows: usize, cols: usize, ring_nodes: usize, capacity: u32) -> Topology {
    assert!(ring_nodes >= 3, "ring needs at least 3 nodes");
    let mut t = grid(rows, cols, capacity);
    let core = rows * cols;
    t.add_nodes(ring_nodes);
    for k in 0..ring_nodes {
        t.add_duplex(core + k, core + (k + 1) % ring_nodes, capacity);
    }
    for k in 0..ring_nodes {
        t.add_duplex(core + k, k * core / ring_nodes, capacity);
    }
    t
}

/// Partitions a topology's links into `num_groups` SRLG-style correlated
/// outage groups that fail (and recover) as a unit, modelling shared
/// conduits: the two directions of a duplex pair always land in the same
/// group, duplex units are dealt round-robin after a seeded shuffle, and
/// each group's link ids come back sorted. Every link appears in exactly
/// one group; deterministic per seed.
///
/// # Panics
///
/// Panics if `num_groups` is zero or exceeds the number of duplex units.
pub fn srlg_groups(topo: &Topology, num_groups: usize, seed: u64) -> Vec<Vec<LinkId>> {
    assert!(num_groups > 0, "need at least one SRLG group");
    // Collect duplex units: a link and its reverse (if any) form one unit.
    let mut units: Vec<Vec<LinkId>> = Vec::new();
    let mut claimed = vec![false; topo.num_links()];
    for l in 0..topo.num_links() {
        if claimed[l] {
            continue;
        }
        claimed[l] = true;
        let link = topo.link(l);
        let mut unit = vec![l];
        if let Some(rev) = topo.link_between(link.dst, link.src) {
            if !claimed[rev] {
                claimed[rev] = true;
                unit.push(rev);
            }
        }
        units.push(unit);
    }
    assert!(
        num_groups <= units.len(),
        "at most {} duplex units exist",
        units.len()
    );
    let mut next = xorshift_stream(seed ^ 0x5317_6CA7_7E57_D0D0);
    for i in (1..units.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        units.swap(i, j);
    }
    let mut groups = vec![Vec::new(); num_groups];
    for (i, unit) in units.into_iter().enumerate() {
        groups[i % num_groups].extend(unit);
    }
    for g in &mut groups {
        g.sort_unstable();
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nsfnet_shape_matches_table1() {
        let t = nsfnet(100);
        assert_eq!(t.num_nodes(), 12);
        assert_eq!(t.num_links(), 30);
        assert!(t.is_strongly_connected());
        // Every Table 1 directed link exists with capacity 100.
        for (a, b) in NSFNET_EDGES {
            for (s, d) in [(a, b), (b, a)] {
                let l = t.link_between(s, d).expect("table link missing");
                assert_eq!(t.link(l).capacity, 100);
            }
        }
        // Degree profile implied by Table 1.
        let degrees: Vec<usize> = (0..12).map(|n| t.out_degree(n)).collect();
        assert_eq!(degrees, vec![2, 3, 2, 2, 3, 3, 2, 3, 2, 2, 3, 3]);
    }

    #[test]
    fn quadrangle_is_k4() {
        let t = quadrangle();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_links(), 12);
        for (i, j) in t.ordered_pairs() {
            assert!(t.link_between(i, j).is_some());
            assert_eq!(t.link(t.link_between(i, j).unwrap()).capacity, 100);
        }
    }

    #[test]
    fn full_mesh_counts() {
        for n in 2..7 {
            let t = full_mesh(n, 5);
            assert_eq!(t.num_links(), n * (n - 1));
            assert!(t.is_strongly_connected());
        }
    }

    #[test]
    fn ring_line_grid_shapes() {
        let r = ring(5, 3);
        assert_eq!(r.num_links(), 10);
        assert!(r.is_strongly_connected());
        let l = line(4, 3);
        assert_eq!(l.num_links(), 6);
        assert!(l.is_strongly_connected());
        let g = grid(3, 4, 2);
        assert_eq!(g.num_nodes(), 12);
        // 3*3 horizontal + 2*4 vertical undirected edges, duplexed.
        assert_eq!(g.num_links(), 2 * (3 * 3 + 2 * 4));
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn random_mesh_is_deterministic_and_connected() {
        let a = random_mesh(10, 8, 4, 42);
        let b = random_mesh(10, 8, 4, 42);
        assert_eq!(a.num_links(), b.num_links());
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(
                    a.link_between(i, j).is_some(),
                    b.link_between(i, j).is_some()
                );
            }
        }
        assert!(a.is_strongly_connected());
        assert_eq!(a.num_links(), 2 * (10 + 8));
        // Different seeds give (almost surely) different chord sets.
        let c = random_mesh(10, 8, 4, 43);
        let same = (0..10)
            .flat_map(|i| (0..10).map(move |j| (i, j)))
            .all(|(i, j)| a.link_between(i, j).is_some() == c.link_between(i, j).is_some());
        assert!(!same, "distinct seeds should differ");
    }

    #[test]
    fn random_instances_are_deterministic_and_varied() {
        for seed in 0..40u64 {
            let a = random_instance(seed);
            let b = random_instance(seed);
            assert_eq!(a.topology.num_links(), b.topology.num_links());
            assert_eq!(
                a.traffic.demands().collect::<Vec<_>>(),
                b.traffic.demands().collect::<Vec<_>>()
            );
            assert_eq!(a.max_hops, b.max_hops);
            assert!(a.topology.is_strongly_connected());
            assert!((4..=8).contains(&a.topology.num_nodes()));
            assert!((1..=4).contains(&a.max_hops));
            for (_, _, t) in a.traffic.demands() {
                assert!(t > 0.0 && t.is_finite());
            }
        }
        // The generator must produce instances with traffic, and vary the
        // hop bound and node count across seeds.
        let instances: Vec<RandomInstance> = (0..40).map(random_instance).collect();
        assert!(instances.iter().all(|i| i.traffic.total() > 0.0));
        assert!(instances.iter().any(|i| i.max_hops == 1));
        assert!(instances.iter().any(|i| i.max_hops > 2));
        let nodes: std::collections::BTreeSet<usize> =
            instances.iter().map(|i| i.topology.num_nodes()).collect();
        assert!(nodes.len() >= 3, "node counts should vary: {nodes:?}");
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn random_mesh_chord_budget_enforced() {
        random_mesh(4, 100, 1, 1);
    }

    #[test]
    fn power_law_mesh_is_deterministic_connected_and_skewed() {
        let n = 300;
        let a = power_law_mesh(n, 48, 7);
        let b = power_law_mesh(n, 48, 7);
        assert_eq!(a.num_links(), b.num_links());
        for l in 0..a.num_links() {
            assert_eq!(
                (a.link(l).src, a.link(l).dst),
                (b.link(l).src, b.link(l).dst)
            );
        }
        assert!(a.is_strongly_connected());
        // Ring seed (4 edges) + 2 duplex uplinks per later node.
        assert_eq!(a.num_links(), 2 * (4 + 2 * (n - 4)));
        // Preferential attachment concentrates degree: some hub must hold
        // several times the mean degree, while the median stays small.
        let mut degrees: Vec<usize> = (0..n).map(|v| a.out_degree(v)).collect();
        degrees.sort_unstable();
        let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
        assert!(
            *degrees.last().unwrap() as f64 >= 3.0 * mean,
            "max degree {} vs mean {mean}",
            degrees.last().unwrap()
        );
        assert!(degrees[n / 2] <= 3, "median degree {}", degrees[n / 2]);
        // Distinct seeds give distinct graphs.
        let c = power_law_mesh(n, 48, 8);
        let same = (0..a.num_links())
            .all(|l| (a.link(l).src, a.link(l).dst) == (c.link(l).src, c.link(l).dst));
        assert!(!same, "distinct seeds should differ");
    }

    #[test]
    fn grid_ring_composite_is_connected_with_expected_size() {
        let t = grid_ring(3, 4, 6, 20);
        assert_eq!(t.num_nodes(), 3 * 4 + 6);
        // Grid: horizontal 3·3 + vertical 2·4 = 17 duplex; ring 6; spokes 6.
        assert_eq!(t.num_links(), 2 * (17 + 6 + 6));
        assert!(t.is_strongly_connected());
        // Every ring node carries exactly one spoke into the core.
        for k in 0..6 {
            assert!(t.link_between(12 + k, k * 12 / 6).is_some());
        }
    }

    #[test]
    fn srlg_groups_partition_links_with_duplex_mates_together() {
        let t = power_law_mesh(60, 10, 3);
        let groups = srlg_groups(&t, 7, 99);
        assert_eq!(groups, srlg_groups(&t, 7, 99), "deterministic per seed");
        assert_ne!(groups, srlg_groups(&t, 7, 100), "seed-sensitive");
        assert_eq!(groups.len(), 7);
        let mut seen = vec![0usize; t.num_links()];
        for g in &groups {
            assert!(!g.is_empty());
            assert!(g.windows(2).all(|w| w[0] < w[1]), "sorted within group");
            for &l in g {
                seen[l] += 1;
                let link = t.link(l);
                let rev = t.link_between(link.dst, link.src).expect("duplex mesh");
                assert!(g.contains(&rev), "duplex mate of {l} in another group");
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "each link in exactly one group"
        );
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn srlg_group_count_bounded_by_units() {
        let t = quadrangle();
        srlg_groups(&t, 100, 1);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_panics() {
        ring(2, 1);
    }
}
