//! The directed-link network model.
//!
//! A [`Topology`] is a set of named nodes connected by **unidirectional**
//! capacitated links. The paper's NSFNet model treats each physical trunk
//! as "a pair of unidirectional links transmitting in opposite directions"
//! whose occupancies are independent; [`Topology::add_duplex`] installs
//! such a pair in one call. At most one link may exist per ordered node
//! pair (the paper's networks are simple graphs; parallel trunks would be
//! modelled by summing capacity).

use altroute_json::{obj, Value};

/// Index of a node within a [`Topology`] (dense, `0..num_nodes`).
pub type NodeId = usize;

/// Index of a directed link within a [`Topology`] (dense, `0..num_links`).
pub type LinkId = usize;

/// Most nodes the command-line tools accept for a mesh described by outside
/// input (flags and config files). Routing keeps per-pair state (a traffic
/// matrix, a primary and a path-store cell per ordered pair) for all n²
/// pairs before anything runs, so an unbounded count is an unbounded
/// allocation. 1000 is the largest mesh any preset runs.
pub const MAX_NODES: usize = 1_000;

/// Most circuits the command-line tools accept on one link described by
/// outside input. Each protection-level solve tabulates one `f64` per
/// circuit, so `u32::MAX` asks for 32 GiB; 10,000 is ten times the
/// largest capacity any preset or test uses (1000).
pub const MAX_CAPACITY: u32 = 10_000;

/// A unidirectional capacitated link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Number of calls the link can carry simultaneously (the paper's
    /// `C^k`; calls are homogeneous unit-bandwidth flows).
    pub capacity: u32,
}

/// A directed network of named nodes and unidirectional capacitated links.
///
/// The structure is immutable once built except for adding nodes/links;
/// algorithms take `&Topology` and identify everything by dense indices,
/// so lookups are array reads on the hot path.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    names: Vec<String>,
    links: Vec<Link>,
    /// Outgoing link ids per node, sorted by destination node id so that
    /// iteration order (and therefore every algorithm built on it) is
    /// deterministic.
    out: Vec<Vec<LinkId>>,
    /// Dense (src, dst) -> link id map.
    by_pair: Vec<Vec<Option<LinkId>>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the given display name; returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.names.len();
        self.names.push(name.into());
        self.out.push(Vec::new());
        for row in &mut self.by_pair {
            row.push(None);
        }
        self.by_pair.push(vec![None; self.names.len()]);
        id
    }

    /// Adds `count` nodes named `n0, n1, …`; returns the id of the first.
    pub fn add_nodes(&mut self, count: usize) -> NodeId {
        let first = self.names.len();
        for i in 0..count {
            self.add_node(format!("n{}", first + i));
        }
        first
    }

    /// Adds a unidirectional link; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist, `src == dst`, a link
    /// already exists for the ordered pair, or `capacity == 0`.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, capacity: u32) -> LinkId {
        assert!(src < self.names.len(), "unknown source node {src}");
        assert!(dst < self.names.len(), "unknown destination node {dst}");
        assert_ne!(src, dst, "self-loops are not allowed");
        assert!(capacity > 0, "links must have positive capacity");
        assert!(
            self.by_pair[src][dst].is_none(),
            "link {src}->{dst} already exists"
        );
        let id = self.links.len();
        self.links.push(Link { src, dst, capacity });
        self.by_pair[src][dst] = Some(id);
        let pos = self.out[src]
            .binary_search_by_key(&dst, |&l| self.links[l].dst)
            .unwrap_err();
        self.out[src].insert(pos, id);
        id
    }

    /// Adds a pair of opposite unidirectional links of equal capacity
    /// (the paper's duplex trunk); returns `(forward, reverse)` ids.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, capacity: u32) -> (LinkId, LinkId) {
        (self.add_link(a, b, capacity), self.add_link(b, a, capacity))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The display name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[node]
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist.
    pub fn link(&self, link: LinkId) -> Link {
        self.links[link]
    }

    /// All links, indexed by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link id for an ordered node pair, if a link exists.
    pub fn link_between(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.by_pair.get(src)?.get(dst).copied().flatten()
    }

    /// Outgoing link ids of a node, sorted by destination id.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out[node]
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out[node].len()
    }

    /// All ordered node pairs `(i, j)`, `i != j` — the set of potential
    /// origin–destination pairs.
    pub fn ordered_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let n = self.num_nodes();
        (0..n).flat_map(move |i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
    }

    /// Translates a node sequence into the link ids it traverses, or `None`
    /// if some consecutive pair is not connected.
    pub fn links_along(&self, nodes: &[NodeId]) -> Option<Vec<LinkId>> {
        nodes
            .windows(2)
            .map(|w| self.link_between(w[0], w[1]))
            .collect()
    }

    /// Whether every node can reach every other node over directed links.
    pub fn is_strongly_connected(&self) -> bool {
        let n = self.num_nodes();
        if n <= 1 {
            return true;
        }
        // BFS out of node 0 in the graph and in its reverse.
        let reach = |reverse: bool| -> usize {
            let mut seen = vec![false; n];
            let mut queue = vec![0usize];
            seen[0] = true;
            let mut count = 1;
            while let Some(u) = queue.pop() {
                for &l in &self.out[u] {
                    // In reverse mode we conceptually walk v->u edges; since
                    // the paper's topologies are duplex this is cheap to do
                    // by checking existence of the reverse link — but a
                    // general digraph needs a true reverse scan:
                    let _ = l;
                }
                if reverse {
                    for (v, row) in self.by_pair.iter().enumerate() {
                        if !seen[v] && row[u].is_some() {
                            seen[v] = true;
                            count += 1;
                            queue.push(v);
                        }
                    }
                } else {
                    for &l in &self.out[u] {
                        let v = self.links[l].dst;
                        if !seen[v] {
                            seen[v] = true;
                            count += 1;
                            queue.push(v);
                        }
                    }
                }
            }
            count
        };
        reach(false) == n && reach(true) == n
    }

    /// Total capacity of all directed links.
    pub fn total_capacity(&self) -> u64 {
        self.links.iter().map(|l| u64::from(l.capacity)).sum()
    }

    /// Serializes to a JSON value: node names plus `[src, dst, capacity]`
    /// link triples (the derived indices are rebuilt on load).
    pub fn to_json(&self) -> Value {
        obj! {
            "nodes" => Value::Array(self.names.iter().map(|n| Value::from(n.as_str())).collect()),
            "links" => Value::Array(
                self.links
                    .iter()
                    .map(|l| Value::Array(vec![l.src.into(), l.dst.into(), l.capacity.into()]))
                    .collect(),
            ),
        }
    }

    /// Rebuilds a topology from [`Topology::to_json`] output.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let nodes = value
            .get("nodes")
            .and_then(Value::as_array)
            .ok_or("topology: missing \"nodes\" array")?;
        let mut t = Topology::new();
        for n in nodes {
            t.add_node(n.as_str().ok_or("topology: node names must be strings")?);
        }
        let links = value
            .get("links")
            .and_then(Value::as_array)
            .ok_or("topology: missing \"links\" array")?;
        for l in links {
            let triple = l
                .as_array()
                .filter(|a| a.len() == 3)
                .ok_or_else(|| format!("topology: link must be [src, dst, capacity], got {l}"))?;
            let field = |i: usize| {
                triple[i]
                    .as_u64()
                    .ok_or_else(|| format!("topology: link field {i} must be an integer"))
            };
            let (src, dst, cap) = (field(0)? as usize, field(1)? as usize, field(2)?);
            if src >= t.num_nodes() || dst >= t.num_nodes() {
                return Err(format!(
                    "topology: link {src}->{dst} references unknown node"
                ));
            }
            if src == dst
                || cap == 0
                || cap > u64::from(u32::MAX)
                || t.link_between(src, dst).is_some()
            {
                return Err(format!("topology: invalid link [{src}, {dst}, {cap}]"));
            }
            t.add_link(src, dst, cap as u32);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_duplex(a, b, 10);
        t.add_duplex(b, c, 20);
        t.add_duplex(c, a, 30);
        t
    }

    #[test]
    fn builds_and_indexes() {
        let t = triangle();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 6);
        assert_eq!(t.node_name(0), "a");
        let l = t.link_between(0, 1).unwrap();
        assert_eq!(
            t.link(l),
            Link {
                src: 0,
                dst: 1,
                capacity: 10
            }
        );
        let back = t.link_between(1, 0).unwrap();
        assert_ne!(l, back);
        assert_eq!(t.link(back).capacity, 10);
        assert_eq!(t.link_between(0, 2).map(|l| t.link(l).capacity), Some(30));
        assert!(t.link_between(0, 0).is_none());
        assert_eq!(t.total_capacity(), 2 * (10 + 20 + 30));
    }

    #[test]
    fn out_links_sorted_by_destination() {
        let mut t = Topology::new();
        for _ in 0..4 {
            t.add_nodes(1);
        }
        t.add_link(0, 3, 1);
        t.add_link(0, 1, 1);
        t.add_link(0, 2, 1);
        let dsts: Vec<_> = t.out_links(0).iter().map(|&l| t.link(l).dst).collect();
        assert_eq!(dsts, vec![1, 2, 3]);
        assert_eq!(t.out_degree(0), 3);
        assert_eq!(t.out_degree(1), 0);
    }

    #[test]
    fn ordered_pairs_cover_all() {
        let t = triangle();
        let pairs: Vec<_> = t.ordered_pairs().collect();
        assert_eq!(pairs.len(), 6);
        assert!(pairs.contains(&(0, 2)) && pairs.contains(&(2, 0)));
        assert!(!pairs.contains(&(1, 1)));
    }

    #[test]
    fn links_along_node_sequences() {
        let t = triangle();
        let ids = t.links_along(&[0, 1, 2]).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(t.link(ids[0]).dst, 1);
        assert_eq!(t.link(ids[1]).dst, 2);
        // Single node: empty link list, not None.
        assert_eq!(t.links_along(&[1]), Some(vec![]));
        // Disconnected step in a path.
        let mut t2 = Topology::new();
        t2.add_nodes(3);
        t2.add_link(0, 1, 1);
        assert!(t2.links_along(&[0, 1, 2]).is_none());
    }

    #[test]
    fn strong_connectivity() {
        assert!(triangle().is_strongly_connected());
        let mut t = Topology::new();
        t.add_nodes(3);
        t.add_link(0, 1, 1);
        t.add_link(1, 2, 1);
        assert!(!t.is_strongly_connected());
        t.add_link(2, 0, 1);
        assert!(t.is_strongly_connected());
        let empty = Topology::new();
        assert!(empty.is_strongly_connected());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_link_panics() {
        let mut t = Topology::new();
        t.add_nodes(2);
        t.add_link(0, 1, 1);
        t.add_link(0, 1, 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut t = Topology::new();
        t.add_nodes(1);
        t.add_link(0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_panics() {
        let mut t = Topology::new();
        t.add_nodes(2);
        t.add_link(0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "unknown destination")]
    fn unknown_node_panics() {
        let mut t = Topology::new();
        t.add_nodes(1);
        t.add_link(0, 5, 1);
    }

    #[test]
    fn json_round_trip() {
        let t = triangle();
        let json = t.to_json().to_string_pretty();
        let back = Topology::from_json(&altroute_json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.num_nodes(), 3);
        assert_eq!(back.num_links(), 6);
        assert_eq!(back.link_between(2, 0), t.link_between(2, 0));
        assert_eq!(back.node_name(1), "b");
        assert_eq!(back.link(back.link_between(2, 0).unwrap()).capacity, 30);
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        for bad in [
            r#"{"links": []}"#,
            r#"{"nodes": ["a"], "links": [[0, 0, 1]]}"#,
            r#"{"nodes": ["a", "b"], "links": [[0, 5, 1]]}"#,
            r#"{"nodes": ["a", "b"], "links": [[0, 1]]}"#,
            r#"{"nodes": ["a", "b"], "links": [[0, 1, 0]]}"#,
            r#"{"nodes": ["a", "b"], "links": [[0, 1, 2], [0, 1, 3]]}"#,
        ] {
            let v = altroute_json::parse(bad).unwrap();
            assert!(Topology::from_json(&v).is_err(), "should reject {bad}");
        }
    }
}
