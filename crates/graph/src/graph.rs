//! The in-memory versioned provenance graph.
//!
//! [`ProvenanceGraph`] is the homogeneous graph store of §3.4: every history
//! object (page, visit, bookmark, search term, download, form entry, tab) is
//! a node; every browser action is a typed, time-stamped derives-from edge.
//! The provenance invariant — **acyclicity** — holds by construction: every
//! edge runs from a newer node to an older one, and the §3.1 versioning
//! scheme mints a new node wherever an edge would otherwise point forward.

use crate::edge::{Edge, EdgeKind};
use crate::error::GraphError;
use crate::ids::{EdgeId, NodeId, Version};
use crate::node::{Node, NodeKind};
use crate::time::Timestamp;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// One row of the graph's key table.
#[derive(Debug, Clone, Default)]
struct KeyEntry {
    /// Every node carrying the key, in ascending id order.
    nodes: Vec<NodeId>,
    /// The newest node of each kind under the key, indexed by
    /// [`NodeKind::code`]. Redacting a node clears its kind's slot under
    /// its old key, and fills the slot under its new key unless a newer
    /// node holds it, as adding the node under that key would have.
    newest: [Option<NodeId>; NodeKind::ALL.len()],
}

/// A directed acyclic multigraph of browser history objects.
///
/// Nodes and edges live in append-only arenas; identifiers are dense indexes
/// and are never reused. Out-edges follow derivation (`src → dst`, toward
/// ancestors); the in-edges of a node (toward descendants) are the reverse
/// rows of a [`crate::frozen::FrozenGraph`] snapshot.
///
/// # The edge order
///
/// Every edge runs from a newer node to an older one (`dst < src`), and
/// edges are appended in nondecreasing source order;
/// [`check_edge`](Self::check_edge) rejects anything else with
/// [`GraphError::EdgeOrder`]. Node-id order is therefore a topological
/// order, so the graph is acyclic by construction, and the edge arena
/// grouped by source is the arena itself: a node's out-edges are one
/// contiguous run of it. Capture in `bp-core` creates every node an event
/// derives from before the event's own node, and mints a **new version**
/// of a visit when the user returns to a page — exactly the scheme §3.1
/// describes ("a cycle implies that a new version of some object in the
/// cycle must be created").
///
/// # Examples
///
/// ```
/// use bp_graph::{ProvenanceGraph, Node, NodeKind, EdgeKind, Timestamp};
///
/// let mut g = ProvenanceGraph::new();
/// let t = Timestamp::from_secs(1);
/// let search = g.add_node(Node::new(NodeKind::SearchTerm, "rosebud", t));
/// let kane = g.add_node(Node::new(NodeKind::PageVisit, "http://films.example/kane", t));
/// g.add_edge(kane, search, EdgeKind::SearchResult, t)?;
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.out_degree(kane), 1);
/// // An edge from the older node to the newer one breaks the order.
/// assert!(g.add_edge(search, kane, EdgeKind::Link, t).is_err());
/// # Ok::<(), bp_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProvenanceGraph {
    nodes: Vec<Node>,
    /// The edge arena, in nondecreasing source order: the out-adjacency.
    edges: Vec<Edge>,
    /// `out_start[i]` is the arena index of node `i`'s first out-edge.
    /// It reaches only up to the newest edge's source, since the run of a
    /// node past it is empty; it is filled as edges arrive rather than at
    /// [`add_node`](Self::add_node), because a snapshot's replay adds every
    /// node before the first edge.
    out_start: Vec<u32>,
    /// Key table: each distinct key once, as the `Arc<str>` every node
    /// carrying it shares, with those nodes and the newest of each kind.
    /// An entry goes when its last node is redacted away.
    keys: HashMap<Arc<str>, KeyEntry>,
    /// Monotonically increasing mutation counter. Every structural or
    /// content mutation bumps it, so read-optimized snapshots
    /// ([`crate::frozen::FrozenGraph`]) and epoch-keyed score caches can
    /// detect staleness with a single integer compare.
    epoch: u64,
    /// Successful [`redact_node`](Self::redact_node) calls: the only
    /// mutation that rewrites a node's key.
    redactions: u64,
}

impl Default for ProvenanceGraph {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl ProvenanceGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        ProvenanceGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_start: Vec::with_capacity(nodes),
            keys: HashMap::new(),
            epoch: 0,
            redactions: 0,
        }
    }

    /// The graph's mutation epoch: bumped on every mutation (node or edge
    /// insertion, mutable node borrow, redaction). Two reads of the same
    /// graph with equal epochs are guaranteed to have observed identical
    /// contents, which is what lets [`crate::frozen::FrozenGraph`]
    /// snapshots and cached query scores be reused without re-validation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How many nodes [`redact_node`](Self::redact_node) has rewritten.
    /// Every other mutation appends nodes or edges, or edits a node's
    /// interval and attributes, so while this count holds still, a
    /// snapshot taken at an older epoch describes a prefix of the graph
    /// with every key unchanged.
    pub fn redactions(&self) -> u64 {
        self.redactions
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node and returns its identifier.
    ///
    /// The node becomes the newest of its kind under its key (for a
    /// versioned kind, see [`NodeKind::is_versioned`], the latest version
    /// of its `(kind, key)` pair), and its key is swapped for the key
    /// table's copy, so all nodes with one key share one string.
    pub fn add_node(&mut self, mut node: Node) -> NodeId {
        self.epoch += 1;
        let id = NodeId::new(self.nodes.len() as u32);
        let entry = self.keys.entry(Arc::clone(node.shared_key()));
        node.share_key(Arc::clone(entry.key()));
        let entry = entry.or_default();
        entry.nodes.push(id);
        entry.newest[usize::from(node.kind().code())] = Some(id);
        self.nodes.push(node);
        id
    }

    /// Adds a **new version** of a versioned object: looks up the current
    /// latest version of `(kind, key)`, creates the successor instance
    /// opened at `at`, and links it to its predecessor with a
    /// [`EdgeKind::VersionOf`] edge. Returns the new node's id.
    ///
    /// This is the §3.1 cycle-breaking primitive: rather than pointing an
    /// edge back at an existing visit (closing a cycle), callers mint a
    /// fresh version and point edges at that.
    pub fn add_version(&mut self, kind: NodeKind, key: &str, at: Timestamp) -> NodeId {
        debug_assert!(kind.is_versioned(), "add_version on unversioned kind");
        let prior = self.latest_version_of(kind, key);
        let version = prior.map_or(Version::FIRST, |(_, v)| v.next());
        let id = self.add_node(Node::with_version(kind, key, version, at));
        if let Some((prev_id, _)) = prior {
            // The new node is the newest, so the edge keeps the order.
            self.push_edge(Edge::new(id, prev_id, EdgeKind::VersionOf, at));
        }
        id
    }

    /// Returns the latest version instance of `(kind, key)`: the newest
    /// node of `kind` under `key` and its version.
    pub fn latest_version_of(&self, kind: NodeKind, key: &str) -> Option<(NodeId, Version)> {
        let id = self.newest_of_kind(kind, key)?;
        Some((id, self.nodes[id.as_usize()].version()))
    }

    /// The newest node of `kind` added under `key`, unless a redaction of
    /// a `kind` node with that key has cleared it since.
    pub fn newest_of_kind(&self, kind: NodeKind, key: &str) -> Option<NodeId> {
        self.keys.get(key)?.newest[usize::from(kind.code())]
    }

    /// Every node whose key is `key`, in ascending id (and therefore
    /// time) order.
    pub fn nodes_with_key(&self, key: &str) -> &[NodeId] {
        self.keys.get(key).map_or(&[], |entry| &entry.nodes)
    }

    /// Borrows a node.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if `id` is out of range.
    pub fn node(&self, id: NodeId) -> Result<&Node, GraphError> {
        self.nodes
            .get(id.as_usize())
            .ok_or(GraphError::UnknownNode(id))
    }

    /// Mutably borrows a node, to close its interval or edit its
    /// attributes. Do not replace the node wholesale through it: keys
    /// change only through [`redact_node`](Self::redact_node), which
    /// [`crate::frozen::FrozenHandle`] relies on to extend snapshots.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, GraphError> {
        // The borrow may be used to write (close intervals, edit attrs);
        // assume it is and invalidate snapshots conservatively.
        self.epoch += 1;
        self.nodes
            .get_mut(id.as_usize())
            .ok_or(GraphError::UnknownNode(id))
    }

    /// Borrows an edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEdge`] if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> Result<&Edge, GraphError> {
        self.edges
            .get(id.as_usize())
            .ok_or(GraphError::UnknownEdge(id))
    }

    /// Adds a derives-from edge `src → dst` of the given kind.
    ///
    /// # Errors
    ///
    /// See [`check_edge`](Self::check_edge); a rejected edge changes
    /// nothing. Callers that would point an edge at a newer node mint a
    /// new version of it with [`add_version`](Self::add_version) instead.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        kind: EdgeKind,
        at: Timestamp,
    ) -> Result<EdgeId, GraphError> {
        self.add_edge_full(Edge::new(src, dst, kind, at))
    }

    /// Adds a fully-constructed edge (including attributes); same checks as
    /// [`add_edge`](Self::add_edge).
    ///
    /// # Errors
    ///
    /// See [`check_edge`](Self::check_edge).
    pub fn add_edge_full(&mut self, edge: Edge) -> Result<EdgeId, GraphError> {
        self.check_edge(edge.src(), edge.dst())?;
        Ok(self.push_edge(edge))
    }

    /// Checks that an edge `src → dst` may be appended now: both nodes
    /// exist, the edge runs from a newer node to an older one (`dst <
    /// src`), and `src` is no older than the previous edge's source. This
    /// is the graph's one edge contract; it makes the graph acyclic and
    /// the arena its out-adjacency.
    ///
    /// # Errors
    ///
    /// - [`GraphError::UnknownNode`] if either endpoint does not exist.
    /// - [`GraphError::EdgeOrder`] if `dst >= src` (a self-loop included)
    ///   or `src` is older than the previous edge's source.
    pub fn check_edge(&self, src: NodeId, dst: NodeId) -> Result<(), GraphError> {
        self.node(src)?;
        self.node(dst)?;
        // The newest source so far is the last node `out_start` reaches.
        if dst >= src || src.as_usize() + 1 < self.out_start.len() {
            return Err(GraphError::EdgeOrder { src, dst });
        }
        Ok(())
    }

    fn push_edge(&mut self, edge: Edge) -> EdgeId {
        self.epoch += 1;
        let id = EdgeId::new(self.edges.len() as u32);
        // Every node up to the source without an out-edge so far starts
        // its (empty, or for the source, growing) run here.
        while self.out_start.len() <= edge.src().as_usize() {
            self.out_start.push(id.index());
        }
        self.edges.push(edge);
        id
    }

    /// Node `id`'s run of the edge arena: its out-edges.
    fn out_range(&self, id: NodeId) -> Range<usize> {
        let i = id.as_usize();
        let end = self.edges.len();
        match self.out_start.get(i) {
            Some(&start) => {
                start as usize..self.out_start.get(i + 1).map_or(end, |&next| next as usize)
            }
            None => end..end,
        }
    }

    /// Redacts a node in place (see `Node::redact`) and moves it in the
    /// key table from its old key to `replacement`. The newest node of
    /// its kind under the old key is cleared, so the old key can no longer
    /// be resolved (a later visit to the same URL starts a fresh version
    /// chain); a key left with no node leaves the table. Under
    /// `replacement` the node becomes the newest of its kind unless a
    /// newer one is there, as if it had been added under that key, so a
    /// graph rebuilt from a snapshot resolves the replacement the same way.
    ///
    /// Returns the node's previous key.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if `id` is out of range.
    pub fn redact_node(
        &mut self,
        id: NodeId,
        replacement: impl Into<Arc<str>>,
    ) -> Result<Arc<str>, GraphError> {
        self.epoch += 1;
        let node = self
            .nodes
            .get_mut(id.as_usize())
            .ok_or(GraphError::UnknownNode(id))?;
        let slot = usize::from(node.kind().code());
        if let Some(old) = self.keys.get_mut(node.key()) {
            if let Ok(at) = old.nodes.binary_search(&id) {
                old.nodes.remove(at);
            }
            old.newest[slot] = None;
            if old.nodes.is_empty() {
                self.keys.remove(node.key());
            }
        }
        let entry = self.keys.entry(replacement.into());
        let old_key = node.redact(Arc::clone(entry.key()));
        let entry = entry.or_default();
        let at = entry.nodes.partition_point(|&n| n < id);
        entry.nodes.insert(at, id);
        let newest = &mut entry.newest[slot];
        if newest.is_none_or(|n| n < id) {
            *newest = Some(id);
        }
        self.redactions += 1;
        Ok(old_key)
    }

    /// Out-degree of `id`.
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.out_range(id).len()
    }

    /// Iterates the ancestors one hop away: `(edge id, ancestor node id)`,
    /// in edge-id order.
    pub fn parents(&self, id: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let run = self.out_range(id);
        self.edges[run.clone()]
            .iter()
            .zip(run)
            .map(|(e, i)| (EdgeId::new(i as u32), e.dst()))
    }

    /// Each node with out-edges and its run of the edge arena, in source
    /// order. The runs joined are the arena itself.
    pub fn out_runs(&self) -> impl Iterator<Item = (NodeId, &[Edge])> {
        self.edges
            .chunk_by(|a, b| a.src() == b.src())
            .map(|run| (run[0].src(), run))
    }

    /// Iterates all node ids in insertion (and therefore time) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId::new)
    }

    /// Iterates `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::new(i as u32), n))
    }

    /// Iterates `(id, edge)` pairs, in insertion and therefore source
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + Clone {
        self.edges_from(0)
    }

    /// Iterates the `(id, edge)` pairs from id `first` on, in insertion
    /// order: the edges appended since the graph held `first` edges.
    pub fn edges_from(&self, first: usize) -> impl Iterator<Item = (EdgeId, &Edge)> + Clone {
        self.edges
            .get(first..)
            .unwrap_or_default()
            .iter()
            .zip(first..)
            .map(|(e, i)| (EdgeId::new(i as u32), e))
    }

    /// Iterates node ids of a given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes()
            .filter_map(move |(id, n)| (n.kind() == kind).then_some(id))
    }

    /// Total payload bytes across all nodes and edges (experiment E1's raw
    /// in-memory figure; the storage layer reports the encoded figure).
    pub fn payload_size_bytes(&self) -> usize {
        self.nodes.iter().map(Node::size_bytes).sum::<usize>()
            + self.edges.iter().map(Edge::size_bytes).sum::<usize>()
    }

    /// Verifies the edge order [`check_edge`](Self::check_edge) enforces,
    /// and with it acyclicity, in one pass over the edges. Intended for
    /// tests and debug assertions; O(E).
    pub fn verify_acyclic(&self) -> bool {
        let mut last_src = NodeId::new(0);
        self.edges.iter().all(|e| {
            let ordered =
                e.dst() < e.src() && e.src() >= last_src && e.src().as_usize() < self.nodes.len();
            last_src = e.src();
            ordered
        })
    }
}

#[cfg(test)]
impl ProvenanceGraph {
    /// Each node's in-edges as `(edge id, source)`, in edge-id order,
    /// built from the arena: the in-adjacency of the live test oracles,
    /// kept apart from the CSR rows they check.
    pub(crate) fn in_adjacency(&self) -> Vec<Vec<(EdgeId, NodeId)>> {
        let mut adjacency = vec![Vec::new(); self.nodes.len()];
        for (id, e) in self.edges() {
            adjacency[e.dst().as_usize()].push((id, e.src()));
        }
        adjacency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn visit(g: &mut ProvenanceGraph, url: &str, s: i64) -> NodeId {
        g.add_node(Node::new(NodeKind::PageVisit, url, t(s)))
    }

    #[test]
    fn empty_graph() {
        let g = ProvenanceGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.verify_acyclic());
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = ProvenanceGraph::new();
        let a = visit(&mut g, "http://a/", 1);
        let b = visit(&mut g, "http://b/", 2);
        let e = g.add_edge(b, a, EdgeKind::Link, t(2)).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge(e).unwrap().kind(), EdgeKind::Link);
        assert_eq!(g.out_degree(b), 1);
        assert_eq!(g.out_degree(a), 0);
        assert_eq!(g.parents(b).next().unwrap(), (e, a));
    }

    #[test]
    fn unknown_node_errors() {
        let mut g = ProvenanceGraph::new();
        let a = visit(&mut g, "http://a/", 1);
        let ghost = NodeId::new(99);
        assert_eq!(g.node(ghost).unwrap_err(), GraphError::UnknownNode(ghost));
        assert_eq!(
            g.add_edge(a, ghost, EdgeKind::Link, t(1)).unwrap_err(),
            GraphError::UnknownNode(ghost)
        );
        assert_eq!(
            g.add_edge(ghost, a, EdgeKind::Link, t(1)).unwrap_err(),
            GraphError::UnknownNode(ghost)
        );
        assert_eq!(
            g.edge(EdgeId::new(0)).unwrap_err(),
            GraphError::UnknownEdge(EdgeId::new(0))
        );
    }

    /// Adds `n` visits and returns their ids.
    fn visits(g: &mut ProvenanceGraph, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|i| visit(g, &format!("http://{i}/"), i as i64))
            .collect()
    }

    #[test]
    fn an_edge_from_an_older_node_to_a_newer_one_is_rejected() {
        let mut g = ProvenanceGraph::new();
        let ids = visits(&mut g, 2);
        let (a, b) = (ids[0], ids[1]);
        assert_eq!(
            g.add_edge(a, b, EdgeKind::Link, t(2)).unwrap_err(),
            GraphError::EdgeOrder { src: a, dst: b }
        );
        assert_eq!((g.edge_count(), g.out_degree(a)), (0, 0));
        g.add_edge(b, a, EdgeKind::Link, t(2)).unwrap();
        assert!(g.verify_acyclic());
    }

    #[test]
    fn direct_cycle_rejected() {
        let mut g = ProvenanceGraph::new();
        let a = visit(&mut g, "http://a/", 1);
        let b = visit(&mut g, "http://b/", 2);
        g.add_edge(b, a, EdgeKind::Link, t(2)).unwrap();
        // The edge closing the cycle runs from the older node.
        assert_eq!(
            g.add_edge(a, b, EdgeKind::Link, t(3)).unwrap_err(),
            GraphError::EdgeOrder { src: a, dst: b }
        );
        assert!(g.verify_acyclic());
    }

    #[test]
    fn transitive_cycle_rejected() {
        let mut g = ProvenanceGraph::new();
        let a = visit(&mut g, "http://a/", 1);
        let b = visit(&mut g, "http://b/", 2);
        let c = visit(&mut g, "http://c/", 3);
        g.add_edge(b, a, EdgeKind::Link, t(2)).unwrap();
        g.add_edge(c, b, EdgeKind::Link, t(3)).unwrap();
        assert!(g.add_edge(a, c, EdgeKind::Link, t(4)).is_err());
        assert_eq!(g.edge_count(), 2);
        assert!(g.verify_acyclic());
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = ProvenanceGraph::new();
        let a = visit(&mut g, "http://a/", 1);
        assert_eq!(
            g.add_edge(a, a, EdgeKind::Link, t(1)).unwrap_err(),
            GraphError::EdgeOrder { src: a, dst: a }
        );
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn an_edge_from_a_source_older_than_the_last_edges_is_rejected() {
        let mut g = ProvenanceGraph::new();
        let ids = visits(&mut g, 4);
        g.add_edge(ids[2], ids[0], EdgeKind::Link, t(3)).unwrap();
        let epoch = g.epoch();
        assert_eq!(
            g.add_edge(ids[1], ids[0], EdgeKind::Link, t(3))
                .unwrap_err(),
            GraphError::EdgeOrder {
                src: ids[1],
                dst: ids[0]
            }
        );
        assert_eq!((g.edge_count(), g.epoch()), (1, epoch), "nothing changed");
        // The same source again, and a newer one, keep the order.
        g.add_edge(ids[2], ids[1], EdgeKind::Link, t(3)).unwrap();
        g.add_edge(ids[3], ids[0], EdgeKind::Link, t(4)).unwrap();
        assert_eq!(g.out_degree(ids[1]), 0);
        assert_eq!(g.out_degree(ids[2]), 2);
        assert_eq!(g.out_degree(ids[3]), 1);
        assert!(g.verify_acyclic());
    }

    #[test]
    fn out_edges_are_runs_of_the_arena() {
        let mut g = ProvenanceGraph::new();
        let ids = visits(&mut g, 6);
        for (src, dst) in [(1, 0), (3, 0), (3, 2), (3, 2), (5, 4)] {
            g.add_edge(ids[src], ids[dst], EdgeKind::Link, t(5))
                .unwrap();
        }
        let parents = |i: usize| -> Vec<(u32, u32)> {
            g.parents(ids[i])
                .map(|(e, p)| (e.index(), p.index()))
                .collect()
        };
        assert_eq!(parents(0), []);
        assert_eq!(parents(1), [(0, 0)]);
        assert_eq!(parents(2), []);
        assert_eq!(parents(3), [(1, 0), (2, 2), (3, 2)]);
        assert_eq!(parents(4), []);
        assert_eq!(parents(5), [(4, 4)]);
        let runs: Vec<(NodeId, usize)> = g.out_runs().map(|(n, run)| (n, run.len())).collect();
        assert_eq!(runs, [(ids[1], 1), (ids[3], 3), (ids[5], 1)]);
        // A node added after the last edge's source has no run yet.
        let late = visit(&mut g, "http://late/", 9);
        assert_eq!(g.out_degree(late), 0);
        assert_eq!(g.parents(late).count(), 0);
    }

    #[test]
    fn versioning_breaks_the_search_page_cycle() {
        // The §3.1 example: search page -> result -> back to search page.
        let mut g = ProvenanceGraph::new();
        let search_v0 = g.add_version(NodeKind::PageVisit, "http://search/?q=rosebud", t(1));
        let result = g.add_version(NodeKind::PageVisit, "http://films/kane", t(2));
        g.add_edge(result, search_v0, EdgeKind::Link, t(2)).unwrap();

        // User follows a link back to the search page: new version.
        let search_v1 = g.add_version(NodeKind::PageVisit, "http://search/?q=rosebud", t(3));
        g.add_edge(search_v1, result, EdgeKind::Link, t(3)).unwrap();

        assert_ne!(search_v0, search_v1);
        assert_eq!(g.node(search_v1).unwrap().version(), Version::new(1));
        assert!(g.verify_acyclic());
        // VersionOf edge connects the two instances.
        let kinds: Vec<EdgeKind> = g
            .parents(search_v1)
            .map(|(e, _)| g.edge(e).unwrap().kind())
            .collect();
        assert!(kinds.contains(&EdgeKind::VersionOf));
        assert_eq!(
            g.latest_version_of(NodeKind::PageVisit, "http://search/?q=rosebud"),
            Some((search_v1, Version::new(1)))
        );
    }

    #[test]
    fn multigraph_allows_parallel_edges_of_different_kinds() {
        let mut g = ProvenanceGraph::new();
        let a = visit(&mut g, "a", 1);
        let b = visit(&mut g, "b", 2);
        g.add_edge(b, a, EdgeKind::Link, t(2)).unwrap();
        g.add_edge(b, a, EdgeKind::TemporalOverlap, t(2)).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(b), 2);
    }

    #[test]
    fn nodes_of_kind_filters() {
        let mut g = ProvenanceGraph::new();
        let _v = visit(&mut g, "a", 1);
        let s = g.add_node(Node::new(NodeKind::SearchTerm, "wine", t(1)));
        let found: Vec<NodeId> = g.nodes_of_kind(NodeKind::SearchTerm).collect();
        assert_eq!(found, vec![s]);
    }

    #[test]
    fn node_mut_allows_closing() {
        let mut g = ProvenanceGraph::new();
        let a = visit(&mut g, "a", 1);
        g.node_mut(a).unwrap().close_at(t(9)).unwrap();
        assert_eq!(g.node(a).unwrap().interval().close(), Some(t(9)));
    }

    #[test]
    fn payload_size_sums_nodes_and_edges() {
        let mut g = ProvenanceGraph::new();
        let a = visit(&mut g, "aaaa", 1);
        let b = visit(&mut g, "bb", 2);
        g.add_edge(b, a, EdgeKind::Link, t(2)).unwrap();
        let expected = g.node(a).unwrap().size_bytes()
            + g.node(b).unwrap().size_bytes()
            + g.edge(EdgeId::new(0)).unwrap().size_bytes();
        assert_eq!(g.payload_size_bytes(), expected);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let g = ProvenanceGraph::with_capacity(100, 200);
        assert!(g.is_empty());
    }

    #[test]
    fn redact_node_hides_content_and_resets_versioning() {
        let mut g = ProvenanceGraph::new();
        let v0 = g.add_version(NodeKind::PageVisit, "http://secret/", t(1));
        let v1 = g.add_version(NodeKind::PageVisit, "http://secret/", t(2));
        g.node_mut(v1).unwrap().attrs_mut().set("title", "Secret");
        let old = g.redact_node(v1, "[redacted]").unwrap();
        assert_eq!(&*old, "http://secret/");
        assert_eq!(g.node(v1).unwrap().key(), "[redacted]");
        assert!(g.node(v1).unwrap().attrs().is_empty());
        // Version tracking for the old key is gone: a new visit restarts.
        assert_eq!(
            g.latest_version_of(NodeKind::PageVisit, "http://secret/"),
            None
        );
        let v2 = g.add_version(NodeKind::PageVisit, "http://secret/", t(3));
        assert_eq!(g.node(v2).unwrap().version(), Version::FIRST);
        // Structure preserved: v1 still derives from v0.
        assert!(g.parents(v1).any(|(_, p)| p == v0));
        // Unknown nodes error.
        assert!(g.redact_node(NodeId::new(99), "[x]").is_err());
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let mut g = ProvenanceGraph::new();
        assert_eq!(g.epoch(), 0);
        let a = visit(&mut g, "a", 1);
        let e1 = g.epoch();
        assert!(e1 > 0);
        let b = visit(&mut g, "b", 2);
        g.add_edge(b, a, EdgeKind::Link, t(2)).unwrap();
        let e2 = g.epoch();
        assert!(e2 > e1, "node and edge inserts both bump");
        g.node_mut(a).unwrap().close_at(t(9)).unwrap();
        assert!(g.epoch() > e2, "mutable borrows bump conservatively");
        let e3 = g.epoch();
        assert_eq!(g.redactions(), 0);
        g.redact_node(a, "[x]").unwrap();
        assert!(g.epoch() > e3);
        assert_eq!(g.redactions(), 1, "only redaction counts as a key rewrite");
        // Read-only accessors leave the epoch alone.
        let e4 = g.epoch();
        let _ = g.node(a);
        let _ = g.out_degree(b);
        assert_eq!(g.epoch(), e4);
    }

    #[test]
    fn first_add_version_has_no_version_edge() {
        let mut g = ProvenanceGraph::new();
        let v0 = g.add_version(NodeKind::PageVisit, "u", t(1));
        assert_eq!(g.out_degree(v0), 0);
        assert_eq!(g.node(v0).unwrap().version(), Version::FIRST);
    }

    /// Keys the key-table proptest draws from: six node keys, plus three
    /// redaction placeholders that several redactions share.
    fn drawn_key(i: u8) -> String {
        match i % 9 {
            k @ 0..=5 => format!("k{k}"),
            r => format!("[r{r}]"),
        }
    }

    /// Applies one random step to `g` and to `newest`, the model of the
    /// newest node of each kind under each key: an add sets it, and a
    /// redaction clears the redacted node's kind under its old key and
    /// sets it under the new key unless a newer node is there.
    fn key_table_step(
        g: &mut ProvenanceGraph,
        newest: &mut HashMap<(NodeKind, String), NodeId>,
        (op, key, kind, pick): (u8, u8, u8, u16),
    ) {
        let n = g.node_count() as u16;
        let key = drawn_key(key);
        let kind = NodeKind::ALL[usize::from(kind) % NodeKind::ALL.len()];
        let at = t(i64::from(n));
        match op % 8 {
            0..=2 => {
                let id = g.add_node(Node::new(kind, key.as_str(), at));
                newest.insert((kind, key), id);
            }
            3 | 4 => {
                let id = g.add_version(NodeKind::PageVisit, &key, at);
                newest.insert((NodeKind::PageVisit, key), id);
            }
            // An edge in the order: from the last edge's source or a
            // newer node to an older one.
            5 if n > 1 => {
                let last = g.out_start.len().saturating_sub(1).max(1) as u16;
                let src = last + pick % (n - last);
                let dst = NodeId::new(u32::from(pick / 7 % src));
                g.add_edge(NodeId::new(u32::from(src)), dst, EdgeKind::Link, at)
                    .unwrap();
            }
            6 | 7 if n > 0 => {
                let id = NodeId::new(u32::from(pick % n));
                let node = g.node(id).unwrap();
                let kind = node.kind();
                newest.remove(&(kind, node.key().to_owned()));
                g.redact_node(id, key.as_str()).unwrap();
                let slot = newest.entry((kind, key)).or_insert(id);
                *slot = (*slot).max(id);
            }
            _ => {}
        }
    }

    /// Checks the key table against a scan of every node and against the
    /// `newest` model.
    fn check_key_table(
        g: &ProvenanceGraph,
        newest: &HashMap<(NodeKind, String), NodeId>,
    ) -> Result<(), TestCaseError> {
        let mut scan: HashMap<&str, Vec<NodeId>> = HashMap::new();
        for (id, node) in g.nodes() {
            scan.entry(node.key()).or_default().push(id);
            let (shared, _) = g.keys.get_key_value(node.key()).unwrap();
            prop_assert!(Arc::ptr_eq(shared, node.shared_key()));
        }
        // The table holds exactly the keys some node carries.
        prop_assert_eq!(g.keys.len(), scan.len());
        for i in 0..9 {
            let key = drawn_key(i);
            let expected = scan.get(key.as_str()).map_or(&[][..], Vec::as_slice);
            prop_assert_eq!(g.nodes_with_key(&key), expected);
            for kind in NodeKind::ALL {
                let model = newest.get(&(kind, key.clone())).copied();
                prop_assert_eq!(g.newest_of_kind(kind, &key), model);
                let latest = model.map(|id| (id, g.node(id).unwrap().version()));
                prop_assert_eq!(g.latest_version_of(kind, &key), latest);
                if let Some(id) = model {
                    // The newest node still carries the key and the kind.
                    let node = g.node(id).unwrap();
                    prop_assert_eq!(node.key(), key.as_str());
                    prop_assert_eq!(node.kind(), kind);
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every step of a random mix of adds, versions, edges and
        /// redactions (into shared placeholders and into live keys), the
        /// key table lists exactly each key's nodes in ascending order,
        /// tracks the newest node of each kind with the redaction rule,
        /// and hands every node its entry's one copy of the key.
        #[test]
        fn key_table_matches_a_scan(
            steps in prop::collection::vec((any::<u8>(), 0u8..9, 0u8..7, any::<u16>()), 1..80),
        ) {
            let mut g = ProvenanceGraph::new();
            let mut newest = HashMap::new();
            for &step in &steps {
                key_table_step(&mut g, &mut newest, step);
                check_key_table(&g, &newest)?;
            }
        }
    }
}
