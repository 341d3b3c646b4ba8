//! The in-memory versioned provenance graph.
//!
//! [`ProvenanceGraph`] is the homogeneous graph store of §3.4: every history
//! object (page, visit, bookmark, search term, download, form entry, tab) is
//! a node; every browser action is a typed, time-stamped derives-from edge.
//! The structure maintains the provenance invariant — **acyclicity** — at
//! every insertion, using the §3.1 versioning scheme to break would-be
//! cycles instead of rejecting them.

use crate::edge::{Edge, EdgeKind};
use crate::error::GraphError;
use crate::ids::{EdgeId, NodeId, Version};
use crate::node::{Node, NodeKind};
use crate::time::Timestamp;
use std::collections::HashMap;
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
/// and are never reused. Adjacency is indexed in both directions:
/// *out*-edges follow derivation (`src → dst`, toward ancestors) and
/// *in*-edges reverse it (toward descendants).
///
/// # Acyclicity
///
/// [`add_edge`](Self::add_edge) rejects edges that would close a cycle with
/// [`GraphError::WouldCycle`]. The higher-level capture layer in `bp-core`
/// avoids ever triggering this by creating a **new version** of the
/// destination visit when the user returns to an already-visited page —
/// exactly the scheme §3.1 describes ("a cycle implies that a new version of
/// some object in the cycle must be created"). The invariant is
/// property-tested in this crate and re-checked end-to-end in the
/// integration suite.
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
/// # Ok::<(), bp_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProvenanceGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Out-adjacency: edges whose `src` is this node (toward ancestors).
    out_edges: Vec<Vec<EdgeId>>,
    /// In-adjacency: edges whose `dst` is this node (toward descendants).
    in_edges: Vec<Vec<EdgeId>>,
    /// Key table: each distinct key once, as the `Arc<str>` every node
    /// carrying it shares, with those nodes and the newest of each kind.
    /// An entry goes when its last node is redacted away.
    keys: HashMap<Arc<str>, KeyEntry>,
    /// `true` while every edge points from a newer node to an older node
    /// (`src > dst`). Browser capture always appends in that order, so the
    /// expensive reachability check can be skipped: a high→low edge cannot
    /// close a cycle in a high→low graph. The first low→high edge clears
    /// the flag and reinstates full checking.
    monotone: bool,
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
            out_edges: Vec::with_capacity(nodes),
            in_edges: Vec::with_capacity(nodes),
            keys: HashMap::new(),
            monotone: true,
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
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
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
            // New version derives from the previous one; prev_id < id so
            // this can never cycle.
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
    /// - [`GraphError::UnknownNode`] if either endpoint does not exist.
    /// - [`GraphError::SelfLoop`] if `src == dst`.
    /// - [`GraphError::WouldCycle`] if `dst` can already reach `src` through
    ///   causal edges — committing the edge would create a cycle. Callers
    ///   that hit this should mint a new version of the destination with
    ///   [`add_version`](Self::add_version) instead.
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
    /// See [`add_edge`](Self::add_edge).
    pub fn add_edge_full(&mut self, edge: Edge) -> Result<EdgeId, GraphError> {
        let (src, dst) = (edge.src(), edge.dst());
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        // An edge src → dst creates a cycle iff src is already reachable
        // from dst by following derives-from edges. Nodes are created in
        // time order and capture always derives newer from older, so while
        // every edge so far points high→low, another high→low edge cannot
        // close a cycle and the reachability walk is skipped entirely —
        // this keeps both live capture and log replay O(1) per edge.
        if src > dst && self.monotone {
            return Ok(self.push_edge(edge));
        }
        if self.reachable(dst, src) {
            return Err(GraphError::WouldCycle { src, dst });
        }
        if src < dst {
            self.monotone = false;
        }
        Ok(self.push_edge(edge))
    }

    fn push_edge(&mut self, edge: Edge) -> EdgeId {
        self.epoch += 1;
        let id = EdgeId::new(self.edges.len() as u32);
        self.out_edges[edge.src().as_usize()].push(id);
        self.in_edges[edge.dst().as_usize()].push(id);
        self.edges.push(edge);
        id
    }

    fn check_node(&self, id: NodeId) -> Result<(), GraphError> {
        if id.as_usize() < self.nodes.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownNode(id))
        }
    }

    /// Redacts a node in place (see [`Node::redact`]) and moves it in the
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

    /// Returns `true` if adding an edge `src → dst` would create a cycle
    /// (without adding it). Uses the same monotone fast path as
    /// [`add_edge`](Self::add_edge).
    pub fn would_cycle(&self, src: NodeId, dst: NodeId) -> bool {
        if src == dst {
            return true;
        }
        if src > dst && self.monotone {
            return false;
        }
        self.reachable(dst, src)
    }

    /// Returns `true` if `to` is reachable from `from` along derives-from
    /// edges (including the trivial `from == to` case).
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = vec![false; self.nodes.len()];
        seen[from.as_usize()] = true;
        while let Some(n) = stack.pop() {
            for &eid in &self.out_edges[n.as_usize()] {
                let next = self.edges[eid.as_usize()].dst();
                if next == to {
                    return true;
                }
                if !seen[next.as_usize()] {
                    seen[next.as_usize()] = true;
                    stack.push(next);
                }
            }
        }
        false
    }

    /// Edges leaving `id` (derivations of `id`; point toward ancestors).
    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.out_edges[id.as_usize()]
    }

    /// Edges entering `id` (objects derived from `id`; point toward
    /// descendants).
    pub fn in_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.in_edges[id.as_usize()]
    }

    /// Out-degree of `id`.
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.out_edges[id.as_usize()].len()
    }

    /// In-degree of `id`.
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.in_edges[id.as_usize()].len()
    }

    /// Iterates the ancestors one hop away: `(edge id, ancestor node id)`.
    pub fn parents(&self, id: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.out_edges[id.as_usize()]
            .iter()
            .map(move |&eid| (eid, self.edges[eid.as_usize()].dst()))
    }

    /// Iterates the descendants one hop away: `(edge id, descendant node id)`.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.in_edges[id.as_usize()]
            .iter()
            .map(move |&eid| (eid, self.edges[eid.as_usize()].src()))
    }

    /// Iterates all undirected neighbors: `(edge id, neighbor node id)`.
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.parents(id).chain(self.children(id))
    }

    /// Iterates all node ids in insertion (and therefore time) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId::new)
    }

    /// Iterates all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len() as u32).map(EdgeId::new)
    }

    /// Iterates `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::new(i as u32), n))
    }

    /// Iterates `(id, edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::new(i as u32), e))
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

    /// Verifies the acyclicity invariant by running a full topological
    /// sort. Intended for tests and debug assertions; O(V + E).
    pub fn verify_acyclic(&self) -> bool {
        crate::toposort::topological_order(self).is_some()
    }

    /// Returns `true` while every edge points newer→older (`src > dst`),
    /// i.e. the O(1) cycle-check fast path is still active. Capture
    /// streams are expected to preserve this; the performance tests assert
    /// it to catch regressions that would make edge inserts O(V + E).
    pub fn is_monotone(&self) -> bool {
        self.monotone
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
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.parents(b).next().unwrap().1, a);
        assert_eq!(g.children(a).next().unwrap().1, b);
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

    #[test]
    fn self_loop_rejected() {
        let mut g = ProvenanceGraph::new();
        let a = visit(&mut g, "http://a/", 1);
        assert_eq!(
            g.add_edge(a, a, EdgeKind::Link, t(1)).unwrap_err(),
            GraphError::SelfLoop(a)
        );
    }

    #[test]
    fn direct_cycle_rejected() {
        let mut g = ProvenanceGraph::new();
        let a = visit(&mut g, "http://a/", 1);
        let b = visit(&mut g, "http://b/", 2);
        g.add_edge(b, a, EdgeKind::Link, t(2)).unwrap();
        assert_eq!(
            g.add_edge(a, b, EdgeKind::Link, t(3)).unwrap_err(),
            GraphError::WouldCycle { src: a, dst: b }
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
        assert!(g.verify_acyclic());
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
    fn reachability() {
        let mut g = ProvenanceGraph::new();
        let a = visit(&mut g, "a", 1);
        let b = visit(&mut g, "b", 2);
        let c = visit(&mut g, "c", 3);
        let d = visit(&mut g, "d", 4);
        g.add_edge(b, a, EdgeKind::Link, t(2)).unwrap();
        g.add_edge(c, b, EdgeKind::Link, t(3)).unwrap();
        assert!(g.reachable(c, a));
        assert!(g.reachable(a, a), "trivially reachable from itself");
        assert!(!g.reachable(a, c), "derivation is one-way");
        assert!(!g.reachable(c, d));
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
    fn neighbors_unions_both_directions() {
        let mut g = ProvenanceGraph::new();
        let a = visit(&mut g, "a", 1);
        let b = visit(&mut g, "b", 2);
        let c = visit(&mut g, "c", 3);
        g.add_edge(b, a, EdgeKind::Link, t(2)).unwrap();
        g.add_edge(c, b, EdgeKind::Link, t(3)).unwrap();
        let ns: Vec<NodeId> = g.neighbors(b).map(|(_, n)| n).collect();
        assert_eq!(ns.len(), 2);
        assert!(ns.contains(&a));
        assert!(ns.contains(&c));
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
        g.node_mut(a).unwrap().close_at(t(9));
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
    fn legal_low_to_high_edge_disables_fast_path_but_stays_correct() {
        let mut g = ProvenanceGraph::new();
        let a = visit(&mut g, "a", 1);
        let b = visit(&mut g, "b", 2);
        let c = visit(&mut g, "c", 3);
        // Legal low→high edge (a derives from c): clears monotone flag.
        g.add_edge(a, c, EdgeKind::Link, t(4)).unwrap();
        // Now a high→low edge that WOULD cycle (c derives from a) must
        // still be rejected even though src > dst.
        assert_eq!(
            g.add_edge(c, a, EdgeKind::Link, t(5)).unwrap_err(),
            GraphError::WouldCycle { src: c, dst: a }
        );
        // And unrelated edges still work.
        g.add_edge(b, a, EdgeKind::Link, t(6)).unwrap();
        assert!(g.verify_acyclic());
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
        g.node_mut(a).unwrap().close_at(t(9));
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
            5 if n > 1 => {
                let src = NodeId::new(u32::from(pick % n));
                let dst = NodeId::new(u32::from(pick / 7 % n));
                let _ = g.add_edge(src, dst, EdgeKind::Link, at);
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
