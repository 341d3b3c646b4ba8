//! Graph traversals: ancestors, descendants, paths, bounded execution.
//!
//! Download lineage (§2.4) "is a breadth-first search over a node's
//! ancestors"; finding everything that came *from* an untrusted page is the
//! mirror-image descendant query. The paper also reports that its queries
//! "complete in less than 200 ms in the majority of cases and **can be bound
//! to that time** in the remaining cases" — [`Budget`] implements that
//! bounding (node and depth caps, and a deadline that runs from the instant
//! the query pinned at entry) for every traversal here and for the
//! relevance kernels in [`crate::neighborhood`] and [`crate::frozen`].

use crate::edge::EdgeKind;
use crate::graph::ProvenanceGraph;
use crate::ids::{EdgeId, NodeId};
use bp_obs::clock::ClockHandle;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::time::Duration;

/// Which direction a traversal walks the derives-from edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow `src → dst`: toward the origins of an object (its lineage).
    Ancestors,
    /// Follow `dst → src`: toward everything derived from an object.
    Descendants,
}

impl Direction {
    /// The opposite direction.
    #[must_use]
    pub const fn reverse(self) -> Direction {
        match self {
            Direction::Ancestors => Direction::Descendants,
            Direction::Descendants => Direction::Ancestors,
        }
    }
}

/// Resource limits for a query and every traversal it runs.
///
/// A default budget is unlimited. Queries that must be interactive attach a
/// deadline and/or node cap; when the budget trips, the traversal stops and
/// reports itself truncated rather than running long.
///
/// The deadline is measured on the budget's clock from one start instant,
/// read once by [`Budget::pinned`]. A query pins its budget at entry and
/// hands the pinned copy to every stage and kernel, which test
/// [`Budget::expired`]; a kernel handed an unpinned budget pins it at its
/// own entry. A pinned budget belongs to the query that pinned it: configs
/// hold unpinned ones.
///
/// # Examples
///
/// ```
/// use bp_graph::traverse::Budget;
/// use std::time::Duration;
/// let b = Budget::new().with_max_nodes(1000).with_deadline(Duration::from_millis(200));
/// assert_eq!(b.max_nodes(), Some(1000));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    max_nodes: Option<usize>,
    max_depth: Option<usize>,
    deadline: Option<Duration>,
    clock: ClockHandle,
    /// The clock reading the deadline runs from, once pinned.
    start_us: Option<u64>,
}

impl Budget {
    /// An unlimited budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the number of nodes the traversal may visit.
    #[must_use]
    pub fn with_max_nodes(mut self, n: usize) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Caps the hop depth from the start node.
    #[must_use]
    pub fn with_max_depth(mut self, d: usize) -> Self {
        self.max_depth = Some(d);
        self
    }

    /// Caps the time from the pinned instant; stages and kernels check the
    /// clock periodically.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Measures the deadline, and the latency of the query that owns this
    /// budget, against `clock` instead of the process monotonic clock, so
    /// tests can expire queries deterministically with a mock clock.
    #[must_use]
    pub fn with_clock(mut self, clock: ClockHandle) -> Self {
        self.clock = clock;
        self
    }

    /// The node cap, if any.
    pub fn max_nodes(&self) -> Option<usize> {
        self.max_nodes
    }

    /// The depth cap, if any.
    pub fn max_depth(&self) -> Option<usize> {
        self.max_depth
    }

    /// The wall-clock cap, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The clock the deadline is measured against.
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// This budget with its deadline running from now: the start instant
    /// is one reading of the budget's clock. A budget already pinned is
    /// returned as it is, so every stage and kernel handed it spends the
    /// time of one query.
    #[must_use]
    pub fn pinned(&self) -> Cow<'_, Budget> {
        if self.is_pinned() {
            return Cow::Borrowed(self);
        }
        Cow::Owned(Budget {
            start_us: Some(self.clock.now_micros()),
            ..self.clone()
        })
    }

    /// `true` once [`Budget::pinned`] has fixed the start instant.
    pub fn is_pinned(&self) -> bool {
        self.start_us.is_some()
    }

    /// Time since the pinned instant; zero for an unpinned budget.
    pub fn elapsed(&self) -> Duration {
        self.start_us.map_or(Duration::ZERO, |start| {
            Duration::from_micros(self.clock.now_micros().saturating_sub(start))
        })
    }

    /// `true` once the time since the pinned instant reaches the deadline;
    /// never without one, and a budget without a deadline reads no clock.
    /// `>=` so a zero deadline is expired from the first check: the
    /// clock's whole-microsecond resolution would otherwise let a small
    /// walk finish inside the first tick without truncating.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| self.elapsed() >= d)
    }
}

/// One node reached by a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reached {
    /// The node reached.
    pub node: NodeId,
    /// Hop distance from the start node (start = 0).
    pub depth: usize,
    /// The edge by which it was first reached (`None` for the start node).
    pub via: Option<EdgeId>,
}

/// The outcome of a bounded traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traversal {
    /// Nodes in the order they were reached (BFS order). Includes the start.
    pub reached: Vec<Reached>,
    /// `true` if a budget limit stopped the traversal before exhaustion.
    pub truncated: bool,
}

impl Traversal {
    /// Node ids in reach order, without depths.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.reached.iter().map(|r| r.node)
    }

    /// Number of nodes reached (including the start).
    pub fn len(&self) -> usize {
        self.reached.len()
    }

    /// `true` when only the start node was reached.
    pub fn is_empty(&self) -> bool {
        self.reached.len() <= 1
    }
}

/// Breadth-first traversal from `start` in `direction`, following only
/// edges for which `edge_filter` returns `true`, within `budget`.
///
/// The start node is always the first element of the result. Lineage
/// queries pass `|k| k.is_causal()` to exclude temporal-overlap context
/// edges; personalization passes `|k| !k.is_automatic()` to unify away
/// redirect/embed hops (§3.2).
pub fn bfs(
    graph: &ProvenanceGraph,
    start: NodeId,
    direction: Direction,
    mut edge_filter: impl FnMut(EdgeKind) -> bool,
    budget: &Budget,
) -> Traversal {
    let budget = budget.pinned();
    let mut reached = Vec::new();
    let mut truncated = false;
    if start.as_usize() >= graph.node_count() {
        return Traversal { reached, truncated };
    }
    let mut seen = vec![false; graph.node_count()];
    let mut queue = VecDeque::new();
    seen[start.as_usize()] = true;
    queue.push_back(Reached {
        node: start,
        depth: 0,
        via: None,
    });

    while let Some(r) = queue.pop_front() {
        if let Some(max) = budget.max_nodes {
            if reached.len() >= max {
                truncated = true;
                break;
            }
        }
        // Check the clock every node; traversal steps are cheap enough
        // that a clock read per node keeps us well within the 200 ms
        // bound with negligible overhead.
        if budget.expired() {
            truncated = true;
            break;
        }
        reached.push(r);
        if let Some(max_depth) = budget.max_depth {
            if r.depth >= max_depth {
                continue;
            }
        }
        let hops: Vec<(EdgeId, NodeId)> = match direction {
            Direction::Ancestors => graph.parents(r.node).collect(),
            Direction::Descendants => graph.children(r.node).collect(),
        };
        for (eid, next) in hops {
            // Adjacency lists only hold live edges; skipping a (supposedly
            // impossible) dead one degrades better than aborting
            // (`clippy::unwrap_used`).
            let Ok(edge) = graph.edge(eid) else { continue };
            let kind = edge.kind();
            if !edge_filter(kind) {
                continue;
            }
            if !seen[next.as_usize()] {
                seen[next.as_usize()] = true;
                queue.push_back(Reached {
                    node: next,
                    depth: r.depth + 1,
                    via: Some(eid),
                });
            }
        }
    }
    Traversal { reached, truncated }
}

/// All causal ancestors of `start` (unbounded). Equivalent to the §2.4
/// lineage set.
pub fn ancestors(graph: &ProvenanceGraph, start: NodeId) -> Traversal {
    bfs(
        graph,
        start,
        Direction::Ancestors,
        EdgeKind::is_causal,
        &Budget::new(),
    )
}

/// All causal descendants of `start` (unbounded). Answers "find all
/// descendants of this page that are downloads" when the caller filters the
/// result by node kind.
pub fn descendants(graph: &ProvenanceGraph, start: NodeId) -> Traversal {
    bfs(
        graph,
        start,
        Direction::Descendants,
        EdgeKind::is_causal,
        &Budget::new(),
    )
}

/// Finds the nearest ancestor (BFS order, so minimal hop count) for which
/// `pred` holds, and returns the full path from `start` to it.
///
/// This is §2.4's path query — "find the first ancestor of this file that
/// the user is likely to recognize" — with the "likely to recognize"
/// predicate supplied by the caller (e.g. visit count above a threshold).
///
/// Returns `None` if no ancestor satisfies the predicate within the budget.
pub fn first_ancestor_where(
    graph: &ProvenanceGraph,
    start: NodeId,
    pred: impl FnMut(NodeId) -> bool,
    budget: &Budget,
) -> Option<Path> {
    first_ancestor_where_observed(graph, start, pred, budget).path
}

/// The observed outcome of a [`first_ancestor_where_observed`] search: the
/// path (when an ancestor matched) plus the work accounting that EXPLAIN
/// profiles report — how many nodes the BFS visited and whether the budget
/// cut it short (in which case a matching ancestor may exist beyond the
/// truncation point).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AncestorSearch {
    /// Path from the start to the nearest matching proper ancestor, if any
    /// was reached within the budget.
    pub path: Option<Path>,
    /// Nodes the BFS visited (including the start node).
    pub nodes_touched: usize,
    /// Tree edges the BFS followed while visiting those nodes.
    pub edges_touched: usize,
    /// `true` if a budget limit stopped the search before exhaustion.
    pub truncated: bool,
}

/// [`first_ancestor_where`] with work accounting: same search, but the
/// caller also learns how many nodes were visited and whether the budget
/// truncated the traversal — the inputs an EXPLAIN profile needs.
pub fn first_ancestor_where_observed(
    graph: &ProvenanceGraph,
    start: NodeId,
    mut pred: impl FnMut(NodeId) -> bool,
    budget: &Budget,
) -> AncestorSearch {
    let traversal = bfs(
        graph,
        start,
        Direction::Ancestors,
        EdgeKind::is_causal,
        budget,
    );
    // Skip the start node itself: "first ancestor" is a proper ancestor.
    let hit = traversal.reached.iter().skip(1).find(|r| pred(r.node));
    let path = hit.map(|h| reconstruct_path(graph, &traversal, h.node));
    AncestorSearch {
        path,
        nodes_touched: traversal.len(),
        edges_touched: traversal.reached.iter().filter(|r| r.via.is_some()).count(),
        truncated: traversal.truncated,
    }
}

/// A concrete path through the graph: alternating nodes and the edges that
/// join them. `edges.len() == nodes.len() - 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Nodes from the query start to the found node, inclusive.
    pub nodes: Vec<NodeId>,
    /// Edges traversed, in step order.
    pub edges: Vec<EdgeId>,
}

impl Path {
    /// Number of hops (edges) in the path.
    pub fn hops(&self) -> usize {
        self.edges.len()
    }

    /// The terminal node of the path.
    ///
    /// # Panics
    ///
    /// Panics if the path is empty; paths produced by this module always
    /// contain at least the start node.
    #[expect(
        clippy::expect_used,
        reason = "documented # Panics contract: every constructor seeds nodes with the start node, so emptiness is a caller-visible API misuse"
    )]
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }
}

/// Rebuilds the BFS tree path from the traversal start to `target`.
fn reconstruct_path(graph: &ProvenanceGraph, traversal: &Traversal, target: NodeId) -> Path {
    use std::collections::HashMap;
    let by_node: HashMap<NodeId, &Reached> =
        traversal.reached.iter().map(|r| (r.node, r)).collect();
    let mut nodes = vec![target];
    let mut edges = Vec::new();
    let mut cur = target;
    while let Some(r) = by_node.get(&cur) {
        match r.via {
            Some(eid) => {
                // bp-lint: allow(L009): path length is capped by the producing BFS's Budget (max_depth hops), so reconstruction is bounded without re-checking the deadline
                let Ok(e) = graph.edge(eid) else {
                    // Path edges come from the traversal and are live by
                    // construction; stop rebuilding rather than abort.
                    break;
                };
                // The BFS stepped from one endpoint to the other; recover
                // the predecessor endpoint regardless of direction.
                let prev = if e.src() == cur { e.dst() } else { e.src() };
                edges.push(eid);
                nodes.push(prev);
                cur = prev;
            }
            None => break,
        }
    }
    nodes.reverse();
    edges.reverse();
    Path { nodes, edges }
}

/// Shortest path (fewest hops) between two nodes following causal edges in
/// the given direction; `None` if unreachable.
pub fn shortest_path(
    graph: &ProvenanceGraph,
    from: NodeId,
    to: NodeId,
    direction: Direction,
) -> Option<Path> {
    let traversal = bfs(graph, from, direction, EdgeKind::is_causal, &Budget::new());
    traversal
        .reached
        .iter()
        .any(|r| r.node == to)
        .then(|| reconstruct_path(graph, &traversal, to))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NodeKind};
    use crate::time::Timestamp;

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// Builds the download-lineage scenario:
    ///   search_term <- search_page <- blog <- filehost <- download
    /// plus an overlap edge and an embedded ad.
    fn lineage_fixture() -> (ProvenanceGraph, Vec<NodeId>) {
        let mut g = ProvenanceGraph::new();
        let term = g.add_node(Node::new(NodeKind::SearchTerm, "codec", t(1)));
        let search = g.add_node(Node::new(NodeKind::PageVisit, "http://se/?q=codec", t(2)));
        let blog = g.add_node(Node::new(NodeKind::PageVisit, "http://blog/post", t(3)));
        let host = g.add_node(Node::new(NodeKind::PageVisit, "http://host/file", t(4)));
        let dl = g.add_node(Node::new(NodeKind::Download, "/home/u/codec.exe", t(5)));
        let ad = g.add_node(Node::new(NodeKind::PageVisit, "http://ads/banner", t(3)));
        g.add_edge(search, term, EdgeKind::SearchResult, t(2))
            .unwrap();
        g.add_edge(blog, search, EdgeKind::Link, t(3)).unwrap();
        g.add_edge(host, blog, EdgeKind::Link, t(4)).unwrap();
        g.add_edge(dl, host, EdgeKind::DownloadFrom, t(5)).unwrap();
        g.add_edge(ad, blog, EdgeKind::Embed, t(3)).unwrap();
        // Context edge that must not leak into lineage:
        g.add_edge(host, ad, EdgeKind::TemporalOverlap, t(4))
            .unwrap();
        (g, vec![term, search, blog, host, dl, ad])
    }

    #[test]
    fn ancestors_of_download_is_full_lineage() {
        let (g, ids) = lineage_fixture();
        let dl = ids[4];
        let anc = ancestors(&g, dl);
        let reached: Vec<NodeId> = anc.node_ids().collect();
        assert_eq!(reached[0], dl, "start comes first");
        assert!(reached.contains(&ids[0]), "search term is in the lineage");
        assert!(reached.contains(&ids[1]));
        assert!(reached.contains(&ids[2]));
        assert!(reached.contains(&ids[3]));
        assert!(!anc.truncated);
    }

    #[test]
    fn temporal_overlap_excluded_from_lineage() {
        let (g, ids) = lineage_fixture();
        // Lineage of the filehost page must not include the ad (only linked
        // by TemporalOverlap) but does include blog -> search -> term.
        let anc = ancestors(&g, ids[3]);
        let reached: Vec<NodeId> = anc.node_ids().collect();
        assert!(!reached.contains(&ids[5]), "overlap edge must not leak");
        assert!(reached.contains(&ids[2]));
    }

    #[test]
    fn descendants_of_blog_include_download() {
        let (g, ids) = lineage_fixture();
        let desc = descendants(&g, ids[2]);
        let reached: Vec<NodeId> = desc.node_ids().collect();
        assert!(reached.contains(&ids[4]), "download descends from blog");
        assert!(reached.contains(&ids[3]));
        assert!(reached.contains(&ids[5]), "embedded ad descends from blog");
    }

    #[test]
    fn bfs_depth_limit() {
        let (g, ids) = lineage_fixture();
        let shallow = bfs(
            &g,
            ids[4],
            Direction::Ancestors,
            EdgeKind::is_causal,
            &Budget::new().with_max_depth(1),
        );
        let reached: Vec<NodeId> = shallow.node_ids().collect();
        assert_eq!(reached, vec![ids[4], ids[3]]);
    }

    #[test]
    fn bfs_node_budget_truncates() {
        let (g, ids) = lineage_fixture();
        let cut = bfs(
            &g,
            ids[4],
            Direction::Ancestors,
            EdgeKind::is_causal,
            &Budget::new().with_max_nodes(2),
        );
        assert_eq!(cut.len(), 2);
        assert!(cut.truncated);
    }

    #[test]
    fn bfs_deadline_zero_truncates_immediately() {
        let (g, ids) = lineage_fixture();
        let cut = bfs(
            &g,
            ids[4],
            Direction::Ancestors,
            EdgeKind::is_causal,
            &Budget::new().with_deadline(Duration::ZERO),
        );
        assert!(cut.truncated);
        assert!(cut.len() <= 1);
    }

    #[test]
    fn bfs_on_unknown_start_is_empty() {
        let g = ProvenanceGraph::new();
        let tr = bfs(
            &g,
            NodeId::new(5),
            Direction::Ancestors,
            EdgeKind::is_causal,
            &Budget::new(),
        );
        assert_eq!(tr.len(), 0);
        assert!(!tr.truncated);
    }

    #[test]
    fn first_recognizable_ancestor() {
        let (mut g, ids) = lineage_fixture();
        // Mark the search page as heavily visited ("likely to recognize").
        g.node_mut(ids[1])
            .unwrap()
            .attrs_mut()
            .set("visit_count", 50i64);
        let path = first_ancestor_where(
            &g,
            ids[4],
            |n| {
                g.node(n)
                    .unwrap()
                    .attrs()
                    .get_int("visit_count")
                    .unwrap_or(0)
                    >= 10
            },
            &Budget::new(),
        )
        .expect("search page is recognizable");
        assert_eq!(path.target(), ids[1]);
        // Path is download -> host -> blog -> search.
        assert_eq!(path.nodes, vec![ids[4], ids[3], ids[2], ids[1]]);
        assert_eq!(path.hops(), 3);
    }

    #[test]
    fn first_ancestor_where_skips_start_node() {
        let (g, ids) = lineage_fixture();
        // Predicate true everywhere: must still return a *proper* ancestor.
        let path = first_ancestor_where(&g, ids[4], |_| true, &Budget::new()).unwrap();
        assert_ne!(path.target(), ids[4]);
        assert_eq!(path.target(), ids[3], "BFS order: nearest ancestor first");
    }

    #[test]
    fn first_ancestor_where_none_when_no_match() {
        let (g, ids) = lineage_fixture();
        assert!(first_ancestor_where(&g, ids[4], |_| false, &Budget::new()).is_none());
    }

    #[test]
    fn observed_ancestor_search_reports_work() {
        let (g, ids) = lineage_fixture();
        let found = first_ancestor_where_observed(&g, ids[4], |_| true, &Budget::new());
        assert_eq!(found.path.as_ref().map(Path::target), Some(ids[3]));
        // Lineage of the download: dl, host, blog, search, term = 5 nodes.
        assert_eq!(found.nodes_touched, 5);
        assert_eq!(found.edges_touched, 4);
        assert!(!found.truncated);

        let missed = first_ancestor_where_observed(&g, ids[4], |_| false, &Budget::new());
        assert!(missed.path.is_none());
        assert_eq!(missed.nodes_touched, 5);
    }

    #[test]
    fn budget_clock_drives_deadline_with_mock_time() {
        let (g, ids) = lineage_fixture();
        let (clock, mock) = ClockHandle::mock();
        // 100 µs budget; each clock reading auto-ticks 60 µs, so the
        // deadline expires after a couple of visited nodes.
        mock.set_auto_tick_micros(60);
        let cut = first_ancestor_where_observed(
            &g,
            ids[4],
            |_| false,
            &Budget::new()
                .with_deadline(Duration::from_micros(100))
                .with_clock(clock),
        );
        assert!(cut.truncated, "mock deadline must truncate the search");
        assert!(cut.nodes_touched < 5);
    }

    #[test]
    fn a_pinned_budget_keeps_its_first_instant() {
        let (clock, mock) = ClockHandle::mock();
        let budget = Budget::new()
            .with_deadline(Duration::from_micros(100))
            .with_clock(clock);
        assert!(!budget.is_pinned());
        assert_eq!(budget.elapsed(), Duration::ZERO);
        let pinned = budget.pinned();
        mock.advance_micros(60);
        // Pinning again keeps the instant: a kernel handed the query's
        // budget spends the query's time, not a fresh allowance.
        let again = pinned.pinned();
        assert!(matches!(again, Cow::Borrowed(_)));
        assert!(!again.expired());
        mock.advance_micros(40);
        assert_eq!(again.elapsed(), Duration::from_micros(100));
        assert!(again.expired(), "expired once elapsed reaches the deadline");
        assert!(!budget.expired(), "an unpinned budget has spent nothing");
        assert!(
            !Budget::new().pinned().expired(),
            "no deadline never expires"
        );
    }

    #[test]
    fn shortest_path_both_directions() {
        let (g, ids) = lineage_fixture();
        let up = shortest_path(&g, ids[4], ids[0], Direction::Ancestors).unwrap();
        assert_eq!(up.nodes.first(), Some(&ids[4]));
        assert_eq!(up.target(), ids[0]);
        assert_eq!(up.hops(), 4);
        let down = shortest_path(&g, ids[1], ids[4], Direction::Descendants).unwrap();
        assert_eq!(down.target(), ids[4]);
        assert!(shortest_path(&g, ids[0], ids[5], Direction::Ancestors).is_none());
    }

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Ancestors.reverse(), Direction::Descendants);
        assert_eq!(Direction::Descendants.reverse(), Direction::Ancestors);
    }

    #[test]
    fn edge_filter_can_exclude_automatic_edges() {
        let (g, ids) = lineage_fixture();
        // Descendants of blog excluding automatic (embed) edges: no ad.
        let tr = bfs(
            &g,
            ids[2],
            Direction::Descendants,
            |k| k.is_causal() && !k.is_automatic(),
            &Budget::new(),
        );
        let reached: Vec<NodeId> = tr.node_ids().collect();
        assert!(!reached.contains(&ids[5]));
        assert!(reached.contains(&ids[4]));
    }
}
