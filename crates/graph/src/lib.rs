//! # bp-graph — the versioned browser-provenance graph
//!
//! This crate implements the graph model at the heart of *The Case for
//! Browser Provenance* (Margo & Seltzer, TaPP '09): "any browser's history
//! can be represented as a graph in which pages are nodes, relationships are
//! edges, and both nodes and edges can have attributes" (§3) — with the
//! crucial refinement that the graph is **provenance**, and therefore a DAG.
//!
//! Key pieces:
//!
//! - [`ProvenanceGraph`] — an append-only directed acyclic multigraph whose
//!   nodes are history objects ([`NodeKind`]: pages, visits, bookmarks,
//!   search terms, downloads, form entries, tabs) and whose edges are typed,
//!   time-stamped derives-from relationships ([`EdgeKind`]).
//! - **Versioning** (§3.1): revisiting a page mints a new
//!   [`Version`]ed visit instance ([`ProvenanceGraph::add_version`]) instead
//!   of closing a cycle; every edge runs from a newer node to an older one,
//!   so the graph is acyclic by construction.
//! - **Intervals** (§3.2): every node carries an open/close
//!   [`TimeInterval`], making "were these two pages open simultaneously?"
//!   answerable — the paper observes Firefox cannot answer it.
//! - **Algorithms**, all over the CSR snapshot [`frozen::FrozenGraph`]:
//!   bounded BFS lineage ([`traverse`]), Kleinberg-style [`hits`],
//!   weighted neighborhood expansion (the contextual-search primitive,
//!   configured by [`neighborhood`]) and personalized PageRank
//!   ([`frozen`]); plus [`stats`] and [`dot`] export.
//!
//! # Example: the "rosebud" scenario (§2.1)
//!
//! ```
//! use bp_graph::{ProvenanceGraph, Node, NodeKind, EdgeKind, Timestamp};
//! use bp_graph::frozen::{expand_frozen, FrozenGraph};
//! use bp_graph::neighborhood::ExpansionConfig;
//! use bp_graph::traverse::Budget;
//!
//! # fn main() -> Result<(), bp_graph::GraphError> {
//! let mut g = ProvenanceGraph::new();
//! let t = Timestamp::from_secs(1);
//! let term = g.add_node(Node::new(NodeKind::SearchTerm, "rosebud", t));
//! let search = g.add_node(Node::new(NodeKind::PageVisit, "http://se/?q=rosebud", t));
//! let kane = g.add_node(Node::new(NodeKind::PageVisit, "http://films/kane", t));
//! g.add_edge(search, term, EdgeKind::SearchResult, t)?;
//! g.add_edge(kane, search, EdgeKind::Link, t)?;
//!
//! // Citizen Kane is in the provenance neighborhood of "rosebud", so a
//! // contextual search can return it even though its text never says so.
//! let frozen = FrozenGraph::build(&g);
//! let seeds = [(term, 1.0)];
//! let relevance = expand_frozen(&frozen, &seeds, &ExpansionConfig::default(), &Budget::new());
//! assert!(relevance.entries.iter().any(|&(node, w)| node == kane.index() && w > 0.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns errors or degrades instead of aborting.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// Diagnostics go through bp_obs::log, leveled and flight-recorded.
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

mod attr;
pub mod dot;
mod edge;
mod error;
pub mod frozen;
mod graph;
pub mod hits;
mod ids;
pub mod neighborhood;
mod node;
pub mod pagerank;
pub mod stats;
mod time;
pub mod traverse;
pub mod tree;

pub use attr::{AttrMap, AttrValue};
pub use edge::{Edge, EdgeKind};
pub use error::GraphError;
pub use graph::ProvenanceGraph;
pub use ids::{EdgeId, NodeId, Version};
pub use node::{Node, NodeKind};
pub use time::{TimeInterval, Timestamp};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A random history-building script: each step either visits a URL from
    /// a small pool (possibly revisiting), adds an edge drawn into the edge
    /// order, or tries an edge between any two nodes.
    #[derive(Debug, Clone)]
    enum Step {
        Visit(u8),
        Edge(u8, u8, u8),
        Any(u8, u8),
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u8..20).prop_map(Step::Visit),
            (any::<u8>(), any::<u8>(), 0u8..15).prop_map(|(a, b, k)| Step::Edge(a, b, k)),
            (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Any(a, b)),
        ]
    }

    /// The source of the graph's newest edge.
    fn last_source(g: &ProvenanceGraph) -> u32 {
        g.edges().last().map_or(0, |(_, e)| e.src().index())
    }

    fn run_script(steps: &[Step]) -> Result<ProvenanceGraph, TestCaseError> {
        let mut g = ProvenanceGraph::new();
        let mut clock = 0i64;
        for step in steps {
            clock += 1;
            let at = Timestamp::from_secs(clock);
            let n = g.node_count() as u32;
            match *step {
                Step::Visit(url) => {
                    g.add_version(NodeKind::PageVisit, &format!("http://p{url}/"), at);
                }
                // From the last edge's source or a newer node to an older
                // one: always accepted.
                Step::Edge(a, b, k) if n > 1 => {
                    let last = last_source(&g).max(1);
                    let src = last + u32::from(a) % (n - last);
                    let dst = u32::from(b) % src;
                    let kind = EdgeKind::from_code(k).unwrap_or(EdgeKind::Link);
                    prop_assert!(g
                        .add_edge(NodeId::new(src), NodeId::new(dst), kind, at)
                        .is_ok());
                }
                // Any pair: accepted exactly when it keeps the order, and
                // a rejection changes nothing.
                Step::Any(a, b) if n > 0 => {
                    let (src, dst) = (u32::from(a) % n, u32::from(b) % n);
                    let ordered = dst < src && src >= last_source(&g);
                    let (edges, epoch) = (g.edge_count(), g.epoch());
                    let added = g.add_edge(NodeId::new(src), NodeId::new(dst), EdgeKind::Link, at);
                    prop_assert_eq!(added.is_ok(), ordered);
                    if !ordered {
                        prop_assert_eq!((g.edge_count(), g.epoch()), (edges, epoch));
                    }
                }
                _ => {}
            }
        }
        Ok(g)
    }

    proptest! {
        /// Whatever script runs, the graph keeps the edge order and so
        /// stays acyclic: edges out of order are rejected, revisits
        /// version instead of cycling.
        #[test]
        fn graph_is_always_acyclic(steps in prop::collection::vec(step_strategy(), 1..120)) {
            let g = run_script(&steps)?;
            prop_assert!(g.verify_acyclic());
        }

        /// Versioning is monotone: each add_version for the same key yields
        /// version numbers 0, 1, 2, ... and distinct node ids, chained by
        /// VersionOf edges.
        #[test]
        fn versions_are_monotone(revisits in 1usize..30) {
            let mut g = ProvenanceGraph::new();
            let mut ids = Vec::new();
            for i in 0..revisits {
                let id = g.add_version(NodeKind::PageVisit, "http://same/", Timestamp::from_secs(i as i64));
                prop_assert_eq!(g.node(id).unwrap().version().number(), i as u32);
                ids.push(id);
            }
            ids.dedup();
            prop_assert_eq!(ids.len(), revisits);
            for (i, &id) in ids.iter().enumerate().skip(1) {
                let has_version_edge = g.parents(id).any(|(e, p)| {
                    g.edge(e).unwrap().kind() == EdgeKind::VersionOf && p == ids[i - 1]
                });
                prop_assert!(has_version_edge);
            }
        }

        /// Adjacency is consistent: the nodes' out-edge runs, joined in id
        /// order, are the arena; each edge's source is in its
        /// destination's reverse CSR row; and degree sums equal the edge
        /// count.
        #[test]
        fn adjacency_consistent(steps in prop::collection::vec(step_strategy(), 1..100)) {
            let g = run_script(&steps)?;
            let runs: Vec<(EdgeId, NodeId)> = g.node_ids().flat_map(|n| g.parents(n)).collect();
            let arena: Vec<(EdgeId, NodeId)> = g.edges().map(|(id, e)| (id, e.dst())).collect();
            prop_assert_eq!(runs, arena);
            let f = frozen::FrozenGraph::build(&g);
            let mut in_total = 0;
            for n in g.node_ids() {
                let sources: Vec<u32> = f.in_edges_of(n.index()).map(|(src, _)| src).collect();
                let expected: Vec<u32> = g
                    .edges()
                    .filter(|(_, e)| e.dst() == n)
                    .map(|(_, e)| e.src().index())
                    .collect();
                prop_assert_eq!(&sources, &expected);
                in_total += sources.len();
            }
            let out_total: usize = g.node_ids().map(|n| g.out_degree(n)).sum();
            prop_assert_eq!(out_total, g.edge_count());
            prop_assert_eq!(in_total, g.edge_count());
        }

        /// BFS ancestors over the CSR and pairwise reachability over the
        /// arena's out-edge runs agree.
        #[test]
        fn bfs_matches_reachability(steps in prop::collection::vec(step_strategy(), 5..80)) {
            let g = run_script(&steps)?;
            if g.node_count() == 0 {
                return Ok(());
            }
            // The newest node: every other node is older, so any may be
            // its ancestor.
            let start = NodeId::new(g.node_count() as u32 - 1);
            // Reachability follows every kind, so the BFS does too.
            let reached: std::collections::HashSet<NodeId> = traverse::bfs(
                &frozen::FrozenGraph::build(&g),
                start,
                traverse::Direction::Ancestors,
                |_| true,
                &traverse::Budget::new(),
            )
            .node_ids()
            .collect();
            // Depth-first over `parents`, which reads the arena's runs.
            let mut reachable = vec![false; g.node_count()];
            let mut stack = vec![start];
            reachable[start.as_usize()] = true;
            while let Some(n) = stack.pop() {
                for (_, p) in g.parents(n) {
                    if !std::mem::replace(&mut reachable[p.as_usize()], true) {
                        stack.push(p);
                    }
                }
            }
            for node in g.node_ids() {
                prop_assert_eq!(reached.contains(&node), reachable[node.as_usize()]);
            }
        }

        /// Interval overlap is symmetric and consistent with `within(0)`.
        #[test]
        fn overlap_symmetric(a_open in 0i64..1000, a_len in 0i64..1000,
                             b_open in 0i64..1000, b_len in 0i64..1000) {
            let a = TimeInterval::closed(Timestamp::from_secs(a_open), Timestamp::from_secs(a_open + a_len));
            let b = TimeInterval::closed(Timestamp::from_secs(b_open), Timestamp::from_secs(b_open + b_len));
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
            if a.overlaps(&b) {
                prop_assert!(a.within(&b, std::time::Duration::ZERO));
            }
        }
    }
}
