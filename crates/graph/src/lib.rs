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
//!   of closing a cycle; strict insertion rejects cycles outright.
//! - **Intervals** (§3.2): every node carries an open/close
//!   [`TimeInterval`], making "were these two pages open simultaneously?"
//!   answerable — the paper observes Firefox cannot answer it.
//! - **Algorithms**: bounded BFS lineage ([`traverse`]), Kleinberg-style
//!   [`hits`], weighted [`neighborhood`] expansion (the contextual-search
//!   primitive), [`toposort`] for invariant checking, [`stats`] and
//!   [`dot`] export.
//!
//! # Example: the "rosebud" scenario (§2.1)
//!
//! ```
//! use bp_graph::{ProvenanceGraph, Node, NodeKind, EdgeKind, Timestamp};
//! use bp_graph::neighborhood::{expand, ExpansionConfig};
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
//! let relevance = expand(&g, &[(term, 1.0)], &ExpansionConfig::default(), &Budget::new());
//! assert!(relevance.weight_of(kane) > 0.0);
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
pub mod toposort;
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
    /// a small pool (possibly revisiting), or tries to add an edge between
    /// two random existing nodes.
    #[derive(Debug, Clone)]
    enum Step {
        Visit(u8),
        Edge(u8, u8, u8),
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u8..20).prop_map(Step::Visit),
            (any::<u8>(), any::<u8>(), 0u8..15).prop_map(|(a, b, k)| Step::Edge(a, b, k)),
        ]
    }

    fn run_script(steps: &[Step]) -> ProvenanceGraph {
        let mut g = ProvenanceGraph::new();
        let mut clock = 0i64;
        for step in steps {
            clock += 1;
            match step {
                Step::Visit(url) => {
                    g.add_version(
                        NodeKind::PageVisit,
                        &format!("http://p{url}/"),
                        Timestamp::from_secs(clock),
                    );
                }
                Step::Edge(a, b, k) => {
                    let n = g.node_count() as u32;
                    if n == 0 {
                        continue;
                    }
                    // Errors (cycles, self-loops) are fine; commits must
                    // preserve the invariant.
                    let _ = g.add_edge(
                        NodeId::new(*a as u32 % n),
                        NodeId::new(*b as u32 % n),
                        EdgeKind::from_code(*k).unwrap_or(EdgeKind::Link),
                        Timestamp::from_secs(clock),
                    );
                }
            }
        }
        g
    }

    proptest! {
        /// Whatever script runs, the graph must remain acyclic — edges that
        /// would cycle are rejected, revisits version instead of cycling.
        #[test]
        fn graph_is_always_acyclic(steps in prop::collection::vec(step_strategy(), 1..120)) {
            let g = run_script(&steps);
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

        /// Adjacency is consistent: every edge appears exactly once in its
        /// src's out-list and once in its dst's in-list, and degree sums
        /// equal the edge count.
        #[test]
        fn adjacency_consistent(steps in prop::collection::vec(step_strategy(), 1..100)) {
            let g = run_script(&steps);
            for (eid, e) in g.edges() {
                prop_assert_eq!(g.out_edges(e.src()).iter().filter(|&&x| x == eid).count(), 1);
                prop_assert_eq!(g.in_edges(e.dst()).iter().filter(|&&x| x == eid).count(), 1);
            }
            let out_total: usize = g.node_ids().map(|n| g.out_degree(n)).sum();
            let in_total: usize = g.node_ids().map(|n| g.in_degree(n)).sum();
            prop_assert_eq!(out_total, g.edge_count());
            prop_assert_eq!(in_total, g.edge_count());
        }

        /// BFS ancestors and pairwise reachability agree.
        #[test]
        fn bfs_matches_reachability(steps in prop::collection::vec(step_strategy(), 5..80)) {
            let g = run_script(&steps);
            if g.node_count() == 0 {
                return Ok(());
            }
            let start = NodeId::new(0);
            // ancestors() follows causal edges only, so compare against
            // reachability over the same filter by using all-kind BFS.
            let reached: std::collections::HashSet<NodeId> = traverse::bfs(
                &g,
                start,
                traverse::Direction::Ancestors,
                |_| true,
                &traverse::Budget::new(),
            )
            .node_ids()
            .collect();
            for node in g.node_ids() {
                prop_assert_eq!(reached.contains(&node), g.reachable(start, node));
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

        /// Topological order, when it exists, respects every edge.
        #[test]
        fn toposort_respects_edges(steps in prop::collection::vec(step_strategy(), 1..100)) {
            let g = run_script(&steps);
            let order = toposort::topological_order(&g).expect("insertion keeps the graph acyclic");
            let pos: std::collections::HashMap<NodeId, usize> =
                order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
            for (_, e) in g.edges() {
                prop_assert!(pos[&e.dst()] < pos[&e.src()], "ancestor before descendant");
            }
        }
    }
}
