//! Graph statistics for the experiment reports.
//!
//! §3 reports "one author's history has accumulated more than 25,000 nodes
//! over the past 79 days"; experiment E3 regenerates the corresponding
//! scale figures from a simulated history, and E1's storage accounting
//! starts from the per-kind counts computed here.

use crate::edge::EdgeKind;
use crate::frozen::FrozenGraph;
use crate::graph::ProvenanceGraph;
use crate::node::NodeKind;
use std::collections::BTreeMap;

/// Aggregate statistics of a provenance graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphStats {
    /// Total node count.
    pub nodes: usize,
    /// Total edge count.
    pub edges: usize,
    /// Node count per kind.
    pub nodes_by_kind: BTreeMap<&'static str, usize>,
    /// Edge count per kind.
    pub edges_by_kind: BTreeMap<&'static str, usize>,
    /// Maximum out-degree (derivations) across nodes.
    pub max_out_degree: usize,
    /// Maximum in-degree (derived objects) across nodes.
    pub max_in_degree: usize,
    /// Mean degree (undirected).
    pub mean_degree: f64,
    /// Nodes with no edges at all ("sparsely connected metadata", §3.2).
    pub isolated_nodes: usize,
    /// Total payload bytes (nodes + edges).
    pub payload_bytes: usize,
}

/// Computes [`GraphStats`] in one pass.
pub fn stats(graph: &ProvenanceGraph) -> GraphStats {
    let mut s = GraphStats {
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        payload_bytes: graph.payload_size_bytes(),
        ..GraphStats::default()
    };
    for kind in NodeKind::ALL {
        let count = graph.nodes_of_kind(kind).count();
        if count > 0 {
            s.nodes_by_kind.insert(kind.label(), count);
        }
    }
    let mut degrees = vec![(0usize, 0usize); s.nodes];
    for (_, e) in graph.edges() {
        *s.edges_by_kind.entry(e.kind().label()).or_insert(0) += 1;
        degrees[e.src().as_usize()].0 += 1;
        degrees[e.dst().as_usize()].1 += 1;
    }
    for &(out, inn) in &degrees {
        s.max_out_degree = s.max_out_degree.max(out);
        s.max_in_degree = s.max_in_degree.max(inn);
        if out + inn == 0 {
            s.isolated_nodes += 1;
        }
    }
    // Every edge adds one to two degrees.
    s.mean_degree = if s.nodes == 0 {
        0.0
    } else {
        (2 * s.edges) as f64 / s.nodes as f64
    };
    s
}

/// Fraction of edges that are "second-class" relationships (§3.2): the
/// relationships today's browsers drop. Ablation A4 removes these and
/// measures the connectivity loss.
pub fn second_class_fraction(graph: &ProvenanceGraph) -> f64 {
    if graph.edge_count() == 0 {
        return 0.0;
    }
    let second: usize = graph
        .edges()
        .filter(|(_, e)| e.kind().is_second_class())
        .count();
    second as f64 / graph.edge_count() as f64
}

/// Counts connected components of a snapshot treating edges as
/// undirected, optionally filtering by edge kind. Used to quantify how
/// dropping second-class relationships fragments the history graph.
pub fn connected_components(
    frozen: &FrozenGraph,
    mut edge_filter: impl FnMut(EdgeKind) -> bool,
) -> usize {
    let n = frozen.node_count();
    let mut seen = vec![false; n];
    let mut components = 0;
    for start in 0..n {
        if seen[start] {
            continue;
        }
        components += 1;
        let mut stack = vec![start as u32];
        seen[start] = true;
        while let Some(node) = stack.pop() {
            let incident = frozen.out_edges_of(node).chain(frozen.in_edges_of(node));
            for (nbr, kind) in incident {
                if edge_filter(kind) && !seen[nbr as usize] {
                    seen[nbr as usize] = true;
                    stack.push(nbr);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::time::Timestamp;

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn sample() -> ProvenanceGraph {
        let mut g = ProvenanceGraph::new();
        let term = g.add_node(Node::new(NodeKind::SearchTerm, "q", t(0)));
        let a = g.add_node(Node::new(NodeKind::PageVisit, "a", t(1)));
        let b = g.add_node(Node::new(NodeKind::PageVisit, "b", t(2)));
        let _lone = g.add_node(Node::new(NodeKind::Bookmark, "lone", t(3)));
        g.add_edge(a, term, EdgeKind::SearchResult, t(1)).unwrap();
        g.add_edge(b, a, EdgeKind::TypedLocation, t(2)).unwrap();
        g
    }

    #[test]
    fn counts_by_kind() {
        let s = stats(&sample());
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 2);
        assert_eq!(s.nodes_by_kind["visit"], 2);
        assert_eq!(s.nodes_by_kind["search_term"], 1);
        assert_eq!(s.nodes_by_kind["bookmark"], 1);
        assert_eq!(s.edges_by_kind["typed"], 1);
        assert_eq!(s.isolated_nodes, 1);
    }

    #[test]
    fn degrees() {
        let s = stats(&sample());
        assert_eq!(s.max_out_degree, 1);
        assert_eq!(s.max_in_degree, 1);
        assert!((s.mean_degree - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats() {
        let s = stats(&ProvenanceGraph::new());
        assert_eq!(s.nodes, 0);
        assert_eq!(s.mean_degree, 0.0);
    }

    #[test]
    fn second_class_fraction_counts_typed_and_search() {
        let g = sample();
        // Both edges (search_result, typed) are second-class.
        assert!((second_class_fraction(&g) - 1.0).abs() < 1e-12);
        assert_eq!(second_class_fraction(&ProvenanceGraph::new()), 0.0);
    }

    #[test]
    fn components_with_and_without_second_class() {
        let g = sample();
        let f = FrozenGraph::build(&g);
        // All edges: {term,a,b} + {lone} = 2 components.
        assert_eq!(connected_components(&f, |_| true), 2);
        // Dropping second-class edges isolates everything: 4 components.
        assert_eq!(connected_components(&f, |k| !k.is_second_class()), 4);
    }
}
