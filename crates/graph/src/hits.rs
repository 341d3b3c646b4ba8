//! Kleinberg's HITS on history subgraphs.
//!
//! §3 observes that "many web search algorithms, such as Kleinberg's HITS,
//! are graph algorithms that exploit the relationships between pages" yet
//! "there are no graph algorithms applied to the history in any modern
//! browser". Contextual history search (§4) is implemented "as a graph
//! neighborhood expansion algorithm, similar to web search algorithms such
//! as Kleinberg's HITS". This module supplies HITS itself, run over an
//! arbitrary node subset of the provenance graph (typically the textual-hit
//! neighborhood — the classic HITS "base set").

use crate::edge::EdgeKind;
use crate::graph::ProvenanceGraph;
use crate::ids::NodeId;
use std::collections::HashMap;

/// Per-node hub and authority scores produced by [`hits`].
#[derive(Debug, Clone, PartialEq)]
pub struct HitsScores {
    /// Authority score per node: how much the node is *derived from* by
    /// good hubs (a page many journeys led to).
    pub authority: HashMap<NodeId, f64>,
    /// Hub score per node: how much the node *derives from* good
    /// authorities (a page that led to many good destinations).
    pub hub: HashMap<NodeId, f64>,
    /// Number of power iterations actually performed.
    pub iterations: usize,
}

impl HitsScores {
    /// Nodes sorted by descending authority.
    pub fn top_authorities(&self, k: usize) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = self.authority.iter().map(|(&n, &s)| (n, s)).collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        v.truncate(k);
        v
    }

    /// Nodes sorted by descending hub score.
    pub fn top_hubs(&self, k: usize) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = self.hub.iter().map(|(&n, &s)| (n, s)).collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        v.truncate(k);
        v
    }
}

/// Configuration for [`hits`].
#[derive(Debug, Clone)]
pub struct HitsConfig {
    /// Maximum power iterations (the classic value of 20–50 converges on
    /// history-scale graphs well before this).
    pub max_iterations: usize,
    /// L2 convergence threshold on the authority vector.
    pub tolerance: f64,
    /// Whether automatic edges (redirect/embed/version bookkeeping)
    /// contribute; §3.2 suggests personalization algorithms exclude them.
    pub include_automatic_edges: bool,
}

impl Default for HitsConfig {
    fn default() -> Self {
        HitsConfig {
            max_iterations: 50,
            tolerance: 1e-9,
            include_automatic_edges: false,
        }
    }
}

/// Runs HITS restricted to `base_set`, following edges of the provenance
/// graph in both roles: an edge `src → dst` (src derives from dst) makes
/// `src` a *hub pointing at* `dst`, and `dst` an *authority*.
///
/// In browser terms: pages that many navigation journeys passed *through*
/// become hubs; pages journeys *arrived at* become authorities. Temporal
/// overlap edges never contribute (they are not navigational).
///
/// Returns uniform zero scores for an empty base set.
pub fn hits(graph: &ProvenanceGraph, base_set: &[NodeId], config: &HitsConfig) -> HitsScores {
    let mut in_set = vec![false; graph.node_count()];
    for &n in base_set {
        if n.as_usize() < in_set.len() {
            in_set[n.as_usize()] = true;
        }
    }
    let members: Vec<NodeId> = base_set
        .iter()
        .copied()
        .filter(|n| n.as_usize() < graph.node_count())
        .collect();
    if members.is_empty() {
        return HitsScores {
            authority: HashMap::new(),
            hub: HashMap::new(),
            iterations: 0,
        };
    }

    let edge_ok = |kind: EdgeKind| {
        kind.is_causal() && (config.include_automatic_edges || !kind.is_automatic())
    };

    // Precompute the induced adjacency: (hub_index, authority_index)
    // pairs, iterating members in order so floating-point accumulation
    // (and therefore the scores) is deterministic run to run.
    let index_of: HashMap<NodeId, usize> =
        members.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut arcs: Vec<(usize, usize)> = Vec::new();
    for (i, &node) in members.iter().enumerate() {
        // bp-lint: allow(L009): the base set is the caller's already-budgeted expansion result, so this loop touches at most Budget::max_nodes members — the deadline was honored upstream
        for (eid, parent) in graph.parents(node) {
            // Adjacency lists only hold live edges; a miss would mean the
            // graph's internal invariant broke, and skipping the arc
            // degrades better than aborting a query (`clippy::unwrap_used`).
            let Ok(edge) = graph.edge(eid) else { continue };
            let kind = edge.kind();
            if edge_ok(kind) {
                if let Some(&j) = index_of.get(&parent) {
                    arcs.push((i, j)); // node is hub, parent is authority
                }
            }
        }
    }

    let n = members.len();
    let mut auth = vec![1.0f64; n];
    let mut hub = vec![1.0f64; n];
    let mut iterations = 0;
    for _ in 0..config.max_iterations {
        iterations += 1;
        let mut new_auth = vec![0.0f64; n];
        for &(h, a) in &arcs {
            new_auth[a] += hub[h];
        }
        let mut new_hub = vec![0.0f64; n];
        for &(h, a) in &arcs {
            new_hub[h] += new_auth[a];
        }
        normalize(&mut new_auth);
        normalize(&mut new_hub);
        let delta: f64 = new_auth
            .iter()
            .zip(&auth)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        auth = new_auth;
        hub = new_hub;
        if delta.sqrt() < config.tolerance {
            break;
        }
    }

    HitsScores {
        authority: members
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, auth[i]))
            .collect(),
        hub: members
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, hub[i]))
            .collect(),
        iterations,
    }
}

fn normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NodeKind};
    use crate::time::Timestamp;

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// Star: many visits all derive from one search page (the authority).
    fn star() -> (ProvenanceGraph, NodeId, Vec<NodeId>) {
        let mut g = ProvenanceGraph::new();
        let hubed = g.add_node(Node::new(NodeKind::PageVisit, "http://se/?q=x", t(0)));
        let leaves: Vec<NodeId> = (0..5)
            .map(|i| {
                let v = g.add_node(Node::new(
                    NodeKind::PageVisit,
                    format!("http://r{i}/"),
                    t(i + 1),
                ));
                g.add_edge(v, hubed, EdgeKind::Link, t(i + 1)).unwrap();
                v
            })
            .collect();
        (g, hubed, leaves)
    }

    #[test]
    fn star_center_is_top_authority() {
        let (g, center, leaves) = star();
        let mut base = vec![center];
        base.extend(&leaves);
        let scores = hits(&g, &base, &HitsConfig::default());
        let top = scores.top_authorities(1);
        assert_eq!(top[0].0, center);
        assert!(top[0].1 > 0.99, "center holds all authority: {}", top[0].1);
        // All leaves are equal hubs.
        let hubs = scores.top_hubs(5);
        for (n, s) in hubs {
            assert!(leaves.contains(&n));
            assert!((s - 1.0 / (5f64).sqrt()).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_base_set() {
        let (g, ..) = star();
        let scores = hits(&g, &[], &HitsConfig::default());
        assert!(scores.authority.is_empty());
        assert_eq!(scores.iterations, 0);
    }

    #[test]
    fn base_set_restricts_computation() {
        let (g, center, leaves) = star();
        // Base set excludes the center: no arcs at all, scores stay uniform.
        let scores = hits(&g, &leaves, &HitsConfig::default());
        assert!(!scores.authority.contains_key(&center));
        for &l in &leaves {
            assert_eq!(scores.authority[&l], 0.0);
        }
    }

    #[test]
    fn out_of_range_ids_ignored() {
        let (g, center, _) = star();
        let scores = hits(&g, &[center, NodeId::new(999)], &HitsConfig::default());
        assert_eq!(scores.authority.len(), 1);
    }

    #[test]
    fn automatic_edges_excluded_by_default() {
        let mut g = ProvenanceGraph::new();
        let a = g.add_node(Node::new(NodeKind::PageVisit, "a", t(0)));
        let b = g.add_node(Node::new(NodeKind::PageVisit, "b", t(1)));
        g.add_edge(b, a, EdgeKind::Redirect, t(1)).unwrap();
        let excl = hits(&g, &[a, b], &HitsConfig::default());
        assert_eq!(excl.authority[&a], 0.0, "redirect must not grant authority");
        let incl = hits(
            &g,
            &[a, b],
            &HitsConfig {
                include_automatic_edges: true,
                ..HitsConfig::default()
            },
        );
        assert!(incl.authority[&a] > 0.9);
    }

    #[test]
    fn converges_quickly_on_small_graphs() {
        let (g, center, leaves) = star();
        let mut base = vec![center];
        base.extend(&leaves);
        let scores = hits(&g, &base, &HitsConfig::default());
        assert!(scores.iterations <= 5, "star converges almost immediately");
    }

    mod proptests {
        use super::super::*;
        use crate::node::{Node, NodeKind};
        use crate::time::Timestamp;
        use proptest::prelude::*;

        proptest! {
            /// HITS scores are finite, nonnegative, L2-normalized (or all
            /// zero), and deterministic for any random DAG.
            #[test]
            fn scores_are_normalized_and_deterministic(
                links in prop::collection::vec((1u8..30, 0u8..30), 0..80)
            ) {
                let mut g = ProvenanceGraph::new();
                for i in 0..31 {
                    g.add_node(Node::new(
                        NodeKind::PageVisit,
                        format!("u{i}"),
                        Timestamp::from_secs(i),
                    ));
                }
                for &(src, dst) in &links {
                    let src = u32::from(src.max(1));
                    let dst = u32::from(dst) % src;
                    let _ = g.add_edge(
                        NodeId::new(src % 31),
                        NodeId::new(dst),
                        EdgeKind::Link,
                        Timestamp::from_secs(i64::from(src)),
                    );
                }
                let base: Vec<NodeId> = g.node_ids().collect();
                let a = hits(&g, &base, &HitsConfig::default());
                let b = hits(&g, &base, &HitsConfig::default());
                for (&n, &score) in &a.authority {
                    prop_assert!(score.is_finite() && score >= 0.0);
                    prop_assert_eq!(b.authority[&n], score, "deterministic");
                }
                let norm: f64 = a.authority.values().map(|s| s * s).sum();
                prop_assert!(
                    norm < 1e-12 || (norm - 1.0).abs() < 1e-6,
                    "authority vector normalized or zero, got ||a||² = {norm}"
                );
            }
        }
    }

    #[test]
    fn two_communities_rank_internally() {
        // Two disjoint stars; each center should out-rank all leaves.
        let mut g = ProvenanceGraph::new();
        let mk_star = |g: &mut ProvenanceGraph, tag: &str, base: i64| {
            let c = g.add_node(Node::new(
                NodeKind::PageVisit,
                format!("http://{tag}/"),
                t(base),
            ));
            for i in 0..3 {
                let v = g.add_node(Node::new(
                    NodeKind::PageVisit,
                    format!("http://{tag}/{i}"),
                    t(base + i + 1),
                ));
                g.add_edge(v, c, EdgeKind::Link, t(base + i + 1)).unwrap();
            }
            c
        };
        let c1 = mk_star(&mut g, "one", 0);
        let c2 = mk_star(&mut g, "two", 100);
        let base: Vec<NodeId> = g.node_ids().collect();
        let scores = hits(&g, &base, &HitsConfig::default());
        let top2 = scores.top_authorities(2);
        let tops: Vec<NodeId> = top2.iter().map(|(n, _)| *n).collect();
        assert!(tops.contains(&c1) && tops.contains(&c2));
    }
}
