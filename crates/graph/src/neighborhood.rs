//! Weighted graph-neighborhood expansion: its configuration.
//!
//! "We implement Contextual History Search as a graph neighborhood
//! expansion algorithm" (§4), following Shah et al.'s provenance-based
//! desktop search: start from a seed set of textual hits and spread
//! relevance to provenance neighbors with per-hop decay, so that "as a
//! first-generation descendant of the rosebud web search page, Citizen Kane
//! would receive substantial weight" (§2.1). The expansion itself runs over
//! the CSR snapshot: [`crate::frozen::expand_frozen`].

use crate::edge::EdgeKind;

/// Configuration for [`crate::frozen::expand_frozen`].
#[derive(Debug, Clone)]
pub struct ExpansionConfig {
    /// Multiplicative decay applied per hop (0 < decay < 1). A decay of
    /// 0.5 gives first-generation neighbors half the seed's weight.
    pub decay: f64,
    /// Maximum hops to spread.
    pub max_hops: usize,
    /// Per-edge-kind multiplier; kinds absent from the map use 1.0.
    /// Callers de-emphasize automatic edges here (§3.2 "unify edges" —
    /// a redirect hop should cost nothing, set its weight near 1.0;
    /// an overlap edge carries weaker evidence, set it below 1.0).
    pub kind_weights: Vec<(EdgeKind, f64)>,
    /// Weights below this threshold stop spreading (keeps the frontier
    /// small on 25k-node histories).
    pub min_weight: f64,
}

impl Default for ExpansionConfig {
    fn default() -> Self {
        ExpansionConfig {
            decay: 0.5,
            max_hops: 3,
            kind_weights: vec![
                // Redirect/embed hops are mechanical; traversing them
                // should not dilute relevance (the §3.2 unification).
                (EdgeKind::Redirect, 1.0),
                (EdgeKind::Embed, 0.8),
                // Temporal association is weaker evidence than navigation.
                (EdgeKind::TemporalOverlap, 0.4),
                // Version edges connect instances of the same object.
                (EdgeKind::VersionOf, 1.0),
                (EdgeKind::InstanceOf, 1.0),
            ],
            min_weight: 1e-4,
        }
    }
}

impl ExpansionConfig {
    pub(crate) fn weight_of(&self, kind: EdgeKind) -> f64 {
        self.kind_weights
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(1.0, |(_, w)| *w)
    }
}

/// The expansion of [`crate::frozen::expand_frozen`] over the live graph
/// and hash maps, kept as its test oracle: it reads the edge arena's runs
/// and an in-adjacency built from the arena, never the CSR it checks.
#[cfg(test)]
pub(crate) mod live {
    use super::ExpansionConfig;
    use crate::graph::ProvenanceGraph;
    use crate::ids::NodeId;
    use crate::traverse::Budget;
    use std::collections::HashMap;

    /// Result of [`expand`]: accumulated relevance per node.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct Expansion {
        /// Relevance mass accumulated at each reached node (seeds included).
        pub(crate) weight: HashMap<NodeId, f64>,
        /// `true` if a budget limit stopped the expansion early.
        pub(crate) truncated: bool,
    }

    impl Expansion {
        /// Nodes sorted by descending accumulated weight, ties broken by id
        /// for determinism.
        pub(crate) fn ranked(&self) -> Vec<(NodeId, f64)> {
            let mut v: Vec<(NodeId, f64)> = self.weight.iter().map(|(&n, &w)| (n, w)).collect();
            v.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            v
        }

        /// Weight of one node (0.0 if unreached).
        pub(crate) fn weight_of(&self, node: NodeId) -> f64 {
            self.weight.get(&node).copied().unwrap_or(0.0)
        }
    }

    /// Spreads relevance from weighted `seeds` through the live graph, as
    /// [`crate::frozen::expand_frozen`] does through the snapshot.
    pub(crate) fn expand(
        graph: &ProvenanceGraph,
        seeds: &[(NodeId, f64)],
        config: &ExpansionConfig,
        budget: &Budget,
    ) -> Expansion {
        let budget = budget.pinned();
        let mut out = Expansion::default();
        // Frontier holds (node, incoming weight) for the current hop.
        let mut frontier: Vec<(NodeId, f64)> = Vec::new();
        for &(n, w) in seeds {
            if n.as_usize() < graph.node_count() && w > 0.0 {
                *out.weight.entry(n).or_insert(0.0) += w;
                frontier.push((n, w));
            }
        }
        let max_hops = budget
            .max_depth()
            .map_or(config.max_hops, |d| d.min(config.max_hops));
        let in_adjacency = graph.in_adjacency();

        for _hop in 0..max_hops {
            if frontier.is_empty() {
                break;
            }
            let mut next: HashMap<NodeId, f64> = HashMap::new();
            for &(node, w) in &frontier {
                if budget.expired() {
                    out.truncated = true;
                    return out;
                }
                let incoming = in_adjacency[node.as_usize()].iter().copied();
                for (eid, nbr) in graph.parents(node).chain(incoming) {
                    if out.weight.contains_key(&nbr) {
                        continue; // layered: no echo back to reached nodes
                    }
                    let Ok(edge) = graph.edge(eid) else { continue };
                    let spread = w * config.decay * config.weight_of(edge.kind());
                    if spread < config.min_weight {
                        continue;
                    }
                    *next.entry(nbr).or_insert(0.0) += spread;
                }
            }
            if let Some(max) = budget.max_nodes() {
                if out.weight.len() + next.len() > max {
                    out.truncated = true;
                    // Keep the heaviest entries up to the cap.
                    let mut entries: Vec<(NodeId, f64)> = next.into_iter().collect();
                    entries.sort_by(|a, b| {
                        b.1.partial_cmp(&a.1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.0.cmp(&b.0))
                    });
                    entries.truncate(max.saturating_sub(out.weight.len()));
                    for (n, w) in &entries {
                        *out.weight.entry(*n).or_insert(0.0) += *w;
                    }
                    return out;
                }
            }
            frontier = next.iter().map(|(&n, &w)| (n, w)).collect();
            for (n, w) in next {
                *out.weight.entry(n).or_insert(0.0) += w;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::live::expand;
    use super::*;
    use crate::graph::ProvenanceGraph;
    use crate::ids::NodeId;
    use crate::node::{Node, NodeKind};
    use crate::time::Timestamp;
    use crate::traverse::Budget;

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// rosebud scenario: search page --(link)--> kane visit.
    fn rosebud() -> (ProvenanceGraph, NodeId, NodeId) {
        let mut g = ProvenanceGraph::new();
        let search = g.add_node(Node::new(NodeKind::PageVisit, "http://se/?q=rosebud", t(1)));
        let kane = g.add_node(Node::new(NodeKind::PageVisit, "http://films/kane", t(2)));
        g.add_edge(kane, search, EdgeKind::Link, t(2)).unwrap();
        (g, search, kane)
    }

    #[test]
    fn first_generation_descendant_gets_substantial_weight() {
        let (g, search, kane) = rosebud();
        let exp = expand(
            &g,
            &[(search, 1.0)],
            &ExpansionConfig::default(),
            &Budget::new(),
        );
        assert_eq!(exp.weight_of(search), 1.0);
        assert!(
            (exp.weight_of(kane) - 0.5).abs() < 1e-12,
            "one hop at decay 0.5"
        );
    }

    #[test]
    fn weight_decays_per_hop() {
        let mut g = ProvenanceGraph::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i))))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[1], w[0], EdgeKind::Link, t(1)).unwrap();
        }
        let exp = expand(
            &g,
            &[(ids[0], 1.0)],
            &ExpansionConfig::default(),
            &Budget::new(),
        );
        assert!(exp.weight_of(ids[1]) > exp.weight_of(ids[2]));
        assert!(exp.weight_of(ids[2]) > exp.weight_of(ids[3]));
    }

    #[test]
    fn multiple_seeds_accumulate() {
        let mut g = ProvenanceGraph::new();
        let a = g.add_node(Node::new(NodeKind::PageVisit, "a", t(0)));
        let b = g.add_node(Node::new(NodeKind::PageVisit, "b", t(0)));
        let mid = g.add_node(Node::new(NodeKind::PageVisit, "mid", t(1)));
        g.add_edge(mid, a, EdgeKind::Link, t(1)).unwrap();
        g.add_edge(mid, b, EdgeKind::Link, t(1)).unwrap();
        let exp = expand(
            &g,
            &[(a, 1.0), (b, 1.0)],
            &ExpansionConfig::default(),
            &Budget::new(),
        );
        assert!(
            (exp.weight_of(mid) - 1.0).abs() < 1e-9,
            "two seeds at 0.5 each = 1.0, got {}",
            exp.weight_of(mid)
        );
    }

    #[test]
    fn overlap_edges_spread_less_than_links() {
        let mut g = ProvenanceGraph::new();
        let seed = g.add_node(Node::new(NodeKind::PageVisit, "s", t(0)));
        let by_link = g.add_node(Node::new(NodeKind::PageVisit, "l", t(1)));
        let by_overlap = g.add_node(Node::new(NodeKind::PageVisit, "o", t(1)));
        g.add_edge(by_link, seed, EdgeKind::Link, t(1)).unwrap();
        g.add_edge(by_overlap, seed, EdgeKind::TemporalOverlap, t(1))
            .unwrap();
        let exp = expand(
            &g,
            &[(seed, 1.0)],
            &ExpansionConfig::default(),
            &Budget::new(),
        );
        assert!(exp.weight_of(by_link) > exp.weight_of(by_overlap));
        assert!(exp.weight_of(by_overlap) > 0.0);
    }

    #[test]
    fn ranked_is_descending_and_deterministic() {
        let (g, search, kane) = rosebud();
        let exp = expand(
            &g,
            &[(search, 1.0)],
            &ExpansionConfig::default(),
            &Budget::new(),
        );
        let ranked = exp.ranked();
        assert_eq!(ranked[0].0, search);
        assert_eq!(ranked[1].0, kane);
    }

    #[test]
    fn min_weight_prunes_deep_spread() {
        let mut g = ProvenanceGraph::new();
        let ids: Vec<NodeId> = (0..20)
            .map(|i| g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i))))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[1], w[0], EdgeKind::Link, t(1)).unwrap();
        }
        let cfg = ExpansionConfig {
            max_hops: 20,
            min_weight: 0.2,
            ..ExpansionConfig::default()
        };
        let exp = expand(&g, &[(ids[0], 1.0)], &cfg, &Budget::new());
        // 0.5^3 = 0.125 < 0.2 so spread stops after 2 hops.
        assert!(exp.weight.contains_key(&ids[2]));
        assert!(!exp.weight.contains_key(&ids[3]));
    }

    #[test]
    fn node_budget_truncates() {
        let mut g = ProvenanceGraph::new();
        let seed = g.add_node(Node::new(NodeKind::PageVisit, "s", t(0)));
        for i in 0..50 {
            let v = g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i + 1)));
            g.add_edge(v, seed, EdgeKind::Link, t(i + 1)).unwrap();
        }
        let exp = expand(
            &g,
            &[(seed, 1.0)],
            &ExpansionConfig::default(),
            &Budget::new().with_max_nodes(10),
        );
        assert!(exp.truncated);
        assert!(exp.weight.len() <= 10);
    }

    #[test]
    fn empty_and_invalid_seeds() {
        let (g, ..) = rosebud();
        let exp = expand(&g, &[], &ExpansionConfig::default(), &Budget::new());
        assert!(exp.weight.is_empty());
        let exp2 = expand(
            &g,
            &[(NodeId::new(99), 1.0), (NodeId::new(0), 0.0)],
            &ExpansionConfig::default(),
            &Budget::new(),
        );
        assert!(exp2.weight.is_empty());
    }
}
