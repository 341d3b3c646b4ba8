//! Personalized PageRank with restart.
//!
//! §4's future work calls for "more intelligent algorithms that can
//! respond to our use case queries with high-quality results", building on
//! "existing information retrieval research on web search". Personalized
//! PageRank (random walk with restart to a seed distribution) is the
//! standard next step beyond one-shot neighborhood expansion: relevance
//! mass circulates until a fixed point, so multi-path connectivity counts
//! and distant-but-well-connected nodes surface.
//!
//! Walks treat provenance edges as undirected (context flows both ways
//! along a derivation), like [`crate::neighborhood`]. The kernel runs over
//! the CSR snapshot: [`crate::frozen::personalized_pagerank_frozen`].

#[cfg(test)]
use crate::{traverse::Budget, NodeId, ProvenanceGraph};

/// Configuration for [`crate::frozen::personalized_pagerank_frozen`].
#[derive(Debug, Clone)]
pub struct PageRankConfig {
    /// Probability of continuing the walk (1 − restart probability).
    /// The classic 0.85 biases toward exploration; smaller values stay
    /// closer to the seeds (more "contextual").
    pub damping: f64,
    /// Maximum power iterations.
    pub max_iterations: usize,
    /// L1 convergence threshold.
    pub tolerance: f64,
    /// Whether automatic edges (redirect/embed/bookkeeping) carry mass.
    pub include_automatic_edges: bool,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.7,
            max_iterations: 50,
            tolerance: 1e-9,
            include_automatic_edges: true,
        }
    }
}

/// The converged scores, keyed by node.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct PageRankScores {
    /// Stationary probability mass per node (sums to ~1 over the reachable
    /// component).
    pub(crate) score: std::collections::HashMap<NodeId, f64>,
    /// Iterations performed.
    pub(crate) iterations: usize,
}

#[cfg(test)]
impl PageRankScores {
    /// Score of one node (0.0 if never reached).
    pub(crate) fn score_of(&self, node: NodeId) -> f64 {
        self.score.get(&node).copied().unwrap_or(0.0)
    }

    /// Nodes by descending score, ties broken by id.
    pub(crate) fn ranked(&self) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = self.score.iter().map(|(&n, &s)| (n, s)).collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        v
    }
}

/// Personalized PageRank from weighted `seeds` over a fresh snapshot of
/// `graph`, unbounded: the kernel's tests read its scores by node.
/// Seeds with nonpositive weight or out-of-range ids are ignored; an
/// effectively empty seed set yields empty scores.
#[cfg(test)]
pub(crate) fn personalized_pagerank(
    graph: &ProvenanceGraph,
    seeds: &[(NodeId, f64)],
    config: &PageRankConfig,
) -> PageRankScores {
    let frozen = crate::frozen::FrozenGraph::build(graph);
    crate::frozen::personalized_pagerank_frozen(&frozen, seeds, config, &Budget::new())
        .into_scores()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::EdgeKind;
    use crate::node::{Node, NodeKind};
    use crate::time::Timestamp;
    use proptest::prelude::*;

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn chain(n: usize) -> (ProvenanceGraph, Vec<NodeId>) {
        let mut g = ProvenanceGraph::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i as i64))))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[1], w[0], EdgeKind::Link, t(1)).unwrap();
        }
        (g, ids)
    }

    #[test]
    fn mass_concentrates_near_the_seed() {
        let (g, ids) = chain(6);
        let scores = personalized_pagerank(&g, &[(ids[0], 1.0)], &PageRankConfig::default());
        assert!(scores.score_of(ids[0]) > scores.score_of(ids[1]));
        assert!(scores.score_of(ids[1]) > scores.score_of(ids[3]));
        assert!(scores.score_of(ids[5]) > 0.0, "whole chain reached");
        let ranked = scores.ranked();
        assert_eq!(ranked[0].0, ids[0]);
    }

    #[test]
    fn multi_path_connectivity_beats_single_path() {
        // Two candidates one hop from the seed cluster: one reachable by
        // two paths, one by a single path. PPR must prefer the former.
        let mut g = ProvenanceGraph::new();
        let s1 = g.add_node(Node::new(NodeKind::PageVisit, "s1", t(0)));
        let s2 = g.add_node(Node::new(NodeKind::PageVisit, "s2", t(0)));
        let double = g.add_node(Node::new(NodeKind::PageVisit, "double", t(1)));
        let single = g.add_node(Node::new(NodeKind::PageVisit, "single", t(1)));
        g.add_edge(double, s1, EdgeKind::Link, t(1)).unwrap();
        g.add_edge(double, s2, EdgeKind::Link, t(1)).unwrap();
        g.add_edge(single, s1, EdgeKind::Link, t(1)).unwrap();
        let scores = personalized_pagerank(&g, &[(s1, 1.0), (s2, 1.0)], &PageRankConfig::default());
        assert!(
            scores.score_of(double) > scores.score_of(single),
            "{} vs {}",
            scores.score_of(double),
            scores.score_of(single)
        );
    }

    #[test]
    fn empty_or_invalid_seeds_yield_empty_scores() {
        let (g, _) = chain(3);
        assert_eq!(
            personalized_pagerank(&g, &[], &PageRankConfig::default()),
            PageRankScores::default()
        );
        assert_eq!(
            personalized_pagerank(
                &g,
                &[(NodeId::new(99), 1.0), (NodeId::new(0), -2.0)],
                &PageRankConfig::default()
            ),
            PageRankScores::default()
        );
    }

    #[test]
    fn smaller_damping_stays_closer_to_seeds() {
        let (g, ids) = chain(8);
        let near = personalized_pagerank(
            &g,
            &[(ids[0], 1.0)],
            &PageRankConfig {
                damping: 0.3,
                ..PageRankConfig::default()
            },
        );
        let far = personalized_pagerank(
            &g,
            &[(ids[0], 1.0)],
            &PageRankConfig {
                damping: 0.9,
                ..PageRankConfig::default()
            },
        );
        assert!(near.score_of(ids[0]) > far.score_of(ids[0]));
        assert!(near.score_of(ids[7]) < far.score_of(ids[7]));
    }

    #[test]
    fn overlap_edges_conduct_less_than_links() {
        let mut g = ProvenanceGraph::new();
        let seed = g.add_node(Node::new(NodeKind::PageVisit, "s", t(0)));
        let by_link = g.add_node(Node::new(NodeKind::PageVisit, "l", t(1)));
        let by_overlap = g.add_node(Node::new(NodeKind::PageVisit, "o", t(1)));
        g.add_edge(by_link, seed, EdgeKind::Link, t(1)).unwrap();
        g.add_edge(by_overlap, seed, EdgeKind::TemporalOverlap, t(1))
            .unwrap();
        let scores = personalized_pagerank(&g, &[(seed, 1.0)], &PageRankConfig::default());
        assert!(scores.score_of(by_link) > scores.score_of(by_overlap));
    }

    proptest! {
        /// Scores are a (sub)probability distribution: nonnegative and
        /// summing to ≤ 1 + ε, for any random history DAG.
        #[test]
        fn scores_form_a_distribution(
            links in prop::collection::vec((1u8..25, 0u8..25), 0..60),
            seed in 0u8..25,
        ) {
            let mut g = ProvenanceGraph::new();
            for i in 0..26 {
                g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i)));
            }
            // Each link from a node to an older one, added by source.
            let mut links: Vec<(u32, u32)> = links
                .iter()
                .map(|&(src, dst)| (u32::from(src), u32::from(dst) % u32::from(src)))
                .collect();
            links.sort_by_key(|&(src, _)| src);
            for (src, dst) in links {
                g.add_edge(NodeId::new(src), NodeId::new(dst), EdgeKind::Link, t(i64::from(src)))
                    .unwrap();
            }
            let scores = personalized_pagerank(
                &g,
                &[(NodeId::new(u32::from(seed) % 26), 1.0)],
                &PageRankConfig::default(),
            );
            let total: f64 = scores.score.values().sum();
            prop_assert!(total <= 1.0 + 1e-9, "total {total}");
            for &s in scores.score.values() {
                prop_assert!(s.is_finite() && s >= 0.0);
            }
        }
    }
}
