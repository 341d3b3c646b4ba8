//! Kleinberg's HITS on history subgraphs.
//!
//! §3 observes that "many web search algorithms, such as Kleinberg's HITS,
//! are graph algorithms that exploit the relationships between pages" yet
//! "there are no graph algorithms applied to the history in any modern
//! browser". Contextual history search (§4) is implemented "as a graph
//! neighborhood expansion algorithm, similar to web search algorithms such
//! as Kleinberg's HITS". This module supplies HITS itself, run over an
//! arbitrary node subset of the CSR snapshot (typically the textual-hit
//! neighborhood — the classic HITS "base set").

use crate::edge::EdgeKind;
use crate::frozen::FrozenGraph;
use crate::ids::NodeId;
use crate::traverse::Budget;

/// Hub and authority scores produced by [`hits`], one per member of the
/// base set: its ids inside the snapshot, in base-set order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HitsScores {
    /// Authority per member: how much the node is *derived from* by good
    /// hubs (a page many journeys led to).
    pub authority: Vec<f64>,
    /// Hub score per member: how much the node *derives from* good
    /// authorities (a page that led to many good destinations).
    pub hub: Vec<f64>,
    /// Number of power iterations actually performed.
    pub iterations: usize,
    /// `true` if the deadline stopped iteration before convergence.
    pub truncated: bool,
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

/// Runs HITS restricted to `base_set`, following edges of the snapshot in
/// both roles: an edge `src → dst` (src derives from dst) makes `src` a
/// *hub pointing at* `dst`, and `dst` an *authority*.
///
/// In browser terms: pages that many navigation journeys passed *through*
/// become hubs; pages journeys *arrived at* become authorities. Temporal
/// overlap edges never contribute (they are not navigational). Ids outside
/// the snapshot are dropped from the base set; a node listed twice is an
/// authority only at its last place.
///
/// The arcs are read member by member, each member's forward row in slot
/// order, so every sum runs in a fixed order and the scores are a pure
/// function of the snapshot, base set and config. `budget`'s deadline is
/// honored at iteration boundaries: the first boundary past it returns the
/// scores so far with `truncated` set, after at least one iteration. An
/// empty base set scores nothing in zero iterations.
pub fn hits(
    frozen: &FrozenGraph,
    base_set: &[NodeId],
    config: &HitsConfig,
    budget: &Budget,
) -> HitsScores {
    let budget = budget.pinned();
    let members: Vec<NodeId> = base_set
        .iter()
        .copied()
        .filter(|n| n.as_usize() < frozen.node_count())
        .collect();
    if members.is_empty() {
        return HitsScores::default();
    }
    let edge_ok = |kind: EdgeKind| {
        kind.is_causal() && (config.include_automatic_edges || !kind.is_automatic())
    };

    // The induced adjacency as (hub, authority) member-index pairs.
    // `place[v]` is node v's last place in the members.
    const ABSENT: u32 = u32::MAX;
    let mut place = vec![ABSENT; frozen.node_count()];
    for (i, &node) in members.iter().enumerate() {
        place[node.as_usize()] = i as u32;
    }
    let mut arcs: Vec<(usize, usize)> = Vec::new();
    for (i, &node) in members.iter().enumerate() {
        for (parent, kind) in frozen.out_edges_of(node.index()) {
            let j = place[parent as usize];
            if j != ABSENT && edge_ok(kind) {
                arcs.push((i, j as usize)); // node is hub, parent is authority
            }
        }
    }

    let n = members.len();
    let mut scores = HitsScores {
        authority: vec![1.0f64; n],
        hub: vec![1.0f64; n],
        ..HitsScores::default()
    };
    while scores.iterations < config.max_iterations {
        scores.iterations += 1;
        let mut new_auth = vec![0.0f64; n];
        for &(h, a) in &arcs {
            new_auth[a] += scores.hub[h];
        }
        let mut new_hub = vec![0.0f64; n];
        for &(h, a) in &arcs {
            new_hub[h] += new_auth[a];
        }
        normalize(&mut new_auth);
        normalize(&mut new_hub);
        let delta: f64 = new_auth
            .iter()
            .zip(&scores.authority)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        scores.authority = new_auth;
        scores.hub = new_hub;
        if delta.sqrt() < config.tolerance {
            break;
        }
        if scores.iterations < config.max_iterations && budget.expired() {
            scores.truncated = true;
            break;
        }
    }
    scores
}

fn normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// HITS over the live graph's out-edge runs and hash maps, as [`hits`]
/// ran before it read the CSR rows: kept as its test oracle.
#[cfg(test)]
pub(crate) mod live {
    use super::{normalize, HitsConfig};
    use crate::edge::EdgeKind;
    use crate::graph::ProvenanceGraph;
    use crate::ids::NodeId;
    use std::collections::HashMap;

    /// Per-node hub and authority scores produced by [`hits`].
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct HitsScores {
        pub(crate) authority: HashMap<NodeId, f64>,
        pub(crate) hub: HashMap<NodeId, f64>,
        pub(crate) iterations: usize,
    }

    impl HitsScores {
        /// Nodes sorted by descending authority.
        pub(crate) fn top_authorities(&self, k: usize) -> Vec<(NodeId, f64)> {
            top(&self.authority, k)
        }

        /// Nodes sorted by descending hub score.
        pub(crate) fn top_hubs(&self, k: usize) -> Vec<(NodeId, f64)> {
            top(&self.hub, k)
        }
    }

    fn top(scores: &HashMap<NodeId, f64>, k: usize) -> Vec<(NodeId, f64)> {
        let mut v: Vec<(NodeId, f64)> = scores.iter().map(|(&n, &s)| (n, s)).collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        v.truncate(k);
        v
    }

    /// HITS restricted to `base_set` over the live graph.
    pub(crate) fn hits(
        graph: &ProvenanceGraph,
        base_set: &[NodeId],
        config: &HitsConfig,
    ) -> HitsScores {
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
        let index_of: HashMap<NodeId, usize> =
            members.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut arcs: Vec<(usize, usize)> = Vec::new();
        for (i, &node) in members.iter().enumerate() {
            for (eid, parent) in graph.parents(node) {
                if edge_ok(graph.edge(eid).unwrap().kind()) {
                    if let Some(&j) = index_of.get(&parent) {
                        arcs.push((i, j));
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
}

#[cfg(test)]
mod tests {
    use super::live::hits;
    use super::*;
    use crate::graph::ProvenanceGraph;
    use crate::node::{Node, NodeKind};
    use crate::time::Timestamp;
    use proptest::prelude::*;
    use std::time::Duration;

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
        use super::super::live::hits;
        use super::super::*;
        use crate::graph::ProvenanceGraph;
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
                // Each link from a node to an older one, added by source.
                let mut links: Vec<(u32, u32)> = links
                    .iter()
                    .map(|&(src, dst)| (u32::from(src), u32::from(dst) % u32::from(src)))
                    .collect();
                links.sort_by_key(|&(src, _)| src);
                for (src, dst) in links {
                    g.add_edge(
                        NodeId::new(src),
                        NodeId::new(dst),
                        EdgeKind::Link,
                        Timestamp::from_secs(i64::from(src)),
                    )
                    .unwrap();
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

    /// Fails unless the CSR pass over `g`'s snapshot scores `base` as the
    /// live oracle does, bit for bit. The oracle keeps one score per node,
    /// that of its last place among the members; an earlier place of a
    /// repeated node has the same hub score and no authority.
    fn assert_matches_live(
        g: &ProvenanceGraph,
        base: &[NodeId],
        config: &HitsConfig,
    ) -> Result<(), TestCaseError> {
        let csr = super::hits(&FrozenGraph::build(g), base, config, &Budget::new());
        let live = hits(g, base, config);
        prop_assert!(!csr.truncated);
        prop_assert_eq!(csr.iterations, live.iterations);
        let members: Vec<NodeId> = base
            .iter()
            .copied()
            .filter(|n| n.as_usize() < g.node_count())
            .collect();
        prop_assert_eq!(csr.authority.len(), members.len());
        prop_assert_eq!(csr.hub.len(), members.len());
        for (i, node) in members.iter().enumerate() {
            let last = members.iter().rposition(|m| m == node) == Some(i);
            let authority = if last { live.authority[node] } else { 0.0 };
            prop_assert_eq!(csr.authority[i].to_bits(), authority.to_bits());
            prop_assert_eq!(csr.hub[i].to_bits(), live.hub[node].to_bits());
        }
        Ok(())
    }

    #[test]
    fn an_expired_deadline_stops_hits_after_one_iteration() {
        let (g, center, leaves) = star();
        let mut base = vec![center];
        base.extend(&leaves);
        let frozen = FrozenGraph::build(&g);
        let config = HitsConfig::default();
        let expired = Budget::new().with_deadline(Duration::ZERO);
        let cut = super::hits(&frozen, &base, &config, &expired);
        assert_eq!((cut.iterations, cut.truncated), (1, true));
        // Without a deadline the pass converges, as the live oracle does.
        let full = super::hits(&frozen, &base, &config, &Budget::new());
        assert!(!full.truncated && full.iterations > 1);
        assert_matches_live(&g, &base, &config).unwrap();
    }

    proptest! {
        /// The CSR pass scores random graphs bit for bit as the live oracle
        /// does, with and without automatic edges, over base sets with
        /// repeated ids and ids past the graph.
        #[test]
        fn csr_hits_matches_the_live_oracle_bit_for_bit(
            links in prop::collection::vec((1u8..30, 0u8..30, 0u8..15), 0..100),
            base in prop::collection::vec(0u32..36, 0..40),
            include_automatic_edges: bool,
        ) {
            let mut g = ProvenanceGraph::new();
            for i in 0..30 {
                g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i)));
            }
            // Each link from a node to an older one, added by source.
            let mut links: Vec<(u32, u32, u8)> = links
                .iter()
                .map(|&(src, dst, k)| (u32::from(src), u32::from(dst) % u32::from(src), k))
                .collect();
            links.sort_by_key(|&(src, _, _)| src);
            for (src, dst, k) in links {
                let kind = EdgeKind::from_code(k).unwrap_or(EdgeKind::Link);
                g.add_edge(NodeId::new(src), NodeId::new(dst), kind, t(i64::from(src)))
                    .unwrap();
            }
            let base: Vec<NodeId> = base.into_iter().map(NodeId::new).collect();
            let config = HitsConfig {
                include_automatic_edges,
                ..HitsConfig::default()
            };
            assert_matches_live(&g, &base, &config)?;
        }
    }
}
