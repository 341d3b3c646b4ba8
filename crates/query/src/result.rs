//! Shared result types for history queries.

use bp_graph::{NodeId, NodeKind};
use std::collections::HashMap;
use std::time::Duration;

/// One scored history object returned by a search query.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredHit {
    /// The node.
    pub node: NodeId,
    /// Its kind.
    pub kind: NodeKind,
    /// Its primary key (URL, query, path).
    pub key: String,
    /// Its title, when present.
    pub title: Option<String>,
    /// Final ranking score (higher is better).
    pub score: f64,
    /// Textual component of the score (0 when the hit is purely
    /// contextual — the §2.1 "Citizen Kane" case).
    pub text_score: f64,
    /// Provenance-context component of the score.
    pub context_score: f64,
}

/// The best hit per history key, for the text-first paths to rank:
/// versions of one URL collapse to their best-scoring instance.
#[derive(Default)]
pub(crate) struct BestByKey(HashMap<String, ScoredHit>);

impl BestByKey {
    /// Keeps `hit` unless a hit with its key scores at least as high, so
    /// of equal scores the first is kept.
    pub(crate) fn offer(&mut self, hit: ScoredHit) {
        match self.0.get(&hit.key) {
            Some(best) if best.score >= hit.score => {}
            _ => {
                self.0.insert(hit.key.clone(), hit);
            }
        }
    }

    /// The kept hits by score, best first, ties by node id, at most `max`
    /// of them.
    pub(crate) fn ranked(self, max: usize) -> Vec<ScoredHit> {
        let mut hits: Vec<ScoredHit> = self.0.into_values().collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.node.cmp(&b.node))
        });
        hits.truncate(max);
        hits
    }
}

/// A ranked result list plus execution metadata.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Hits, best first.
    pub hits: Vec<ScoredHit>,
    /// Wall-clock the query took.
    pub elapsed: Duration,
    /// `true` if a deadline or budget truncated the work (the paper's
    /// "can be bound to that time" escape hatch).
    pub truncated: bool,
}

impl QueryResult {
    /// Position (0-based) of the first hit whose key equals `key`.
    pub fn rank_of_key(&self, key: &str) -> Option<usize> {
        self.hits.iter().position(|h| h.key == key)
    }

    /// `true` if some hit's key equals `key`.
    pub fn contains_key(&self, key: &str) -> bool {
        self.rank_of_key(key).is_some()
    }

    /// The top `k` keys, for display.
    pub fn top_keys(&self, k: usize) -> Vec<&str> {
        self.hits.iter().take(k).map(|h| h.key.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(key: &str, score: f64) -> ScoredHit {
        hit_at(0, key, score)
    }

    fn hit_at(node: u32, key: &str, score: f64) -> ScoredHit {
        ScoredHit {
            node: NodeId::new(node),
            kind: NodeKind::PageVisit,
            key: key.to_owned(),
            title: None,
            score,
            text_score: score,
            context_score: 0.0,
        }
    }

    #[test]
    fn rank_lookup() {
        let r = QueryResult {
            hits: vec![hit("a", 2.0), hit("b", 1.0)],
            elapsed: Duration::ZERO,
            truncated: false,
        };
        assert_eq!(r.rank_of_key("b"), Some(1));
        assert_eq!(r.rank_of_key("c"), None);
        assert!(r.contains_key("a"));
        assert_eq!(r.top_keys(1), vec!["a"]);
    }

    #[test]
    fn best_by_key_keeps_the_first_best_and_ranks_by_score_then_node() {
        let ranked = |max| -> Vec<(u32, String)> {
            let mut best = BestByKey::default();
            for hit in [
                hit_at(4, "a", 1.0),
                hit_at(2, "a", 1.0),
                hit_at(7, "b", 0.5),
                hit_at(6, "b", 2.0),
                hit_at(3, "c", 2.0),
                hit_at(1, "d", 0.1),
            ] {
                best.offer(hit);
            }
            best.ranked(max)
                .into_iter()
                .map(|h| (h.node.index(), h.key))
                .collect()
        };
        let hit = |node: u32, key: &str| (node, key.to_owned());
        // "a" keeps node 4, the first of its equal scores; "b" the better
        // one; "c" and "b" tie on score and rank by node id.
        assert_eq!(
            ranked(10),
            [hit(3, "c"), hit(6, "b"), hit(4, "a"), hit(1, "d")]
        );
        assert_eq!(ranked(2), [hit(3, "c"), hit(6, "b")]);
    }
}
