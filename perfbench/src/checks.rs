//! Output checks: every answer must satisfy the invariants the `bp-query`
//! property tests assert, and all answers fold into one digest that must
//! repeat for a seed.

use bp_core::ProvenanceBrowser;
use bp_graph::{NodeId, NodeKind};
use bp_query::{ExpandedQuery, LineageAnswer, QueryResult};
use std::collections::HashSet;

/// FNV-1a, 64 bit: stable across runs, platforms and toolchains.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a number in.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// A ranked answer: positive scores in non-increasing order, one hit per
/// key, every kind among `kinds`, and nothing cut short by a budget.
pub fn check_ranked(result: &QueryResult, kinds: &[NodeKind]) -> Result<(), String> {
    if result.truncated {
        return Err("truncated without a budget".to_owned());
    }
    let mut keys = HashSet::new();
    for (i, hit) in result.hits.iter().enumerate() {
        if hit.score.is_nan() || hit.score <= 0.0 {
            return Err(format!("hit {i} has score {}", hit.score));
        }
        if i > 0 && result.hits[i - 1].score < hit.score {
            return Err(format!("hit {i} outranks hit {}", i - 1));
        }
        if !kinds.contains(&hit.kind) {
            return Err(format!("hit {i} has kind {:?}", hit.kind));
        }
        if !keys.insert(hit.key.as_str()) {
            return Err(format!("key {} appears twice", hit.key));
        }
    }
    Ok(())
}

/// A personalized query: at most `max_terms` new, distinct terms, none of
/// them already in the query.
pub fn check_expanded(query: &str, e: &ExpandedQuery, max_terms: usize) -> Result<(), String> {
    if e.original != query {
        return Err(format!("original {:?} is not {query:?}", e.original));
    }
    if e.added_terms.len() > max_terms {
        return Err(format!("{} terms added", e.added_terms.len()));
    }
    let mut seen = HashSet::new();
    for term in &e.added_terms {
        if query.split_whitespace().any(|w| w == term) || !seen.insert(term) {
            return Err(format!("term {term:?} repeats"));
        }
    }
    Ok(())
}

/// A lineage answer: the path starts at the download, ends at the
/// ancestor, and each step is a live edge joining consecutive nodes.
pub fn check_lineage(
    browser: &ProvenanceBrowser,
    download: NodeId,
    answer: &LineageAnswer,
    min_visits: u32,
) -> Result<(), String> {
    let path = &answer.path;
    if path.nodes.first() != Some(&download) || path.nodes.last() != Some(&answer.ancestor) {
        return Err("path does not join the download to its ancestor".to_owned());
    }
    if path.edges.len() + 1 != path.nodes.len() {
        return Err("path has the wrong number of edges".to_owned());
    }
    if answer.visit_count < min_visits {
        return Err(format!("ancestor visited {} times", answer.visit_count));
    }
    let graph = browser.graph();
    for (i, &eid) in path.edges.iter().enumerate() {
        let edge = graph
            .edge(eid)
            .map_err(|e| format!("step {i}: edge {eid:?}: {e}"))?;
        let (a, b) = (path.nodes[i], path.nodes[i + 1]);
        let joins = (edge.src() == a && edge.dst() == b) || (edge.src() == b && edge.dst() == a);
        if !joins {
            return Err(format!("step {i} is not joined by edge {eid:?}"));
        }
    }
    Ok(())
}

/// Folds a ranked answer into `d`.
pub fn digest_ranked(d: &mut Digest, result: &QueryResult) {
    d.write_u64(result.hits.len() as u64);
    for hit in &result.hits {
        d.write(hit.key.as_bytes());
        d.write_u64(hit.score.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_query::ScoredHit;
    use std::time::Duration;

    fn hit(key: &str, score: f64, kind: NodeKind) -> ScoredHit {
        ScoredHit {
            node: NodeId::new(0),
            kind,
            key: key.to_owned(),
            title: None,
            score,
            text_score: score,
            context_score: 0.0,
        }
    }

    fn result(hits: Vec<ScoredHit>) -> QueryResult {
        QueryResult {
            hits,
            elapsed: Duration::ZERO,
            truncated: false,
        }
    }

    #[test]
    fn ranked_checks_catch_each_broken_invariant() {
        let kinds = [NodeKind::PageVisit];
        let good = result(vec![
            hit("a", 2.0, NodeKind::PageVisit),
            hit("b", 1.0, NodeKind::PageVisit),
        ]);
        assert!(check_ranked(&good, &kinds).is_ok());
        let unsorted = result(vec![
            hit("a", 1.0, NodeKind::PageVisit),
            hit("b", 2.0, NodeKind::PageVisit),
        ]);
        assert!(check_ranked(&unsorted, &kinds).is_err());
        let zero = result(vec![hit("a", 0.0, NodeKind::PageVisit)]);
        assert!(check_ranked(&zero, &kinds).is_err());
        let dup = result(vec![
            hit("a", 2.0, NodeKind::PageVisit),
            hit("a", 1.0, NodeKind::PageVisit),
        ]);
        assert!(check_ranked(&dup, &kinds).is_err());
        let kind = result(vec![hit("a", 2.0, NodeKind::Tab)]);
        assert!(check_ranked(&kind, &kinds).is_err());
        let mut cut = result(Vec::new());
        cut.truncated = true;
        assert!(check_ranked(&cut, &kinds).is_err());
    }

    #[test]
    fn expansion_checks() {
        let ok = ExpandedQuery {
            original: "wine".to_owned(),
            added_terms: vec!["red".to_owned(), "cellar".to_owned()],
        };
        assert!(check_expanded("wine", &ok, 2).is_ok());
        assert!(check_expanded("wine", &ok, 1).is_err());
        let echo = ExpandedQuery {
            original: "wine".to_owned(),
            added_terms: vec!["wine".to_owned()],
        };
        assert!(check_expanded("wine", &echo, 2).is_err());
    }

    #[test]
    fn digest_is_fnv1a() {
        let mut d = Digest::default();
        d.write(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
    }
}
