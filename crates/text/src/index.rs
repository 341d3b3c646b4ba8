//! An incremental inverted index over history documents.
//!
//! "A browser with textual history search will return the web search page
//! for rosebud, because that page contains the search term in both its
//! title and URL" (§2.1). This index is that textual layer: the contextual
//! algorithms of `bp-query` use its hits as *seeds* and re-rank by
//! provenance neighborhood.

// Counts and offsets convert through checked conversions, never an `as`
// cast, as in the storage codecs.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::tokenize::significant_tokens;
use std::collections::HashMap;

/// A document identifier — opaque to the index; `bp-query` uses graph node
/// indexes.
pub type DocId = u32;

/// One posting: a document and the term's frequency within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The document containing the term.
    pub doc: DocId,
    /// Number of occurrences of the term in the document.
    pub term_frequency: u32,
}

/// An inverted index with incremental document addition.
///
/// Terms are stemmed ([`crate::stem`]) at both index and query time.
///
/// # Examples
///
/// ```
/// use bp_text::InvertedIndex;
/// let mut idx = InvertedIndex::new();
/// idx.add_document(0, "rosebud sled Citizen Kane");
/// idx.add_document(1, "rosebud flowers gardening");
/// let hits = idx.search("rosebud");
/// assert_eq!(hits.len(), 2);
/// let flower_hits = idx.search("flower");
/// assert_eq!(flower_hits.len(), 1);
/// assert_eq!(flower_hits[0].0, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: HashMap<String, Vec<Posting>>,
    doc_lengths: HashMap<DocId, u32>,
    total_docs: usize,
    total_postings: usize,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.total_docs
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Number of postings ((term, document) pairs) across all lists.
    pub fn posting_count(&self) -> usize {
        self.total_postings
    }

    /// Indexes `text` under `doc`. Calling again for the same `doc` *adds*
    /// text to it (e.g. URL first, then title when it loads).
    pub fn add_document(&mut self, doc: DocId, text: &str) {
        let tokens = significant_tokens(text);
        if tokens.is_empty() {
            return;
        }
        if !self.doc_lengths.contains_key(&doc) {
            self.total_docs += 1;
        }
        let mut counts: HashMap<String, u32> = HashMap::new();
        for token in tokens {
            *counts.entry(crate::stem::stem(&token)).or_insert(0) += 1;
        }
        let mut added = 0;
        for (term, count) in counts {
            added += count;
            let list = self.postings.entry(term).or_default();
            // Documents are added in nondecreasing id order in the common
            // case (history node ids grow monotonically), so the matching
            // or insertion point is almost always the tail; fall back to a
            // binary search for out-of-order additions. Keeping lists
            // sorted makes this O(1) amortized instead of O(list).
            match list.last_mut() {
                Some(last) if last.doc == doc => last.term_frequency += count,
                Some(last) if last.doc < doc => {
                    list.push(Posting {
                        doc,
                        term_frequency: count,
                    });
                    self.total_postings += 1;
                }
                None => {
                    list.push(Posting {
                        doc,
                        term_frequency: count,
                    });
                    self.total_postings += 1;
                }
                Some(_) => match list.binary_search_by_key(&doc, |p| p.doc) {
                    Ok(i) => list[i].term_frequency += count,
                    Err(i) => {
                        list.insert(
                            i,
                            Posting {
                                doc,
                                term_frequency: count,
                            },
                        );
                        self.total_postings += 1;
                    }
                },
            }
        }
        *self.doc_lengths.entry(doc).or_insert(0) += added;
    }

    /// Length (significant token count) of a document, 0 if unknown.
    pub fn doc_length(&self, doc: DocId) -> u32 {
        self.doc_lengths.get(&doc).copied().unwrap_or(0)
    }

    /// Number of documents containing `term` (already stemmed).
    pub fn document_frequency(&self, term: &str) -> usize {
        self.postings.get(term).map_or(0, Vec::len)
    }

    /// Raw postings for a stemmed term.
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.postings.get(term).map_or(&[], Vec::as_slice)
    }

    /// Searches for `query`, scoring by TF-IDF summed across query terms.
    /// Returns `(doc, score)` pairs sorted by descending score (ties by
    /// ascending doc id, for determinism).
    pub fn search(&self, query: &str) -> Vec<(DocId, f64)> {
        let mut scores: HashMap<DocId, f64> = HashMap::new();
        for token in significant_tokens(query) {
            let term = crate::stem::stem(&token);
            let df = self.document_frequency(&term);
            if df == 0 {
                continue;
            }
            let idf = crate::score::idf(self.total_docs, df);
            for p in self.postings(&term) {
                let tf = crate::score::tf_weight(p.term_frequency);
                *scores.entry(p.doc).or_insert(0.0) += tf * idf;
            }
        }
        let mut out: Vec<(DocId, f64)> = scores.into_iter().collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }

    /// BM25 search: like [`search`](Self::search) but with saturating term
    /// frequency and document-length normalization, so long pages (big
    /// titles + long URLs) cannot win purely by repeating a term.
    /// `k1` controls TF saturation (typical 1.2), `b` the strength of
    /// length normalization (typical 0.75).
    pub fn search_bm25(&self, query: &str, k1: f64, b: f64) -> Vec<(DocId, f64)> {
        let total_len: u64 = self.doc_lengths.values().map(|&l| u64::from(l)).sum();
        #[expect(
            clippy::as_conversions,
            reason = "a ranking score, never written to disk: u64 -> f64 rounding is harmless"
        )]
        let avg_len = if self.total_docs == 0 {
            1.0
        } else {
            (total_len as f64 / self.total_docs as f64).max(1.0)
        };
        let mut scores: HashMap<DocId, f64> = HashMap::new();
        for token in significant_tokens(query) {
            let term = crate::stem::stem(&token);
            let df = self.document_frequency(&term);
            if df == 0 {
                continue;
            }
            let idf = crate::score::idf(self.total_docs, df);
            for p in self.postings(&term) {
                let tf = f64::from(p.term_frequency);
                let len = f64::from(self.doc_length(p.doc)).max(1.0);
                let norm = k1 * (1.0 - b + b * len / avg_len);
                *scores.entry(p.doc).or_insert(0.0) += idf * tf * (k1 + 1.0) / (tf + norm);
            }
        }
        let mut out: Vec<(DocId, f64)> = scores.into_iter().collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }

    /// Iterates all indexed terms (stemmed) with their document frequency.
    pub fn terms(&self) -> impl Iterator<Item = (&str, usize)> {
        self.postings.iter().map(|(t, l)| (t.as_str(), l.len()))
    }

    /// Removes every posting for `doc` (e.g. when the corresponding
    /// history object is redacted). Returns `true` if the document was
    /// indexed. O(total terms) — redaction is rare; no per-document term
    /// list is maintained for it.
    pub fn remove_document(&mut self, doc: DocId) -> bool {
        if self.doc_lengths.remove(&doc).is_none() {
            return false;
        }
        self.total_docs -= 1;
        let mut removed = 0usize;
        self.postings.retain(|_, list| {
            let before = list.len();
            list.retain(|p| p.doc != doc);
            removed += before - list.len();
            !list.is_empty()
        });
        self.total_postings -= removed;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add_document(0, "rosebud sled mystery citizen kane film");
        idx.add_document(1, "rosebud flower gardening spring planting");
        idx.add_document(2, "wine tasting napa valley vineyard");
        idx.add_document(3, "cheap plane tickets flights travel");
        idx
    }

    #[test]
    fn counts() {
        let idx = sample();
        assert_eq!(idx.doc_count(), 4);
        assert!(idx.term_count() > 10);
    }

    #[test]
    fn search_finds_matching_docs() {
        let idx = sample();
        let hits = idx.search("rosebud");
        let docs: Vec<DocId> = hits.iter().map(|(d, _)| *d).collect();
        assert_eq!(docs.len(), 2);
        assert!(docs.contains(&0) && docs.contains(&1));
    }

    #[test]
    fn search_is_stemmed_both_ways() {
        let idx = sample();
        assert_eq!(idx.search("flowers")[0].0, 1);
        assert_eq!(idx.search("garden")[0].0, 1, "gardening stems to garden");
        assert_eq!(idx.search("ticket")[0].0, 3);
    }

    #[test]
    fn search_no_hits() {
        let idx = sample();
        assert!(idx.search("submarine").is_empty());
        assert!(idx.search("").is_empty());
        assert!(idx.search("the of and").is_empty(), "stopwords-only query");
    }

    #[test]
    fn rare_terms_outscore_common_ones() {
        let mut idx = InvertedIndex::new();
        for d in 0..10 {
            idx.add_document(d, "wine wine wine common");
        }
        idx.add_document(10, "wine burgundy");
        // "burgundy" appears once in one doc; a two-term query should rank
        // doc 10 first because burgundy's idf dominates.
        let hits = idx.search("wine burgundy");
        assert_eq!(hits[0].0, 10);
    }

    #[test]
    fn incremental_addition_merges() {
        let mut idx = InvertedIndex::new();
        idx.add_document(0, "wine");
        idx.add_document(0, "wine vineyard");
        assert_eq!(idx.doc_count(), 1);
        assert_eq!(idx.postings("wine")[0].term_frequency, 2);
        assert_eq!(idx.doc_length(0), 3);
    }

    #[test]
    fn empty_text_is_a_noop() {
        let mut idx = InvertedIndex::new();
        idx.add_document(0, "");
        idx.add_document(1, "of the and");
        assert_eq!(idx.doc_count(), 0);
    }

    #[test]
    fn results_are_deterministic() {
        let idx = sample();
        assert_eq!(idx.search("rosebud"), idx.search("rosebud"));
    }

    #[test]
    fn bm25_normalizes_document_length() {
        let mut idx = InvertedIndex::new();
        // Short doc mentions wine once; long doc repeats it among filler.
        idx.add_document(0, "wine cellar");
        idx.add_document(
            1,
            "wine wine wine wine plus lots and lots and lots of filler words \
             about completely unrelated matters stretching the document out \
             considerably beyond reasonable length for ranking purposes",
        );
        // Plain TF-IDF rewards raw repetition...
        let tfidf = idx.search("wine");
        assert_eq!(tfidf[0].0, 1);
        // ...BM25 saturates TF and penalizes length: the compact doc wins.
        let bm25 = idx.search_bm25("wine", 1.2, 0.75);
        assert_eq!(bm25[0].0, 0, "{bm25:?}");
        // Both find both documents.
        assert_eq!(bm25.len(), 2);
        // With b = 0 (no length normalization) repetition wins again.
        let no_norm = idx.search_bm25("wine", 1.2, 0.0);
        assert_eq!(no_norm[0].0, 1, "{no_norm:?}");
    }

    #[test]
    fn bm25_handles_empty_index_and_query() {
        let idx = InvertedIndex::new();
        assert!(idx.search_bm25("wine", 1.2, 0.75).is_empty());
        let idx2 = sample();
        assert!(idx2.search_bm25("", 1.2, 0.75).is_empty());
        assert!(idx2.search_bm25("absentterm", 1.2, 0.75).is_empty());
    }

    #[test]
    fn remove_document_erases_all_traces() {
        let mut idx = sample();
        assert!(idx.remove_document(0));
        assert_eq!(idx.doc_count(), 3);
        assert!(idx.search("kane").is_empty(), "doc 0's unique terms gone");
        // Shared term "rosebud" still finds doc 1.
        let hits = idx.search("rosebud");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 1);
        assert_eq!(idx.doc_length(0), 0);
        // Removing again reports absence.
        assert!(!idx.remove_document(0));
        assert!(!idx.remove_document(99));
    }

    #[test]
    fn remove_document_drops_empty_terms() {
        let mut idx = InvertedIndex::new();
        idx.add_document(0, "unique");
        let terms_before = idx.term_count();
        idx.remove_document(0);
        assert_eq!(idx.term_count(), terms_before - 1);
    }

    #[test]
    fn document_frequency_and_postings() {
        let idx = sample();
        assert_eq!(idx.document_frequency("rosebud"), 2);
        assert_eq!(idx.document_frequency("nonexistent"), 0);
        assert!(idx.postings("nonexistent").is_empty());
    }
}
