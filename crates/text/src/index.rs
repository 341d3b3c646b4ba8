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

use crate::stem::{stem, stem_into};
use crate::tokenize::for_each_significant_token;
use std::collections::hash_map::{Entry, HashMap};

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
    buffers: Buffers,
}

/// The buffers of [`InvertedIndex::add_document`], kept from call to call
/// so that indexing allocates only for terms new to the index.
#[derive(Debug, Clone, Default)]
struct Buffers {
    /// The token being lowercased.
    token: String,
    /// The document's stems, back to back.
    stems: String,
    /// Each stem's byte range in `stems`.
    spans: Vec<(usize, usize)>,
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
    /// text to it (e.g. URL first, then title when it loads), exactly as
    /// if the texts had been indexed as one, joined by a space.
    ///
    /// The document's tokens and stems go into buffers the index keeps
    /// from call to call, and each stem is looked up by `&str`, so only a
    /// term new to the index allocates.
    pub fn add_document(&mut self, doc: DocId, text: &str) {
        let Buffers {
            token,
            stems,
            spans,
        } = &mut self.buffers;
        stems.clear();
        spans.clear();
        for_each_significant_token(text, token, |token| {
            let start = stems.len();
            stem_into(token, stems);
            spans.push((start, stems.len()));
        });
        if spans.is_empty() {
            return;
        }
        // Sorting brings each term's occurrences together; a run's length
        // is the term's frequency in the document. Bytes order as the
        // strings do, without checking character boundaries.
        let bytes = stems.as_bytes();
        spans.sort_unstable_by(|a, b| bytes[a.0..a.1].cmp(&bytes[b.0..b.1]));
        for run in spans.chunk_by(|a, b| bytes[a.0..a.1] == bytes[b.0..b.1]) {
            let (start, end) = run[0];
            let count = u32::try_from(run.len()).unwrap_or(u32::MAX);
            let added = add_posting(&mut self.postings, &stems[start..end], doc, count);
            self.total_postings += usize::from(added);
        }
        let added = u32::try_from(spans.len()).unwrap_or(u32::MAX);
        match self.doc_lengths.entry(doc) {
            Entry::Occupied(length) => *length.into_mut() += added,
            Entry::Vacant(length) => {
                length.insert(added);
                self.total_docs += 1;
            }
        }
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
    ///
    /// A document's score adds its terms' contributions in query order,
    /// from 0.0, counting a repeated query term again. The posting lists
    /// are sorted by document, so they are merged, not hashed.
    pub fn search(&self, query: &str) -> Vec<(DocId, f64)> {
        // Each matching query term's postings and idf, in query order.
        let mut lists: Vec<(&[Posting], f64)> = Vec::new();
        for_each_significant_token(query, &mut String::new(), |token| {
            let list = self.postings(&stem(token));
            if !list.is_empty() {
                lists.push((list, crate::score::idf(self.total_docs, list.len())));
            }
        });
        let mut out: Vec<(DocId, f64)> = Vec::new();
        // Each list's slice is its unmerged tail; the smallest head is the
        // next document to score.
        while let Some(doc) = lists
            .iter()
            .filter_map(|(tail, _)| tail.first())
            .map(|p| p.doc)
            .min()
        {
            let mut score = 0.0;
            for (tail, idf) in &mut lists {
                if let Some((p, rest)) = tail.split_first().filter(|(p, _)| p.doc == doc) {
                    score += crate::score::tf_weight(p.term_frequency) * *idf;
                    *tail = rest;
                }
            }
            out.push((doc, score));
        }
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

/// Adds `count` occurrences of `term` in `doc` to the term's posting list,
/// keeping the list sorted by document. Returns `true` if that added a
/// posting rather than counting into one.
fn add_posting(
    postings: &mut HashMap<String, Vec<Posting>>,
    term: &str,
    doc: DocId,
    count: u32,
) -> bool {
    let posting = Posting {
        doc,
        term_frequency: count,
    };
    let Some(list) = postings.get_mut(term) else {
        postings.insert(term.to_owned(), vec![posting]);
        return true;
    };
    // Documents are added in nondecreasing id order in the common case
    // (history node ids grow monotonically), so the matching or insertion
    // point is almost always the tail; fall back to a binary search for
    // out-of-order additions. Keeping lists sorted makes this O(1)
    // amortized instead of O(list).
    match list.last_mut() {
        Some(last) if last.doc == doc => last.term_frequency += count,
        Some(last) if last.doc > doc => match list.binary_search_by_key(&doc, |p| p.doc) {
            Ok(i) => list[i].term_frequency += count,
            Err(i) => {
                list.insert(i, posting);
                return true;
            }
        },
        _ => {
            list.push(posting);
            return true;
        }
    }
    false
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
