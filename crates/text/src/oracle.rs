//! The allocating text paths the crate replaced, kept as test oracles.
//!
//! The tokenizer, stemmer, index and term profile used to build a `String`
//! per token, compare a token's string against the stopword list's, count
//! a document's stems and sum search scores in hash maps, and clone every
//! term to rank a profile. Those versions are simple enough to trust, so
//! the properties below demand that today's paths reproduce them exactly:
//! the same stopwords, tokens and stems, the same postings and counters
//! through additions and removals, and scores and weights equal bit for
//! bit.

use crate::index::{DocId, InvertedIndex, Posting};
use crate::score::{idf, tf_weight, TermProfile};
use proptest::prelude::*;
use std::collections::HashMap;

fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() {
            current.extend(c.to_lowercase().filter(|lc| lc.is_alphanumeric()));
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// A binary search of the stopword list's strings, as `is_stopword` was
/// before it packed them into integer keys.
fn is_stopword(token: &str) -> bool {
    crate::stopwords::STOPWORDS.binary_search(&token).is_ok()
}

fn significant_tokens(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter(|t| t.len() >= 3 && !is_stopword(t))
        .collect()
}

fn stem(token: &str) -> String {
    const RULES: &[(&str, &str)] = &[
        ("ational", "ate"),
        ("fulness", "ful"),
        ("iveness", "ive"),
        ("ization", "ize"),
        ("iness", "y"),
        ("ings", ""),
        ("edly", ""),
        ("ing", ""),
        ("ies", "y"),
        ("ed", ""),
        ("es", ""),
        ("ly", ""),
        ("s", ""),
    ];
    for (suffix, replacement) in RULES {
        if let Some(base) = token.strip_suffix(suffix) {
            if base.chars().count() >= 3 {
                let mut out = base.to_owned();
                out.push_str(replacement);
                if replacement.is_empty() {
                    let chars: Vec<char> = out.chars().collect();
                    if chars.len() >= 4 {
                        let last = chars[chars.len() - 1];
                        let prev = chars[chars.len() - 2];
                        if last == prev && !"aeiou".contains(last) && last != 's' {
                            out.pop();
                        }
                    }
                }
                return out;
            }
        }
    }
    token.to_owned()
}

#[derive(Default)]
struct Index {
    postings: HashMap<String, Vec<Posting>>,
    doc_lengths: HashMap<DocId, u32>,
    total_docs: usize,
    total_postings: usize,
}

impl Index {
    fn add_document(&mut self, doc: DocId, text: &str) {
        let tokens = significant_tokens(text);
        if tokens.is_empty() {
            return;
        }
        if !self.doc_lengths.contains_key(&doc) {
            self.total_docs += 1;
        }
        let mut counts: HashMap<String, u32> = HashMap::new();
        for token in tokens {
            *counts.entry(stem(&token)).or_insert(0) += 1;
        }
        let mut added = 0;
        for (term, count) in counts {
            added += count;
            let list = self.postings.entry(term).or_default();
            let posting = Posting {
                doc,
                term_frequency: count,
            };
            match list.last_mut() {
                Some(last) if last.doc == doc => last.term_frequency += count,
                Some(last) if last.doc < doc => {
                    list.push(posting);
                    self.total_postings += 1;
                }
                None => {
                    list.push(posting);
                    self.total_postings += 1;
                }
                Some(_) => match list.binary_search_by_key(&doc, |p| p.doc) {
                    Ok(i) => list[i].term_frequency += count,
                    Err(i) => {
                        list.insert(i, posting);
                        self.total_postings += 1;
                    }
                },
            }
        }
        *self.doc_lengths.entry(doc).or_insert(0) += added;
    }

    fn remove_document(&mut self, doc: DocId) -> bool {
        if self.doc_lengths.remove(&doc).is_none() {
            return false;
        }
        self.total_docs -= 1;
        for list in self.postings.values_mut() {
            if let Ok(i) = list.binary_search_by_key(&doc, |p| p.doc) {
                list.remove(i);
                self.total_postings -= 1;
            }
        }
        self.postings.retain(|_, list| !list.is_empty());
        true
    }

    fn search(&self, query: &str) -> Vec<(DocId, f64)> {
        let mut scores: HashMap<DocId, f64> = HashMap::new();
        for token in significant_tokens(query) {
            let term = stem(&token);
            let list = self.postings.get(&term).map_or(&[][..], Vec::as_slice);
            if list.is_empty() {
                continue;
            }
            let idf = idf(self.total_docs, list.len());
            for p in list {
                *scores.entry(p.doc).or_insert(0.0) += tf_weight(p.term_frequency) * idf;
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
}

#[derive(Default)]
struct Profile {
    weights: HashMap<String, f64>,
}

impl Profile {
    fn add_text(&mut self, text: &str, weight: f64) {
        for token in significant_tokens(text) {
            *self.weights.entry(stem(&token)).or_insert(0.0) += weight;
        }
    }

    fn top_terms(&self, k: usize, exclude: &[String]) -> Vec<(String, f64)> {
        let excluded: Vec<String> = exclude.iter().map(|t| stem(t)).collect();
        let mut v: Vec<(String, f64)> = self
            .weights
            .iter()
            .filter(|(t, _)| !excluded.contains(t))
            .map(|(t, &w)| (t.clone(), w))
            .collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        v.truncate(k);
        v
    }
}

/// Text built from pieces that stress the tokenizer and the stemmer: ASCII
/// in both cases, URL punctuation, digits, letters whose lowercase expands
/// (`İ`) or changes width, `ß`, a combining mark, and suffixes that each
/// stemmer rule strips, after doubled consonants.
fn text() -> impl Strategy<Value = String> {
    const PIECES: &[&str] = &[
        "a", "E", "st", "Op", "p", "pp", "tt", "ll", "ss", "ing", "ings", "ed", "edly", "es", "s",
        "ies", "ly", "ational", "iness", "fulness", "ization", "iveness", "ro", "SE", "bud",
        "garden", "ß", "İ", "Ü", "ü", "é", "\u{301}", "Ⱥ", "K", "7", "42", " ", " ", "/", ".", "?",
        "=", "-", "://", "&", "_",
    ];
    let pieces = prop::collection::vec(one_of(PIECES), 0..40).prop_map(|pieces| pieces.concat());
    prop_oneof![3 => pieces, 1 => ".{0,80}"]
}

/// A word of a small vocabulary, so that documents share terms and one
/// document often matches three or more terms of a query, the only case
/// that tells one order of summing its scores from another.
fn word() -> impl Strategy<Value = &'static str> {
    one_of(&[
        "rosebud",
        "sled",
        "gardening",
        "gardens",
        "flowers",
        "wine",
        "tasting",
        "tickets",
        "planes",
        "stopping",
        "kane",
        "napa",
        "the",
    ])
}

fn one_of(items: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..items.len()).prop_map(move |i| items[i])
}

/// A document's text: mostly one to eight vocabulary words, sometimes
/// [`text`].
fn document() -> impl Strategy<Value = String> {
    let words = prop::collection::vec(word(), 1..8).prop_map(|words| words.join(" "));
    prop_oneof![3 => words, 1 => text()]
}

/// Documents under random ids below 40, so that ids repeat (text added to
/// an existing document) and arrive out of order.
fn documents() -> impl Strategy<Value = Vec<(DocId, String)>> {
    prop::collection::vec((0u32..40, document()), 1..60)
}

/// A query of one to five terms: vocabulary words, possibly repeated, and
/// words no document holds.
fn query() -> impl Strategy<Value = String> {
    let term = prop_oneof![6 => word(), 1 => Just("submarine"), 1 => Just("Wine")];
    prop::collection::vec(term, 1..=5).prop_map(|terms| terms.join(" "))
}

/// A hit score to weight a profile text by: a few repeated values, so
/// that terms tie and rank by name, or any value in a range.
fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1.0), Just(0.5), Just(0.1), -2.0f64..5.0]
}

/// Strings that probe the stopword keys and the stemmer's last-byte test:
/// NUL bytes, stopwords padded or run on past eight bytes, rule suffixes
/// after doubled consonants, and multibyte final characters.
fn word_like() -> impl Strategy<Value = String> {
    const PIECES: &[&str] = &[
        "\0",
        "the",
        "www",
        "because",
        "through",
        "http",
        "s",
        "es",
        "ies",
        "ing",
        "ed",
        "ly",
        "ational",
        "ization",
        "iness",
        "fulness",
        "pp",
        "ll",
        "é",
        "ß",
        "İ",
        "日本",
        "\u{301}",
        "ǅ",
        "\u{10348}",
    ];
    let pieces = prop::collection::vec(one_of(PIECES), 0..5).prop_map(|pieces| pieces.concat());
    let padded = (
        one_of(crate::stopwords::STOPWORDS),
        one_of(&["", "\0", "\0\0", "s", "é"]),
    )
        .prop_map(|(word, pad)| format!("{word}{pad}"));
    prop_oneof![3 => pieces, 2 => padded, 1 => ".{0,12}"]
}

/// One step of an index's life: text added to a document, or a document
/// removed.
#[derive(Debug, Clone)]
enum Step {
    Add(DocId, String),
    Remove(DocId),
}

/// Additions and removals under random ids below 40, so that documents
/// are removed, removed again and re-added, and arrive out of order.
fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        3 => (0u32..40, document()).prop_map(|(doc, text)| Step::Add(doc, text)),
        1 => (0u32..40).prop_map(Step::Remove),
    ];
    prop::collection::vec(step, 1..60)
}

fn both_indexes(docs: &[(DocId, String)]) -> (InvertedIndex, Index) {
    let mut index = InvertedIndex::new();
    let mut oracle = Index::default();
    for (doc, text) in docs {
        index.add_document(*doc, text);
        oracle.add_document(*doc, text);
    }
    (index, oracle)
}

/// Requires the index to hold the oracle's postings, document lengths and
/// counters.
fn same_index(index: &InvertedIndex, oracle: &Index) -> Result<(), TestCaseError> {
    prop_assert_eq!(index.doc_count(), oracle.total_docs);
    prop_assert_eq!(index.term_count(), oracle.postings.len());
    prop_assert_eq!(index.posting_count(), oracle.total_postings);
    for (term, list) in &oracle.postings {
        prop_assert_eq!(index.postings(term), list.as_slice());
    }
    for doc in 0..40 {
        let expected = oracle.doc_lengths.get(&doc).copied().unwrap_or(0);
        prop_assert_eq!(index.doc_length(doc), expected);
    }
    Ok(())
}

fn same_hits(hits: &[(DocId, f64)], expected: &[(DocId, f64)]) -> bool {
    hits.len() == expected.len()
        && hits
            .iter()
            .zip(expected)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

proptest! {
    /// Tokens and stems equal the allocating tokenizer's and stemmer's.
    #[test]
    fn tokens_and_stems_match_the_oracle(text in text()) {
        let tokens = crate::tokenize(&text);
        prop_assert_eq!(&tokens, &tokenize(&text));
        prop_assert_eq!(crate::significant_tokens(&text), significant_tokens(&text));
        for token in &tokens {
            prop_assert_eq!(crate::stem(token), stem(token));
        }
    }

    /// On any string, not only the tokenizer's output, the stopword test
    /// equals a search of the list's strings, and both faces of the
    /// stemmer equal the allocating stemmer.
    #[test]
    fn stopwords_and_stems_match_the_oracle(word in word_like()) {
        prop_assert_eq!(crate::is_stopword(&word), is_stopword(&word));
        let expected = stem(&word);
        prop_assert_eq!(&crate::stem(&word), &expected);
        let mut appended = String::from("x");
        crate::stem::stem_into(&word, &mut appended);
        prop_assert_eq!(appended, format!("x{expected}"));
    }

    /// Postings, document lengths and counters equal the oracle's.
    #[test]
    fn index_matches_the_oracle(docs in documents()) {
        let (index, oracle) = both_indexes(&docs);
        same_index(&index, &oracle)?;
    }

    /// Through any interleaving of additions and removals, every removal
    /// reports what the oracle's does, and after every step the postings,
    /// document lengths and counters equal the oracle's.
    #[test]
    fn adds_and_removals_match_the_oracle(steps in steps()) {
        let mut index = InvertedIndex::new();
        let mut oracle = Index::default();
        for step in &steps {
            match step {
                Step::Add(doc, text) => {
                    index.add_document(*doc, text);
                    oracle.add_document(*doc, text);
                }
                Step::Remove(doc) => {
                    prop_assert_eq!(index.remove_document(*doc), oracle.remove_document(*doc));
                }
            }
            same_index(&index, &oracle)?;
        }
    }

    /// Search results equal the oracle's, scores compared by bits, for
    /// queries with repeated and absent terms.
    #[test]
    fn search_matches_the_oracle(docs in documents(), queries in prop::collection::vec(query(), 1..8)) {
        let (index, oracle) = both_indexes(&docs);
        for query in &queries {
            let hits = index.search(query);
            let expected = oracle.search(query);
            prop_assert!(same_hits(&hits, &expected), "{:?}: {:?} != {:?}", query, hits, expected);
        }
    }

    /// Profile weights equal the oracle's by bits, and so do the top terms
    /// for every `k` up to one past the number of terms.
    #[test]
    fn profile_matches_the_oracle(
        texts in prop::collection::vec((document(), weight()), 0..12),
        exclude in prop::collection::vec(word(), 0..3),
    ) {
        let mut profile = TermProfile::new();
        let mut oracle = Profile::default();
        for (text, weight) in &texts {
            profile.add_text(text, *weight);
            oracle.add_text(text, *weight);
        }
        prop_assert_eq!(profile.len(), oracle.weights.len());
        for (term, weight) in &oracle.weights {
            prop_assert_eq!(profile.weight_of(term).to_bits(), weight.to_bits());
        }
        let exclude: Vec<String> = exclude.iter().map(|w| (*w).to_owned()).collect();
        let bits = |terms: Vec<(String, f64)>| -> Vec<(String, u64)> {
            terms.into_iter().map(|(t, w)| (t, w.to_bits())).collect()
        };
        for k in 0..=profile.len() + 1 {
            prop_assert_eq!(
                bits(profile.top_terms(k, &exclude)),
                bits(oracle.top_terms(k, &exclude))
            );
        }
    }
}
