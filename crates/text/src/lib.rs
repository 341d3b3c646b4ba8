//! # bp-text — textual retrieval substrate for browser provenance
//!
//! The paper's contextual algorithms start from a plain *textual* search
//! ("the algorithm performs a textual search and then reorders results by
//! the relevance of their provenance neighbors", §2.1 citing Shah et al.)
//! and its personalization runs "term frequency analysis" over contextual
//! results (§4). This crate provides those textual pieces, built from
//! scratch:
//!
//! - [`tokenize`] / [`significant_tokens`] — URL-aware tokenization;
//! - [`is_stopword`] — English + web-scaffolding stopwords;
//! - [`stem`] — a light inflectional stemmer;
//! - [`InvertedIndex`] — an incremental inverted index with TF-IDF search;
//! - [`TermProfile`], [`tf_weight`], [`idf`], [`cosine`] — scoring and the
//!   term-frequency profiles used for client-side query expansion.
//!
//! # Example
//!
//! ```
//! use bp_text::InvertedIndex;
//! let mut idx = InvertedIndex::new();
//! idx.add_document(0, "Citizen Kane rosebud http://films.example/kane");
//! let hits = idx.search("rosebud");
//! assert_eq!(hits[0].0, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns errors or degrades instead of aborting.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// Diagnostics go through bp_obs::log, leveled and flight-recorded.
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]

mod index;
mod score;
mod stem;
mod stopwords;
mod tokenize;

pub use index::{DocId, InvertedIndex, Posting};
pub use score::{cosine, idf, tf_weight, TermProfile};
pub use stem::stem;
pub use stopwords::is_stopword;
pub use tokenize::{significant_tokens, tokenize};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Tokenization output is always lowercase alphanumeric.
        #[test]
        fn tokens_are_lowercase_alphanumeric(text in ".{0,200}") {
            for token in tokenize(&text) {
                prop_assert!(!token.is_empty());
                prop_assert!(token.chars().all(|c| c.is_alphanumeric()));
                prop_assert_eq!(token.to_lowercase(), token.clone());
            }
        }

        /// Tokenizing is insensitive to surrounding separators.
        #[test]
        fn separator_padding_is_irrelevant(word in "[a-z]{1,12}") {
            let padded = format!("  ,{word}! ");
            prop_assert_eq!(tokenize(&padded), tokenize(&word));
        }

        /// Stemming stabilizes: applying it twice equals applying it three
        /// times.
        #[test]
        fn stemming_contracts_and_stabilizes(word in "[a-z]{1,16}") {
            let s1 = stem(&word);
            prop_assert!(s1.len() <= word.len() + 2);
            let s2 = stem(&s1);
            let s3 = stem(&s2);
            prop_assert_eq!(s2, s3);
        }

        /// Every indexed significant term is findable again by search.
        #[test]
        fn indexed_terms_are_searchable(words in prop::collection::vec("[a-z]{3,10}", 1..20)) {
            let mut idx = InvertedIndex::new();
            let text = words.join(" ");
            idx.add_document(7, &text);
            for w in &words {
                if is_stopword(w) {
                    continue;
                }
                let hits = idx.search(w);
                prop_assert!(
                    hits.iter().any(|(d, _)| *d == 7),
                    "word {} indexed under doc 7 must be found", w
                );
            }
        }

        /// Search scores are positive and sorted descending.
        #[test]
        fn search_scores_sorted(words in prop::collection::vec("[a-z]{3,10}", 1..30)) {
            let mut idx = InvertedIndex::new();
            for (i, w) in words.iter().enumerate() {
                idx.add_document(i as u32, w);
            }
            let hits = idx.search(&words.join(" "));
            for pair in hits.windows(2) {
                prop_assert!(pair[0].1 >= pair[1].1);
            }
            for (_, s) in hits {
                prop_assert!(s > 0.0);
            }
        }

        /// Cosine similarity stays within [0, 1] for nonnegative vectors.
        #[test]
        fn cosine_bounded(pairs in prop::collection::vec(("[a-z]{1,6}", 0.0f64..10.0), 0..20),
                          pairs2 in prop::collection::vec(("[a-z]{1,6}", 0.0f64..10.0), 0..20)) {
            let a: std::collections::HashMap<String, f64> = pairs.into_iter().collect();
            let b: std::collections::HashMap<String, f64> = pairs2.into_iter().collect();
            let c = cosine(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
        }
    }
}
