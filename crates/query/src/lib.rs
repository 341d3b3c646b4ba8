//! # bp-query — the paper's use-case queries
//!
//! The four §2 use cases of *The Case for Browser Provenance*, implemented
//! exactly as §4 describes, over the `bp-core` provenance store:
//!
//! | Use case | Paper's description (§4) | Here |
//! |---|---|---|
//! | Contextual history search (§2.1) | "a graph neighborhood expansion algorithm, similar to … HITS" | [`contextual_history_search`] |
//! | Personalizing web search (§2.2) | "term frequency analysis on the results of a contextual history search" | [`personalize_query`] |
//! | Time-contextual history search (§2.3) | "a query over time relationships" | [`time_contextual_search`] |
//! | Download lineage (§2.4) | "a breadth-first search over a node's ancestors" | [`first_recognizable_ancestor`], [`downloads_descending_from`] |
//!
//! Every query takes a [`bp_graph::traverse::Budget`], reproducing the
//! paper's latency claim that queries "complete in less than 200 ms in the
//! majority of cases and can be **bound** to that time in the remaining
//! cases" (§4).
//!
//! The [`ql`] module adds a small textual query language for ad-hoc path
//! queries (`ancestors(#42) where type = download`).
//!
//! # Example: the rosebud query (§2.1)
//!
//! ```
//! use bp_core::{ProvenanceBrowser, BrowserEvent, NavigationCause, TabId, CaptureConfig};
//! use bp_query::{contextual_history_search, ContextualConfig};
//! use bp_graph::Timestamp;
//!
//! # fn main() -> Result<(), bp_core::CoreError> {
//! let dir = std::env::temp_dir().join(format!("bp-query-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut browser = ProvenanceBrowser::open(&dir, CaptureConfig::default())?;
//! let t = Timestamp::from_secs(0);
//! browser.ingest(&BrowserEvent::tab_opened(t, TabId(0), None))?;
//! browser.ingest(&BrowserEvent::navigate(
//!     Timestamp::from_secs(1), TabId(0), "http://se/?q=rosebud", Some("rosebud - Search"),
//!     NavigationCause::SearchQuery { query: "rosebud".into() },
//! ))?;
//! browser.ingest(&BrowserEvent::navigate(
//!     Timestamp::from_secs(2), TabId(0), "http://films/kane", Some("Citizen Kane"),
//!     NavigationCause::Link,
//! ))?;
//! let results = contextual_history_search(&browser, "rosebud", &ContextualConfig::default());
//! assert!(results.contains_key("http://films/kane"));
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
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

mod context;
mod describe;
mod lineage;
mod personalize;
pub mod ql;
mod result;
mod scope;
mod timectx;

pub use context::{
    contextual_history_search, contextual_history_search_ppr, textual_history_search,
    ContextualConfig,
};
pub use describe::{describe_origin, DescribeConfig};
pub use lineage::{
    downloads_descending_from, find_download, first_recognizable_ancestor, full_lineage,
    LineageAnswer, LineageConfig,
};
pub use personalize::{personalize_query, ExpandedQuery, PersonalizeConfig};
pub use result::{QueryResult, ScoredHit};
pub use timectx::{time_contextual_search, TimeContextConfig};

#[cfg(test)]
mod proptests {
    use super::*;
    use bp_core::{
        BrowserEvent, CaptureConfig, EventKind, NavigationCause, ProvenanceBrowser, TabId,
    };
    use bp_graph::{NodeKind, Timestamp};
    use proptest::prelude::*;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "bp-query-prop-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            TempDir(path)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A browsing script: per step, navigate somewhere by some cause and
    /// occasionally download.
    fn build_browser(tag: &str, steps: &[(u8, u8, bool)]) -> (TempDir, ProvenanceBrowser) {
        let dir = TempDir::new(tag);
        let mut b = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        b.ingest(&BrowserEvent::tab_opened(Timestamp::EPOCH, TabId(0), None))
            .unwrap();
        let mut clock = 0i64;
        for (i, &(url, cause, download)) in steps.iter().enumerate() {
            clock += 10;
            let cause = match cause % 4 {
                0 => NavigationCause::Link,
                1 => NavigationCause::Typed,
                2 => NavigationCause::SearchQuery {
                    query: format!("topic{}", url % 4),
                },
                _ => NavigationCause::BackForward,
            };
            b.ingest(&BrowserEvent::navigate(
                Timestamp::from_secs(clock),
                TabId(0),
                format!("http://site{url}.example/page"),
                Some(&format!("Page about topic{}", url % 4)),
                cause,
            ))
            .unwrap();
            if download {
                clock += 1;
                b.ingest(&BrowserEvent::new(
                    Timestamp::from_secs(clock),
                    EventKind::Download {
                        tab: TabId(0),
                        path: format!("/dl/file-{i}.bin"),
                        bytes: 1,
                    },
                ))
                .unwrap();
            }
        }
        (dir, b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Every lineage answer is a real path: consecutive path nodes are
        /// joined by live edges, the path starts at the download, and the
        /// endpoint satisfies the recognizability predicate.
        #[test]
        fn lineage_paths_are_valid(steps in prop::collection::vec((0u8..6, any::<u8>(), any::<bool>()), 3..40)) {
            let (_dir, browser) = build_browser("lineage", &steps);
            let config = LineageConfig {
                recognizable_visits: 2,
                ..LineageConfig::default()
            };
            let downloads: Vec<_> = browser
                .graph()
                .nodes_of_kind(NodeKind::Download)
                .collect();
            for dl in downloads {
                let Some(answer) = first_recognizable_ancestor(&browser, dl, &config) else {
                    continue;
                };
                prop_assert_eq!(answer.path.nodes.first().copied(), Some(dl));
                prop_assert_eq!(answer.path.nodes.last().copied(), Some(answer.ancestor));
                prop_assert!(answer.visit_count >= 2);
                prop_assert_eq!(answer.path.edges.len(), answer.path.nodes.len() - 1);
                for (i, &eid) in answer.path.edges.iter().enumerate() {
                    let e = browser.graph().edge(eid).unwrap();
                    let (a, b) = (answer.path.nodes[i], answer.path.nodes[i + 1]);
                    prop_assert!(
                        (e.src() == a && e.dst() == b) || (e.src() == b && e.dst() == a),
                        "path step {i} not joined by edge {eid}"
                    );
                }
            }
        }

        /// Contextual search: scores are positive and sorted, every hit's
        /// kind is in the configured result set, and hits are unique per
        /// key. The textual baseline is always a subset of contextual's
        /// keys.
        #[test]
        fn contextual_search_invariants(steps in prop::collection::vec((0u8..6, any::<u8>(), any::<bool>()), 3..40),
                                        topic in 0u8..4) {
            let (_dir, browser) = build_browser("ctx", &steps);
            let config = ContextualConfig::default();
            let query = format!("topic{topic}");
            let contextual = contextual_history_search(&browser, &query, &config);
            let textual = textual_history_search(&browser, &query, &config);
            let mut seen = std::collections::HashSet::new();
            for pair in contextual.hits.windows(2) {
                prop_assert!(pair[0].score >= pair[1].score);
            }
            for hit in &contextual.hits {
                prop_assert!(hit.score > 0.0);
                prop_assert!(config.result_kinds.contains(&hit.kind));
                prop_assert!(seen.insert(hit.key.clone()), "duplicate key {}", hit.key);
            }
            if textual.hits.len() < config.max_results && contextual.hits.len() < config.max_results {
                for hit in &textual.hits {
                    prop_assert!(
                        contextual.contains_key(&hit.key),
                        "textual hit {} lost by contextual search",
                        hit.key
                    );
                }
            }
        }

        /// The query language agrees with the library calls it wraps:
        /// `descendants(url = ..) where type = download` returns exactly
        /// `downloads_descending_from`.
        #[test]
        fn ql_matches_library(steps in prop::collection::vec((0u8..6, any::<u8>(), any::<bool>()), 3..40)) {
            let (_dir, browser) = build_browser("ql", &steps);
            let url = "http://site0.example/page";
            if browser.graph().nodes_with_key(url).is_empty() {
                return Ok(());
            }
            let (expected, truncated) = downloads_descending_from(
                &browser,
                url,
                &bp_graph::traverse::Budget::new(),
            );
            prop_assert!(!truncated);
            let rows = ql::run(
                &browser,
                &format!("descendants(url = \"{url}\") where type = download"),
                &bp_graph::traverse::Budget::new(),
            )
            .unwrap();
            // QL walks from the latest node with this key; the library
            // unions all versions — so QL results ⊆ library results.
            for row in &rows.rows {
                prop_assert!(expected.iter().any(|(n, _)| *n == row.node));
            }
        }
    }
}
