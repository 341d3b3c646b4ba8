//! §2.2 — Personalizing web search, client-side.
//!
//! "Personalizing Web Search performs term frequency analysis on the
//! results of a contextual history search to find terms in user history
//! associated with the search term" (§4). The discovered terms are added
//! to the outgoing query *locally*: "the search engine would only see a
//! search for 'rosebud flower'; it would not know anything about the
//! user's history" (§2.2).

use crate::context::{ranked_search, ContextualConfig, Walk};
use crate::scope::Scope;
use bp_core::ProvenanceBrowser;
use bp_obs::profile::QueryPlan;
use bp_obs::{names, trace};
use bp_text::TermProfile;

/// EXPLAIN plan for [`personalize_query`]. The inner contextual search
/// attaches its own profile as a child of this one.
static PERSONALIZE_PLAN: QueryPlan = QueryPlan {
    query: "personalize",
    stages: &["contextual", "term_profile"],
};

/// Tuning for query expansion.
#[derive(Debug, Clone)]
pub struct PersonalizeConfig {
    /// How many expansion terms to add.
    pub expansion_terms: usize,
    /// Underlying contextual search configuration. Its budget bounds the
    /// whole query: the inner search and the term profile spend one
    /// deadline.
    pub contextual: ContextualConfig,
    /// Minimum profile weight for a term to qualify (filters one-off
    /// noise).
    pub min_term_weight: f64,
}

impl Default for PersonalizeConfig {
    fn default() -> Self {
        PersonalizeConfig {
            expansion_terms: 2,
            contextual: ContextualConfig {
                max_results: 50,
                ..ContextualConfig::default()
            },
            min_term_weight: 0.05,
        }
    }
}

/// A locally-expanded web query.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpandedQuery {
    /// The user's original query.
    pub original: String,
    /// History-derived expansion terms, strongest first.
    pub added_terms: Vec<String>,
}

impl ExpandedQuery {
    /// The string actually sent to the engine: original + added terms.
    pub fn to_query_string(&self) -> String {
        let mut q = self.original.clone();
        for term in &self.added_terms {
            q.push(' ');
            q.push_str(term);
        }
        q
    }

    /// `true` if no expansion happened (unknown topic, empty history).
    pub fn is_unchanged(&self) -> bool {
        self.added_terms.is_empty()
    }
}

/// Expands `query` with terms from the user's own history context.
///
/// Runs a contextual history search, builds a [`TermProfile`] over the
/// hits' text (each hit's contribution weighted by its contextual
/// relevance), and picks the heaviest terms not already in the query.
/// Everything happens locally — the function never needs the engine.
pub fn personalize_query(
    browser: &ProvenanceBrowser,
    query: &str,
    config: &PersonalizeConfig,
) -> ExpandedQuery {
    let scope = Scope::open(
        browser.obs(),
        "query.personalize",
        Some(&PERSONALIZE_PLAN),
        names::QUERY_PERSONALIZE_LATENCY_US,
        &config.contextual.budget,
    );
    let contextual = {
        let stage = scope.stage("contextual");
        // The inner search runs on this query's pinned budget, so it
        // spends what is left of the one deadline.
        let contextual = ranked_search(
            browser,
            query,
            &config.contextual,
            scope.budget(),
            Walk::Expansion,
        );
        stage.rows(1, contextual.hits.len());
        if contextual.truncated {
            // The child profile carries the precise cut point; at this
            // level the estimate is how many hits never materialized.
            let remaining = config
                .contextual
                .max_results
                .saturating_sub(contextual.hits.len()) as u64;
            stage.truncated(remaining);
            trace::note(format!(
                "truncated: inner contextual search cut short, ~{remaining} hits may be missing"
            ));
        }
        contextual
    };
    let stage = scope.stage("term_profile");
    let mut profile = TermProfile::new();
    let mut truncated = contextual.truncated;
    for (profiled, hit) in contextual.hits.iter().enumerate() {
        // The inner search spends most of the budget; the profile pass
        // over its hits honors whatever remains.
        if scope.budget().expired() {
            truncated = true;
            let remaining = (contextual.hits.len() - profiled) as u64;
            stage.truncated(remaining);
            trace::note(format!(
                "truncated: deadline hit, ~{remaining} hits unprofiled"
            ));
            break;
        }
        // Two additions sum in the same order as one of the joined text.
        profile.add_text(&hit.key, hit.score);
        if let Some(title) = &hit.title {
            profile.add_text(title, hit.score);
        }
    }
    let exclude: Vec<String> = query.split_whitespace().map(str::to_owned).collect();
    let added_terms: Vec<String> = profile
        .top_terms(config.expansion_terms, &exclude)
        .into_iter()
        .filter(|(_, w)| *w >= config.min_term_weight)
        .map(|(t, _)| t)
        .collect();
    stage.rows(contextual.hits.len(), added_terms.len());
    drop(stage);
    scope.finish(truncated);
    ExpandedQuery {
        original: query.to_owned(),
        added_terms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{BrowserEvent, CaptureConfig, NavigationCause, TabId};
    use bp_graph::Timestamp;
    use std::path::PathBuf;

    struct TempBrowser {
        browser: ProvenanceBrowser,
        dir: PathBuf,
    }
    impl TempBrowser {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "bp-query-pers-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            // A private registry per test, so metric counts are exact.
            let browser = ProvenanceBrowser::open_with_obs(
                &dir,
                CaptureConfig::default(),
                bp_storage::SyncPolicy::default(),
                bp_obs::Obs::isolated(),
            )
            .unwrap();
            TempBrowser { browser, dir }
        }
    }
    impl Drop for TempBrowser {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// A gardener's history: rosebud searches lead to flower pages.
    fn gardener(tag: &str) -> TempBrowser {
        let mut tb = TempBrowser::new(tag);
        let b = &mut tb.browser;
        b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        let mut clock = 1;
        for i in 0..5 {
            b.ingest(&BrowserEvent::navigate(
                t(clock),
                TabId(0),
                format!("http://se/?q=rosebud&s={i}"),
                Some("rosebud - Search"),
                NavigationCause::SearchQuery {
                    query: "rosebud".to_owned(),
                },
            ))
            .unwrap();
            clock += 1;
            b.ingest(&BrowserEvent::navigate(
                t(clock),
                TabId(0),
                format!("http://garden{i}.example/flower-care"),
                Some("Flower care for rosebud pruning"),
                NavigationCause::Link,
            ))
            .unwrap();
            clock += 1;
        }
        tb
    }

    #[test]
    fn gardener_rosebud_expands_with_flower_vocabulary() {
        let tb = gardener("expand");
        let expanded = personalize_query(&tb.browser, "rosebud", &PersonalizeConfig::default());
        assert!(!expanded.is_unchanged(), "history should drive expansion");
        // The added terms come from the gardening context.
        let garden_vocab = ["flower", "care", "garden", "prune", "pruning"];
        assert!(
            expanded.added_terms.iter().any(|t| garden_vocab
                .iter()
                .any(|g| t.contains(g) || g.contains(t.as_str()))),
            "terms {:?} should be garden-flavoured",
            expanded.added_terms
        );
        // The outgoing query embeds them.
        let q = expanded.to_query_string();
        assert!(q.starts_with("rosebud "));
    }

    #[test]
    fn expansion_never_repeats_query_terms() {
        let tb = gardener("norepeat");
        let expanded = personalize_query(&tb.browser, "rosebud", &PersonalizeConfig::default());
        assert!(expanded.added_terms.iter().all(|t| t != "rosebud"));
    }

    #[test]
    fn unknown_topic_leaves_query_unchanged() {
        let tb = gardener("unknown");
        let expanded = personalize_query(
            &tb.browser,
            "quantum chromodynamics",
            &PersonalizeConfig::default(),
        );
        assert!(expanded.is_unchanged());
        assert_eq!(expanded.to_query_string(), "quantum chromodynamics");
    }

    #[test]
    fn empty_history_leaves_query_unchanged() {
        let tb = TempBrowser::new("empty");
        let expanded = personalize_query(&tb.browser, "rosebud", &PersonalizeConfig::default());
        assert!(expanded.is_unchanged());
    }

    #[test]
    fn one_user_query_is_counted_once() {
        let tb = gardener("counted");
        let config = PersonalizeConfig {
            contextual: ContextualConfig {
                budget: bp_graph::traverse::Budget::new()
                    .with_deadline(std::time::Duration::from_secs(60)),
                ..ContextualConfig::default()
            },
            ..PersonalizeConfig::default()
        };
        let _ = personalize_query(&tb.browser, "rosebud", &config);
        // The inner contextual search shares the outer deadline: both
        // paths sample their latency, but the deadline counts one query.
        let obs = tb.browser.obs();
        assert_eq!(
            obs.histogram(names::QUERY_PERSONALIZE_LATENCY_US).count(),
            1
        );
        assert_eq!(obs.histogram(names::QUERY_CONTEXT_LATENCY_US).count(), 1);
        assert_eq!(obs.counter(names::QUERY_DEADLINE_HIT).get(), 1);
        assert_eq!(obs.counter(names::QUERY_DEADLINE_MISS).get(), 0);
    }

    #[test]
    fn term_count_respects_config() {
        let tb = gardener("count");
        let config = PersonalizeConfig {
            expansion_terms: 1,
            ..PersonalizeConfig::default()
        };
        let expanded = personalize_query(&tb.browser, "rosebud", &config);
        assert!(expanded.added_terms.len() <= 1);
    }

    #[test]
    fn privacy_everything_is_local() {
        // Structural check: the expansion is computed from the browser
        // alone; the resulting query string is the ONLY outbound artifact,
        // and it contains no URLs from history.
        let tb = gardener("privacy");
        let expanded = personalize_query(&tb.browser, "rosebud", &PersonalizeConfig::default());
        let outgoing = expanded.to_query_string();
        assert!(!outgoing.contains("http"));
        assert!(
            !outgoing.contains("example"),
            "no history hosts leak: {outgoing}"
        );
    }
}
