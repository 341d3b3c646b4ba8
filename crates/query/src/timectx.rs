//! §2.3 — Time-contextual history search.
//!
//! "A history search for 'wine associated with plane tickets' is both
//! natural to the user and likely to return the desired result" (§2.3).
//! The query has two parts: a *subject* ("wine") and a *companion
//! context* ("plane tickets") the user remembers being engaged in at the
//! time. Subject hits are kept only if their open interval overlaps (or
//! nearly overlaps) a companion hit's interval — using the §3.2 close
//! records and temporal-overlap edges that this system captures and
//! Firefox does not.

use crate::result::{QueryResult, ScoredHit};
use crate::scope::Scope;
use bp_core::ProvenanceBrowser;
use bp_graph::frozen::FrozenGraph;
use bp_graph::traverse::Budget;
use bp_graph::{EdgeKind, NodeId, NodeKind, TimeInterval};
use bp_obs::profile::QueryPlan;
use bp_obs::{names, trace};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// EXPLAIN plan for [`time_contextual_search`].
static TIMECTX_PLAN: QueryPlan = QueryPlan {
    query: "timectx",
    stages: &["text_search", "associate"],
};

/// Tuning for time-contextual search.
#[derive(Debug, Clone)]
pub struct TimeContextConfig {
    /// How far apart two intervals may be and still count as "at the same
    /// time" (the user's memory is fuzzy; default 30 minutes).
    pub gap: Duration,
    /// Maximum hits returned.
    pub max_results: usize,
    /// Node kinds eligible as subject results.
    pub result_kinds: Vec<NodeKind>,
    /// Weight multiplier when the association is an explicit
    /// temporal-overlap edge rather than interval arithmetic.
    pub edge_bonus: f64,
    /// Query budget — its deadline bounds the association scan (the
    /// paper's interactive-latency envelope), and its clock times the
    /// query.
    pub budget: Budget,
}

impl Default for TimeContextConfig {
    fn default() -> Self {
        TimeContextConfig {
            gap: Duration::from_secs(30 * 60),
            max_results: 25,
            result_kinds: vec![NodeKind::PageVisit, NodeKind::Download],
            edge_bonus: 1.5,
            budget: Budget::new(),
        }
    }
}

/// Finds history objects matching `subject` that were open at (about) the
/// same time as objects matching `companion`.
pub fn time_contextual_search(
    browser: &ProvenanceBrowser,
    subject: &str,
    companion: &str,
    config: &TimeContextConfig,
) -> QueryResult {
    let scope = Scope::open(
        browser.obs(),
        "query.timectx",
        Some(&TIMECTX_PLAN),
        names::QUERY_TIMECTX_LATENCY_US,
        &config.budget,
    );
    let graph = browser.graph();

    let stage = scope.stage("text_search");
    let subject_hits = browser.text_index().search(subject);
    let companion_nodes: HashSet<NodeId> = browser
        .text_index()
        .search(companion)
        .into_iter()
        .map(|(doc, _)| NodeId::new(doc))
        .collect();
    stage.rows(2, subject_hits.len() + companion_nodes.len());
    drop(stage);
    if companion_nodes.is_empty() || subject_hits.is_empty() {
        return QueryResult {
            hits: Vec::new(),
            elapsed: scope.finish(false),
            truncated: false,
        };
    }
    let stage = scope.stage("associate");
    let subject_total = subject_hits.len();
    let companion_intervals: Vec<TimeInterval> = companion_nodes
        .iter()
        .filter_map(|&n| graph.node(n).ok().map(|node| *node.interval()))
        .collect();
    let overlap = OverlapProbe::new(browser, &companion_nodes);

    let mut best_by_key: std::collections::HashMap<String, ScoredHit> =
        std::collections::HashMap::new();
    let mut truncated = false;
    for (associated, (doc, text_score)) in subject_hits.into_iter().enumerate() {
        // The interval/edge check per subject hit is the expensive part;
        // degrade to a partial answer when the budget runs out.
        if scope.budget().expired() {
            truncated = true;
            let remaining = (subject_total - associated) as u64;
            stage.truncated(remaining);
            trace::note(format!(
                "truncated: deadline hit, ~{remaining} subject hits unchecked"
            ));
            break;
        }
        let node = NodeId::new(doc);
        let Ok(n) = graph.node(node) else { continue };
        if !config.result_kinds.contains(&n.kind()) {
            continue;
        }
        // Association channel 1: interval arithmetic via close records.
        let interval_match = companion_intervals
            .iter()
            .any(|c| n.interval().within(c, config.gap));
        // Association channel 2: an explicit temporal-overlap edge into
        // the companion set (either direction).
        let edge_match = overlap.touches(node);
        if !interval_match && !edge_match {
            continue;
        }
        let score = text_score * if edge_match { config.edge_bonus } else { 1.0 };
        let hit = ScoredHit {
            node,
            kind: n.kind(),
            key: n.key().to_owned(),
            title: n.attrs().get_str("title").map(str::to_owned),
            score,
            text_score,
            context_score: score - text_score,
        };
        match best_by_key.get_mut(n.key()) {
            Some(existing) if existing.score >= score => {}
            _ => {
                best_by_key.insert(n.key().to_owned(), hit);
            }
        }
    }
    let mut hits: Vec<ScoredHit> = best_by_key.into_values().collect();
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.node.cmp(&b.node))
    });
    hits.truncate(config.max_results);
    stage.rows(subject_total, hits.len());
    drop(stage);
    QueryResult {
        hits,
        elapsed: scope.finish(truncated),
        truncated,
    }
}

/// Finds the nodes joined to a companion by a temporal-overlap edge, in
/// either direction. It reads the browser's last CSR snapshot without
/// refreshing it, so a query after a capture chunk pays no snapshot
/// extension, and takes the edges appended since that snapshot from one
/// pass over the arena's tail. Edges never change once appended, so the
/// two together are the graph's exact adjacency.
struct OverlapProbe<'a> {
    frozen: Arc<FrozenGraph>,
    companions: &'a HashSet<NodeId>,
    /// Nodes joined to a companion by an edge appended since `frozen`.
    tail: HashSet<NodeId>,
}

impl<'a> OverlapProbe<'a> {
    fn new(browser: &ProvenanceBrowser, companions: &'a HashSet<NodeId>) -> Self {
        let frozen = browser.last_frozen();
        let mut tail = HashSet::new();
        let appended = browser.graph().edges_from(frozen.edge_count());
        for (_, e) in appended.filter(|(_, e)| e.kind() == EdgeKind::TemporalOverlap) {
            if companions.contains(&e.src()) {
                tail.insert(e.dst());
            }
            if companions.contains(&e.dst()) {
                tail.insert(e.src());
            }
        }
        OverlapProbe {
            frozen,
            companions,
            tail,
        }
    }

    /// Whether a temporal-overlap edge joins `node` to a companion.
    fn touches(&self, node: NodeId) -> bool {
        if self.tail.contains(&node) {
            return true;
        }
        if node.as_usize() >= self.frozen.node_count() {
            return false;
        }
        let i = node.index();
        self.frozen
            .out_edges_of(i)
            .chain(self.frozen.in_edges_of(i))
            .any(|(other, kind)| {
                kind == EdgeKind::TemporalOverlap && self.companions.contains(&NodeId::new(other))
            })
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
        fn new(tag: &str, config: CaptureConfig) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "bp-query-time-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            TempBrowser {
                browser: ProvenanceBrowser::open(&dir, config).unwrap(),
                dir,
            }
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

    /// The §2.3 history: many wine pages across days, exactly one viewed
    /// while plane tickets were open in another tab.
    fn wine_history(tag: &str, config: CaptureConfig) -> (TempBrowser, String) {
        let mut tb = TempBrowser::new(tag, config);
        let b = &mut tb.browser;
        b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        // Background: ten wine pages on earlier "days".
        for i in 0..10 {
            let s = i * 86_400 + 100;
            b.ingest(&BrowserEvent::navigate(
                t(s),
                TabId(0),
                format!("http://wine{i}.example/list"),
                Some("wine list and tasting notes"),
                NavigationCause::Typed,
            ))
            .unwrap();
        }
        // The moment: day 20, the special wine page + tickets tab.
        let s0 = 20 * 86_400;
        let target = "http://rare-wine.example/bottle".to_owned();
        b.ingest(&BrowserEvent::navigate(
            t(s0),
            TabId(0),
            &target,
            Some("rare wine bottle tasting"),
            NavigationCause::Typed,
        ))
        .unwrap();
        b.ingest(&BrowserEvent::tab_opened(
            t(s0 + 30),
            TabId(1),
            Some(TabId(0)),
        ))
        .unwrap();
        b.ingest(&BrowserEvent::navigate(
            t(s0 + 40),
            TabId(1),
            "http://travel.example/plane-tickets",
            Some("cheap plane tickets"),
            NavigationCause::Typed,
        ))
        .unwrap();
        // Close everything so later wine visits don't overlap.
        b.ingest(&BrowserEvent::tab_closed(t(s0 + 600), TabId(1)))
            .unwrap();
        b.ingest(&BrowserEvent::navigate(
            t(s0 + 700),
            TabId(0),
            "http://wine99.example/another",
            Some("another wine page"),
            NavigationCause::Typed,
        ))
        .unwrap();
        (tb, target)
    }

    #[test]
    fn finds_the_wine_page_open_with_tickets() {
        let (tb, target) = wine_history("find", CaptureConfig::default());
        let r = time_contextual_search(
            &tb.browser,
            "wine",
            "plane tickets",
            &TimeContextConfig::default(),
        );
        assert!(r.contains_key(&target), "got {:?}", r.top_keys(10));
        assert_eq!(
            r.rank_of_key(&target),
            Some(0),
            "the associated page ranks first: {:?}",
            r.top_keys(10)
        );
        // Background wine pages from other days are excluded.
        assert!(!r.contains_key("http://wine3.example/list"));
    }

    #[test]
    fn an_overlap_edge_counts_from_the_snapshot_and_from_edges_appended_since() {
        let wine = "http://rare-wine.example/bottle";
        for snapshot_first in [true, false] {
            let mut tb =
                TempBrowser::new(&format!("tail-{snapshot_first}"), CaptureConfig::default());
            let b = &mut tb.browser;
            b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
                .unwrap();
            b.ingest(&BrowserEvent::navigate(
                t(10),
                TabId(0),
                wine,
                Some("rare wine"),
                NavigationCause::Typed,
            ))
            .unwrap();
            b.ingest(&BrowserEvent::tab_opened(t(20), TabId(1), Some(TabId(0))))
                .unwrap();
            if snapshot_first {
                b.frozen();
            }
            // Capture joins the tickets visit to the wine visit, open in
            // the other tab, with a temporal-overlap edge.
            b.ingest(&BrowserEvent::navigate(
                t(30),
                TabId(1),
                "http://travel.example/plane-tickets",
                Some("plane tickets"),
                NavigationCause::Typed,
            ))
            .unwrap();
            if !snapshot_first {
                b.frozen();
            }
            let stale = b.last_frozen().edge_count() < b.graph().edge_count();
            assert_eq!(stale, snapshot_first);
            let r =
                time_contextual_search(b, "wine", "plane tickets", &TimeContextConfig::default());
            let hit = r.hits.iter().find(|h| h.key == wine).unwrap();
            assert!(hit.context_score > 0.0, "the overlap edge earns its bonus");
        }
    }

    #[test]
    fn plain_text_search_is_swamped_but_time_context_is_not() {
        let (tb, _) = wine_history("swamp", CaptureConfig::default());
        let all_wine = tb.browser.text_index().search("wine");
        let r = time_contextual_search(
            &tb.browser,
            "wine",
            "plane tickets",
            &TimeContextConfig::default(),
        );
        assert!(
            all_wine.len() > r.hits.len(),
            "time context must shrink the candidate set ({} vs {})",
            all_wine.len(),
            r.hits.len()
        );
    }

    #[test]
    fn no_companion_match_returns_empty() {
        let (tb, _) = wine_history("nocompanion", CaptureConfig::default());
        let r = time_contextual_search(
            &tb.browser,
            "wine",
            "submarine races",
            &TimeContextConfig::default(),
        );
        assert!(r.hits.is_empty());
    }

    #[test]
    fn no_subject_match_returns_empty() {
        let (tb, _) = wine_history("nosubject", CaptureConfig::default());
        let r = time_contextual_search(
            &tb.browser,
            "submarine",
            "plane tickets",
            &TimeContextConfig::default(),
        );
        assert!(r.hits.is_empty());
    }

    #[test]
    fn firefox_like_capture_cannot_answer() {
        // Without close records every page is "always open" (§3.2), so
        // old wine pages spuriously overlap and the answer drowns.
        let (tb, target) = wine_history("firefox", CaptureConfig::firefox_like());
        let r = time_contextual_search(
            &tb.browser,
            "wine",
            "plane tickets",
            &TimeContextConfig::default(),
        );
        // The target may appear, but so does everything else — the rank-1
        // precision the provenance-aware capture achieves is lost.
        let spurious = r
            .hits
            .iter()
            .filter(|h| h.key.contains("example/list"))
            .count();
        assert!(
            spurious >= 9,
            "without closes, stale pages flood in (got {spurious}); target rank {:?}",
            r.rank_of_key(&target)
        );
    }

    #[test]
    fn gap_config_widens_the_association() {
        let (tb, _) = wine_history("gap", CaptureConfig::default());
        // The post-moment wine page (t = s0+700) is ~11 min after the
        // tickets tab closed; a huge gap admits it, the default does too
        // (30 min), but a tiny gap excludes it.
        let tight = TimeContextConfig {
            gap: Duration::from_secs(1),
            ..TimeContextConfig::default()
        };
        let r_tight = time_contextual_search(&tb.browser, "wine", "plane tickets", &tight);
        let wide = TimeContextConfig {
            gap: Duration::from_secs(3_600),
            ..TimeContextConfig::default()
        };
        let r_wide = time_contextual_search(&tb.browser, "wine", "plane tickets", &wide);
        assert!(r_wide.hits.len() >= r_tight.hits.len());
        assert!(!r_tight.contains_key("http://wine99.example/another"));
        assert!(r_wide.contains_key("http://wine99.example/another"));
    }
}
