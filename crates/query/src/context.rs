//! §2.1 — Contextual history search.
//!
//! "The algorithm performs a textual search and then reorders results by
//! the relevance of their provenance neighbors" (Shah et al., via §2.1),
//! implemented "as a graph neighborhood expansion algorithm, similar to
//! web search algorithms such as Kleinberg's HITS" (§4). Textual hits seed
//! a weighted neighborhood expansion; every reached node scores by a blend
//! of its own textual relevance and the provenance context flowing into
//! it. A page that never mentions "rosebud" but was *reached from* the
//! rosebud search ranks — the Citizen Kane case.

use crate::result::{BestByKey, QueryResult, ScoredHit};
use crate::scope::{Scope, Stage};
use bp_core::ProvenanceBrowser;
use bp_graph::frozen::{
    expand_frozen, fingerprint_answer, fingerprint_expansion, fingerprint_ppr,
    personalized_pagerank_frozen, CacheDomain, CacheKey, CachedAnswer, CachedHit, FrozenGraph,
    Refresh,
};
use bp_graph::hits::{hits, HitsConfig};
use bp_graph::neighborhood::ExpansionConfig;
use bp_graph::pagerank::PageRankConfig;
use bp_graph::traverse::Budget;
use bp_graph::{NodeId, NodeKind, ProvenanceGraph};
use bp_obs::names;
use bp_obs::profile::QueryPlan;
use std::sync::Arc;

/// EXPLAIN plan for [`contextual_history_search`].
static CONTEXT_PLAN: QueryPlan = QueryPlan {
    query: "context",
    stages: &["frozen.build_us", "text_seeds", "expand", "hits", "blend"],
};

/// EXPLAIN plan for [`contextual_history_search_ppr`].
static PPR_PLAN: QueryPlan = QueryPlan {
    query: "ppr",
    stages: &["frozen.build_us", "text_seeds", "pagerank", "blend"],
};

/// EXPLAIN plan for [`textual_history_search`].
static TEXTUAL_PLAN: QueryPlan = QueryPlan {
    query: "textual",
    stages: &["text_search", "rank"],
};

/// Tuning for contextual history search.
#[derive(Debug, Clone)]
pub struct ContextualConfig {
    /// Blend weight of the textual score.
    pub text_weight: f64,
    /// Blend weight of the provenance-context score.
    pub context_weight: f64,
    /// Neighborhood expansion parameters.
    pub expansion: ExpansionConfig,
    /// Query budget (deadline / node cap) — the paper's 200 ms bound. Its
    /// clock also times the query.
    pub budget: Budget,
    /// Maximum hits returned.
    pub max_results: usize,
    /// Node kinds eligible as results (visits and downloads by default;
    /// search terms and tab objects are context, not results).
    pub result_kinds: Vec<NodeKind>,
    /// Blend weight of HITS authority computed over the expansion's
    /// reached set (§4's "similar to Kleinberg's HITS"): pages many
    /// in-neighborhood journeys *arrived at* gain authority. 0.0 (the
    /// default) disables the HITS pass.
    pub hits_weight: f64,
}

impl Default for ContextualConfig {
    fn default() -> Self {
        ContextualConfig {
            text_weight: 1.0,
            context_weight: 1.5,
            expansion: ExpansionConfig::default(),
            budget: Budget::new(),
            max_results: 25,
            result_kinds: vec![NodeKind::PageVisit, NodeKind::Download, NodeKind::Bookmark],
            hits_weight: 0.0,
        }
    }
}

/// Normalized textual seeds for a query: `(node, tfidf / max_tfidf)`.
fn text_seeds(browser: &ProvenanceBrowser, query: &str) -> Vec<(NodeId, f64)> {
    let text_hits = browser.text_index().search(query);
    let max_text = text_hits.first().map_or(1.0, |(_, s)| *s).max(f64::EPSILON);
    text_hits
        .iter()
        .map(|&(doc, score)| (NodeId::new(doc), score / max_text))
        .collect()
}

/// The browser's current CSR snapshot, taken under the plan's leading
/// `frozen.build_us` stage so EXPLAIN shows what the epoch check (and any
/// refresh a mutation forced) cost this query.
fn frozen_stage(browser: &ProvenanceBrowser, scope: &Scope<'_>) -> Arc<FrozenGraph> {
    let stage = scope.stage("frozen.build_us");
    let frozen = browser.frozen();
    stage.rows(frozen.node_count(), frozen.edge_count());
    frozen
}

/// The context signal a contextual search ranks by.
#[derive(Clone, Copy)]
pub(crate) enum Walk<'a> {
    /// One-shot neighborhood expansion from the seeds, with the optional
    /// HITS pass.
    Expansion,
    /// Personalized PageRank from the seeds.
    PageRank(&'a PageRankConfig),
}

/// Runs a contextual search over `walk` within `budget`: snapshot,
/// textual seeds, then the ranked answer from the score cache or from
/// walk, optional HITS and blend, then the [`ScoredHit`]s.
pub(crate) fn ranked_search(
    browser: &ProvenanceBrowser,
    query: &str,
    config: &ContextualConfig,
    budget: &Budget,
    walk: Walk<'_>,
) -> QueryResult {
    let (span, plan) = match walk {
        Walk::Expansion => ("query.context", &CONTEXT_PLAN),
        Walk::PageRank(_) => ("query.context_ppr", &PPR_PLAN),
    };
    // Both walks serve one use case, so they sample the same latency
    // histogram.
    let scope = Scope::open(
        browser.obs(),
        span,
        Some(plan),
        names::QUERY_CONTEXT_LATENCY_US,
        budget,
    );

    // 1. The CSR snapshot (usually an epoch check + Arc clone).
    let frozen = frozen_stage(browser, &scope);

    // 2. Textual seeds.
    let seeds = {
        let stage = scope.stage("text_seeds");
        let seeds = text_seeds(browser, query);
        stage.rows(query.split_whitespace().count(), seeds.len());
        seeds
    };

    // 3. The ranked answer. An identical request (seed set, walk config,
    //    budget caps, blend settings) against an unmutated graph is a map
    //    probe; anything else walks and blends.
    let search = Search {
        browser,
        frozen: &frozen,
        seeds: &seeds,
        config,
        scope: &scope,
    };
    let answer = match walk {
        Walk::Expansion => search.expansion_answer(),
        Walk::PageRank(pagerank) => search.pagerank_answer(pagerank),
    };
    let hits = materialize(browser.graph(), &answer);
    QueryResult {
        hits,
        elapsed: scope.finish(answer.truncated),
        truncated: answer.truncated,
    }
}

/// One contextual search's inputs, shared by its walk and blend stages.
struct Search<'a> {
    browser: &'a ProvenanceBrowser,
    frozen: &'a FrozenGraph,
    seeds: &'a [(NodeId, f64)],
    config: &'a ContextualConfig,
    scope: &'a Scope<'a>,
}

impl Search<'_> {
    /// The answer ranked over a neighborhood expansion from the seeds.
    fn expansion_answer(&self) -> Arc<CachedAnswer> {
        let config = self.config;
        let budget = self.scope.budget();
        let walk = fingerprint_expansion(self.seeds, &config.expansion, budget);
        self.cached_answer(
            CacheDomain::Expansion,
            walk,
            "expand",
            |stage| {
                let e = expand_frozen(self.frozen, self.seeds, &config.expansion, budget);
                stage.rows(self.seeds.len(), e.entries.len());
                stage.touched(e.entries.len(), 0);
                if e.truncated {
                    let remaining = self.frozen.node_count().saturating_sub(e.entries.len()) as u64;
                    stage.truncated(remaining, "budget hit", "nodes unreached");
                }
                e
            },
            |expansion, winners| {
                let (authority, hits_truncated) = if config.hits_weight > 0.0 {
                    self.hits_pass(&expansion.entries)
                } else {
                    (Vec::new(), false)
                };
                let blend_truncated =
                    self.blend(&expansion.entries, 1.0, &authority, budget, winners);
                expansion.truncated || hits_truncated || blend_truncated
            },
        )
    }

    /// The optional HITS pass over the reached neighborhood (the "base
    /// set" in Kleinberg's terms), under the query's deadline: authority
    /// flows to the pages the user's journeys converged on. Returns the
    /// authority of each of `entries`, in their order, and whether the
    /// deadline cut the pass short.
    fn hits_pass(&self, entries: &[(u32, f64)]) -> (Vec<f64>, bool) {
        let stage = self.scope.stage("hits");
        // Expansion entries are in ascending node-id order, so the member
        // order, and with it the scores, are deterministic.
        let base: Vec<NodeId> = entries.iter().map(|&(i, _)| NodeId::new(i)).collect();
        let config = HitsConfig::default();
        let scores = hits(self.frozen, &base, &config, self.scope.budget());
        stage.rows(base.len(), scores.authority.len());
        if scores.truncated {
            let remaining = config.max_iterations.saturating_sub(scores.iterations) as u64;
            stage.truncated(remaining, "deadline hit", "iterations left");
        }
        (scores.authority, scores.truncated)
    }

    /// The answer ranked over personalized PageRank from the seeds, its
    /// scores rescaled so the top one is 1, as the expansion's roughly are.
    /// A walk that built or grew the snapshot's slot layout counts it in
    /// `bp_graph_frozen.layout_build` or `bp_graph_frozen.layout_extend`
    /// and records its wall time in `bp_graph_frozen.layout_us`.
    fn pagerank_answer(&self, pagerank: &PageRankConfig) -> Arc<CachedAnswer> {
        let budget = self.scope.budget();
        let walk = fingerprint_ppr(self.seeds, pagerank, budget);
        self.cached_answer(
            CacheDomain::PageRank,
            walk,
            "pagerank",
            |stage| {
                let s = personalized_pagerank_frozen(self.frozen, self.seeds, pagerank, budget);
                if let Some((how, took)) = s.layout {
                    let obs = self.browser.obs();
                    obs.counter(match how {
                        Refresh::Extended => names::BP_GRAPH_FROZEN_LAYOUT_EXTEND,
                        Refresh::Rebuilt => names::BP_GRAPH_FROZEN_LAYOUT_BUILD,
                    })
                    .inc();
                    obs.histogram(names::BP_GRAPH_FROZEN_LAYOUT_US)
                        .record_duration(took);
                }
                stage.rows(self.seeds.len(), s.entries.len());
                stage.touched(s.entries.len(), 0);
                if s.truncated {
                    let remaining = pagerank.max_iterations.saturating_sub(s.iterations) as u64;
                    stage.truncated(remaining, "deadline hit", "iterations left");
                }
                s
            },
            |scores, winners| {
                // One O(n) max scan — no full ranking sort. The kernel
                // stops at an iteration boundary past the deadline, and
                // the blend loop checks it too.
                let max = scores.max_score().max(f64::EPSILON);
                let blend_truncated = self.blend(&scores.entries, max, &[], budget, winners);
                scores.truncated || blend_truncated
            },
        )
    }

    /// Serves the answer for this search over the walk fingerprinted
    /// `walk` from the browser's score cache, or computes and caches it,
    /// maintaining the `bp_graph_cache` metrics.
    ///
    /// The probe runs in the walk's stage, whose span notes a hit. On a
    /// miss, `walk_scores` runs in that stage, and `rank` ranks what it
    /// returned into the answer's winners and says whether anything was
    /// truncated. Answers truncated under a wall-clock deadline are
    /// returned but never cached: what they contain depends on machine
    /// load, not on the key.
    fn cached_answer<W>(
        &self,
        domain: CacheDomain,
        walk: u64,
        stage: &'static str,
        walk_scores: impl FnOnce(&Stage<'_>) -> W,
        rank: impl FnOnce(W, &mut Vec<CachedHit>) -> bool,
    ) -> Arc<CachedAnswer> {
        let config = self.config;
        let key = CacheKey {
            epoch: self.frozen.epoch(),
            domain,
            fingerprint: fingerprint_answer(
                walk,
                config.text_weight,
                config.context_weight,
                config.hits_weight,
                config.max_results,
                &config.result_kinds,
            ),
        };
        let cache = self.browser.score_cache();
        let obs = self.browser.obs();
        let (mut answer, scores) = {
            let stage = self.scope.stage(stage);
            if let Some(answer) = cache.get(&key) {
                obs.counter(names::BP_GRAPH_CACHE_HIT).inc();
                stage.rows(0, answer.hits.len());
                stage.note(|| {
                    format!(
                        "score cache hit: {} ranked hits, walk and blend skipped",
                        answer.hits.len()
                    )
                });
                if answer.truncated {
                    stage.truncated(0, "budget hit when the answer was computed", "");
                }
                return answer;
            }
            obs.counter(names::BP_GRAPH_CACHE_MISS).inc();
            // The answer outlives the query, so it is allocated before the
            // walk's O(n) buffers and never sits in the heap above their
            // freed space, where it could keep that space from being
            // returned.
            let capacity = config.max_results.min(self.frozen.node_count());
            let answer = Arc::new(CachedAnswer::with_capacity(capacity));
            (answer, walk_scores(&stage))
        };
        let fresh = Arc::make_mut(&mut answer);
        fresh.truncated = rank(scores, &mut fresh.hits);
        if !answer.truncated || self.scope.budget().deadline().is_none() {
            let evicted = cache.put(key, answer.clone());
            if evicted > 0 {
                obs.counter(names::BP_GRAPH_CACHE_EVICT).add(evicted);
            }
        }
        obs.gauge(names::BP_GRAPH_CACHE_BYTES)
            .set(cache.stats().bytes as i64);
        answer
    }

    /// The blend stage: ranks sparse `(node, context)` entries, with the
    /// HITS `authority` of each when that pass ran, into `winners`, still
    /// under the query's deadline — the walk truncates itself,
    /// but this loop scales with the reached set, so it too honors the
    /// bound rather than silently overrunning. Returns whether the
    /// deadline cut it short.
    ///
    /// Pass 1 walks the entries in ascending node-id order, filters by
    /// result kind, and deduplicates by history key into per-key best
    /// candidates. Dedup goes through the snapshot's
    /// [`FrozenGraph::key_reps`] table — a `u32` representative per node —
    /// so the hot loop indexes flat arrays instead of hashing key strings.
    /// Pass 2 ranks the candidates and keeps the top `max_results`. Ties
    /// keep the lowest node id (pass 1 sees ids in ascending order and
    /// keeps the first; the final sort breaks score ties the same way).
    fn blend(
        &self,
        entries: &[(u32, f64)],
        normalize: f64,
        authority: &[f64],
        budget: &Budget,
        winners: &mut Vec<CachedHit>,
    ) -> bool {
        let stage = self.scope.stage("blend");
        let (config, graph) = (self.config, self.browser.graph());
        let mut truncated = false;
        let use_hits = config.hits_weight != 0.0 && !authority.is_empty();
        let key_reps = self.frozen.key_reps();
        let mut text_score = vec![0.0f64; key_reps.len()];
        for &(n, s) in self.seeds {
            if let Some(slot) = text_score.get_mut(n.as_usize()) {
                *slot = s;
            }
        }
        // winner_slot[rep] indexes into `candidates` (u32::MAX = none yet):
        // the per-key best is a pair of array reads, no string hashing.
        const NONE: u32 = u32::MAX;
        let mut winner_slot = vec![NONE; key_reps.len()];
        let mut candidates: Vec<CachedHit> = Vec::new();
        for (blended, &(raw_node, raw_context)) in entries.iter().enumerate() {
            // The deadline guards the loop after each batch of 64
            // candidates: a clock read per candidate would dominate the
            // allocation-free loop body, and a walk that spent the budget
            // still has its first batch ranked.
            if blended > 0 && blended % 64 == 0 && budget.expired() {
                truncated = true;
                let remaining = (entries.len() - blended) as u64;
                stage.truncated(remaining, "deadline hit", "candidates unscored");
                break;
            }
            let node = NodeId::new(raw_node);
            let Ok(n) = graph.node(node) else { continue };
            if !config.result_kinds.contains(&n.kind()) {
                continue;
            }
            let context = raw_context / normalize;
            let text = text_score.get(raw_node as usize).copied().unwrap_or(0.0);
            let hits = if use_hits {
                config.hits_weight * authority.get(blended).copied().unwrap_or(0.0)
            } else {
                0.0
            };
            let score = config.text_weight * text + config.context_weight * context + hits;
            let candidate = CachedHit {
                node,
                score,
                text,
                context,
            };
            let rep = match key_reps.get(raw_node as usize) {
                Some(&r) => r as usize,
                // Entry past the snapshot (cannot happen while callers
                // score over the same frozen graph): keep it,
                // undeduplicated.
                None => {
                    candidates.push(candidate);
                    continue;
                }
            };
            let slot = winner_slot[rep];
            if slot == NONE {
                winner_slot[rep] = candidates.len() as u32;
                candidates.push(candidate);
            } else {
                let existing = &mut candidates[slot as usize];
                if candidate.score > existing.score {
                    *existing = candidate;
                }
            }
        }
        let rank = |a: &CachedHit, b: &CachedHit| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.node.cmp(&b.node))
        };
        // Only `max_results` candidates survive: an O(n) partial select
        // moves them to the front, then the sort touches just that prefix.
        // The comparator is a total order (score desc, node id asc), so
        // the selected set and final order match what a full sort would
        // produce.
        if candidates.len() > config.max_results {
            if config.max_results == 0 {
                candidates.clear();
            } else {
                candidates.select_nth_unstable_by(config.max_results - 1, rank);
                candidates.truncate(config.max_results);
            }
        }
        candidates.sort_by(rank);
        winners.extend_from_slice(&candidates);
        stage.rows(entries.len(), winners.len());
        truncated
    }
}

/// The [`ScoredHit`]s of a ranked answer, in rank order: its scores, and
/// each node's kind, key and title from the graph it was ranked over.
fn materialize(graph: &ProvenanceGraph, answer: &CachedAnswer) -> Vec<ScoredHit> {
    answer
        .hits
        .iter()
        .filter_map(|hit| {
            let n = graph.node(hit.node).ok()?;
            Some(ScoredHit {
                node: hit.node,
                kind: n.kind(),
                key: n.key().to_owned(),
                title: n.attrs().get_str("title").map(str::to_owned),
                score: hit.score,
                text_score: hit.text,
                context_score: hit.context,
            })
        })
        .collect()
}

/// Runs a contextual history search for `query`.
///
/// Scores combine normalized TF-IDF text relevance with accumulated
/// neighborhood weight; hits are deduplicated by key (multiple visit
/// versions of one URL collapse to the best-scoring instance), matching
/// how a user reads history results.
pub fn contextual_history_search(
    browser: &ProvenanceBrowser,
    query: &str,
    config: &ContextualConfig,
) -> QueryResult {
    ranked_search(browser, query, config, &config.budget, Walk::Expansion)
}

/// Contextual history search with **personalized PageRank** as the context
/// signal instead of one-shot neighborhood expansion — the §4 future-work
/// direction ("more intelligent algorithms"). Relevance mass circulates to
/// a fixed point, so multi-path connectivity counts; compared against the
/// expansion variant in the A5 ablation.
pub fn contextual_history_search_ppr(
    browser: &ProvenanceBrowser,
    query: &str,
    config: &ContextualConfig,
    pagerank: &PageRankConfig,
) -> QueryResult {
    let walk = Walk::PageRank(pagerank);
    ranked_search(browser, query, config, &config.budget, walk)
}

/// The purely textual baseline (§2.1's "currently"): TF-IDF hits only, no
/// provenance. Used by experiment E4 to show what contextual search adds.
pub fn textual_history_search(
    browser: &ProvenanceBrowser,
    query: &str,
    config: &ContextualConfig,
) -> QueryResult {
    // The baseline deliberately runs unbounded — it exists to show what
    // the paper's "currently" behavior costs — so of its budget it keeps
    // only the clock: no deadline to classify, no limit to truncate it.
    let unbounded = Budget::new().with_clock(config.budget.clock().clone());
    let scope = Scope::open(
        browser.obs(),
        "query.textual",
        Some(&TEXTUAL_PLAN),
        names::QUERY_TEXTUAL_LATENCY_US,
        &unbounded,
    );
    let graph = browser.graph();
    let mut best = BestByKey::default();
    let text_hits = {
        let stage = scope.stage("text_search");
        let text_hits = browser.text_index().search(query);
        stage.rows(query.split_whitespace().count(), text_hits.len());
        text_hits
    };
    let stage = scope.stage("rank");
    let candidates = text_hits.len();
    for (doc, score) in text_hits {
        let node = NodeId::new(doc);
        let Ok(n) = graph.node(node) else { continue };
        if !config.result_kinds.contains(&n.kind()) {
            continue;
        }
        best.offer(ScoredHit {
            node,
            kind: n.kind(),
            key: n.key().to_owned(),
            title: n.attrs().get_str("title").map(str::to_owned),
            score,
            text_score: score,
            context_score: 0.0,
        });
    }
    let hits = best.ranked(config.max_results);
    stage.rows(candidates, hits.len());
    drop(stage);
    QueryResult {
        hits,
        elapsed: scope.finish(false),
        truncated: false,
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
                "bp-query-ctx-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            TempBrowser {
                browser: ProvenanceBrowser::open(&dir, CaptureConfig::default()).unwrap(),
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

    /// The §2.1 history: search rosebud → click Citizen Kane (whose text
    /// has no "rosebud"), plus an unrelated page.
    fn rosebud_history(tag: &str) -> TempBrowser {
        let mut tb = TempBrowser::new(tag);
        let b = &mut tb.browser;
        b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        b.ingest(&BrowserEvent::navigate(
            t(1),
            TabId(0),
            "http://se/?q=rosebud",
            Some("rosebud - Search"),
            NavigationCause::SearchQuery {
                query: "rosebud".to_owned(),
            },
        ))
        .unwrap();
        b.ingest(&BrowserEvent::navigate(
            t(2),
            TabId(0),
            "http://films/kane",
            Some("Citizen Kane (1941)"),
            NavigationCause::Link,
        ))
        .unwrap();
        b.ingest(&BrowserEvent::navigate(
            t(3),
            TabId(0),
            "http://unrelated/cooking",
            Some("Pasta recipes"),
            NavigationCause::Typed,
        ))
        .unwrap();
        tb
    }

    #[test]
    fn textual_baseline_misses_citizen_kane() {
        let tb = rosebud_history("baseline");
        let r = textual_history_search(&tb.browser, "rosebud", &ContextualConfig::default());
        assert!(r.contains_key("http://se/?q=rosebud"));
        assert!(
            !r.contains_key("http://films/kane"),
            "the §2.1 'currently' failure: {:?}",
            r.top_keys(5)
        );
    }

    #[test]
    fn contextual_search_returns_citizen_kane() {
        let tb = rosebud_history("contextual");
        let r = contextual_history_search(&tb.browser, "rosebud", &ContextualConfig::default());
        assert!(
            r.contains_key("http://films/kane"),
            "contextual search must surface the descendant: {:?}",
            r.top_keys(10)
        );
        // The unrelated page (two weak hops away) never outranks kane.
        let kane_rank = r.rank_of_key("http://films/kane").unwrap();
        if let Some(cooking_rank) = r.rank_of_key("http://unrelated/cooking") {
            assert!(
                kane_rank < cooking_rank,
                "decay must demote distant context"
            );
        }
        // The kane hit is contextual, not textual.
        let kane = &r.hits[r.rank_of_key("http://films/kane").unwrap()];
        assert_eq!(kane.text_score, 0.0);
        assert!(kane.context_score > 0.0);
    }

    #[test]
    fn seeds_outrank_distant_context_by_default() {
        let tb = rosebud_history("ranks");
        let r = contextual_history_search(&tb.browser, "rosebud", &ContextualConfig::default());
        let search_rank = r.rank_of_key("http://se/?q=rosebud").unwrap();
        assert_eq!(search_rank, 0, "the direct textual hit stays on top");
    }

    #[test]
    fn duplicate_visits_collapse_by_key() {
        let mut tb = rosebud_history("dedup");
        let b = &mut tb.browser;
        // Revisit kane twice more.
        for s in 4..6 {
            b.ingest(&BrowserEvent::navigate(
                t(s),
                TabId(0),
                "http://films/kane",
                Some("Citizen Kane (1941)"),
                NavigationCause::BackForward,
            ))
            .unwrap();
        }
        let r = contextual_history_search(b, "kane", &ContextualConfig::default());
        let kane_hits = r
            .hits
            .iter()
            .filter(|h| h.key == "http://films/kane")
            .count();
        assert_eq!(kane_hits, 1, "one hit per URL: {:?}", r.top_keys(10));
    }

    #[test]
    fn empty_and_unknown_queries() {
        let tb = rosebud_history("empty");
        let r = contextual_history_search(&tb.browser, "", &ContextualConfig::default());
        assert!(r.hits.is_empty());
        let r =
            contextual_history_search(&tb.browser, "zzz never seen", &ContextualConfig::default());
        assert!(r.hits.is_empty());
    }

    #[test]
    fn max_results_respected() {
        let mut tb = TempBrowser::new("limit");
        let b = &mut tb.browser;
        b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        for i in 0..30 {
            b.ingest(&BrowserEvent::navigate(
                t(i + 1),
                TabId(0),
                format!("http://wine{i}.example/"),
                Some("wine page"),
                NavigationCause::Link,
            ))
            .unwrap();
        }
        let config = ContextualConfig {
            max_results: 5,
            ..ContextualConfig::default()
        };
        let r = contextual_history_search(b, "wine", &config);
        assert_eq!(r.hits.len(), 5);
    }

    #[test]
    fn zero_deadline_reports_truncation() {
        let tb = rosebud_history("deadline");
        let config = ContextualConfig {
            budget: Budget::new().with_deadline(std::time::Duration::ZERO),
            ..ContextualConfig::default()
        };
        let r = contextual_history_search(&tb.browser, "rosebud", &config);
        assert!(r.truncated);
    }

    #[test]
    fn a_deadline_cut_search_ranks_what_its_walk_reached() {
        let tb = rosebud_history("deadline-ranks");
        let config = ContextualConfig {
            budget: Budget::new().with_deadline(std::time::Duration::ZERO),
            ..ContextualConfig::default()
        };
        let pagerank = bp_graph::pagerank::PageRankConfig::default();
        let expansion = contextual_history_search(&tb.browser, "rosebud", &config);
        let ppr = contextual_history_search_ppr(&tb.browser, "rosebud", &config, &pagerank);
        for r in [expansion, ppr] {
            assert!(r.truncated);
            assert!(
                r.contains_key("http://se/?q=rosebud"),
                "the walk reached its seed, so the blend ranks it: {:?}",
                r.top_keys(5)
            );
        }
    }

    #[test]
    fn pagerank_walks_build_the_layout_once_then_grow_it() {
        let obs = bp_obs::Obs::isolated();
        let dir = std::env::temp_dir().join(format!(
            "bp-query-ctx-layout-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = ProvenanceBrowser::open_with_obs(
            &dir,
            CaptureConfig::default(),
            bp_storage::SyncPolicy::OsManaged,
            obs.clone(),
        )
        .unwrap();
        let counts = || {
            (
                obs.counter(names::BP_GRAPH_FROZEN_LAYOUT_BUILD).get(),
                obs.counter(names::BP_GRAPH_FROZEN_LAYOUT_EXTEND).get(),
                obs.histogram(names::BP_GRAPH_FROZEN_LAYOUT_US).count(),
            )
        };
        let pagerank = bp_graph::pagerank::PageRankConfig::default();
        let config = ContextualConfig::default();
        b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        for i in 0..6 {
            let url = format!("http://wine{i}.example/");
            b.ingest(&BrowserEvent::navigate(
                t(i + 1),
                TabId(0),
                url,
                Some("wine page"),
                NavigationCause::Link,
            ))
            .unwrap();
            contextual_history_search_ppr(&b, "wine", &config, &pagerank);
            assert_eq!(counts(), (1, i as u64, i as u64 + 1), "after walk {i}");
        }
        // An unmutated graph serves the answer from the cache: no walk.
        contextual_history_search_ppr(&b, "wine", &config, &pagerank);
        assert_eq!(counts(), (1, 5, 6));
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ppr_variant_finds_citizen_kane_too() {
        let tb = rosebud_history("ppr");
        let r = contextual_history_search_ppr(
            &tb.browser,
            "rosebud",
            &ContextualConfig::default(),
            &bp_graph::pagerank::PageRankConfig::default(),
        );
        assert!(
            r.contains_key("http://films/kane"),
            "PPR context must surface the descendant: {:?}",
            r.top_keys(10)
        );
        for pair in r.hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        // Empty query behaves.
        let empty = contextual_history_search_ppr(
            &tb.browser,
            "",
            &ContextualConfig::default(),
            &bp_graph::pagerank::PageRankConfig::default(),
        );
        assert!(empty.hits.is_empty());
    }

    #[test]
    fn score_cache_hits_until_capture_mutates_the_graph() {
        let mut tb = rosebud_history("cache-epoch");
        let config = ContextualConfig::default();
        let pr = bp_graph::pagerank::PageRankConfig::default();

        // First walk computes and caches; the repeat is a pure cache hit
        // with bit-identical results.
        let before = tb.browser.score_cache().stats();
        let r1 = contextual_history_search_ppr(&tb.browser, "rosebud", &config, &pr);
        let after_first = tb.browser.score_cache().stats();
        assert_eq!(after_first.misses, before.misses + 1);
        let r2 = contextual_history_search_ppr(&tb.browser, "rosebud", &config, &pr);
        let after_second = tb.browser.score_cache().stats();
        assert_eq!(after_second.hits, after_first.hits + 1);
        assert_eq!(r1.hits.len(), r2.hits.len());
        for (a, b) in r1.hits.iter().zip(&r2.hits) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert!(
            !r1.contains_key("http://films/kane-cast"),
            "the cast page does not exist yet"
        );

        // Mutate through capture: revisit kane and follow a link off it.
        // The epoch moves, so the old entry can never match again.
        tb.browser
            .ingest(&BrowserEvent::navigate(
                t(10),
                TabId(0),
                "http://films/kane",
                Some("Citizen Kane (1941)"),
                NavigationCause::BackForward,
            ))
            .unwrap();
        tb.browser
            .ingest(&BrowserEvent::navigate(
                t(11),
                TabId(0),
                "http://films/kane-cast",
                Some("Cast list"),
                NavigationCause::Link,
            ))
            .unwrap();
        let r3 = contextual_history_search_ppr(&tb.browser, "rosebud", &config, &pr);
        let after_mutation = tb.browser.score_cache().stats();
        assert_eq!(
            after_mutation.misses,
            after_second.misses + 1,
            "mutated graph must miss the cache"
        );
        assert!(
            r3.contains_key("http://films/kane-cast"),
            "fresh scores reflect the new history: {:?}",
            r3.top_keys(10)
        );
        let kane_before = r1.hits[r1.rank_of_key("http://films/kane").unwrap()].context_score;
        let kane_after = r3.hits[r3.rank_of_key("http://films/kane").unwrap()].context_score;
        assert_ne!(
            kane_before.to_bits(),
            kane_after.to_bits(),
            "mass redistributes over the grown neighborhood"
        );

        // The expansion-domain cache behaves the same on the context path.
        let ctx_before = tb.browser.score_cache().stats();
        let c1 = contextual_history_search(&tb.browser, "rosebud", &config);
        let c2 = contextual_history_search(&tb.browser, "rosebud", &config);
        let ctx_after = tb.browser.score_cache().stats();
        assert_eq!(ctx_after.misses, ctx_before.misses + 1);
        assert_eq!(ctx_after.hits, ctx_before.hits + 1);
        assert_eq!(c1.hits.len(), c2.hits.len());
    }

    #[test]
    fn hits_blend_boosts_convergence_points() {
        // Many distinct wine journeys all arrive at one canonical page;
        // with the HITS blend on, that page outranks its textual peers.
        let mut tb = TempBrowser::new("hits");
        let b = &mut tb.browser;
        b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        let hub = "http://wine-canonical.example/";
        let mut clock = 1;
        for i in 0..6 {
            b.ingest(&BrowserEvent::navigate(
                t(clock),
                TabId(0),
                format!("http://wine{i}.example/list"),
                Some("wine list"),
                NavigationCause::Typed,
            ))
            .unwrap();
            clock += 1;
            b.ingest(&BrowserEvent::navigate(
                t(clock),
                TabId(0),
                hub,
                Some("wine canonical"),
                NavigationCause::Link,
            ))
            .unwrap();
            clock += 1;
        }
        let flat = contextual_history_search(b, "wine", &ContextualConfig::default());
        let blended = contextual_history_search(
            b,
            "wine",
            &ContextualConfig {
                hits_weight: 3.0,
                ..ContextualConfig::default()
            },
        );
        let flat_rank = flat.rank_of_key(hub).expect("hub present");
        let blended_rank = blended.rank_of_key(hub).expect("hub present");
        assert!(
            blended_rank <= flat_rank,
            "HITS must not demote the convergence point ({blended_rank} vs {flat_rank})"
        );
        assert_eq!(
            blended_rank,
            0,
            "hub is the authority: {:?}",
            blended.top_keys(5)
        );
    }

    #[test]
    fn scores_sorted_descending() {
        let tb = rosebud_history("sorted");
        let r =
            contextual_history_search(&tb.browser, "rosebud search", &ContextualConfig::default());
        for pair in r.hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }
}
