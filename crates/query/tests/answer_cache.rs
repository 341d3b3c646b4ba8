//! The score cache serves ranked answers, so a repeated query skips walk,
//! HITS and blend. These tests hold it to three promises:
//!
//! - a cached answer is exact: what a warm cache serves equals, field for
//!   field and score bit for score bit, what a browser that never saw
//!   another setting computes, whichever single setting a query varies;
//! - a deadline-truncated answer is never cached, and a complete cached
//!   answer is complete whatever deadline the query that reads it has;
//! - EXPLAIN shows a miss as before and a hit as a note on the walk stage.

use bp_core::{BrowserEvent, CaptureConfig, ProvenanceBrowser};
use bp_graph::pagerank::PageRankConfig;
use bp_graph::traverse::Budget;
use bp_graph::NodeKind;
use bp_obs::trace::SpanNode;
use bp_obs::{profile, trace};
use bp_query::{
    contextual_history_search, contextual_history_search_ppr, personalize_query, ContextualConfig,
    ExpandedQuery, PersonalizeConfig, QueryResult,
};
use bp_sim::calibrate::{days_history, paper_web};
use std::path::PathBuf;
use std::time::Duration;

/// Query terms from the simulated web's topic vocabularies, each with
/// textual hits in the history below; one of two words.
const TERMS: [&str; 4] = ["garden", "wine", "film review", "travel"];

struct TempBrowser {
    browser: ProvenanceBrowser,
    dir: PathBuf,
}

impl TempBrowser {
    /// A browser that captured `events` into a profile of its own.
    fn capture(tag: &str, events: &[BrowserEvent]) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "bp-answer-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut browser = ProvenanceBrowser::open(&dir, CaptureConfig::default()).unwrap();
        browser.ingest_all(events).unwrap();
        TempBrowser { browser, dir }
    }
}

impl Drop for TempBrowser {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Three simulated days of one user's browsing.
fn history() -> Vec<BrowserEvent> {
    days_history(&paper_web(7), 7, 3)
}

/// One query setting, varied from the defaults in one place.
struct Case {
    name: &'static str,
    contextual: ContextualConfig,
    pagerank: PageRankConfig,
}

fn case(name: &'static str, vary: impl FnOnce(&mut ContextualConfig, &mut PageRankConfig)) -> Case {
    let mut contextual = ContextualConfig::default();
    let mut pagerank = PageRankConfig::default();
    vary(&mut contextual, &mut pagerank);
    Case {
        name,
        contextual,
        pagerank,
    }
}

/// The defaults, then each blend field of `ContextualConfig`, each
/// `PageRankConfig` field, each budget cap and an expansion setting,
/// varied one at a time.
fn cases() -> Vec<Case> {
    vec![
        case("defaults", |_, _| {}),
        case("text_weight", |c, _| c.text_weight = 0.25),
        case("context_weight", |c, _| c.context_weight = 4.0),
        case("max_results", |c, _| c.max_results = 3),
        case("result_kinds", |c, _| {
            c.result_kinds = vec![NodeKind::Download]
        }),
        case("hits_weight", |c, _| c.hits_weight = 3.0),
        case("expansion decay", |c, _| c.expansion.decay = 0.2),
        case("damping", |_, p| p.damping = 0.5),
        case("max_iterations", |_, p| p.max_iterations = 2),
        case("tolerance", |_, p| p.tolerance = 1e-2),
        case("max_nodes", |c, _| {
            c.budget = Budget::new().with_max_nodes(40)
        }),
        case("max_depth", |c, _| {
            c.budget = Budget::new().with_max_depth(1)
        }),
    ]
}

/// The personalization request over a case: its contextual settings with
/// room for more hits, as `PersonalizeConfig`'s defaults have.
fn personalize_config(case: &Case) -> PersonalizeConfig {
    PersonalizeConfig {
        contextual: ContextualConfig {
            max_results: case.contextual.max_results + 25,
            ..case.contextual.clone()
        },
        ..PersonalizeConfig::default()
    }
}

/// Everything a query returned except its latency, scores as bits.
#[derive(Debug, PartialEq)]
struct Answer {
    hits: Vec<Hit>,
    truncated: bool,
}

#[derive(Debug, PartialEq)]
struct Hit {
    node: u32,
    kind: NodeKind,
    key: String,
    title: Option<String>,
    /// Score, text score and context score.
    score_bits: [u64; 3],
}

fn answer(r: &QueryResult) -> Answer {
    Answer {
        hits: r
            .hits
            .iter()
            .map(|h| Hit {
                node: h.node.index(),
                kind: h.kind,
                key: h.key.clone(),
                title: h.title.clone(),
                score_bits: [
                    h.score.to_bits(),
                    h.text_score.to_bits(),
                    h.context_score.to_bits(),
                ],
            })
            .collect(),
        truncated: r.truncated,
    }
}

/// One case's answers for every term: contextual search, its PageRank
/// variant, and the personalized query.
#[derive(Debug, PartialEq)]
struct Answers {
    per_term: Vec<(Answer, Answer, ExpandedQuery)>,
}

fn ask(browser: &ProvenanceBrowser, case: &Case) -> Answers {
    let personalize = personalize_config(case);
    Answers {
        per_term: TERMS
            .iter()
            .map(|term| {
                (
                    answer(&contextual_history_search(browser, term, &case.contextual)),
                    answer(&contextual_history_search_ppr(
                        browser,
                        term,
                        &case.contextual,
                        &case.pagerank,
                    )),
                    personalize_query(browser, term, &personalize),
                )
            })
            .collect(),
    }
}

/// A warm cache serves, for every case, exactly what a fresh browser
/// computes for that case alone. A key that left out the varied setting
/// would serve the first such case's answer to the others, which every
/// case here would notice: each changes some answer on this history.
#[test]
fn cached_answers_equal_fresh_computations_setting_by_setting() {
    let events = history();
    let cases = cases();
    let fresh: Vec<Answers> = cases
        .iter()
        .map(|case| {
            let tb = TempBrowser::capture("fresh", &events);
            let answers = ask(&tb.browser, case);
            let stats = tb.browser.score_cache().stats();
            assert_eq!(stats.hits, 0, "{}: every fresh query computes", case.name);
            answers
        })
        .collect();
    for (case, answers) in cases.iter().zip(&fresh).skip(1) {
        assert_ne!(
            answers, &fresh[0],
            "{}: varying it changes no answer, so the test cannot see it",
            case.name
        );
    }

    let warm = TempBrowser::capture("warm", &events);
    for case in &cases {
        ask(&warm.browser, case);
    }
    for (case, want) in cases.iter().zip(&fresh) {
        let before = warm.browser.score_cache().stats();
        let got = ask(&warm.browser, case);
        let after = warm.browser.score_cache().stats();
        assert_eq!(&got, want, "{}: cached answers differ", case.name);
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (3 * TERMS.len() as u64, 0),
            "{}: every repeat is served from the cache",
            case.name
        );
    }
    assert_eq!(warm.browser.score_cache().stats().evictions, 0);
}

#[test]
fn truncated_answers_are_never_cached_and_cached_answers_are_complete() {
    let tb = TempBrowser::capture("deadline", &history());
    let b = &tb.browser;
    let unbounded = ContextualConfig::default();
    let zero = ContextualConfig {
        budget: Budget::new().with_deadline(Duration::ZERO),
        ..ContextualConfig::default()
    };
    let pagerank = PageRankConfig::default();
    let stats = || b.score_cache().stats();
    type Search = fn(&ProvenanceBrowser, &ContextualConfig, &PageRankConfig) -> QueryResult;
    let paths: [(&str, Search); 2] = [
        ("context", |b, c, _| contextual_history_search(b, "wine", c)),
        ("ppr", |b, c, p| {
            contextual_history_search_ppr(b, "wine", c, p)
        }),
    ];
    for (name, search) in paths {
        // A zero deadline truncates the answer, which is not cached.
        let before = stats();
        let cut = search(b, &zero, &pagerank);
        assert!(cut.truncated, "{name}: a zero deadline truncates");
        assert_eq!(stats().entries, before.entries, "{name}: nothing cached");

        // So the next unbounded query misses, and computes it whole.
        let before = stats();
        let whole = search(b, &unbounded, &pagerank);
        let after = stats();
        assert_eq!(after.misses - before.misses, 1, "{name}: misses");
        assert_eq!(after.hits, before.hits, "{name}");
        assert!(!whole.truncated, "{name}");
        assert!(!whole.hits.is_empty(), "{name}");

        // Served to a query with a deadline, the complete cached answer
        // is still complete.
        let before = stats();
        let served = search(b, &zero, &pagerank);
        assert_eq!(
            stats().hits - before.hits,
            1,
            "{name}: served from the cache"
        );
        assert!(!served.truncated, "{name}: a cached answer is complete");
        assert_eq!(answer(&served), answer(&whole), "{name}");
    }
}

/// Runs `f` with span collection on, and returns the span trees this
/// thread collected and the EXPLAIN profiles read off them. Only one
/// test here switches collection on.
fn with_obs<R>(f: impl FnOnce() -> R) -> (R, Vec<profile::Profile>, Vec<SpanNode>) {
    let _ = trace::take_roots();
    trace::set_enabled(true);
    let out = f();
    trace::set_enabled(false);
    let roots = trace::take_roots();
    (out, profile::from_spans(&roots), roots)
}

/// `(stage, rows in, rows out)` per executed stage.
fn stages(p: &profile::Profile) -> Vec<(&'static str, u64, u64)> {
    p.stages
        .iter()
        .map(|s| (s.name, s.rows_in, s.rows_out))
        .collect()
}

/// The note on the query span's child named `stage`, if any.
fn note_on<'a>(root: &'a SpanNode, stage: &str) -> Option<&'a str> {
    root.children
        .iter()
        .find(|s| s.name == stage)
        .and_then(|s| s.note.as_deref())
}

#[test]
fn explain_shows_a_miss_as_before_and_a_hit_on_the_walk_stage() {
    let tb = TempBrowser::capture("explain", &history());
    let b = &tb.browser;
    let config = ContextualConfig::default();
    let pagerank = PageRankConfig::default();
    let frozen = b.frozen();
    let (nodes, edges) = (frozen.node_count() as u64, frozen.edge_count() as u64);
    let seeds = b.text_index().search("wine").len() as u64;
    assert!(seeds > 0);

    for (walk, plan) in [
        (
            "expand",
            ["frozen.build_us", "text_seeds", "expand", "hits", "blend"].as_slice(),
        ),
        (
            "pagerank",
            ["frozen.build_us", "text_seeds", "pagerank", "blend"].as_slice(),
        ),
    ] {
        let run = || {
            if walk == "expand" {
                contextual_history_search(b, "wine", &config)
            } else {
                contextual_history_search_ppr(b, "wine", &config, &pagerank)
            }
        };
        let (miss, profiles, roots) = with_obs(run);
        let p = &profiles[0];
        assert_eq!(p.planned, plan, "{walk}");
        // A miss: every stage as before, the walk's rows its scored
        // nodes, the blend's its ranked hits, and no cache note.
        let reached = p.stages[2].rows_out;
        assert_eq!(
            stages(p),
            [
                ("frozen.build_us", nodes, edges),
                ("text_seeds", 1, seeds),
                (walk, seeds, reached),
                ("blend", reached, miss.hits.len() as u64),
            ],
            "{walk}"
        );
        assert_eq!(note_on(&roots[0], walk), None, "{walk}");

        // A hit: the walk stage serves the answer and notes it; HITS and
        // blend never run.
        let (hit, profiles, roots) = with_obs(run);
        assert_eq!(answer(&hit), answer(&miss), "{walk}");
        assert_eq!(
            stages(&profiles[0]),
            [
                ("frozen.build_us", nodes, edges),
                ("text_seeds", 1, seeds),
                (walk, 0, hit.hits.len() as u64),
            ],
            "{walk}"
        );
        let note = note_on(&roots[0], walk).expect("a hit notes the walk stage");
        assert_eq!(
            note,
            format!(
                "score cache hit: {} ranked hits, walk and blend skipped",
                hit.hits.len()
            ),
            "{walk}"
        );
    }
}
