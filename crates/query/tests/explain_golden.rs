//! EXPLAIN golden output: for every use-case path, the `--explain` table,
//! the `--explain-json` line and the `--trace` span tree of one run, on a
//! mock clock, compared byte for byte with a committed fixture.
//!
//! Three rounds run the seven paths over three simulated days: unbounded
//! (every contextual search misses the score cache), the same queries
//! again (the walks are served from the cache, which the walk stage
//! notes), and fresh terms under a deadline short enough to truncate
//! every path that can truncate; then a contextual search under a node
//! cap, twice, the second serving the truncated answer the first cached.
//! The clock advances 3 µs per reading, so every duration is a count of
//! clock readings and repeats from run to run.
//!
//! On a mismatch the test writes what it rendered next to the system
//! temp directory's other files and names the path in its failure.

use bp_core::{CaptureConfig, ProvenanceBrowser};
use bp_graph::traverse::Budget;
use bp_graph::NodeKind;
use bp_obs::trace::{self, Context};
use bp_obs::{profile, ClockHandle};
use bp_query::{
    contextual_history_search, contextual_history_search_ppr, describe_origin, find_download,
    first_recognizable_ancestor, personalize_query, textual_history_search, time_contextual_search,
    ContextualConfig, DescribeConfig, LineageConfig, PersonalizeConfig, TimeContextConfig,
};
use bp_sim::calibrate::{days_history, paper_web};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// The committed rendering.
const FIXTURE: &str = include_str!("fixtures/explain_golden.txt");

/// Microseconds the mock clock advances per reading.
const TICK_US: u64 = 3;

/// The deadline of the truncating round.
const DEADLINE: Duration = Duration::from_micros(40);

/// Every root span carries this trace ID.
const TRACE_ID: u64 = 0x0b5e_7ab1_e5ee_d5ed;

struct TempBrowser {
    browser: ProvenanceBrowser,
    dir: PathBuf,
}

impl Drop for TempBrowser {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Three simulated days of one user's browsing, captured into a profile
/// of its own.
fn browser() -> TempBrowser {
    let dir = std::env::temp_dir().join(format!("bp-explain-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut browser = ProvenanceBrowser::open(&dir, CaptureConfig::default()).unwrap();
    browser
        .ingest_all(&days_history(&paper_web(7), 7, 3))
        .unwrap();
    TempBrowser { browser, dir }
}

/// Runs `f` with collection on and renders what it collected: every
/// EXPLAIN table, then every EXPLAIN JSON line, then every span tree.
fn explain(f: impl FnOnce()) -> String {
    trace::set_enabled(true);
    f();
    trace::set_enabled(false);
    let roots = trace::take_roots();
    let profiles = profile::from_spans(&roots);
    let mut out: String = profiles.iter().map(|p| p.render_table()).collect();
    out.extend(profiles.iter().map(|p| p.to_json()));
    out.extend(roots.iter().map(|r| r.render()));
    out
}

/// The terms one round searches for: the contextual searches' and the
/// personalized query's. Time-contextual search, which no cache serves,
/// always asks for wine seen with travel.
struct Terms {
    search: &'static str,
    personalize: &'static str,
}

/// Runs the seven paths once under `budget` and appends each one's
/// rendering to `out` under a `== round: path` header.
fn round(b: &ProvenanceBrowser, name: &str, budget: &Budget, terms: &Terms, out: &mut String) {
    let contextual = ContextualConfig {
        budget: budget.clone(),
        ..ContextualConfig::default()
    };
    let download = b
        .graph()
        .nodes_of_kind(NodeKind::Download)
        .next()
        .expect("the history has a download");
    let key = b.graph().node(download).unwrap().key().to_owned();
    type Run<'a> = Box<dyn Fn() + 'a>;
    let paths: [(&str, Run); 7] = [
        (
            "context",
            Box::new(|| drop(contextual_history_search(b, terms.search, &contextual))),
        ),
        (
            "ppr",
            Box::new(|| {
                let pagerank = bp_graph::pagerank::PageRankConfig::default();
                drop(contextual_history_search_ppr(
                    b,
                    terms.search,
                    &contextual,
                    &pagerank,
                ));
            }),
        ),
        (
            "textual",
            Box::new(|| drop(textual_history_search(b, terms.search, &contextual))),
        ),
        (
            "personalize",
            Box::new(|| {
                let config = PersonalizeConfig {
                    contextual: contextual.clone(),
                    ..PersonalizeConfig::default()
                };
                drop(personalize_query(b, terms.personalize, &config));
            }),
        ),
        (
            "timectx",
            Box::new(|| {
                let config = TimeContextConfig {
                    budget: budget.clone(),
                    ..TimeContextConfig::default()
                };
                drop(time_contextual_search(b, "wine", "travel", &config));
            }),
        ),
        (
            "lineage",
            Box::new(|| {
                let config = LineageConfig {
                    budget: budget.clone(),
                    ..LineageConfig::default()
                };
                let download = find_download(b, &key).expect("the download resolves");
                drop(first_recognizable_ancestor(b, download, &config));
            }),
        ),
        (
            "describe",
            Box::new(|| {
                let config = DescribeConfig {
                    budget: budget.clone(),
                    ..DescribeConfig::default()
                };
                assert!(describe_origin(b, &key, &config).is_some());
            }),
        ),
    ];
    for (path, run) in paths {
        let _ = writeln!(out, "== {name}: {path}");
        out.push_str(&explain(run));
    }
}

#[test]
fn explain_tables_json_and_span_trees_match_the_fixture() {
    let tb = browser();
    let b = &tb.browser;
    let (clock, mock) = ClockHandle::mock();
    mock.set_auto_tick_micros(TICK_US);
    let _context = trace::enter(Context {
        trace_id: TRACE_ID,
        sampled_hint: false,
    });
    let unbounded = Budget::new().with_clock(clock.clone());
    let bounded = Budget::new()
        .with_deadline(DEADLINE)
        .with_clock(clock.clone());
    let warm = Terms {
        search: "wine",
        personalize: "garden",
    };
    let fresh = Terms {
        search: "film review",
        personalize: "travel",
    };
    let mut out = String::new();
    round(b, "unbounded", &unbounded, &warm, &mut out);
    round(b, "repeated", &unbounded, &warm, &mut out);
    round(b, "deadline", &bounded, &fresh, &mut out);
    // A node cap truncates the same way every time, so the cut answer is
    // cached, and serving it notes that it was computed truncated.
    let capped = ContextualConfig {
        budget: Budget::new().with_max_nodes(50).with_clock(clock.clone()),
        ..ContextualConfig::default()
    };
    for name in ["capped", "capped, repeated"] {
        let _ = writeln!(out, "== {name}: context");
        out.push_str(&explain(|| {
            drop(contextual_history_search(b, "garden", &capped));
        }));
    }
    if out != FIXTURE {
        let actual = std::env::temp_dir().join("explain_golden.actual.txt");
        std::fs::write(&actual, &out).unwrap();
        panic!(
            "EXPLAIN output differs from tests/fixtures/explain_golden.txt; \
             this run's output is in {}",
            actual.display()
        );
    }
}
