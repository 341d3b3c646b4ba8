//! Deadline-truncation observability, one test per query path.
//!
//! Each test drives a query into truncation with a mock clock (auto-tick:
//! every clock reading advances time, so deadlines expire deterministically
//! without sleeps) and asserts both observability channels report it:
//! the trace span tree carries a truncation note, and the EXPLAIN
//! [`bp_obs::profile::Profile`] read off the same tree carries the
//! truncation stage and a remaining-work estimate. The entry-deadline cases at the end check that
//! each path's deadline runs from its entry, so the stages before a bounded
//! loop count against it; for the paths that walk the CSR snapshot, over
//! random deadlines and clock stall steps. A table test between the two
//! checks that every walking entry point is one timed query, counted once
//! against its deadline.

use bp_core::{BrowserEvent, CaptureConfig, EventKind, NavigationCause, ProvenanceBrowser, TabId};
use bp_graph::neighborhood::ExpansionConfig;
use bp_graph::traverse::Budget;
use bp_graph::Timestamp;
use bp_obs::clock::Clock;
use bp_obs::profile::Profile;
use bp_obs::trace::SpanNode;
use bp_obs::{names, profile, trace, ClockHandle, HistogramName, MockClock, Obs};
use bp_query::{
    describe_origin, downloads_descending_from, find_download, first_recognizable_ancestor,
    full_lineage, personalize_query, textual_history_search, time_contextual_search,
    ContextualConfig, DescribeConfig, LineageConfig, PersonalizeConfig, TimeContextConfig,
};
use bp_storage::SyncPolicy;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct TempBrowser {
    browser: ProvenanceBrowser,
    dir: PathBuf,
}
impl TempBrowser {
    fn new(tag: &str) -> Self {
        Self::with_obs(tag, Obs::global())
    }

    /// A browser reporting into `obs`.
    fn with_obs(tag: &str, obs: Obs) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "bp-trunc-obs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CaptureConfig::default();
        TempBrowser {
            browser: ProvenanceBrowser::open_with_obs(&dir, config, SyncPolicy::OsManaged, obs)
                .unwrap(),
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

/// A small history every path can query: a rosebud search chain, a wine +
/// plane-tickets overlap, and a download chain.
fn history(tag: &str) -> TempBrowser {
    history_in(TempBrowser::new(tag))
}

fn history_in(mut tb: TempBrowser) -> TempBrowser {
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
        Some("Citizen Kane rosebud wine"),
        NavigationCause::Link,
    ))
    .unwrap();
    b.ingest(&BrowserEvent::navigate(
        t(3),
        TabId(0),
        "http://travel/plane-tickets",
        Some("cheap plane tickets"),
        NavigationCause::Typed,
    ))
    .unwrap();
    b.ingest(&BrowserEvent::new(
        t(4),
        EventKind::Download {
            tab: TabId(0),
            path: "/dl/thing.bin".to_owned(),
            bytes: 1,
        },
    ))
    .unwrap();
    tb
}

/// Serializes tests (span collection is switched process-wide) and
/// collects the span trees, read both ways: as EXPLAIN profiles and as
/// the trees themselves.
fn with_obs<R>(f: impl FnOnce() -> R) -> (R, Vec<Profile>, Vec<SpanNode>) {
    static GATE: Mutex<()> = Mutex::new(());
    let _lock = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let _ = trace::take_roots();
    trace::set_enabled(true);
    let out = f();
    trace::set_enabled(false);
    let roots = trace::take_roots();
    (out, profile::from_spans(&roots), roots)
}

/// A ticking mock clock: deadlines measured against it expire after a few
/// readings.
fn ticking(us_per_read: u64) -> (ClockHandle, Arc<MockClock>) {
    let (clock, mock) = ClockHandle::mock();
    mock.set_auto_tick_micros(us_per_read);
    (clock, mock)
}

/// Collects every note in a span tree (depth-first).
fn notes(span: &SpanNode, out: &mut Vec<String>) {
    if let Some(n) = &span.note {
        out.push(n.clone());
    }
    for child in &span.children {
        notes(child, out);
    }
}

fn all_notes(roots: &[SpanNode]) -> Vec<String> {
    let mut out = Vec::new();
    for r in roots {
        notes(r, &mut out);
    }
    out
}

/// Asserts the two channels agree: the profile truncated at `stage` with a
/// remaining-work estimate, and some span carries a truncation note.
fn assert_truncation(profiles: &[Profile], roots: &[SpanNode], stage: &str) {
    assert_eq!(profiles.len(), 1, "one root profile per query");
    let p = &profiles[0];
    assert!(p.truncated, "profile must record truncation");
    assert_eq!(p.truncation_stage, Some(stage), "truncation stage");
    let remaining = p
        .remaining_estimate
        .expect("profile carries a remaining-work estimate");
    let ns = all_notes(roots);
    let note = ns
        .iter()
        .find(|n| n.contains("truncated"))
        .unwrap_or_else(|| panic!("some span must carry a truncation note, got {ns:?}"));
    assert!(
        note.contains(&format!("~{remaining}")),
        "span note {note:?} must carry the same estimate (~{remaining})"
    );
}

#[test]
fn context_truncation_is_observable() {
    let tb = history("context");
    let (clock, _mock) = ticking(50);
    let config = ContextualConfig {
        budget: Budget::new()
            .with_deadline(Duration::ZERO)
            .with_clock(clock),
        ..ContextualConfig::default()
    };
    let (result, profiles, roots) =
        with_obs(|| bp_query::contextual_history_search(&tb.browser, "rosebud", &config));
    assert!(result.truncated);
    // The ticking clock expires the zero deadline at the expansion's first
    // check, before the blend loop ever runs.
    assert_truncation(&profiles, &roots, "expand");
    assert!(profiles[0].remaining_estimate.unwrap() > 0);
    assert_eq!(profiles[0].budget_us, Some(0));
}

#[test]
fn hits_truncation_is_observable() {
    let tb = history("hits");
    let (clock, _mock) = ticking(50);
    // No expansion hops, so nothing reads the clock against the deadline
    // before the HITS pass, which stops at its first iteration boundary.
    let config = ContextualConfig {
        budget: Budget::new()
            .with_deadline(Duration::ZERO)
            .with_clock(clock),
        hits_weight: 1.0,
        expansion: ExpansionConfig {
            max_hops: 0,
            ..ExpansionConfig::default()
        },
        ..ContextualConfig::default()
    };
    let (result, profiles, roots) =
        with_obs(|| bp_query::contextual_history_search(&tb.browser, "rosebud", &config));
    assert!(result.truncated);
    assert_truncation(&profiles, &roots, "hits");
    assert_eq!(
        profiles[0].remaining_estimate,
        Some(49),
        "one iteration of 50 ran"
    );
    // The truncated answer was not cached: the same search without a
    // deadline, under the same cache key, computes afresh.
    let before = tb.browser.score_cache().stats();
    let unbounded = ContextualConfig {
        budget: Budget::new(),
        ..config
    };
    let full = bp_query::contextual_history_search(&tb.browser, "rosebud", &unbounded);
    let after = tb.browser.score_cache().stats();
    assert!(!full.truncated);
    assert_eq!((after.hits, after.misses), (before.hits, before.misses + 1));
}

#[test]
fn ppr_truncation_is_observable() {
    let tb = history("ppr");
    let (clock, _mock) = ticking(50);
    let config = ContextualConfig {
        budget: Budget::new()
            .with_deadline(Duration::ZERO)
            .with_clock(clock),
        ..ContextualConfig::default()
    };
    let (result, profiles, roots) = with_obs(|| {
        bp_query::contextual_history_search_ppr(
            &tb.browser,
            "rosebud",
            &config,
            &bp_graph::pagerank::PageRankConfig::default(),
        )
    });
    assert!(result.truncated);
    // The kernel stops at its first iteration boundary, before the blend.
    assert_truncation(&profiles, &roots, "pagerank");
}

#[test]
fn textual_baseline_never_truncates() {
    let tb = history("textual");
    let (clock, _mock) = ticking(50);
    // Even with a deadline configured, the baseline runs unbounded — that
    // is its documented contract; the profile reflects it.
    let config = ContextualConfig {
        budget: Budget::new()
            .with_deadline(Duration::ZERO)
            .with_clock(clock),
        ..ContextualConfig::default()
    };
    let (result, profiles, _roots) =
        with_obs(|| textual_history_search(&tb.browser, "rosebud", &config));
    assert!(!result.truncated);
    assert_eq!(profiles.len(), 1);
    let p = &profiles[0];
    assert!(!p.truncated);
    assert_eq!(p.truncation_stage, None);
    assert_eq!(p.budget_us, None, "the baseline is unbounded by design");
    let stages: Vec<&str> = p.stages.iter().map(|s| s.name).collect();
    assert_eq!(stages, vec!["text_search", "rank"]);
}

#[test]
fn personalize_truncation_is_observable() {
    let tb = history("personalize");
    let (clock, _mock) = ticking(50);
    let config = PersonalizeConfig {
        contextual: ContextualConfig {
            budget: Budget::new()
                .with_deadline(Duration::ZERO)
                .with_clock(clock),
            ..ContextualConfig::default()
        },
        ..PersonalizeConfig::default()
    };
    let ((), profiles, roots) = with_obs(|| {
        let _ = personalize_query(&tb.browser, "rosebud", &config);
    });
    // The inner contextual search is the stage that hit its budget; its
    // own profile attaches as a child with the precise cut point.
    assert_truncation(&profiles, &roots, "contextual");
    let p = &profiles[0];
    assert_eq!(p.children.len(), 1, "inner contextual profile is a child");
    assert_eq!(p.children[0].query, "context");
    assert!(p.children[0].truncated);
    assert_eq!(p.children[0].truncation_stage, Some("expand"));
}

#[test]
fn timectx_truncation_is_observable() {
    let tb = history("timectx");
    let (clock, _mock) = ticking(50);
    let config = TimeContextConfig {
        budget: Budget::new()
            .with_deadline(Duration::ZERO)
            .with_clock(clock),
        ..TimeContextConfig::default()
    };
    let (result, profiles, roots) =
        with_obs(|| time_contextual_search(&tb.browser, "wine", "plane tickets", &config));
    assert!(result.truncated);
    assert_truncation(&profiles, &roots, "associate");
    // Every subject hit was left unchecked: the estimate covers them all.
    assert!(profiles[0].remaining_estimate.unwrap() > 0);
}

#[test]
fn lineage_truncation_is_observable() {
    let tb = history("lineage");
    let (clock, _mock) = ticking(50);
    let dl = find_download(&tb.browser, "/dl/thing.bin").unwrap();
    let config = LineageConfig {
        budget: Budget::new()
            .with_deadline(Duration::ZERO)
            .with_clock(clock),
        ..LineageConfig::default()
    };
    let (answer, profiles, roots) =
        with_obs(|| first_recognizable_ancestor(&tb.browser, dl, &config));
    assert!(answer.is_none(), "nothing reachable under a zero budget");
    assert_truncation(&profiles, &roots, "ancestor_bfs");
    assert!(profiles[0].remaining_estimate.unwrap() > 0);
}

#[test]
fn describe_truncation_is_observable() {
    let tb = history("describe");
    let (clock, _mock) = ticking(50);
    let config = DescribeConfig {
        budget: Budget::new()
            .with_deadline(Duration::ZERO)
            .with_clock(clock),
        ..DescribeConfig::default()
    };
    let (story, profiles, roots) =
        with_obs(|| describe_origin(&tb.browser, "/dl/thing.bin", &config));
    let story = story.expect("the key resolves even when narration truncates");
    assert!(story.contains("(chain continues)"), "{story}");
    assert_truncation(&profiles, &roots, "narrate");
    // Nothing was narrated, so the whole step budget remains.
    assert_eq!(
        profiles[0].remaining_estimate,
        Some(config.max_steps as u64)
    );
}

// ---------------------------------------------------------------------------
// Every walking entry point is one query, timed and counted once
// ---------------------------------------------------------------------------

/// Each walking entry point, run once under a deadline on a browser with
/// its own registry, records exactly one sample in its own latency
/// histogram and exactly one deadline outcome, hit or miss.
#[test]
fn every_entry_point_is_timed_and_classified_once() {
    let obs = Obs::isolated();
    let tb = history_in(TempBrowser::with_obs("table", obs.clone()));
    let b = &tb.browser;
    let budget = Budget::new().with_deadline(Duration::from_secs(60));
    let contextual = ContextualConfig {
        budget: budget.clone(),
        ..ContextualConfig::default()
    };
    let dl = find_download(b, "/dl/thing.bin").unwrap();
    let pagerank = bp_graph::pagerank::PageRankConfig::default();
    type Run<'a> = Box<dyn Fn() + 'a>;
    let table: Vec<(&str, HistogramName, Run)> = vec![
        (
            "context",
            names::QUERY_CONTEXT_LATENCY_US,
            Box::new(|| {
                bp_query::contextual_history_search(b, "rosebud", &contextual);
            }),
        ),
        (
            "context +HITS",
            names::QUERY_CONTEXT_LATENCY_US,
            Box::new(|| {
                let config = ContextualConfig {
                    hits_weight: 1.0,
                    ..contextual.clone()
                };
                bp_query::contextual_history_search(b, "rosebud", &config);
            }),
        ),
        (
            "ppr",
            names::QUERY_CONTEXT_LATENCY_US,
            Box::new(|| {
                bp_query::contextual_history_search_ppr(b, "rosebud", &contextual, &pagerank);
            }),
        ),
        (
            "personalize",
            names::QUERY_PERSONALIZE_LATENCY_US,
            Box::new(|| {
                let config = PersonalizeConfig {
                    contextual: contextual.clone(),
                    ..PersonalizeConfig::default()
                };
                personalize_query(b, "rosebud", &config);
            }),
        ),
        (
            "timectx",
            names::QUERY_TIMECTX_LATENCY_US,
            Box::new(|| {
                let config = TimeContextConfig {
                    budget: budget.clone(),
                    ..TimeContextConfig::default()
                };
                time_contextual_search(b, "wine", "plane tickets", &config);
            }),
        ),
        (
            "lineage",
            names::QUERY_LINEAGE_LATENCY_US,
            Box::new(|| {
                let config = LineageConfig {
                    budget: budget.clone(),
                    ..LineageConfig::default()
                };
                first_recognizable_ancestor(b, dl, &config);
            }),
        ),
        (
            "full_lineage",
            names::QUERY_FULL_LINEAGE_LATENCY_US,
            Box::new(|| {
                full_lineage(b, dl, &budget);
            }),
        ),
        (
            "downloads_from",
            names::QUERY_DOWNLOADS_FROM_LATENCY_US,
            Box::new(|| {
                downloads_descending_from(b, "http://films/kane", &budget);
            }),
        ),
        (
            "describe",
            names::QUERY_DESCRIBE_LATENCY_US,
            Box::new(|| {
                let config = DescribeConfig {
                    budget: budget.clone(),
                    ..DescribeConfig::default()
                };
                describe_origin(b, "/dl/thing.bin", &config);
            }),
        ),
        (
            "ql",
            names::QUERY_QL_LATENCY_US,
            Box::new(|| {
                let query = bp_query::ql::parse("ancestors(url = '/dl/thing.bin')").unwrap();
                bp_query::ql::execute(b, &query, &budget).unwrap();
            }),
        ),
    ];
    let outcomes = || {
        let count = |name| obs.counter(name).get();
        count(names::QUERY_DEADLINE_HIT) + count(names::QUERY_DEADLINE_MISS)
    };
    for (path, latency, run) in table {
        let (samples, classified) = (obs.histogram(latency).count(), outcomes());
        run();
        assert_eq!(
            obs.histogram(latency).count() - samples,
            1,
            "{path}: latency samples"
        );
        assert_eq!(outcomes() - classified, 1, "{path}: deadline outcomes");
    }
}

// ---------------------------------------------------------------------------
// The deadline runs from query entry
// ---------------------------------------------------------------------------

/// What a query may spend past its deadline on a clock that stalls
/// `stall_us` per reading: the reading that crossed the deadline ends at
/// most one stall late, and every reading after it costs 1 µs — the stages
/// left before the bounded loop, the check that truncates, the stage
/// closes and the scope's final reading. 32 readings cover the deepest
/// path (personalization's inner search and its term profile).
fn one_check_interval(stall_us: u64) -> Duration {
    Duration::from_micros(stall_us + 32)
}

/// A clock whose readings each take `stall_us` until it reaches the
/// deadline and 1 µs after: the stages before a bounded loop use the
/// deadline up, and what runs once it has passed is timed finely.
#[derive(Debug)]
struct StallClock {
    micros: AtomicU64,
    deadline_us: u64,
    stall_us: u64,
}

impl Clock for StallClock {
    fn now_micros(&self) -> u64 {
        let step = |now: u64| {
            Some(
                now + if now < self.deadline_us {
                    self.stall_us
                } else {
                    1
                },
            )
        };
        self.micros
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, step)
            .unwrap_or_else(|now| now)
    }
}

/// A budget with `deadline` on a fresh [`StallClock`] stalling `stall_us`
/// per reading.
fn stalling(deadline: Duration, stall_us: u64) -> Budget {
    let clock = StallClock {
        micros: AtomicU64::new(0),
        deadline_us: deadline.as_micros() as u64,
        stall_us,
    };
    Budget::new()
        .with_deadline(deadline)
        .with_clock(ClockHandle::from_clock(Arc::new(clock)))
}

/// A history with work in every bounded loop: forty visits of one
/// plane-tickets page, each followed by a linked film page that mentions
/// rosebud and wine, then a download at the end of the chain.
fn busy_history(tag: &str) -> TempBrowser {
    let mut tb = TempBrowser::new(tag);
    let b = &mut tb.browser;
    b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
        .unwrap();
    for i in 0..40 {
        b.ingest(&BrowserEvent::navigate(
            t(2 * i + 1),
            TabId(0),
            "http://travel/plane-tickets",
            Some("cheap plane tickets"),
            NavigationCause::Typed,
        ))
        .unwrap();
        b.ingest(&BrowserEvent::navigate(
            t(2 * i + 2),
            TabId(0),
            format!("http://films/{i}"),
            Some("rosebud wine film"),
            NavigationCause::Link,
        ))
        .unwrap();
    }
    b.ingest(&BrowserEvent::new(
        t(100),
        EventKind::Download {
            tab: TabId(0),
            path: "/dl/thing.bin".to_owned(),
            bytes: 1,
        },
    ))
    .unwrap();
    tb
}

/// Runs one query path under `deadline` on a [`StallClock`] stalling
/// `stall_us` per reading and checks that the deadline ran from entry: the
/// query truncated, and its elapsed time (on the budget's clock) exceeds
/// the deadline by at most [`one_check_interval`]. `run` returns the
/// query's reported elapsed time and whether it truncated.
fn check_deadline_from_entry(
    path: &str,
    deadline: Duration,
    stall_us: u64,
    run: impl FnOnce(&Budget) -> (Duration, bool),
) -> Result<(), TestCaseError> {
    let budget = stalling(deadline, stall_us);
    let ((elapsed, truncated), _, _) = with_obs(|| run(&budget));
    prop_assert!(truncated, "{path}: the deadline must truncate the query");
    prop_assert!(
        elapsed <= deadline + one_check_interval(stall_us),
        "{path}: took {elapsed:?} against a {deadline:?} deadline"
    );
    Ok(())
}

/// The entry-deadline property's clock: a stall step of 1–500 µs per
/// reading, and a deadline that at most six stalled readings reach, so
/// every path meets it inside its bounded loop.
fn deadline_and_stall() -> impl Strategy<Value = (Duration, u64)> {
    (1u64..=500, 0u64..6, any::<u64>()).prop_map(|(stall_us, stalls, extra)| {
        let deadline_us = stalls * stall_us + extra % stall_us;
        (Duration::from_micros(deadline_us), stall_us)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn context_deadline_runs_from_entry((deadline, stall_us) in deadline_and_stall()) {
        let tb = busy_history("entry-context");
        check_deadline_from_entry("context", deadline, stall_us, |budget| {
            let config = ContextualConfig {
                budget: budget.clone(),
                ..ContextualConfig::default()
            };
            let r = bp_query::contextual_history_search(&tb.browser, "rosebud", &config);
            (r.elapsed, r.truncated)
        })?;
    }

    #[test]
    fn ppr_deadline_runs_from_entry((deadline, stall_us) in deadline_and_stall()) {
        let tb = busy_history("entry-ppr");
        check_deadline_from_entry("ppr", deadline, stall_us, |budget| {
            let config = ContextualConfig {
                budget: budget.clone(),
                ..ContextualConfig::default()
            };
            let pagerank = bp_graph::pagerank::PageRankConfig::default();
            let r = bp_query::contextual_history_search_ppr(&tb.browser, "rosebud", &config, &pagerank);
            (r.elapsed, r.truncated)
        })?;
    }

    #[test]
    fn personalize_deadline_runs_from_entry((deadline, stall_us) in deadline_and_stall()) {
        let tb = busy_history("entry-personalize");
        check_deadline_from_entry("personalize", deadline, stall_us, |budget| {
            let config = PersonalizeConfig {
                contextual: ContextualConfig {
                    budget: budget.clone(),
                    ..ContextualConfig::default()
                },
                ..PersonalizeConfig::default()
            };
            let _ = personalize_query(&tb.browser, "rosebud", &config);
            // The result carries no timing: read the root span, which the
            // scope closes with its one elapsed time, and the profile's
            // truncation.
            let roots = trace::take_roots();
            let profiles = profile::from_spans(&roots);
            let root = roots.iter().find(|r| r.name == "query.personalize");
            let elapsed = root.expect("personalize closes its root span").duration;
            (elapsed, profiles.first().is_some_and(|p| p.truncated))
        })?;
    }

    #[test]
    fn timectx_deadline_runs_from_entry((deadline, stall_us) in deadline_and_stall()) {
        let tb = busy_history("entry-timectx");
        check_deadline_from_entry("timectx", deadline, stall_us, |budget| {
            let config = TimeContextConfig {
                budget: budget.clone(),
                ..TimeContextConfig::default()
            };
            let r = time_contextual_search(&tb.browser, "wine", "plane tickets", &config);
            (r.elapsed, r.truncated)
        })?;
    }

    #[test]
    fn context_hits_deadline_runs_from_entry((deadline, stall_us) in deadline_and_stall()) {
        let tb = busy_history("entry-context-hits");
        check_deadline_from_entry("context +HITS", deadline, stall_us, |budget| {
            let config = ContextualConfig {
                budget: budget.clone(),
                hits_weight: 1.0,
                ..ContextualConfig::default()
            };
            let r = bp_query::contextual_history_search(&tb.browser, "rosebud", &config);
            (r.elapsed, r.truncated)
        })?;
    }

    #[test]
    fn lineage_deadline_runs_from_entry((deadline, stall_us) in deadline_and_stall()) {
        let tb = busy_history("entry-lineage");
        let dl = find_download(&tb.browser, "/dl/thing.bin").unwrap();
        check_deadline_from_entry("lineage", deadline, stall_us, |budget| {
            // Nothing is recognizable, so an unbounded walk would visit the
            // whole lineage.
            let config = LineageConfig {
                recognizable_visits: u32::MAX,
                budget: budget.clone(),
            };
            assert!(first_recognizable_ancestor(&tb.browser, dl, &config).is_none());
            let p = &profile::from_spans(&trace::take_roots())[0];
            (Duration::from_micros(p.total_us), p.truncated)
        })?;
    }

    #[test]
    fn describe_deadline_runs_from_entry((deadline, stall_us) in deadline_and_stall()) {
        let tb = busy_history("entry-describe");
        check_deadline_from_entry("describe", deadline, stall_us, |budget| {
            let config = DescribeConfig {
                budget: budget.clone(),
                ..DescribeConfig::default()
            };
            let story = describe_origin(&tb.browser, "/dl/thing.bin", &config);
            assert!(story.is_some());
            let p = &profile::from_spans(&trace::take_roots())[0];
            (Duration::from_micros(p.total_us), p.truncated)
        })?;
    }

    #[test]
    fn downloads_descending_from_spends_one_deadline((deadline, stall_us) in deadline_and_stall()) {
        let tb = busy_history("entry-downloads");
        // Forty visits of the page: every BFS from one of them spends the
        // one deadline.
        check_deadline_from_entry("downloads_descending_from", deadline, stall_us, |budget| {
            let (_, truncated) =
                downloads_descending_from(&tb.browser, "http://travel/plane-tickets", budget);
            // The result carries no timing: read the root span, which the
            // scope closes with its one elapsed time.
            let roots = trace::take_roots();
            let root = roots.iter().find(|r| r.name == "query.downloads_from");
            (root.expect("the query closes its root span").duration, truncated)
        })?;
    }

    #[test]
    fn ql_deadline_runs_from_entry((deadline, stall_us) in deadline_and_stall()) {
        let tb = busy_history("entry-ql");
        let dl = find_download(&tb.browser, "/dl/thing.bin").unwrap();
        for query in [
            "descendants(url = \"http://films/0\")".to_owned(),
            format!("ancestors(#{})", dl.index()),
        ] {
            check_deadline_from_entry(&query, deadline, stall_us, |budget| {
                let rows = bp_query::ql::run(&tb.browser, &query, budget).unwrap();
                (rows.elapsed, rows.truncated)
            })?;
        }
    }

    #[test]
    fn ql_path_deadline_runs_from_entry((deadline, stall_us) in deadline_and_stall()) {
        let tb = busy_history("entry-ql-path");
        // Download to the first film: a walk up the whole lineage.
        let query = "path(url = '/dl/thing.bin', url = 'http://films/0')";
        check_deadline_from_entry("ql path", deadline, stall_us, |budget| {
            let rows = bp_query::ql::run(&tb.browser, query, budget).unwrap();
            (rows.elapsed, rows.truncated)
        })?;
    }
}
