//! Concurrency integration: the background capture pipeline ingests a
//! realistic stream while reader threads query the same store.

use bp_core::{
    BrowserEvent, CaptureConfig, CapturePipeline, NavigationCause, ProvenanceBrowser, TabId,
};
use bp_graph::{NodeKind, Timestamp};
use bp_obs::{names, Obs};
use bp_query::{contextual_history_search, ContextualConfig};
use bp_sim::calibrate;
use bp_storage::SyncPolicy;
use std::path::PathBuf;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "bp-it-conc-{tag}-{}-{:?}",
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

#[test]
fn pipeline_ingests_simulated_days_with_concurrent_queries() {
    let dir = TempDir::new("pipeline");
    let web = calibrate::paper_web(71);
    let events = calibrate::days_history(&web, 71, 2);
    let browser = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    let pipeline = CapturePipeline::start(browser);

    // Reader threads run contextual searches while capture proceeds.
    let readers: Vec<_> = (0..3)
        .map(|i| {
            let shared = pipeline.shared();
            std::thread::spawn(move || {
                let queries = ["news", "wine", "software"];
                let mut total_hits = 0usize;
                for _ in 0..50 {
                    let guard = shared.read();
                    let r = contextual_history_search(
                        &guard,
                        queries[i % queries.len()],
                        &ContextualConfig::default(),
                    );
                    total_hits += r.hits.len();
                    assert!(guard.graph().verify_acyclic());
                }
                total_hits
            })
        })
        .collect();

    for event in &events {
        assert!(pipeline.submit(event.clone()));
    }
    pipeline.flush();
    for reader in readers {
        reader.join().unwrap();
    }
    assert_eq!(pipeline.rejected_events(), 0, "simulated streams are valid");
    assert!(pipeline.failure().is_none());

    let browser = pipeline.shutdown();
    let nodes = browser.graph().node_count();
    assert!(nodes > 200, "two days of history captured: {nodes}");
    drop(browser);

    // Everything the pipeline captured survives recovery.
    let reopened = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    assert_eq!(reopened.graph().node_count(), nodes);
    assert!(reopened.graph().verify_acyclic());
    assert!(reopened.graph().nodes_of_kind(NodeKind::PageVisit).count() > 0);
}

/// The tentpole's exactness claim: with an isolated registry, the capture
/// counters agree with the submitted stream to the event, even when four
/// producer threads race into the queue.
#[test]
fn pipeline_metrics_are_exact_under_concurrent_ingest() {
    let dir = TempDir::new("metrics");
    let obs = Obs::isolated();
    let browser = ProvenanceBrowser::open_with_obs(
        &dir.0,
        CaptureConfig::default(),
        SyncPolicy::OsManaged,
        obs.clone(),
    )
    .unwrap();
    let pipeline = CapturePipeline::start(browser);

    // Four producers, one tab each: a tab open plus 100 navigations.
    // Timestamps are striped per tab (each tab's stream is internally
    // ordered; nothing requires global order across tabs).
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let pipeline = &pipeline;
            s.spawn(move || {
                let tab = TabId(t);
                let base = i64::from(t) * 1_000_000;
                assert!(pipeline.submit(BrowserEvent::tab_opened(
                    Timestamp::from_secs(base),
                    tab,
                    None
                )));
                for i in 0..100 {
                    assert!(pipeline.submit(BrowserEvent::navigate(
                        Timestamp::from_secs(base + i + 1),
                        tab,
                        format!("http://t{t}.example/p{i}"),
                        Some("concurrent page"),
                        NavigationCause::Link,
                    )));
                }
            });
        }
    });
    // One deliberately invalid event: a navigation in a never-opened tab.
    pipeline.submit(BrowserEvent::navigate(
        Timestamp::from_secs(9_000_000),
        TabId(9),
        "http://invalid.example/",
        None,
        NavigationCause::Link,
    ));
    pipeline.flush();

    assert_eq!(
        obs.counter(names::CAPTURE_EVENTS_TOTAL).get(),
        404,
        "4 tab opens + 400 navigations, exactly"
    );
    assert_eq!(obs.counter(names::CAPTURE_EVENTS_REJECTED).get(), 1);
    assert_eq!(
        obs.gauge(names::CAPTURE_QUEUE_DEPTH).get(),
        0,
        "flush drains the queue"
    );
    assert_eq!(
        obs.histogram(names::CAPTURE_BATCH_OPS).snapshot().count,
        404
    );
    assert!(
        obs.counter(names::WAL_APPENDS_TOTAL).get() >= 404,
        "every applied event commits at least one log frame"
    );
    assert!(obs.counter(names::CAPTURE_FLUSHES).get() >= 1);

    assert_eq!(pipeline.rejected_events(), 1);
    let browser = pipeline.shutdown();
    assert_eq!(
        browser.graph().nodes_of_kind(NodeKind::PageVisit).count(),
        400
    );
    assert!(browser.graph().verify_acyclic());
}

#[test]
fn two_pipelines_on_distinct_profiles_do_not_interfere() {
    let dir_a = TempDir::new("a");
    let dir_b = TempDir::new("b");
    let web = calibrate::paper_web(72);
    let events_a = calibrate::days_history(&web, 72, 1);
    let events_b = calibrate::days_history(&web, 73, 1);
    let pipe_a = CapturePipeline::start(
        ProvenanceBrowser::open(&dir_a.0, CaptureConfig::default()).unwrap(),
    );
    let pipe_b = CapturePipeline::start(
        ProvenanceBrowser::open(&dir_b.0, CaptureConfig::firefox_like()).unwrap(),
    );
    for e in &events_a {
        pipe_a.submit(e.clone());
    }
    for e in &events_b {
        pipe_b.submit(e.clone());
    }
    pipe_a.flush();
    pipe_b.flush();
    let a = pipe_a.shutdown();
    let b = pipe_b.shutdown();
    assert!(a.graph().node_count() > 0);
    assert!(b.graph().node_count() > 0);
    // Different capture configs leave different fingerprints.
    assert!(a
        .graph()
        .edges()
        .any(|(_, e)| e.kind() == bp_graph::EdgeKind::TypedLocation));
    assert!(!b
        .graph()
        .edges()
        .any(|(_, e)| e.kind() == bp_graph::EdgeKind::TypedLocation));
}
