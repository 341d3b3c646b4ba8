//! Query-language integration: the `ql` surface run end-to-end against a
//! simulated multi-day history, checking it agrees with the library calls
//! it wraps and stays inside the latency budget.

use bp_core::{CaptureConfig, ProvenanceBrowser};
use bp_graph::traverse::Budget;
use bp_graph::{NodeId, NodeKind};
use bp_query::ql;
use bp_sim::calibrate;
use std::path::PathBuf;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "bp-it-ql-{tag}-{}-{:?}",
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

fn browser(tag: &str) -> (TempDir, ProvenanceBrowser) {
    let dir = TempDir::new(tag);
    let web = calibrate::paper_web(81);
    let events = calibrate::days_history(&web, 81, 3);
    let mut b = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
    b.ingest_all(&events).unwrap();
    (dir, b)
}

#[test]
fn node_scans_match_graph_counts() {
    let (_dir, b) = browser("scan");
    for kind in [
        NodeKind::PageVisit,
        NodeKind::SearchTerm,
        NodeKind::Download,
        NodeKind::Bookmark,
    ] {
        let rows = ql::run(
            &b,
            &format!("nodes where type = {}", kind.label()),
            &Budget::new(),
        )
        .unwrap();
        assert_eq!(
            rows.rows.len(),
            b.graph().nodes_of_kind(kind).count(),
            "scan must agree with the graph for {kind}"
        );
    }
}

#[test]
fn ancestor_queries_agree_with_traversals() {
    let (_dir, b) = browser("anc");
    let download = b
        .graph()
        .nodes_of_kind(NodeKind::Download)
        .next()
        .expect("history has downloads");
    let rows = ql::run(
        &b,
        &format!("ancestors(#{})", download.index()),
        &Budget::new(),
    )
    .unwrap();
    let traversal = bp_graph::traverse::bfs(
        &b.frozen(),
        download,
        bp_graph::traverse::Direction::Ancestors,
        bp_graph::EdgeKind::is_causal,
        &Budget::new(),
    );
    assert_eq!(
        rows.rows.len(),
        traversal.len() - 1,
        "QL ancestors = BFS ancestors minus the start node"
    );
    // Depth filters are monotone.
    let d1 = ql::run(
        &b,
        &format!("ancestors(#{}) where depth <= 1", download.index()),
        &Budget::new(),
    )
    .unwrap();
    let d3 = ql::run(
        &b,
        &format!("ancestors(#{}) where depth <= 3", download.index()),
        &Budget::new(),
    )
    .unwrap();
    assert!(d1.rows.len() <= d3.rows.len());
    assert!(d3.rows.len() <= rows.rows.len());
}

#[test]
fn printable_queries_execute_identically() {
    let (_dir, b) = browser("print");
    let download = b
        .graph()
        .nodes_of_kind(NodeKind::Download)
        .next()
        .expect("history has downloads");
    let source = format!(
        "ancestors(#{}) where type = visit and visits >= 2 limit 5",
        download.index()
    );
    let parsed = ql::parse(&source).unwrap();
    let reprinted = parsed.to_string();
    let a = ql::execute(&b, &parsed, &Budget::new()).unwrap();
    let b2 = ql::run(&b, &reprinted, &Budget::new()).unwrap();
    assert_eq!(a.rows, b2.rows, "printed query is semantically identical");
}

/// `overlapping(#id)` answers with every other node whose interval
/// overlaps the anchor's, ordered by (open timestamp, node id), for
/// anchors spread over the whole history: every kind, open and closed.
#[test]
fn overlapping_returns_every_overlapping_node_in_open_order() {
    let (_dir, b) = browser("overlap");
    let graph = b.graph();
    let (mut anchors, mut still_open, mut rows_seen) = (0, 0, 0);
    for anchor in (0..graph.node_count() as u32).step_by(29).map(NodeId::new) {
        let interval = *graph.node(anchor).unwrap().interval();
        let mut expected: Vec<_> = graph
            .nodes()
            .filter(|&(id, n)| id != anchor && n.interval().overlaps(&interval))
            .map(|(id, n)| (n.opened_at(), id))
            .collect();
        expected.sort_unstable();
        let rows = ql::run(
            &b,
            &format!("overlapping(#{})", anchor.index()),
            &Budget::new(),
        )
        .unwrap()
        .rows;
        let got: Vec<_> = rows
            .iter()
            .map(|r| (graph.node(r.node).unwrap().opened_at(), r.node))
            .collect();
        assert_eq!(got, expected, "overlapping(#{})", anchor.index());
        for row in &rows {
            let node = graph.node(row.node).unwrap();
            assert_eq!(
                (row.kind, row.key.as_str(), row.depth),
                (node.kind(), node.key(), 0)
            );
        }
        anchors += 1;
        still_open += usize::from(interval.is_open());
        rows_seen += rows.len();
    }
    assert!(anchors >= 50, "only {anchors} anchors");
    assert!(
        0 < still_open && still_open < anchors,
        "{still_open} of {anchors} open"
    );
    assert!(rows_seen > 0);
}

#[test]
fn queries_stay_inside_the_paper_latency_bound() {
    let (_dir, b) = browser("latency");
    let download = b
        .graph()
        .nodes_of_kind(NodeKind::Download)
        .next()
        .expect("history has downloads");
    for q in [
        "nodes where type = search_term".to_owned(),
        format!("ancestors(#{})", download.index()),
        "descendants(#0) where type = download".to_string(),
        format!("overlapping(#{}) where type = visit", download.index()),
    ] {
        let rows = ql::run(&b, &q, &Budget::new()).unwrap();
        assert!(
            rows.elapsed.as_millis() < 200,
            "{q} took {:?}",
            rows.elapsed
        );
    }
}

#[test]
fn budget_truncation_is_reported_through_the_ql() {
    let (_dir, b) = browser("budget");
    let download = b
        .graph()
        .nodes_of_kind(NodeKind::Download)
        .next()
        .expect("history has downloads");
    let rows = ql::run(
        &b,
        &format!("ancestors(#{})", download.index()),
        &Budget::new().with_max_nodes(3),
    )
    .unwrap();
    assert!(rows.truncated);
    assert!(rows.rows.len() <= 3);
}
