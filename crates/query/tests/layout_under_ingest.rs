//! The PageRank kernel's slot layout, grown under ingest, scores exactly
//! as one built from scratch. A seeded 7-day history is captured in
//! 16-event chunks, as perfbench's `mixed` workload sends it; every few
//! chunks a PageRank walk over the browser's current snapshot, whose
//! layout grows from the last walked snapshot's, is compared bit for bit
//! with the same walk over `FrozenGraph::build` of the same graph.

use bp_core::{CaptureConfig, ProvenanceBrowser};
use bp_graph::frozen::{personalized_pagerank_frozen, FrozenGraph, FrozenScores, Refresh};
use bp_graph::pagerank::PageRankConfig;
use bp_graph::traverse::Budget;
use bp_graph::NodeId;
use bp_sim::calibrate::{days_history, paper_web};

fn bits(scores: &FrozenScores) -> Vec<(u32, u64)> {
    scores
        .entries
        .iter()
        .map(|&(i, s)| (i, s.to_bits()))
        .collect()
}

#[test]
fn a_layout_grown_under_ingest_scores_like_a_fresh_build() {
    let dir = std::env::temp_dir().join(format!("bp-layout-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut browser = ProvenanceBrowser::open(&dir, CaptureConfig::default()).unwrap();
    let events = days_history(&paper_web(7), 42, 7);
    let mut refreshes = Vec::new();
    for (chunk, events) in events.chunks(16).enumerate() {
        browser.ingest_all(events).unwrap();
        let frozen = browser.frozen();
        if chunk % 3 != 0 {
            continue;
        }
        let fresh = FrozenGraph::build(browser.graph());
        let n = frozen.node_count() as u32;
        let seeds = [(NodeId::new(n - 1), 1.0), (NodeId::new(n / 2), 0.5)];
        let config = PageRankConfig::default();
        let grown = personalized_pagerank_frozen(&frozen, &seeds, &config, &Budget::new());
        let want = personalized_pagerank_frozen(&fresh, &seeds, &config, &Budget::new());
        assert_eq!(grown.iterations, want.iterations, "chunk {chunk}");
        assert_eq!(bits(&grown), bits(&want), "chunk {chunk}");
        refreshes.push(grown.layout.map(|(how, _)| how));
    }
    assert!(refreshes.len() > 20, "{} walks", refreshes.len());
    // One build, then only extensions.
    assert_eq!(refreshes[0], Some(Refresh::Rebuilt));
    assert!(refreshes[1..]
        .iter()
        .all(|&how| how == Some(Refresh::Extended)));
    drop(browser);
    let _ = std::fs::remove_dir_all(&dir);
}
