//! Download lineage forensics (§2.4).
//!
//! A simulated user is tricked into a drive-by download: a search leads
//! through a familiar forum and a URL shortener to an unfamiliar file host
//! serving `codec-pack.exe`. This example answers both of the paper's
//! §2.4 questions:
//!
//! 1. *"Find the first ancestor of this file that the user is likely to
//!    recognize"* — the path query that explains how the file arrived;
//! 2. *"Find all descendants of this page that are downloads"* — the
//!    audit query run once the host is deemed untrusted.
//!
//! Run with:
//! ```text
//! cargo run --example download_lineage
//! ```

use bp_core::{CaptureConfig, ProvenanceBrowser};
use bp_graph::traverse::Budget;
use bp_query::{
    downloads_descending_from, find_download, first_recognizable_ancestor, full_lineage,
    LineageConfig,
};
use bp_sim::scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("bp-example-lineage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Build the drive-by scenario: background browsing + the attack chain.
    let (_web, scenario) = scenario::driveby(2026);
    let mut browser = ProvenanceBrowser::open(&dir, CaptureConfig::default())?;
    browser.ingest_all(&scenario.events)?;
    println!(
        "history: {} nodes, {} edges over {} events\n",
        browser.graph().node_count(),
        browser.graph().edge_count(),
        scenario.events.len()
    );

    // Question 1: how did codec-pack.exe get here?
    let payload = &scenario.markers.download_path;
    let download = find_download(&browser, payload).expect("the download was captured");
    let answer = first_recognizable_ancestor(&browser, download, &LineageConfig::default())
        .expect("a recognizable ancestor exists");
    println!("Q1: how did {payload} get here?");
    println!(
        "    first recognizable ancestor: {} ({} visits, {} hops, answered in {:?})",
        answer.url,
        answer.visit_count,
        answer.path.hops(),
        answer.elapsed
    );
    println!("    full chain back to it:");
    for &node in &answer.path.nodes {
        let n = browser.graph().node(node)?;
        println!("      [{}] {}", n.kind(), n.key());
    }
    assert_eq!(answer.url, scenario.markers.recognizable_url);

    // The complete lineage, for the curious.
    let (lineage, truncated) = full_lineage(&browser, download, &Budget::new());
    println!(
        "    (complete lineage: {} ancestors{})",
        lineage.len() - 1,
        if truncated { ", truncated" } else { "" }
    );

    // Question 2: the host is untrusted — what else came from it?
    let host = &scenario.markers.untrusted_url;
    let (suspicious, _) = downloads_descending_from(&browser, host, &Budget::new());
    println!("\nQ2: all downloads descending from untrusted {host}:");
    for (_, path) in &suspicious {
        println!("      {path}");
    }
    assert!(suspicious.len() >= 3, "payload + the later installers");
    println!(
        "\n{} files to scan — a single query instead of manual forensics.",
        suspicious.len()
    );

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
