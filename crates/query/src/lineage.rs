//! §2.4 — Download lineage.
//!
//! "What the user really wants is, starting from a known location, the
//! sequence of actions that resulted in the download — that is, the
//! lineage of the download. In a provenance-aware browser, the solution is
//! a path query: 'Find the first ancestor of this file that the user is
//! likely to recognize.'" And the mirror query: "'Find all descendants of
//! this page that are downloads.'" Both are here, as "a breadth-first
//! search over a node's ancestors" (§4) and its reverse.

use crate::scope::Scope;
use bp_core::ProvenanceBrowser;
use bp_graph::traverse::{self, Budget, Direction, Path};
use bp_graph::{EdgeKind, NodeId, NodeKind};
use bp_obs::names;
use bp_obs::profile::QueryPlan;
use std::time::Duration;

/// EXPLAIN plan for [`first_recognizable_ancestor`].
static LINEAGE_PLAN: QueryPlan = QueryPlan {
    query: "lineage",
    stages: &["frozen.snapshot", "ancestor_bfs"],
};

/// Tuning for lineage queries.
#[derive(Debug, Clone)]
pub struct LineageConfig {
    /// Visit count at or above which a page counts as "likely to
    /// recognize" (§2.4 suggests defining recognizability "in terms of
    /// history, e.g., the number of visits").
    pub recognizable_visits: u32,
    /// Query budget; its clock also times the query.
    pub budget: Budget,
}

impl Default for LineageConfig {
    fn default() -> Self {
        LineageConfig {
            recognizable_visits: 3,
            budget: Budget::new(),
        }
    }
}

/// The answer to a "how did I get this file?" query.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageAnswer {
    /// The recognizable ancestor's node.
    pub ancestor: NodeId,
    /// Its URL.
    pub url: String,
    /// How many times the user had visited it.
    pub visit_count: u32,
    /// The hop-by-hop path from the download back to it.
    pub path: Path,
    /// Wall-clock the query took.
    pub elapsed: Duration,
}

/// Finds the download node for a file path, newest first.
pub fn find_download(browser: &ProvenanceBrowser, path: &str) -> Option<NodeId> {
    browser.graph().nodes_with_key(path).last().copied()
}

/// §2.4's path query: the nearest causal ancestor of `download` whose URL
/// the user has visited at least `recognizable_visits` times, found by
/// [`traverse::bfs`] over the browser's CSR snapshot.
///
/// Returns `None` when nothing in the lineage clears the bar within the
/// budget — the honest answer for a download that arrived out of nowhere.
pub fn first_recognizable_ancestor(
    browser: &ProvenanceBrowser,
    download: NodeId,
    config: &LineageConfig,
) -> Option<LineageAnswer> {
    let scope = Scope::open(
        browser.obs(),
        "query.lineage",
        Some(&LINEAGE_PLAN),
        names::QUERY_LINEAGE_LATENCY_US,
        &config.budget,
    );
    let graph = browser.graph();
    let frozen = {
        // The snapshot refresh, if a mutation forced one, under its own
        // stage.
        let stage = scope.stage("frozen.snapshot");
        let frozen = browser.frozen();
        stage.touched(frozen.node_count(), frozen.edge_count());
        frozen
    };
    let (found, truncated) = {
        let stage = scope.stage("ancestor_bfs");
        let walk = traverse::bfs(
            &frozen,
            download,
            Direction::Ancestors,
            EdgeKind::is_causal,
            scope.budget(),
        );
        let edges = walk.reached.iter().filter(|r| r.via.is_some()).count();
        stage.touched(walk.len(), edges);
        let recognizable = |node: NodeId| {
            graph.node(node).is_ok_and(|n| {
                n.kind() == NodeKind::PageVisit
                    && browser.visit_count(n.key()) >= config.recognizable_visits
            })
        };
        // "First ancestor" is a proper ancestor: skip the start node.
        let hit = walk.reached.iter().skip(1).find(|r| recognizable(r.node));
        let path = hit.and_then(|r| walk.path_to(&frozen, r.node));
        stage.rows(1, usize::from(path.is_some()));
        if walk.truncated {
            let remaining = graph.node_count().saturating_sub(walk.len()) as u64;
            stage.truncated(remaining, "budget hit", "ancestors unexplored");
        }
        let found = path.and_then(|path| {
            let ancestor = path.target();
            let url = graph.node(ancestor).ok()?.key().to_owned();
            Some((ancestor, url, path))
        });
        (found, walk.truncated)
    };
    let elapsed = scope.finish(truncated);
    let (ancestor, url, path) = found?;
    Some(LineageAnswer {
        ancestor,
        visit_count: browser.visit_count(&url),
        url,
        path,
        elapsed,
    })
}

/// The full causal lineage of a node (every ancestor, BFS order), with
/// URLs for display. The §2.4 "sequence of actions that resulted in the
/// download". The flag is `true` when the budget cut the walk short.
pub fn full_lineage(
    browser: &ProvenanceBrowser,
    node: NodeId,
    budget: &Budget,
) -> (Vec<(NodeId, String)>, bool) {
    let scope = Scope::open(
        browser.obs(),
        "query.full_lineage",
        None,
        names::QUERY_FULL_LINEAGE_LATENCY_US,
        budget,
    );
    let graph = browser.graph();
    let walk = traverse::bfs(
        &browser.frozen(),
        node,
        Direction::Ancestors,
        EdgeKind::is_causal,
        scope.budget(),
    );
    let out = walk
        .node_ids()
        .filter_map(|id| graph.node(id).ok().map(|n| (id, n.key().to_owned())))
        .collect();
    scope.finish(walk.truncated);
    (out, walk.truncated)
}

/// §2.4's descendant query: every download that descends from any visit
/// of `url` — "if the user decides a page is untrusted, she may then want
/// to find all downloads descending from that page and check them for
/// viruses." The flag is `true` when the budget cut the search short, so
/// the list may miss downloads.
pub fn downloads_descending_from(
    browser: &ProvenanceBrowser,
    url: &str,
    budget: &Budget,
) -> (Vec<(NodeId, String)>, bool) {
    // A URL with many visits runs one BFS per visit; all of them spend
    // the scope's one deadline, which bounds the whole query.
    let scope = Scope::open(
        browser.obs(),
        "query.downloads_from",
        None,
        names::QUERY_DOWNLOADS_FROM_LATENCY_US,
        budget,
    );
    let (graph, frozen) = (browser.graph(), browser.frozen());
    let mut out: Vec<(NodeId, String)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut truncated = false;
    for &start in graph.nodes_with_key(url) {
        if scope.budget().expired() {
            truncated = true;
            break;
        }
        let walk = traverse::bfs(
            &frozen,
            start,
            Direction::Descendants,
            EdgeKind::is_causal,
            scope.budget(),
        );
        truncated |= walk.truncated;
        for id in walk.node_ids() {
            if !seen.insert(id) {
                continue;
            }
            if let Ok(n) = graph.node(id) {
                if n.kind() == NodeKind::Download {
                    out.push((id, n.key().to_owned()));
                }
            }
        }
    }
    out.sort_by_key(|a| a.0);
    scope.finish(truncated);
    (out, truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{BrowserEvent, CaptureConfig, EventKind, NavigationCause, TabId};
    use bp_graph::Timestamp;
    use std::path::PathBuf;

    struct TempBrowser {
        browser: ProvenanceBrowser,
        dir: PathBuf,
    }
    impl TempBrowser {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "bp-query-lin-{tag}-{}-{:?}",
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

    /// The §2.4 drive-by: familiar forum (visited 5×) → shortener →
    /// unfamiliar host → malware download; the host later serves another
    /// download.
    fn driveby(tag: &str) -> (TempBrowser, String) {
        let mut tb = TempBrowser::new(tag);
        let b = &mut tb.browser;
        b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        for i in 0..5 {
            b.ingest(&BrowserEvent::navigate(
                t(1 + i),
                TabId(0),
                "http://forum/",
                Some("Codec Forum"),
                NavigationCause::Typed,
            ))
            .unwrap();
        }
        b.ingest(&BrowserEvent::navigate(
            t(10),
            TabId(0),
            "http://short/x",
            None,
            NavigationCause::Link,
        ))
        .unwrap();
        b.ingest(&BrowserEvent::navigate(
            t(11),
            TabId(0),
            "http://sketchy-host/get",
            Some("FREE CODECS"),
            NavigationCause::Redirect { status: 302 },
        ))
        .unwrap();
        b.ingest(&BrowserEvent::new(
            t(12),
            EventKind::Download {
                tab: TabId(0),
                path: "/dl/malware.exe".to_owned(),
                bytes: 666,
            },
        ))
        .unwrap();
        b.ingest(&BrowserEvent::new(
            t(13),
            EventKind::Download {
                tab: TabId(0),
                path: "/dl/toolbar.exe".to_owned(),
                bytes: 999,
            },
        ))
        .unwrap();
        (tb, "/dl/malware.exe".to_owned())
    }

    #[test]
    fn finds_the_download_node() {
        let (tb, path) = driveby("find");
        assert!(find_download(&tb.browser, &path).is_some());
        assert!(find_download(&tb.browser, "/nope").is_none());
    }

    #[test]
    fn first_recognizable_ancestor_is_the_forum() {
        let (tb, path) = driveby("recognizable");
        let dl = find_download(&tb.browser, &path).unwrap();
        let answer =
            first_recognizable_ancestor(&tb.browser, dl, &LineageConfig::default()).unwrap();
        assert_eq!(answer.url, "http://forum/");
        assert!(answer.visit_count >= 3);
        // The path walks download → host → shortener → forum.
        assert!(answer.path.hops() >= 3);
        assert_eq!(answer.path.nodes.first(), Some(&dl));
    }

    #[test]
    fn unrecognizable_history_returns_none() {
        let (tb, path) = driveby("none");
        let dl = find_download(&tb.browser, &path).unwrap();
        let config = LineageConfig {
            recognizable_visits: 100,
            ..LineageConfig::default()
        };
        assert!(first_recognizable_ancestor(&tb.browser, dl, &config).is_none());
    }

    #[test]
    fn full_lineage_reaches_the_forum() {
        let (tb, path) = driveby("full");
        let dl = find_download(&tb.browser, &path).unwrap();
        let (lineage, truncated) = full_lineage(&tb.browser, dl, &Budget::new());
        assert!(!truncated);
        let urls: Vec<&str> = lineage.iter().map(|(_, u)| u.as_str()).collect();
        assert!(urls.contains(&"http://forum/"));
        assert!(urls.contains(&"http://sketchy-host/get"));
        assert!(urls.contains(&"http://short/x"));
    }

    #[test]
    fn descendants_of_untrusted_page_lists_all_its_downloads() {
        let (tb, _) = driveby("descendants");
        let (downloads, truncated) =
            downloads_descending_from(&tb.browser, "http://sketchy-host/get", &Budget::new());
        assert!(!truncated);
        let paths: Vec<&str> = downloads.iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(paths, vec!["/dl/malware.exe", "/dl/toolbar.exe"]);
        // The forum itself also transitively led to them.
        let (from_forum, _) =
            downloads_descending_from(&tb.browser, "http://forum/", &Budget::new());
        assert_eq!(from_forum.len(), 2);
        // An unknown URL yields nothing.
        let (unknown, truncated) =
            downloads_descending_from(&tb.browser, "http://x/", &Budget::new());
        assert!(unknown.is_empty() && !truncated);
    }

    #[test]
    fn frozen_search_matches_live_exactly() {
        // The walk reads the snapshot, but the answer's path names live
        // edges: each hop is the live causal edge from one path node to
        // the next.
        let (tb, path) = driveby("frozenlive");
        let b = &tb.browser;
        let dl = find_download(b, &path).unwrap();
        let answer = first_recognizable_ancestor(b, dl, &LineageConfig::default()).unwrap();
        let hops = &answer.path;
        assert_eq!(hops.nodes.len(), hops.edges.len() + 1);
        for (pair, &eid) in hops.nodes.windows(2).zip(&hops.edges) {
            let edge = b.graph().edge(eid).unwrap();
            assert_eq!((edge.src(), edge.dst()), (pair[0], pair[1]));
            assert!(edge.kind().is_causal());
        }
    }

    #[test]
    fn stale_snapshot_falls_back_to_the_live_walk() {
        let (mut tb, path) = driveby("stale");
        let dl = find_download(&tb.browser, &path).unwrap();
        let frozen = tb.browser.frozen();
        // Mutate after the snapshot: its epoch is now behind the graph's.
        tb.browser
            .ingest(&BrowserEvent::navigate(
                t(20),
                TabId(0),
                "http://later/",
                None,
                NavigationCause::Typed,
            ))
            .unwrap();
        assert_ne!(frozen.epoch(), tb.browser.graph().epoch());
        // The query entry point still answers correctly over the
        // refreshed snapshot.
        let answer =
            first_recognizable_ancestor(&tb.browser, dl, &LineageConfig::default()).unwrap();
        assert_eq!(answer.url, "http://forum/");
    }

    #[test]
    fn budget_bounds_the_walk() {
        let (tb, path) = driveby("budget");
        let dl = find_download(&tb.browser, &path).unwrap();
        let config = LineageConfig {
            budget: Budget::new().with_max_nodes(2),
            ..LineageConfig::default()
        };
        // The forum is >2 nodes away, so the bounded query gives up.
        assert!(first_recognizable_ancestor(&tb.browser, dl, &config).is_none());
        let (lineage, truncated) = full_lineage(&tb.browser, dl, &Budget::new().with_max_nodes(2));
        assert!(truncated);
        assert!(lineage.len() <= 2);
    }
}
