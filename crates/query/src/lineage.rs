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
use bp_graph::traverse::{self, AncestorSearch, Budget, Direction, Path};
use bp_graph::{NodeId, NodeKind};
use bp_obs::profile::QueryPlan;
use bp_obs::trace;
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

/// BFS over the causal out-rows of the browser's current
/// [`bp_graph::frozen::FrozenGraph`] snapshot: the CSR twin of
/// [`traverse::first_ancestor_where_observed`], with identical visit
/// order, budget semantics, and work accounting. Walking contiguous CSR
/// rows replaces the live graph's per-hop edge-arena lookups, so the
/// steady-state lineage query stops pointer-chasing.
///
/// The snapshot comes from [`ProvenanceBrowser::frozen`] under the same
/// borrow as the live graph, so both views are the same graph; the live
/// graph is only consulted to resolve path [`bp_graph::EdgeId`]s after
/// the walk. A `start` outside the graph finds nothing.
pub fn frozen_ancestor_search(
    browser: &ProvenanceBrowser,
    start: NodeId,
    mut pred: impl FnMut(NodeId) -> bool,
    budget: &Budget,
) -> AncestorSearch {
    let budget = budget.pinned();
    let (graph, frozen) = (browser.graph(), browser.frozen());
    if start.as_usize() >= frozen.node_count() {
        return AncestorSearch::default();
    }
    // (node, depth, BFS-predecessor): the predecessor stands in for the
    // live traversal's `via` edge — the discovering edge is recovered
    // from the live graph only for the final path.
    let mut reached: Vec<(u32, usize, Option<u32>)> = Vec::new();
    let mut seen = vec![false; frozen.node_count()];
    let mut queue = std::collections::VecDeque::new();
    seen[start.as_usize()] = true;
    queue.push_back((start.index(), 0usize, None));
    let mut truncated = false;
    // Mirror the live BFS's check order exactly (max_nodes, then
    // deadline, then record, then depth) so both paths truncate at the
    // same node for the same budget.
    while let Some((node, depth, pred_node)) = queue.pop_front() {
        if let Some(max) = budget.max_nodes() {
            if reached.len() >= max {
                truncated = true;
                break;
            }
        }
        if budget.expired() {
            truncated = true;
            break;
        }
        reached.push((node, depth, pred_node));
        if let Some(max_depth) = budget.max_depth() {
            if depth >= max_depth {
                continue;
            }
        }
        for (target, kind) in frozen.out_edges_of(node) {
            if !kind.is_causal() {
                continue;
            }
            if !seen[target as usize] {
                seen[target as usize] = true;
                queue.push_back((target, depth + 1, Some(node)));
            }
        }
    }
    let edges_touched = reached.iter().filter(|r| r.2.is_some()).count();
    // "First ancestor" is a proper ancestor: skip the start node.
    let hit = reached
        .iter()
        .skip(1)
        .find(|&&(node, _, _)| pred(NodeId::new(node)))
        .map(|&(node, _, _)| node);
    let path = hit.map(|target| {
        let pred_of: std::collections::HashMap<u32, Option<u32>> =
            reached.iter().map(|&(n, _, p)| (n, p)).collect();
        let mut nodes = vec![NodeId::new(target)];
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some(Some(p)) = pred_of.get(&cur).copied() {
            // The BFS discovered `cur` from `p` through p's first causal
            // out-edge targeting it — recover that edge id from the live
            // graph's identically-ordered adjacency.
            let eid = graph
                .out_edges(NodeId::new(p))
                .iter()
                .copied()
                .find(|&eid| {
                    graph
                        .edge(eid)
                        .is_ok_and(|e| e.kind().is_causal() && e.dst() == NodeId::new(cur))
                });
            match eid {
                Some(eid) => edges.push(eid),
                // Both views are one graph, so every discovered hop
                // exists live; stop rebuilding rather than abort.
                None => break,
            }
            nodes.push(NodeId::new(p));
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        Path { nodes, edges }
    });
    AncestorSearch {
        path,
        nodes_touched: reached.len(),
        edges_touched,
        truncated,
    }
}

/// §2.4's path query: the nearest causal ancestor of `download` whose URL
/// the user has visited at least `recognizable_visits` times.
///
/// The walk runs over the browser's CSR snapshot (see
/// [`frozen_ancestor_search`]).
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
        "query.lineage.latency_us",
        &config.budget,
    );
    let graph = browser.graph();
    {
        // The snapshot refresh, if a mutation forced one, under its own
        // stage; the walk below reads the refreshed snapshot.
        let stage = scope.stage("frozen.snapshot");
        let frozen = browser.frozen();
        stage.touched(frozen.node_count(), frozen.edge_count());
    }
    let (found, truncated) = {
        let stage = scope.stage("ancestor_bfs");
        let recognizable = |node: NodeId| {
            graph.node(node).is_ok_and(|n| {
                n.kind() == NodeKind::PageVisit
                    && browser.visit_count(n.key()) >= config.recognizable_visits
            })
        };
        let search = frozen_ancestor_search(browser, download, recognizable, scope.budget());
        stage.touched(search.nodes_touched, search.edges_touched);
        stage.rows(1, usize::from(search.path.is_some()));
        if search.truncated {
            let remaining = graph.node_count().saturating_sub(search.nodes_touched) as u64;
            stage.truncated(remaining);
            trace::note(format!(
                "truncated: budget hit, ~{remaining} ancestors unexplored"
            ));
        }
        let found = search.path.and_then(|path| {
            let ancestor = path.target();
            let url = graph.node(ancestor).ok()?.key().to_owned();
            Some((ancestor, url, path))
        });
        (found, search.truncated)
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
/// download".
pub fn full_lineage(
    browser: &ProvenanceBrowser,
    node: NodeId,
    budget: &Budget,
) -> (Vec<(NodeId, String)>, bool) {
    let graph = browser.graph();
    let traversal = traverse::bfs(
        graph,
        node,
        Direction::Ancestors,
        bp_graph::EdgeKind::is_causal,
        budget,
    );
    let out = traversal
        .reached
        .iter()
        .filter_map(|r| {
            graph
                .node(r.node)
                .ok()
                .map(|n| (r.node, n.key().to_owned()))
        })
        .collect();
    (out, traversal.truncated)
}

/// §2.4's descendant query: every download that descends from any visit
/// of `url` — "if the user decides a page is untrusted, she may then want
/// to find all downloads descending from that page and check them for
/// viruses."
pub fn downloads_descending_from(
    browser: &ProvenanceBrowser,
    url: &str,
    budget: &Budget,
) -> Vec<(NodeId, String)> {
    let graph = browser.graph();
    let mut out: Vec<(NodeId, String)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    // A URL with many visits runs one BFS per visit; all of them spend
    // the one deadline pinned here, which bounds the whole query.
    let budget = budget.pinned();
    for &start in browser.graph().nodes_with_key(url) {
        if budget.expired() {
            break;
        }
        let traversal = traverse::bfs(
            graph,
            start,
            Direction::Descendants,
            bp_graph::EdgeKind::is_causal,
            &budget,
        );
        for r in &traversal.reached {
            if !seen.insert(r.node) {
                continue;
            }
            if let Ok(n) = graph.node(r.node) {
                if n.kind() == NodeKind::Download {
                    out.push((r.node, n.key().to_owned()));
                }
            }
        }
    }
    out.sort_by_key(|a| a.0);
    out
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
        let downloads =
            downloads_descending_from(&tb.browser, "http://sketchy-host/get", &Budget::new());
        let paths: Vec<&str> = downloads.iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(paths, vec!["/dl/malware.exe", "/dl/toolbar.exe"]);
        // The forum itself also transitively led to them.
        let from_forum = downloads_descending_from(&tb.browser, "http://forum/", &Budget::new());
        assert_eq!(from_forum.len(), 2);
        // An unknown URL yields nothing.
        assert!(downloads_descending_from(&tb.browser, "http://x/", &Budget::new()).is_empty());
    }

    #[test]
    fn frozen_search_matches_live_exactly() {
        let (tb, path) = driveby("frozenlive");
        let b = &tb.browser;
        let dl = find_download(b, &path).unwrap();
        let graph = b.graph();
        let pred = |node: NodeId| {
            graph
                .node(node)
                .is_ok_and(|n| n.kind() == NodeKind::PageVisit && b.visit_count(n.key()) >= 3)
        };
        for budget in [
            Budget::new(),
            Budget::new().with_max_nodes(2),
            Budget::new().with_max_depth(1),
        ] {
            let from_frozen = frozen_ancestor_search(b, dl, pred, &budget);
            let live = traverse::first_ancestor_where_observed(graph, dl, pred, &budget);
            assert_eq!(from_frozen.path, live.path, "budget {budget:?}");
            assert_eq!(from_frozen.nodes_touched, live.nodes_touched);
            assert_eq!(from_frozen.edges_touched, live.edges_touched);
            assert_eq!(from_frozen.truncated, live.truncated);
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
