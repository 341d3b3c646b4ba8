//! Executor for the provenance query language.

use super::ast::{Filter, Query, Selector, Shape};
use crate::scope::Scope;
use bp_core::ProvenanceBrowser;
use bp_graph::traverse::{self, Budget, Direction};
use bp_graph::{EdgeKind, NodeId, NodeKind};
use bp_obs::names;
use core::fmt;
use std::time::Duration;

/// An execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Human-readable description.
    pub message: String,
}

impl ExecError {
    fn new(message: impl Into<String>) -> Self {
        ExecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query execution error: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

/// One result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The node.
    pub node: NodeId,
    /// Node kind.
    pub kind: NodeKind,
    /// Node key.
    pub key: String,
    /// Hop depth from the traversal start (0 for scans).
    pub depth: usize,
}

/// Query output.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    /// Result rows, in traversal/scan order.
    pub rows: Vec<Row>,
    /// Wall-clock the execution took.
    pub elapsed: Duration,
    /// `true` if the budget stopped the traversal early.
    pub truncated: bool,
}

fn resolve(browser: &ProvenanceBrowser, selector: &Selector) -> Result<NodeId, ExecError> {
    match selector {
        Selector::Id(id) => {
            let node = NodeId::new(*id);
            browser
                .graph()
                .node(node)
                .map_err(|e| ExecError::new(e.to_string()))?;
            Ok(node)
        }
        Selector::Key(key) => browser
            .graph()
            .nodes_with_key(key)
            .last()
            .copied()
            .ok_or_else(|| ExecError::new(format!("no node with key {key:?}"))),
        Selector::LatestVisit(url) => browser
            .graph()
            .latest_version_of(NodeKind::PageVisit, url)
            .map(|(id, _)| id)
            .ok_or_else(|| ExecError::new(format!("no visits of {url:?}"))),
    }
}

fn passes(browser: &ProvenanceBrowser, filters: &[Filter], row: &Row) -> bool {
    filters.iter().all(|f| match f {
        Filter::Kind(kind) => row.kind == *kind,
        Filter::KeyContains(needle) => row.key.contains(needle.as_str()),
        Filter::Visits(cmp, n) => cmp.test(browser.visit_count(&row.key), *n),
        Filter::DepthLe(d) => row.depth <= *d,
    })
}

/// Executes `query` against the browser's provenance store under `budget`.
///
/// # Errors
///
/// Returns [`ExecError`] when a selector resolves to nothing.
pub fn execute(
    browser: &ProvenanceBrowser,
    query: &Query,
    budget: &Budget,
) -> Result<Rows, ExecError> {
    // The query language has no EXPLAIN plan.
    let scope = Scope::open(
        browser.obs(),
        "query.ql",
        None,
        names::QUERY_QL_LATENCY_US,
        budget,
    );
    // Selector resolution can fail mid-shape; running it behind this
    // boundary keeps the `?` early returns from skipping the scope's end
    // (errored requests are always retained by the tail sampler).
    match execute_shape(browser, query, scope.budget()) {
        Ok((rows, truncated)) => Ok(Rows {
            rows,
            elapsed: scope.finish(truncated),
            truncated,
        }),
        Err(e) => {
            scope.fail();
            Err(e)
        }
    }
}

/// The shape match itself: resolves selectors (fallibly), traverses, and
/// applies filters and the limit. Returns `(rows, truncated)`.
fn execute_shape(
    browser: &ProvenanceBrowser,
    query: &Query,
    budget: &Budget,
) -> Result<(Vec<Row>, bool), ExecError> {
    let graph = browser.graph();
    let mut truncated = false;
    let candidates: Vec<Row> = match &query.shape {
        Shape::Ancestors(sel) | Shape::Descendants(sel) => {
            let node = resolve(browser, sel)?;
            let direction = if matches!(query.shape, Shape::Ancestors(_)) {
                Direction::Ancestors
            } else {
                Direction::Descendants
            };
            let walk = traverse::bfs(
                &browser.frozen(),
                node,
                direction,
                EdgeKind::is_causal,
                budget,
            );
            truncated = walk.truncated;
            walk.reached
                .iter()
                .skip(1) // the start node is not its own ancestor
                .filter_map(|r| {
                    graph.node(r.node).ok().map(|n| Row {
                        node: r.node,
                        kind: n.kind(),
                        key: n.key().to_owned(),
                        depth: r.depth,
                    })
                })
                .collect()
        }
        Shape::Path(a, b) => {
            let from = resolve(browser, a)?;
            let to = resolve(browser, b)?;
            // The shortest causal path up the lineage, else down it; both
            // walks spend the query's one deadline.
            let frozen = browser.frozen();
            let mut path = None;
            for direction in [Direction::Ancestors, Direction::Descendants] {
                let walk = traverse::bfs(&frozen, from, direction, EdgeKind::is_causal, budget);
                truncated |= walk.truncated;
                path = walk.path_to(&frozen, to);
                if path.is_some() {
                    break;
                }
            }
            match path {
                Some(p) => p
                    .nodes
                    .iter()
                    .enumerate()
                    .filter_map(|(depth, &node)| {
                        graph.node(node).ok().map(|n| Row {
                            node,
                            kind: n.kind(),
                            key: n.key().to_owned(),
                            depth,
                        })
                    })
                    .collect(),
                None => Vec::new(),
            }
        }
        Shape::Nodes => graph
            .nodes()
            .map(|(id, n)| Row {
                node: id,
                kind: n.kind(),
                key: n.key().to_owned(),
                depth: 0,
            })
            .collect(),
        Shape::Overlapping(sel) => {
            let anchor = resolve(browser, sel)?;
            let interval = *graph
                .node(anchor)
                .map_err(|e| ExecError::new(e.to_string()))?
                .interval();
            let mut overlapping: Vec<_> = graph
                .nodes()
                .filter(|&(id, n)| id != anchor && n.interval().overlaps(&interval))
                .collect();
            // The scan yields ascending ids and the sort is stable, so rows
            // come out in (open timestamp, node id) order.
            overlapping.sort_by_key(|(_, n)| n.opened_at());
            overlapping
                .into_iter()
                .map(|(id, n)| Row {
                    node: id,
                    kind: n.kind(),
                    key: n.key().to_owned(),
                    depth: 0,
                })
                .collect()
        }
    };
    let mut rows: Vec<Row> = candidates
        .into_iter()
        .filter(|row| passes(browser, &query.filters, row))
        .collect();
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }
    Ok((rows, truncated))
}

/// Parses and executes a query string in one step.
///
/// # Errors
///
/// Returns the parse error or execution error as a string-flavoured
/// [`ExecError`].
pub fn run(browser: &ProvenanceBrowser, input: &str, budget: &Budget) -> Result<Rows, ExecError> {
    let query = super::parser::parse(input).map_err(|e| ExecError::new(e.to_string()))?;
    execute(browser, &query, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{BrowserEvent, CaptureConfig, EventKind, NavigationCause, TabId};
    use bp_graph::Timestamp;
    use bp_obs::trace;
    use std::path::PathBuf;

    struct TempBrowser {
        browser: ProvenanceBrowser,
        dir: PathBuf,
    }
    impl TempBrowser {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "bp-query-ql-{tag}-{}-{:?}",
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

    fn history(tag: &str) -> TempBrowser {
        let mut tb = TempBrowser::new(tag);
        let b = &mut tb.browser;
        b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        for i in 0..3 {
            b.ingest(&BrowserEvent::navigate(
                t(1 + i),
                TabId(0),
                "http://hub/",
                Some("Hub"),
                NavigationCause::Typed,
            ))
            .unwrap();
        }
        b.ingest(&BrowserEvent::navigate(
            t(10),
            TabId(0),
            "http://leaf/",
            Some("Leaf"),
            NavigationCause::Link,
        ))
        .unwrap();
        b.ingest(&BrowserEvent::new(
            t(11),
            EventKind::Download {
                tab: TabId(0),
                path: "/dl/file.zip".to_owned(),
                bytes: 10,
            },
        ))
        .unwrap();
        tb
    }

    #[test]
    fn descendants_with_type_filter() {
        let tb = history("desc");
        let rows = run(
            &tb.browser,
            "descendants(url = \"http://hub/\") where type = download",
            &Budget::new(),
        )
        .unwrap();
        assert_eq!(rows.rows.len(), 1);
        assert_eq!(rows.rows[0].key, "/dl/file.zip");
    }

    #[test]
    fn ancestors_with_visit_filter_finds_recognizable_page() {
        let tb = history("anc");
        let dl = tb.browser.graph().nodes_with_key("/dl/file.zip")[0];
        let rows = run(
            &tb.browser,
            &format!(
                "ancestors(#{}) where type = visit and visits >= 3 limit 1",
                dl.index()
            ),
            &Budget::new(),
        )
        .unwrap();
        assert_eq!(rows.rows.len(), 1);
        assert_eq!(rows.rows[0].key, "http://hub/");
    }

    #[test]
    fn nodes_scan_with_contains() {
        let tb = history("scan");
        let rows = run(
            &tb.browser,
            "nodes where key contains \"hub\"",
            &Budget::new(),
        )
        .unwrap();
        // 3 visit versions + 1 page object.
        assert_eq!(rows.rows.len(), 4);
    }

    #[test]
    fn path_between_download_and_hub() {
        let tb = history("path");
        let dl = tb.browser.graph().nodes_with_key("/dl/file.zip")[0];
        let rows = run(
            &tb.browser,
            &format!("path(#{}, latest('http://hub/'))", dl.index()),
            &Budget::new(),
        )
        .unwrap();
        assert!(rows.rows.len() >= 3, "download → leaf → hub");
        assert_eq!(rows.rows.first().unwrap().key, "/dl/file.zip");
        assert_eq!(rows.rows.last().unwrap().key, "http://hub/");
        // Depths count along the path.
        assert_eq!(rows.rows[0].depth, 0);
    }

    #[test]
    fn overlapping_finds_a_page_open_in_another_tab() {
        let mut tb = history("overlap");
        let b = &mut tb.browser;
        // A second tab opened while leaf is current.
        b.ingest(&BrowserEvent::tab_opened(t(20), TabId(1), None))
            .unwrap();
        b.ingest(&BrowserEvent::navigate(
            t(21),
            TabId(1),
            "http://side/",
            Some("Side"),
            NavigationCause::Typed,
        ))
        .unwrap();
        let rows = run(
            &tb.browser,
            "overlapping(latest('http://side/')) where type = visit",
            &Budget::new(),
        )
        .unwrap();
        let keys: Vec<&str> = rows.rows.iter().map(|r| r.key.as_str()).collect();
        assert!(keys.contains(&"http://leaf/"), "{keys:?}");
    }

    #[test]
    fn depth_filter_and_limit() {
        let tb = history("depth");
        let dl = tb.browser.graph().nodes_with_key("/dl/file.zip")[0];
        let all = run(
            &tb.browser,
            &format!("ancestors(#{})", dl.index()),
            &Budget::new(),
        )
        .unwrap();
        let shallow = run(
            &tb.browser,
            &format!("ancestors(#{}) where depth <= 1", dl.index()),
            &Budget::new(),
        )
        .unwrap();
        assert!(shallow.rows.len() < all.rows.len());
        let limited = run(
            &tb.browser,
            &format!("ancestors(#{}) limit 2", dl.index()),
            &Budget::new(),
        )
        .unwrap();
        assert_eq!(limited.rows.len(), 2);
    }

    #[test]
    fn errors_for_unknown_targets() {
        let tb = history("errors");
        assert!(run(&tb.browser, "ancestors(#9999)", &Budget::new()).is_err());
        assert!(run(
            &tb.browser,
            "ancestors(url = 'http://nope/')",
            &Budget::new()
        )
        .is_err());
        assert!(run(&tb.browser, "not a query", &Budget::new()).is_err());
        assert!(run(
            &tb.browser,
            "overlapping(latest('http://nope/'))",
            &Budget::new()
        )
        .is_err());
    }

    #[test]
    fn errors_still_close_the_span_and_reach_the_sampler() {
        // Regression: selector-resolution `?` returns used to drop the
        // root span without finishing it (no elapsed, no tail-sampler
        // offer). Errored runs must now close `query.ql` and land in the
        // process-wide sampler as always-kept `error` records.
        let tb = history("errspan");
        trace::set_enabled(true);
        let _ = trace::take_roots();
        let err = run(&tb.browser, "ancestors(#9999)", &Budget::new());
        let roots = trace::take_roots();
        trace::set_enabled(false);
        assert!(err.is_err());
        assert!(
            roots.iter().any(|r| r.name == "query.ql"),
            "error path must still close the root span: {roots:?}"
        );
        let retained = bp_obs::sampler::global().retained();
        assert!(
            retained
                .iter()
                .any(|r| r.path == "ql" && r.outcome == bp_obs::sampler::TraceOutcome::Error),
            "errored request must be retained by the tail sampler"
        );
    }

    #[test]
    fn unreachable_path_yields_no_rows() {
        let mut tb = history("nopath");
        let b = &mut tb.browser;
        b.ingest(&BrowserEvent::tab_opened(t(30), TabId(2), None))
            .unwrap();
        b.ingest(&BrowserEvent::navigate(
            t(31),
            TabId(2),
            "http://island/",
            None,
            NavigationCause::Typed,
        ))
        .unwrap();
        // Disable overlap edges? They connect tabs; use a node unrelated
        // causally: the island visit is connected only via overlap, which
        // path() ignores (causal edges only).
        let rows = run(
            &tb.browser,
            "path(latest('http://island/'), url = '/dl/file.zip')",
            &Budget::new(),
        )
        .unwrap();
        assert!(rows.rows.is_empty());
    }
}
