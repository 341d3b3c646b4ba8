//! Provenance narratives: "Where did all this stuff come from?"
//!
//! The paper opens with the two questions file systems taught users to
//! ask: "Where did my stuff go?" and "Where did all this stuff come
//! from?" (§1). [`describe_origin`] answers the second one in prose: given
//! any history object, it walks the derivation chain and renders each hop
//! as the user action that caused it — the §2.4 "sequence of actions"
//! made readable.

use crate::scope::Scope;
use bp_core::ProvenanceBrowser;
use bp_graph::frozen::FrozenGraph;
use bp_graph::traverse::Budget;
use bp_graph::{EdgeKind, NodeId, NodeKind};
use bp_obs::names;
use bp_obs::profile::QueryPlan;
use std::fmt::Write as _;

/// EXPLAIN plan for [`describe_origin`].
static DESCRIBE_PLAN: QueryPlan = QueryPlan {
    query: "describe",
    stages: &["resolve", "narrate"],
};

/// Options for [`describe_origin`].
#[derive(Debug, Clone)]
pub struct DescribeConfig {
    /// Maximum hops narrated.
    pub max_steps: usize,
    /// Query budget (its deadline bounds the narration walk, and its clock
    /// times the query).
    pub budget: Budget,
}

impl Default for DescribeConfig {
    fn default() -> Self {
        DescribeConfig {
            max_steps: 12,
            budget: Budget::new(),
        }
    }
}

/// Human verb for an edge kind, phrased from effect to cause.
fn verb(kind: EdgeKind) -> &'static str {
    match kind {
        EdgeKind::Link => "reached by clicking a link on",
        EdgeKind::TypedLocation => "reached by typing its address while on",
        EdgeKind::BookmarkClick => "opened from the bookmark",
        EdgeKind::Redirect => "reached via a redirect from",
        EdgeKind::Embed => "loaded as embedded content of",
        EdgeKind::FormSubmit => "produced by submitting the form",
        EdgeKind::SearchResult => "found through the web search",
        EdgeKind::DownloadFrom => "downloaded from",
        EdgeKind::NewTab => "opened in a new tab from",
        EdgeKind::Reload => "a reload of",
        EdgeKind::BackForward => "revisited (back/forward) from",
        EdgeKind::VersionOf => "a later visit of",
        EdgeKind::InstanceOf => "a visit of the page",
        EdgeKind::TemporalOverlap => "open at the same time as",
        EdgeKind::BookmarkCreated => "bookmarked while viewing",
    }
}

fn label(browser: &ProvenanceBrowser, node: NodeId) -> String {
    match browser.graph().node(node) {
        Ok(n) => {
            let what = match n.kind() {
                NodeKind::SearchTerm => format!("the search \"{}\"", n.key()),
                NodeKind::Download => format!("the file {}", n.key()),
                NodeKind::Bookmark => format!("the bookmark for {}", n.key()),
                NodeKind::FormEntry => format!("the form entry ({})", n.key()),
                NodeKind::Tab => "a new tab".to_owned(),
                _ => n.key().to_owned(),
            };
            match n.attrs().get_str("title") {
                Some(title) => format!("{what} (\"{title}\")"),
                None => what,
            }
        }
        Err(_) => node.to_string(),
    }
}

/// How narratively useful a derivation of this kind is, best first: user
/// actions outrank automatic bookkeeping.
fn rank(kind: EdgeKind) -> u8 {
    match kind {
        k if k.is_user_action() => 0,
        EdgeKind::Redirect | EdgeKind::Embed => 1,
        EdgeKind::VersionOf => 3,
        _ => 2,
    }
}

/// Picks the most narratively useful derivation of a node by [`rank`],
/// the first of equal rank in the order of the live graph's parent list,
/// which the snapshot's forward row keeps; temporal overlap is never a
/// derivation.
///
/// A hub node's in-degree is unbounded (a page revisited thousands of
/// times has that many parent edges), so the scan is deadline-checked:
/// when time runs out it returns the best edge found so far and `true`.
fn narrative_parent(
    frozen: &FrozenGraph,
    node: NodeId,
    budget: &Budget,
) -> (Option<(NodeId, EdgeKind)>, bool) {
    let mut best: Option<(NodeId, EdgeKind)> = None;
    for (parent, kind) in frozen.out_edges_of(node.index()) {
        if budget.expired() {
            return (best, true);
        }
        if !kind.is_causal() {
            continue;
        }
        match best {
            Some((_, current)) if rank(current) <= rank(kind) => {}
            _ => best = Some((NodeId::new(parent), kind)),
        }
    }
    (best, false)
}

/// Narrates how the newest object with `key` came to be, one line per
/// derivation hop, oldest cause last.
///
/// Returns `None` if nothing in history carries `key`.
pub fn describe_origin(
    browser: &ProvenanceBrowser,
    key: &str,
    config: &DescribeConfig,
) -> Option<String> {
    let scope = Scope::open(
        browser.obs(),
        "query.describe",
        Some(&DESCRIBE_PLAN),
        names::QUERY_DESCRIBE_LATENCY_US,
        &config.budget,
    );
    let budget = scope.budget();
    let resolved = {
        let stage = scope.stage("resolve");
        let found = browser.graph().nodes_with_key(key).last().copied();
        stage.rows(1, usize::from(found.is_some()));
        found
    };
    let Some(start) = resolved else {
        scope.finish(false);
        return None;
    };
    let stage = scope.stage("narrate");
    let frozen = browser.frozen();
    let mut out = String::new();
    let _ = writeln!(out, "{}", label(browser, start));
    let mut current = start;
    let mut steps = 0;
    let mut bounded = false;
    while steps < config.max_steps {
        if budget.expired() {
            bounded = true;
            break;
        }
        let (pick, cut) = narrative_parent(&frozen, current, budget);
        let Some((parent, kind)) = pick else {
            // A scan the deadline cut short may have missed a parent.
            bounded = cut;
            break;
        };
        // Skip the instance_of hop's page object in the narrative: the
        // chain continues from the visit's real cause if one exists.
        let _ = writeln!(out, "  … {} {}", verb(kind), label(browser, parent));
        current = parent;
        steps += 1;
    }
    if bounded {
        let remaining = (config.max_steps - steps) as u64;
        stage.truncated(remaining, "deadline hit", "hops unnarrated");
    }
    // When the deadline bounded the walk we already know hops went
    // unnarrated (and the expired deadline would cut the re-scan short
    // anyway); only the step-cap case needs to probe for a further parent.
    if bounded
        || (steps == config.max_steps && narrative_parent(&frozen, current, budget).0.is_some())
    {
        let _ = writeln!(out, "  … (chain continues)");
    }
    stage.rows(1, steps);
    stage.touched(steps + 1, steps);
    drop(stage);
    scope.finish(bounded);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{BrowserEvent, CaptureConfig, EventKind, NavigationCause, TabId};
    use bp_graph::{Node, ProvenanceGraph, Timestamp};
    use proptest::prelude::*;
    use std::path::PathBuf;

    struct TempBrowser {
        browser: ProvenanceBrowser,
        dir: PathBuf,
    }
    impl TempBrowser {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "bp-query-desc-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            // A private registry per test, so metric counts are exact.
            let browser = ProvenanceBrowser::open_with_obs(
                &dir,
                CaptureConfig::default(),
                bp_storage::SyncPolicy::default(),
                bp_obs::Obs::isolated(),
            )
            .unwrap();
            TempBrowser { browser, dir }
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

    #[test]
    fn narrates_a_download_chain() {
        let mut tb = TempBrowser::new("chain");
        let b = &mut tb.browser;
        b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        b.ingest(&BrowserEvent::navigate(
            t(1),
            TabId(0),
            "http://se/?q=codec",
            Some("codec — search"),
            NavigationCause::SearchQuery {
                query: "codec".to_owned(),
            },
        ))
        .unwrap();
        b.ingest(&BrowserEvent::navigate(
            t(2),
            TabId(0),
            "http://host/get",
            Some("Free Codecs"),
            NavigationCause::Link,
        ))
        .unwrap();
        b.ingest(&BrowserEvent::new(
            t(3),
            EventKind::Download {
                tab: TabId(0),
                path: "/dl/codec.exe".to_owned(),
                bytes: 1,
            },
        ))
        .unwrap();

        let story = describe_origin(&tb.browser, "/dl/codec.exe", &DescribeConfig::default())
            .expect("the download is in history");
        assert!(story.starts_with("the file /dl/codec.exe"), "{story}");
        assert!(story.contains("downloaded from"), "{story}");
        assert!(story.contains("http://host/get"), "{story}");
        assert!(story.contains("clicking a link on"), "{story}");
        assert!(story.contains("found through the web search"), "{story}");
        assert!(story.contains("the search \"codec\""), "{story}");
    }

    #[test]
    fn unknown_keys_yield_none() {
        let tb = TempBrowser::new("none");
        let config = DescribeConfig {
            budget: Budget::new().with_deadline(std::time::Duration::from_secs(60)),
            ..DescribeConfig::default()
        };
        assert!(describe_origin(&tb.browser, "/nope", &config).is_none());
        // A miss on the key is still a query: timed and counted once.
        let obs = tb.browser.obs();
        assert_eq!(obs.histogram(names::QUERY_DESCRIBE_LATENCY_US).count(), 1);
        assert_eq!(obs.counter(names::QUERY_DEADLINE_HIT).get(), 1);
    }

    #[test]
    fn step_cap_truncates_with_a_marker() {
        let mut tb = TempBrowser::new("cap");
        let b = &mut tb.browser;
        b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        for i in 0..20 {
            b.ingest(&BrowserEvent::navigate(
                t(i + 1),
                TabId(0),
                format!("http://p{i}/"),
                None,
                NavigationCause::Link,
            ))
            .unwrap();
        }
        let config = DescribeConfig {
            max_steps: 3,
            ..DescribeConfig::default()
        };
        let story = describe_origin(&tb.browser, "http://p19/", &config).unwrap();
        assert!(story.contains("(chain continues)"), "{story}");
        assert_eq!(story.lines().count(), 1 + 3 + 1);
    }

    #[test]
    fn user_actions_outrank_bookkeeping_in_the_narrative() {
        let mut tb = TempBrowser::new("rank");
        let b = &mut tb.browser;
        b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        b.ingest(&BrowserEvent::navigate(
            t(1),
            TabId(0),
            "http://a/",
            None,
            NavigationCause::Typed,
        ))
        .unwrap();
        b.ingest(&BrowserEvent::navigate(
            t(2),
            TabId(0),
            "http://b/",
            None,
            NavigationCause::Link,
        ))
        .unwrap();
        // The b-visit has both instance_of (page object) and Link parents;
        // the narrative must choose the Link.
        let story = describe_origin(&tb.browser, "http://b/", &DescribeConfig::default()).unwrap();
        let first_hop = story.lines().nth(1).unwrap();
        assert!(first_hop.contains("clicking a link on"), "{story}");
    }

    proptest! {
        /// Over random graphs with every edge kind and parallel edges, the
        /// pick from each node's snapshot row equals the pick from its
        /// live parent list: the best rank, the first of equal rank.
        #[test]
        fn parent_pick_matches_a_live_parents_scan(
            links in prop::collection::vec((any::<u16>(), any::<u16>(), 0u8..15), 0..150),
        ) {
            let mut g = ProvenanceGraph::new();
            for i in 0..30 {
                g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i)));
            }
            // Each link between two distinct nodes, from the newer to the
            // older, added by source.
            let mut links: Vec<(u32, u32, u8)> = links
                .iter()
                .map(|&(a, b, k)| (u32::from(a % 30), u32::from(b % 30), k))
                .filter(|&(a, b, _)| a != b)
                .map(|(a, b, k)| (a.max(b), a.min(b), k))
                .collect();
            links.sort_by_key(|&(src, _, _)| src);
            for (src, dst, k) in links {
                let kind = EdgeKind::from_code(k).unwrap_or(EdgeKind::Link);
                g.add_edge(NodeId::new(src), NodeId::new(dst), kind, t(0))
                    .unwrap();
            }
            let frozen = FrozenGraph::build(&g);
            for node in g.node_ids() {
                let live = g.parents(node).fold(None, |best, (eid, parent)| {
                    let kind = g.edge(eid).unwrap().kind();
                    match best {
                        _ if !kind.is_causal() => best,
                        Some((_, current)) if rank(current) <= rank(kind) => best,
                        _ => Some((parent, kind)),
                    }
                });
                let picked = narrative_parent(&frozen, node, &Budget::new());
                prop_assert_eq!(picked, (live, false));
            }
        }
    }
}
