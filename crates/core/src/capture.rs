//! The capture layer: browser events → provenance graph updates.
//!
//! This is the paper's §3 taxonomy, executable. Every [`BrowserEvent`]
//! becomes nodes and typed derives-from edges in the [`ProvenanceStore`]:
//! navigations create versioned visit instances (§3.1), closes stamp the
//! missing end of each open interval (§3.2), and bookmarks, search terms,
//! forms, and downloads become first-class nodes (§3.3) — "a single,
//! homogeneous provenance graph store that describes and relates every kind
//! of history object" (§3.4).
//!
//! [`CaptureConfig`] selects which relationships are recorded. The default
//! records everything the paper advocates; [`CaptureConfig::firefox_like`]
//! drops the relationships §3.2 calls "second-class citizens" — it is the
//! baseline for ablation A4 (and reproduces the paper's irony that a heavy
//! smart-location-bar user "will generate sparsely connected metadata").

use crate::error::{CoreError, CoreResult};
use crate::event::{BrowserEvent, EventKind, NavigationCause, TabId};
use bp_graph::{AttrValue, EdgeKind, NodeId, NodeKind, Timestamp};
use bp_obs::{names, Counter, Histogram};
use bp_storage::ProvenanceStore;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which relationships and objects the capture layer records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureConfig {
    /// Record typed-location navigations as edges (§3.2).
    pub record_typed_location: bool,
    /// Record new-tab opener relationships (§3.2).
    pub record_new_tab: bool,
    /// Record temporal-overlap edges between simultaneously open pages
    /// (§3.2).
    pub record_temporal_overlap: bool,
    /// Record close timestamps for pages and tabs (§3.2).
    pub record_close: bool,
    /// Record search terms as nodes with lineage edges (§3.3).
    pub record_search_terms: bool,
    /// Record form submissions as nodes (§3.3).
    pub record_form_entries: bool,
    /// Maintain logical Page objects with `instance_of` edges from visits.
    pub record_page_objects: bool,
    /// Cap on temporal-overlap edges emitted per navigation (bounds the
    /// quadratic blowup of a user with very many open tabs).
    pub max_overlap_edges: usize,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            record_typed_location: true,
            record_new_tab: true,
            record_temporal_overlap: true,
            record_close: true,
            record_search_terms: true,
            record_form_entries: true,
            record_page_objects: true,
            // One materialized association per navigation (to the
            // lowest-numbered other open tab showing a page, so replays
            // produce the same graph). The interval index answers the
            // full overlap relation from close records; materializing
            // O(open tabs) edges per navigation would dominate the store
            // (§3.2's relationships should cost tens of percent, not 3x).
            max_overlap_edges: 1,
        }
    }
}

impl CaptureConfig {
    /// The full provenance-aware configuration (everything on).
    pub fn provenance_aware() -> Self {
        Self::default()
    }

    /// What the paper's §4 prototype plausibly stored: every §3.3 object
    /// (search terms, forms, bookmarks, downloads) and every navigation
    /// relationship including typed/new-tab, with close timestamps for
    /// time queries — but no *materialized* temporal-overlap edges (time
    /// relationships are evaluated from the visit intervals instead).
    /// Experiment E1 measures the 39.5% storage-overhead claim under this
    /// configuration.
    pub fn paper_prototype() -> Self {
        CaptureConfig {
            record_temporal_overlap: false,
            max_overlap_edges: 0,
            ..Self::default()
        }
    }

    /// What today's browsers record (§3): referrer-style link, redirect,
    /// and embed relationships plus bookmark/download objects — but none of
    /// the second-class relationships.
    pub fn firefox_like() -> Self {
        CaptureConfig {
            record_typed_location: false,
            record_new_tab: false,
            record_temporal_overlap: false,
            record_close: false,
            record_search_terms: false,
            record_form_entries: false,
            record_page_objects: true,
            max_overlap_edges: 0,
        }
    }
}

#[derive(Debug)]
struct TabState {
    /// The Tab node representing this tab session.
    node: NodeId,
    /// The tab's current page visit.
    current: Option<NodeId>,
    /// Current visit of the opener tab at open time, consumed by the
    /// first navigation (the NewTab relationship).
    opener_visit: Option<NodeId>,
}

/// What an event produced, for callers that index or report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CaptureOutcome {
    /// The main node the event created (visit, download, bookmark, …).
    pub primary: Option<NodeId>,
    /// Edges added by this event.
    pub edges_added: usize,
}

/// Translates [`BrowserEvent`]s into provenance store mutations.
#[derive(Debug)]
pub struct CaptureEngine {
    store: ProvenanceStore,
    config: CaptureConfig,
    /// Open tabs, ordered by id so the temporal-overlap partner a
    /// navigation picks (the lowest other open tab) is deterministic.
    tabs: BTreeMap<TabId, TabState>,
    tab_counter: u64,
    /// Hot-path metric handles (resolved once; `handle` runs per event).
    events_total: Arc<Counter>,
    events_rejected: Arc<Counter>,
    edges_added: Arc<Counter>,
    batch_ops: Arc<Histogram>,
}

impl CaptureEngine {
    /// Wraps a store with the given configuration. Bookmarks, search
    /// terms and pages are found through the graph's key table (the
    /// newest node of the kind under a key), so the recovered graph needs
    /// no rebuild beyond counting tabs. Tab state is not persisted: like a
    /// real browser restart, previously open tabs are gone.
    pub fn new(store: ProvenanceStore, config: CaptureConfig) -> Self {
        let obs = store.obs().clone();
        let tab_counter = store.graph().nodes_of_kind(NodeKind::Tab).count() as u64;
        CaptureEngine {
            store,
            config,
            tabs: BTreeMap::new(),
            tab_counter,
            events_total: obs.counter(names::CAPTURE_EVENTS_TOTAL),
            events_rejected: obs.counter(names::CAPTURE_EVENTS_REJECTED),
            edges_added: obs.counter(names::CAPTURE_EDGES_ADDED),
            batch_ops: obs.histogram(names::CAPTURE_BATCH_OPS),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CaptureConfig {
        &self.config
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &ProvenanceStore {
        &self.store
    }

    /// Mutable access to the underlying store (snapshotting, syncing).
    pub fn store_mut(&mut self) -> &mut ProvenanceStore {
        &mut self.store
    }

    /// Consumes the engine, returning the store.
    pub fn into_store(self) -> ProvenanceStore {
        self.store
    }

    /// Number of times `url` has been visited (versions of its visit
    /// object). The lineage query's "likely to recognize" signal.
    pub fn visit_count(&self, url: &str) -> u32 {
        self.store
            .graph()
            .latest_version_of(NodeKind::PageVisit, url)
            .map_or(0, |(_, v)| v.number() + 1)
    }

    /// Currently open tabs, in id order.
    pub fn open_tabs(&self) -> Vec<TabId> {
        self.tabs.keys().copied().collect()
    }

    /// Redacts every history object whose key (URL, query, file path)
    /// equals `key` — the §4 privacy operation. Content disappears from
    /// the store (and, after the next snapshot, from disk); graph
    /// structure and timestamps are preserved. Redaction clears the key's
    /// newest bookmark, search term and page, so none of them can be
    /// silently reused. Returns the redacted node ids.
    ///
    /// # Errors
    ///
    /// Propagates storage failures; an unknown key is a no-op.
    pub fn redact(&mut self, key: &str) -> CoreResult<Vec<NodeId>> {
        Ok(self.store.redact_key(key)?)
    }

    /// Applies one event to the store.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadEvent`] if the event is inconsistent with browser
    /// state (navigating a tab that is not open, bookmark-click on an
    /// unknown bookmark, download in a tab with no page);
    /// [`CoreError::Storage`] if persistence fails.
    pub fn handle(&mut self, event: &BrowserEvent) -> CoreResult<CaptureOutcome> {
        let at = event.at;
        // All of one event's mutations land in the log as a single atomic
        // frame: recovery replays a navigation with its edges entirely or
        // not at all.
        self.store.begin_batch();
        let outcome = match &event.kind {
            EventKind::TabOpened { tab, opener } => self.on_tab_opened(*tab, *opener, at),
            EventKind::TabClosed { tab } => self.on_tab_closed(*tab, at),
            EventKind::Navigate {
                tab,
                url,
                title,
                cause,
            } => self.on_navigate(*tab, url, title.as_deref(), cause, at),
            EventKind::EmbedLoad { tab, url } => self.on_embed(*tab, url, at),
            EventKind::BookmarkAdd { tab, name } => self.on_bookmark_add(*tab, name, at),
            EventKind::Download { tab, path, bytes } => self.on_download(*tab, path, *bytes, at),
        };
        // Persist whatever was applied even when the event was rejected
        // mid-way (validation happens before mutation, so a rejected event
        // normally applied nothing) — disk must mirror memory either way.
        self.store.commit_batch()?;
        match &outcome {
            Ok(o) => {
                self.events_total.inc();
                self.edges_added.add(o.edges_added as u64);
                // Ops in this event's atomic batch: the primary node (if
                // any) plus its edges — the per-event write amplification.
                self.batch_ops
                    .record(u64::from(o.primary.is_some()) + o.edges_added as u64);
            }
            Err(CoreError::BadEvent(_)) => self.events_rejected.inc(),
            Err(_) => {}
        }
        outcome
    }

    fn tab_state(&self, tab: TabId) -> CoreResult<&TabState> {
        self.tabs
            .get(&tab)
            .ok_or_else(|| CoreError::BadEvent(format!("{tab} is not open")))
    }

    fn on_tab_opened(
        &mut self,
        tab: TabId,
        opener: Option<TabId>,
        at: Timestamp,
    ) -> CoreResult<CaptureOutcome> {
        if self.tabs.contains_key(&tab) {
            return Err(CoreError::BadEvent(format!("{tab} is already open")));
        }
        let opener_visit = match opener {
            Some(o) => self.tab_state(o)?.current,
            None => None,
        };
        self.tab_counter += 1;
        let key = format!("tab:{}#{}", tab.0, self.tab_counter);
        let node = self.store.add_node(NodeKind::Tab, &key, at, &[])?;
        self.tabs.insert(
            tab,
            TabState {
                node,
                current: None,
                opener_visit,
            },
        );
        Ok(CaptureOutcome {
            primary: Some(node),
            edges_added: 0,
        })
    }

    /// Rejects closing `node` at `at` when `at` precedes its open: a host
    /// clock that stepped back (NTP, suspend and resume, an imported
    /// history) is bad input, so the event is rejected before anything is
    /// applied.
    fn check_close(&self, node: NodeId, at: Timestamp) -> CoreResult<()> {
        self.store
            .graph()
            .node(node)
            .and_then(|n| n.interval().check_close(at))
            .map_err(to_bad_event)
    }

    fn on_tab_closed(&mut self, tab: TabId, at: Timestamp) -> CoreResult<CaptureOutcome> {
        let state = self.tab_state(tab)?;
        let closes = if self.config.record_close {
            [state.current, Some(state.node)]
        } else {
            [None, None]
        };
        for &node in closes.iter().flatten() {
            self.check_close(node, at)?;
        }
        self.tabs.remove(&tab);
        for &node in closes.iter().flatten() {
            self.store.close_node(node, at)?;
        }
        Ok(CaptureOutcome::default())
    }

    fn on_navigate(
        &mut self,
        tab: TabId,
        url: &str,
        title: Option<&str>,
        cause: &NavigationCause,
        at: Timestamp,
    ) -> CoreResult<CaptureOutcome> {
        // Resolve and validate everything that can fail *before* mutating.
        let prev = self.tab_state(tab)?.current;
        let bookmark_node = match cause {
            NavigationCause::Bookmark { bookmark_url } => Some(
                self.store
                    .graph()
                    .newest_of_kind(NodeKind::Bookmark, bookmark_url)
                    .ok_or_else(|| {
                        CoreError::BadEvent(format!("unknown bookmark {bookmark_url}"))
                    })?,
            ),
            _ => None,
        };
        if matches!(cause, NavigationCause::Redirect { .. }) && prev.is_none() {
            return Err(CoreError::BadEvent(
                "redirect with no originating page".to_owned(),
            ));
        }
        let close_prev = prev.filter(|_| self.config.record_close);
        if let Some(p) = close_prev {
            self.check_close(p, at)?;
        }

        let mut edges = 0;

        // Close the page being navigated away from (§3.2).
        if let Some(p) = close_prev {
            self.store.close_node(p, at)?;
        }

        // Nodes the visit will derive from are created BEFORE the visit,
        // and each node's edges right after it, so every edge runs from a
        // newer node to an older one in source order: the graph's edge
        // order (see `ProvenanceGraph::check_edge`).
        let page = if self.config.record_page_objects {
            Some(
                match self.store.graph().newest_of_kind(NodeKind::Page, url) {
                    Some(p) => p,
                    None => {
                        // Known title at creation goes straight into the
                        // AddNode record, saving a SetNodeAttr frame.
                        let attrs = title.map(|t| ("title", AttrValue::from(t)));
                        self.store
                            .add_node(NodeKind::Page, url, at, attrs.as_slice())?
                    }
                },
            )
        } else {
            None
        };
        let form = match cause {
            NavigationCause::FormSubmit { fields } if self.config.record_form_entries => {
                let f = self.store.add_node(NodeKind::FormEntry, fields, at, &[])?;
                if let Some(p) = prev {
                    self.store.add_edge(f, p, EdgeKind::FormSubmit, at)?;
                    edges += 1;
                }
                Some(f)
            }
            _ => None,
        };
        let term = match cause {
            NavigationCause::SearchQuery { query } if self.config.record_search_terms => Some(
                match self
                    .store
                    .graph()
                    .newest_of_kind(NodeKind::SearchTerm, query)
                {
                    Some(t) => t,
                    None => self.store.add_node(NodeKind::SearchTerm, query, at, &[])?,
                },
            ),
            _ => None,
        };

        // The visit instance (auto-versioned, §3.1). The title rides in
        // the AddNode record itself — one log frame instead of two.
        let visit = match title {
            Some(t) => {
                self.store
                    .add_visit_with_attrs(url, at, &[("title", AttrValue::from(t))])?
            }
            None => self.store.add_visit(url, at)?,
        };

        // Logical page object + instance_of edge. The page title is only
        // rewritten when it actually changed: revisits are the common case
        // and a same-title SetNodeAttr per revisit is pure log traffic.
        if let Some(page) = page {
            if let Some(t) = title {
                let stale = self
                    .store
                    .graph()
                    .node(page)
                    .is_ok_and(|n| n.attrs().get_str("title") != Some(t));
                if stale {
                    self.store.set_node_attr(page, "title", t)?;
                }
            }
            self.store.add_edge(visit, page, EdgeKind::InstanceOf, at)?;
            edges += 1;
        }

        // The cause relationship.
        match cause {
            NavigationCause::Link => {
                if let Some(p) = prev {
                    self.store.add_edge(visit, p, EdgeKind::Link, at)?;
                    edges += 1;
                }
            }
            NavigationCause::Typed => {
                if self.config.record_typed_location {
                    if let Some(p) = prev {
                        self.store.add_edge(visit, p, EdgeKind::TypedLocation, at)?;
                        edges += 1;
                    }
                }
            }
            NavigationCause::Bookmark { .. } => {
                // Resolved before any mutation; a miss here means the
                // pre-validation above regressed, so degrade to an error
                // rather than aborting the capture thread.
                let Some(b) = bookmark_node else {
                    return Err(CoreError::BadEvent(
                        "bookmark navigation lost its resolved node".to_owned(),
                    ));
                };
                self.store.add_edge(visit, b, EdgeKind::BookmarkClick, at)?;
                edges += 1;
            }
            NavigationCause::Redirect { status } => {
                let Some(p) = prev else {
                    return Err(CoreError::BadEvent(
                        "redirect with no originating page".to_owned(),
                    ));
                };
                self.store.add_edge_with_attrs(
                    visit,
                    p,
                    EdgeKind::Redirect,
                    at,
                    &[("status", AttrValue::Int(i64::from(*status)))],
                )?;
                edges += 1;
            }
            NavigationCause::SearchQuery { .. } => {
                if let Some(term) = term {
                    self.store
                        .add_edge(visit, term, EdgeKind::SearchResult, at)?;
                    edges += 1;
                }
            }
            NavigationCause::FormSubmit { .. } => {
                if let Some(form) = form {
                    self.store.add_edge(visit, form, EdgeKind::FormSubmit, at)?;
                    edges += 1;
                }
            }
            NavigationCause::BackForward => {
                if let Some(p) = prev {
                    self.store.add_edge(visit, p, EdgeKind::BackForward, at)?;
                    edges += 1;
                }
            }
            NavigationCause::Reload => {
                if let Some(p) = prev {
                    self.store.add_edge(visit, p, EdgeKind::Reload, at)?;
                    edges += 1;
                }
            }
        }

        // First navigation in a spawned tab: the NewTab relationship.
        // The tab was validated open at entry; if it vanished mid-capture,
        // skipping the NewTab edge degrades more gracefully than panicking.
        let opener_visit = self
            .tabs
            .get_mut(&tab)
            .and_then(|state| state.opener_visit.take());
        if self.config.record_new_tab {
            if let Some(o) = opener_visit {
                self.store.add_edge(visit, o, EdgeKind::NewTab, at)?;
                edges += 1;
            }
        }

        // Temporal overlap with other open tabs' current pages (§3.2),
        // directed later → earlier to keep the DAG invariant. Tabs are
        // visited in id order, so the partners are the lowest-numbered
        // ones.
        if self.config.record_temporal_overlap {
            let others: Vec<NodeId> = self
                .tabs
                .iter()
                .filter(|(&id, _)| id != tab)
                .filter_map(|(_, s)| s.current)
                .take(self.config.max_overlap_edges)
                .collect();
            for other in others {
                self.store
                    .add_edge(visit, other, EdgeKind::TemporalOverlap, at)?;
                edges += 1;
            }
        }

        if let Some(state) = self.tabs.get_mut(&tab) {
            state.current = Some(visit);
        }
        Ok(CaptureOutcome {
            primary: Some(visit),
            edges_added: edges,
        })
    }

    fn on_embed(&mut self, tab: TabId, url: &str, at: Timestamp) -> CoreResult<CaptureOutcome> {
        let parent = self
            .tab_state(tab)?
            .current
            .ok_or_else(|| CoreError::BadEvent(format!("{tab} has no page to embed into")))?;
        let visit = self.store.add_visit(url, at)?;
        self.store.add_edge(visit, parent, EdgeKind::Embed, at)?;
        if self.config.record_close {
            // Embedded loads are instantaneous from the history's point of
            // view; close them at load time.
            self.store.close_node(visit, at)?;
        }
        Ok(CaptureOutcome {
            primary: Some(visit),
            edges_added: 1,
        })
    }

    fn on_bookmark_add(
        &mut self,
        tab: TabId,
        name: &str,
        at: Timestamp,
    ) -> CoreResult<CaptureOutcome> {
        let state = self.tab_state(tab)?;
        let current = state
            .current
            .ok_or_else(|| CoreError::BadEvent(format!("{tab} has no page to bookmark")))?;
        let url = Arc::clone(
            self.store
                .graph()
                .node(current)
                .map_err(to_bad_event)?
                .shared_key(),
        );
        let bookmark = match self.store.graph().newest_of_kind(NodeKind::Bookmark, &url) {
            Some(b) => b,
            None => {
                let b = self.store.add_node(
                    NodeKind::Bookmark,
                    &url,
                    at,
                    &[("name", AttrValue::Str(name.to_owned()))],
                )?;
                self.store
                    .add_edge(b, current, EdgeKind::BookmarkCreated, at)?;
                return Ok(CaptureOutcome {
                    primary: Some(b),
                    edges_added: 1,
                });
            }
        };
        // Re-bookmarking an already-bookmarked URL refreshes the name only.
        self.store.set_node_attr(bookmark, "name", name)?;
        Ok(CaptureOutcome {
            primary: Some(bookmark),
            edges_added: 0,
        })
    }

    fn on_download(
        &mut self,
        tab: TabId,
        path: &str,
        bytes: u64,
        at: Timestamp,
    ) -> CoreResult<CaptureOutcome> {
        let current = self
            .tab_state(tab)?
            .current
            .ok_or_else(|| CoreError::BadEvent(format!("{tab} has no page to download from")))?;
        let dl = self.store.add_node(
            NodeKind::Download,
            path,
            at,
            &[("bytes", AttrValue::Int(bytes as i64))],
        )?;
        self.store
            .add_edge(dl, current, EdgeKind::DownloadFrom, at)?;
        if self.config.record_close {
            self.store.close_node(dl, at)?;
        }
        Ok(CaptureOutcome {
            primary: Some(dl),
            edges_added: 1,
        })
    }
}

fn to_bad_event(e: bp_graph::GraphError) -> CoreError {
    CoreError::BadEvent(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::SyncPolicy;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "bp-capture-test-{tag}-{}-{:?}",
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

    fn engine(dir: &TempDir, config: CaptureConfig) -> CaptureEngine {
        let store = ProvenanceStore::open(&dir.0, SyncPolicy::OsManaged).unwrap();
        CaptureEngine::new(store, config)
    }

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// The causal lineage of `start` in BFS order, walked over a snapshot
    /// of `g`.
    fn causal_ancestors(g: &bp_graph::ProvenanceGraph, start: NodeId) -> Vec<NodeId> {
        use bp_graph::traverse::{bfs, Budget, Direction};
        let frozen = bp_graph::frozen::FrozenGraph::build(g);
        bfs(
            &frozen,
            start,
            Direction::Ancestors,
            EdgeKind::is_causal,
            &Budget::new(),
        )
        .node_ids()
        .collect()
    }

    fn nav(e: &mut CaptureEngine, s: i64, tab: u32, url: &str, cause: NavigationCause) -> NodeId {
        e.handle(&BrowserEvent::navigate(t(s), TabId(tab), url, None, cause))
            .unwrap()
            .primary
            .unwrap()
    }

    #[test]
    fn link_navigation_chain() {
        let dir = TempDir::new("chain");
        let mut e = engine(&dir, CaptureConfig::default());
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        let a = nav(&mut e, 1, 0, "http://a/", NavigationCause::Typed);
        let b = nav(&mut e, 2, 0, "http://b/", NavigationCause::Link);
        let g = e.store().graph();
        // b derives from a by Link.
        assert!(g
            .parents(b)
            .any(|(eid, p)| p == a && g.edge(eid).unwrap().kind() == EdgeKind::Link));
        // a (first nav in tab) has no Link parent but has its Page object.
        assert!(g
            .parents(a)
            .all(|(eid, _)| g.edge(eid).unwrap().kind() == EdgeKind::InstanceOf));
        // Navigating away closed a.
        assert_eq!(g.node(a).unwrap().interval().close(), Some(t(2)));
        assert!(g.verify_acyclic());
    }

    #[test]
    fn navigation_requires_open_tab() {
        let dir = TempDir::new("no-tab");
        let mut e = engine(&dir, CaptureConfig::default());
        let err = e
            .handle(&BrowserEvent::navigate(
                t(1),
                TabId(9),
                "http://a/",
                None,
                NavigationCause::Link,
            ))
            .unwrap_err();
        assert!(matches!(err, CoreError::BadEvent(_)));
    }

    #[test]
    fn double_open_and_unknown_close_rejected() {
        let dir = TempDir::new("tab-errors");
        let mut e = engine(&dir, CaptureConfig::default());
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        assert!(e
            .handle(&BrowserEvent::tab_opened(t(1), TabId(0), None))
            .is_err());
        assert!(e.handle(&BrowserEvent::tab_closed(t(1), TabId(5))).is_err());
    }

    #[test]
    fn a_tab_close_before_an_open_is_rejected_with_nothing_changed() {
        let dir = TempDir::new("early-close");
        let mut e = engine(&dir, CaptureConfig::default());
        e.handle(&BrowserEvent::tab_opened(t(100), TabId(0), None))
            .unwrap();
        // The visit opens at 50 s, before its tab: a clock that stepped
        // back. Closing both at 70 s is fine for the visit but not for the
        // tab, so neither closes.
        let visit = nav(&mut e, 50, 0, "http://a/", NavigationCause::Typed);
        let log = || std::fs::read(dir.0.join("log.wal")).unwrap();
        let (before, epoch) = (log(), e.store().graph().epoch());
        let err = e
            .handle(&BrowserEvent::tab_closed(t(70), TabId(0)))
            .unwrap_err();
        assert!(matches!(err, CoreError::BadEvent(_)), "{err}");
        assert_eq!(e.open_tabs(), vec![TabId(0)], "the tab stays open");
        assert_eq!((log(), e.store().graph().epoch()), (before, epoch));
        assert!(e.store().graph().node(visit).unwrap().interval().is_open());
        // A close at or after both opens goes through.
        e.handle(&BrowserEvent::tab_closed(t(100), TabId(0)))
            .unwrap();
        assert!(e.open_tabs().is_empty());
        let closed = e.store().graph().node(visit).unwrap().interval().close();
        assert_eq!(closed, Some(t(100)));
    }

    #[test]
    fn search_creates_term_node_in_lineage() {
        let dir = TempDir::new("search");
        let mut e = engine(&dir, CaptureConfig::default());
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        let results = nav(
            &mut e,
            1,
            0,
            "http://se/?q=rosebud",
            NavigationCause::SearchQuery {
                query: "rosebud".to_owned(),
            },
        );
        let kane = nav(&mut e, 2, 0, "http://films/kane", NavigationCause::Link);
        let g = e.store().graph();
        let term = g
            .nodes_of_kind(NodeKind::SearchTerm)
            .next()
            .expect("term node exists");
        assert_eq!(g.node(term).unwrap().key(), "rosebud");
        // Lineage: kane -> results -> term.
        let ids: Vec<NodeId> = causal_ancestors(g, kane);
        assert!(ids.contains(&term));
        assert!(ids.contains(&results));
        // Same query later reuses the node.
        let _r2 = nav(
            &mut e,
            3,
            0,
            "http://se/?q=rosebud",
            NavigationCause::SearchQuery {
                query: "rosebud".to_owned(),
            },
        );
        assert_eq!(
            e.store()
                .graph()
                .nodes_of_kind(NodeKind::SearchTerm)
                .count(),
            1
        );
    }

    #[test]
    fn bookmark_roundtrip() {
        let dir = TempDir::new("bookmark");
        let mut e = engine(&dir, CaptureConfig::default());
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        let page = nav(&mut e, 1, 0, "http://wiki/", NavigationCause::Typed);
        let b = e
            .handle(&BrowserEvent::new(
                t(2),
                EventKind::BookmarkAdd {
                    tab: TabId(0),
                    name: "Wiki".to_owned(),
                },
            ))
            .unwrap()
            .primary
            .unwrap();
        let g = e.store().graph();
        assert_eq!(g.node(b).unwrap().kind(), NodeKind::Bookmark);
        assert!(g
            .parents(b)
            .any(|(eid, p)| p == page && g.edge(eid).unwrap().kind() == EdgeKind::BookmarkCreated));
        // Clicking it later creates the BookmarkClick relationship.
        nav(&mut e, 3, 0, "http://other/", NavigationCause::Link);
        let back = nav(
            &mut e,
            4,
            0,
            "http://wiki/",
            NavigationCause::Bookmark {
                bookmark_url: "http://wiki/".to_owned(),
            },
        );
        let g = e.store().graph();
        assert!(g
            .parents(back)
            .any(|(eid, p)| p == b && g.edge(eid).unwrap().kind() == EdgeKind::BookmarkClick));
        // Unknown bookmark rejected.
        assert!(e
            .handle(&BrowserEvent::navigate(
                t(5),
                TabId(0),
                "http://x/",
                None,
                NavigationCause::Bookmark {
                    bookmark_url: "http://nope/".to_owned()
                },
            ))
            .is_err());
    }

    #[test]
    fn rebookmarking_updates_name_without_new_node() {
        let dir = TempDir::new("rebookmark");
        let mut e = engine(&dir, CaptureConfig::default());
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        nav(&mut e, 1, 0, "http://wiki/", NavigationCause::Typed);
        let add = |e: &mut CaptureEngine, s: i64, name: &str| {
            e.handle(&BrowserEvent::new(
                t(s),
                EventKind::BookmarkAdd {
                    tab: TabId(0),
                    name: name.to_owned(),
                },
            ))
            .unwrap()
            .primary
            .unwrap()
        };
        let b1 = add(&mut e, 2, "Wiki");
        let b2 = add(&mut e, 3, "Wiki (new)");
        assert_eq!(b1, b2);
        assert_eq!(
            e.store().graph().node(b1).unwrap().attrs().get_str("name"),
            Some("Wiki (new)")
        );
    }

    #[test]
    fn download_lineage_scenario() {
        let dir = TempDir::new("download");
        let mut e = engine(&dir, CaptureConfig::default());
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        nav(
            &mut e,
            1,
            0,
            "http://se/?q=codec",
            NavigationCause::SearchQuery {
                query: "codec".to_owned(),
            },
        );
        nav(&mut e, 2, 0, "http://blog/", NavigationCause::Link);
        nav(&mut e, 3, 0, "http://host/file", NavigationCause::Link);
        let dl = e
            .handle(&BrowserEvent::new(
                t(4),
                EventKind::Download {
                    tab: TabId(0),
                    path: "/home/u/codec.exe".to_owned(),
                    bytes: 1_234_567,
                },
            ))
            .unwrap()
            .primary
            .unwrap();
        let g = e.store().graph();
        assert_eq!(g.node(dl).unwrap().kind(), NodeKind::Download);
        assert_eq!(
            g.node(dl).unwrap().attrs().get_int("bytes"),
            Some(1_234_567)
        );
        let anc = causal_ancestors(g, dl);
        // The search term is reachable through the whole journey.
        let term = g.nodes_of_kind(NodeKind::SearchTerm).next().unwrap();
        assert!(anc.contains(&term));
        // Downloads need a current page.
        e.handle(&BrowserEvent::tab_opened(t(5), TabId(1), None))
            .unwrap();
        assert!(e
            .handle(&BrowserEvent::new(
                t(6),
                EventKind::Download {
                    tab: TabId(1),
                    path: "/tmp/x".to_owned(),
                    bytes: 1,
                },
            ))
            .is_err());
    }

    #[test]
    fn new_tab_relationship() {
        let dir = TempDir::new("newtab");
        let mut e = engine(&dir, CaptureConfig::default());
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        let origin = nav(&mut e, 1, 0, "http://a/", NavigationCause::Typed);
        e.handle(&BrowserEvent::tab_opened(t(2), TabId(1), Some(TabId(0))))
            .unwrap();
        let spawned = nav(&mut e, 3, 1, "http://b/", NavigationCause::Link);
        let g = e.store().graph();
        assert!(g
            .parents(spawned)
            .any(|(eid, p)| p == origin && g.edge(eid).unwrap().kind() == EdgeKind::NewTab));
        // Only the first navigation gets the NewTab edge.
        let second = nav(&mut e, 4, 1, "http://c/", NavigationCause::Link);
        let g = e.store().graph();
        assert!(!g
            .parents(second)
            .any(|(eid, _)| g.edge(eid).unwrap().kind() == EdgeKind::NewTab));
    }

    #[test]
    fn temporal_overlap_between_tabs() {
        let dir = TempDir::new("overlap");
        let mut e = engine(&dir, CaptureConfig::default());
        let overlap = |e: &CaptureEngine, visit: NodeId| -> Vec<NodeId> {
            let g = e.store().graph();
            g.parents(visit)
                .filter(|&(eid, _)| g.edge(eid).unwrap().kind() == EdgeKind::TemporalOverlap)
                .map(|(_, p)| p)
                .collect()
        };
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(1), None))
            .unwrap();
        let wine = nav(&mut e, 1, 1, "http://wine/", NavigationCause::Typed);
        e.handle(&BrowserEvent::tab_opened(t(2), TabId(2), None))
            .unwrap();
        let tickets = nav(&mut e, 3, 2, "http://tickets/", NavigationCause::Typed);
        assert_eq!(overlap(&e, tickets), vec![wine]);
        // The partner is the lowest-numbered other open tab, whatever
        // order the tabs were opened in.
        e.handle(&BrowserEvent::tab_opened(t(4), TabId(0), None))
            .unwrap();
        let hotel = nav(&mut e, 5, 0, "http://hotel/", NavigationCause::Typed);
        assert_eq!(overlap(&e, hotel), vec![wine]);
        let cheese = nav(&mut e, 6, 2, "http://cheese/", NavigationCause::Link);
        assert_eq!(overlap(&e, cheese), vec![hotel]);
    }

    #[test]
    fn firefox_like_config_drops_second_class_relationships() {
        let dir = TempDir::new("firefox");
        let mut e = engine(&dir, CaptureConfig::firefox_like());
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        let a = nav(&mut e, 1, 0, "http://a/", NavigationCause::Typed);
        e.handle(&BrowserEvent::tab_opened(t(2), TabId(1), Some(TabId(0))))
            .unwrap();
        let b = nav(&mut e, 3, 1, "http://b/", NavigationCause::Typed);
        {
            let g = e.store().graph();
            // The §3.2 irony: the typed-location user generates sparse
            // metadata.
            let structural: Vec<EdgeKind> = g
                .parents(b)
                .map(|(eid, _)| g.edge(eid).unwrap().kind())
                .filter(|k| *k != EdgeKind::InstanceOf)
                .collect();
            assert!(structural.is_empty(), "got {structural:?}");
        }
        // And no close records: a's interval stays open after navigation.
        nav(&mut e, 4, 0, "http://c/", NavigationCause::Link);
        assert!(e.store().graph().node(a).unwrap().interval().is_open());
        // No search terms either.
        nav(
            &mut e,
            5,
            0,
            "http://se/?q=x",
            NavigationCause::SearchQuery {
                query: "x".to_owned(),
            },
        );
        assert_eq!(
            e.store()
                .graph()
                .nodes_of_kind(NodeKind::SearchTerm)
                .count(),
            0
        );
    }

    #[test]
    fn redirect_requires_origin_and_keeps_status() {
        let dir = TempDir::new("redirect");
        let mut e = engine(&dir, CaptureConfig::default());
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        assert!(e
            .handle(&BrowserEvent::navigate(
                t(1),
                TabId(0),
                "http://target/",
                None,
                NavigationCause::Redirect { status: 301 },
            ))
            .is_err());
        let short = nav(&mut e, 2, 0, "http://short/x", NavigationCause::Typed);
        let target = nav(
            &mut e,
            3,
            0,
            "http://target/",
            NavigationCause::Redirect { status: 302 },
        );
        let g = e.store().graph();
        let (eid, _) = g
            .parents(target)
            .find(|(eid, p)| *p == short && g.edge(*eid).unwrap().kind() == EdgeKind::Redirect)
            .expect("redirect edge");
        assert_eq!(g.edge(eid).unwrap().attrs().get_int("status"), Some(302));
    }

    #[test]
    fn form_submission_creates_entry_node() {
        let dir = TempDir::new("form");
        let mut e = engine(&dir, CaptureConfig::default());
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        let search_form_page = nav(&mut e, 1, 0, "http://flights/", NavigationCause::Typed);
        let results = nav(
            &mut e,
            2,
            0,
            "http://flights/results?from=SFO",
            NavigationCause::FormSubmit {
                fields: "from=SFO&to=JFK".to_owned(),
            },
        );
        let g = e.store().graph();
        let form = g.nodes_of_kind(NodeKind::FormEntry).next().unwrap();
        assert_eq!(g.node(form).unwrap().key(), "from=SFO&to=JFK");
        // results -> form -> page containing the form.
        let anc = causal_ancestors(g, results);
        assert!(anc.contains(&form));
        assert!(anc.contains(&search_form_page));
    }

    #[test]
    fn embed_is_automatic_and_closed() {
        let dir = TempDir::new("embed");
        let mut e = engine(&dir, CaptureConfig::default());
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        let page = nav(&mut e, 1, 0, "http://news/", NavigationCause::Typed);
        let ad = e
            .handle(&BrowserEvent::new(
                t(2),
                EventKind::EmbedLoad {
                    tab: TabId(0),
                    url: "http://ads/banner.js".to_owned(),
                },
            ))
            .unwrap()
            .primary
            .unwrap();
        let g = e.store().graph();
        assert!(g
            .parents(ad)
            .any(|(eid, p)| p == page && g.edge(eid).unwrap().kind() == EdgeKind::Embed));
        assert!(!g.node(ad).unwrap().interval().is_open());
    }

    #[test]
    fn revisits_version_and_count() {
        let dir = TempDir::new("revisit");
        let mut e = engine(&dir, CaptureConfig::default());
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(0), None))
            .unwrap();
        assert_eq!(e.visit_count("http://a/"), 0);
        nav(&mut e, 1, 0, "http://a/", NavigationCause::Typed);
        nav(&mut e, 2, 0, "http://b/", NavigationCause::Link);
        nav(&mut e, 3, 0, "http://a/", NavigationCause::BackForward);
        assert_eq!(e.visit_count("http://a/"), 2);
        assert_eq!(e.visit_count("http://b/"), 1);
        assert!(e.store().graph().verify_acyclic());
    }

    #[test]
    fn state_rebuilds_after_recovery() {
        let dir = TempDir::new("rebuild");
        {
            let mut e = engine(&dir, CaptureConfig::default());
            e.handle(&BrowserEvent::tab_opened(t(0), TabId(0), None))
                .unwrap();
            nav(&mut e, 1, 0, "http://wiki/", NavigationCause::Typed);
            e.handle(&BrowserEvent::new(
                t(2),
                EventKind::BookmarkAdd {
                    tab: TabId(0),
                    name: "Wiki".to_owned(),
                },
            ))
            .unwrap();
            nav(
                &mut e,
                3,
                0,
                "http://se/?q=x",
                NavigationCause::SearchQuery {
                    query: "x".to_owned(),
                },
            );
        }
        // Reopen: maps rebuilt, tabs gone.
        let store = ProvenanceStore::open(&dir.0, SyncPolicy::OsManaged).unwrap();
        let mut e = CaptureEngine::new(store, CaptureConfig::default());
        assert!(e.open_tabs().is_empty());
        // Bookmark is clickable again (map rebuilt).
        e.handle(&BrowserEvent::tab_opened(t(10), TabId(0), None))
            .unwrap();
        let v = nav(
            &mut e,
            11,
            0,
            "http://wiki/",
            NavigationCause::Bookmark {
                bookmark_url: "http://wiki/".to_owned(),
            },
        );
        let g = e.store().graph();
        assert!(g
            .parents(v)
            .any(|(eid, _)| g.edge(eid).unwrap().kind() == EdgeKind::BookmarkClick));
        // Search term map rebuilt (no duplicate node for same query).
        nav(
            &mut e,
            12,
            0,
            "http://se/?q=x",
            NavigationCause::SearchQuery {
                query: "x".to_owned(),
            },
        );
        assert_eq!(
            e.store()
                .graph()
                .nodes_of_kind(NodeKind::SearchTerm)
                .count(),
            1
        );
    }

    #[test]
    fn open_tabs_reporting() {
        let dir = TempDir::new("opentabs");
        let mut e = engine(&dir, CaptureConfig::default());
        e.handle(&BrowserEvent::tab_opened(t(0), TabId(2), None))
            .unwrap();
        e.handle(&BrowserEvent::tab_opened(t(1), TabId(0), None))
            .unwrap();
        assert_eq!(e.open_tabs(), vec![TabId(0), TabId(2)]);
        e.handle(&BrowserEvent::tab_closed(t(2), TabId(2))).unwrap();
        assert_eq!(e.open_tabs(), vec![TabId(0)]);
    }
}
