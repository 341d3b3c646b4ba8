//! The `ProvenanceBrowser` facade: capture + durable store + text index.
//!
//! This type is the library a provenance-aware browser (or this repo's
//! simulator and CLI) embeds: feed it [`BrowserEvent`]s, and it maintains
//! the homogeneous provenance graph store *and* the textual index that the
//! §2 use-case queries start from.

use crate::capture::{CaptureConfig, CaptureEngine, CaptureOutcome};
use crate::error::CoreResult;
use crate::event::BrowserEvent;
use bp_graph::frozen::{FrozenGraph, FrozenHandle, Refresh, ScoreCache};
use bp_graph::{NodeId, NodeKind, ProvenanceGraph};
use bp_obs::{names, Obs};
use bp_storage::{ProvenanceStore, SizeReport, SyncPolicy};
use bp_text::InvertedIndex;
use std::path::Path;

/// Events per write group when bulk-ingesting a stream.
const INGEST_GROUP_MAX: usize = 256;

/// A provenance-aware browser backend.
///
/// # Examples
///
/// ```
/// use bp_core::{ProvenanceBrowser, BrowserEvent, NavigationCause, TabId, CaptureConfig};
/// use bp_graph::Timestamp;
///
/// # fn main() -> Result<(), bp_core::CoreError> {
/// let dir = std::env::temp_dir().join(format!("bp-browser-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let mut browser = ProvenanceBrowser::open(&dir, CaptureConfig::default())?;
/// let t = Timestamp::from_secs(1);
/// browser.ingest(&BrowserEvent::tab_opened(t, TabId(0), None))?;
/// browser.ingest(&BrowserEvent::navigate(
///     t.plus_micros(1_000_000), TabId(0),
///     "http://films.example/kane", Some("Citizen Kane"), NavigationCause::Typed,
/// ))?;
/// let hits = browser.text_index().search("kane");
/// assert_eq!(hits.len(), 1);
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProvenanceBrowser {
    engine: CaptureEngine,
    index: InvertedIndex,
    /// Lazily refreshed CSR snapshot of the graph, invalidated by the
    /// graph epoch — relevance queries walk this instead of the live
    /// adjacency.
    frozen: FrozenHandle,
    /// Epoch-keyed cache of ranked answers shared by the ppr,
    /// personalize, and context query paths.
    score_cache: ScoreCache,
}

impl ProvenanceBrowser {
    /// Opens (or creates) the browser profile at `dir` with the given
    /// capture configuration, recovering any prior history and rebuilding
    /// the text index from it.
    ///
    /// # Errors
    ///
    /// Propagates store open/recovery failures.
    pub fn open(dir: impl AsRef<Path>, config: CaptureConfig) -> CoreResult<Self> {
        Self::open_with_policy(dir, config, SyncPolicy::OsManaged)
    }

    /// [`open`](Self::open) with an explicit durability policy.
    ///
    /// # Errors
    ///
    /// Propagates store open/recovery failures.
    pub fn open_with_policy(
        dir: impl AsRef<Path>,
        config: CaptureConfig,
        policy: SyncPolicy,
    ) -> CoreResult<Self> {
        Self::open_with_obs(dir, config, policy, Obs::global())
    }

    /// [`open`](Self::open) reporting into an explicit [`Obs`] handle.
    /// Tests asserting exact metric values pass [`Obs::isolated`].
    ///
    /// # Errors
    ///
    /// Propagates store open/recovery failures.
    pub fn open_with_obs(
        dir: impl AsRef<Path>,
        config: CaptureConfig,
        policy: SyncPolicy,
        obs: Obs,
    ) -> CoreResult<Self> {
        let store = ProvenanceStore::open_with_obs(dir, policy, obs)?;
        let engine = CaptureEngine::new(store, config);
        let mut browser = ProvenanceBrowser {
            engine,
            index: InvertedIndex::new(),
            frozen: FrozenHandle::new(),
            score_cache: ScoreCache::new(),
        };
        // Rebuild the text index from the recovered graph.
        let ids: Vec<NodeId> = browser.engine.store().graph().node_ids().collect();
        for id in ids {
            browser.index_node(id);
        }
        browser.publish_index_gauges();
        Ok(browser)
    }

    /// Feeds one browser event through capture and indexing.
    ///
    /// # Errors
    ///
    /// See [`CaptureEngine::handle`].
    pub fn ingest(&mut self, event: &BrowserEvent) -> CoreResult<CaptureOutcome> {
        let outcome = self.engine.handle(event)?;
        if let Some(id) = outcome.primary {
            self.index_node(id);
            // Inside a write group the gauges are published once at the
            // group boundary instead of per event.
            if !self.engine.store().group_active() {
                self.publish_index_gauges();
            }
        }
        Ok(outcome)
    }

    /// Starts a write group: WAL frames from subsequent ingests accumulate
    /// and reach disk as one grouped append (and one policy-driven sync) at
    /// [`end_write_group`](Self::end_write_group). Per-event gauge
    /// publication is deferred to the group boundary too. The batched
    /// capture drain wraps each queue batch in a group.
    pub fn begin_write_group(&mut self) {
        self.engine.store_mut().begin_write_group();
    }

    /// Commits the open write group to the log and publishes the deferred
    /// gauges. A no-op when no group is open.
    ///
    /// # Errors
    ///
    /// Propagates the grouped WAL append failure.
    pub fn end_write_group(&mut self) -> CoreResult<()> {
        self.engine.store_mut().commit_write_group()?;
        self.publish_index_gauges();
        Ok(())
    }

    /// Publishes the text-index size gauges (three atomic stores).
    fn publish_index_gauges(&self) {
        let obs = self.engine.store().obs();
        obs.gauge(names::TEXT_DOCS)
            .set(self.index.doc_count() as i64);
        obs.gauge(names::TEXT_TERMS)
            .set(self.index.term_count() as i64);
        obs.gauge(names::TEXT_POSTINGS)
            .set(self.index.posting_count() as i64);
    }

    /// Feeds a whole event stream; stops at the first error.
    ///
    /// # Errors
    ///
    /// See [`ingest`](Self::ingest).
    pub fn ingest_all<'a>(
        &mut self,
        events: impl IntoIterator<Item = &'a BrowserEvent>,
    ) -> CoreResult<usize> {
        // One trace context per batch (reused when the caller already has
        // one): every log line the batch emits shares one trace ID.
        let _ctx = bp_obs::trace::ensure(bp_obs::ClockHandle::real().now_micros());
        self.begin_write_group();
        let mut n = 0;
        for event in events {
            if let Err(err) = self.ingest(event) {
                // Keep the events already applied durable before surfacing
                // the failure.
                let _ = self.end_write_group();
                return Err(err);
            }
            n += 1;
            // Bound the in-memory group (and the crash-loss window) on
            // long streams by committing every INGEST_GROUP_MAX events.
            if n % INGEST_GROUP_MAX == 0 {
                self.end_write_group()?;
                self.begin_write_group();
            }
        }
        self.end_write_group()?;
        Ok(n)
    }

    fn index_node(&mut self, id: NodeId) {
        let graph = self.engine.store().graph();
        let Ok(node) = graph.node(id) else { return };
        let doc = id.index();
        // A node's key and its title (or bookmark name) index as two
        // additions to one document, which equals indexing them joined.
        let extra = match node.kind() {
            NodeKind::PageVisit => node.attrs().get_str("title"),
            NodeKind::Bookmark => node.attrs().get_str("name"),
            NodeKind::SearchTerm | NodeKind::FormEntry | NodeKind::Download => None,
            // Page objects duplicate their visits' text; tabs carry none.
            NodeKind::Page | NodeKind::Tab => return,
        };
        self.index.add_document(doc, node.key());
        if let Some(extra) = extra {
            self.index.add_document(doc, extra);
        }
    }

    /// The provenance graph.
    pub fn graph(&self) -> &ProvenanceGraph {
        self.engine.store().graph()
    }

    /// The current CSR read-snapshot of the graph, refreshed when the
    /// graph epoch has moved since the last call (any capture mutation
    /// bumps it): extended with what capture appended, or rebuilt after a
    /// redaction. Cheap when current: one mutex probe and an `Arc` clone.
    /// Each refresh counts in `bp_graph_frozen.extend` or
    /// `bp_graph_frozen.rebuild` and records its wall time in
    /// `bp_graph_frozen.build_us`.
    pub fn frozen(&self) -> std::sync::Arc<FrozenGraph> {
        let (frozen, refresh) = self.frozen.snapshot(self.engine.store().graph());
        if let Some((how, took)) = refresh {
            let obs = self.obs();
            match how {
                Refresh::Extended => obs.counter(names::BP_GRAPH_FROZEN_EXTEND).inc(),
                Refresh::Rebuilt => obs.counter(names::BP_GRAPH_FROZEN_REBUILD).inc(),
            }
            obs.histogram(names::BP_GRAPH_FROZEN_BUILD_US)
                .record_duration(took);
        }
        frozen
    }

    /// The last CSR snapshot as it is, without a refresh: it may lag the
    /// graph by what capture appended since. The edge arena only grows, so
    /// its rows plus the arena's edges past [`FrozenGraph::edge_count`]
    /// give the exact adjacency. Builds the first snapshot, as
    /// [`frozen`](Self::frozen) does, only when none exists.
    pub fn last_frozen(&self) -> std::sync::Arc<FrozenGraph> {
        self.frozen.current().unwrap_or_else(|| self.frozen())
    }

    /// `(snapshots produced, last refresh µs)` of the frozen snapshot
    /// handle; extensions and rebuilds both count.
    pub fn frozen_stats(&self) -> (u64, u64) {
        (self.frozen.builds(), self.frozen.last_build_us())
    }

    /// The epoch-keyed cache of ranked answers shared by the relevance
    /// query paths. Entries self-invalidate when the graph epoch moves.
    pub fn score_cache(&self) -> &ScoreCache {
        &self.score_cache
    }

    /// The underlying durable store.
    pub fn store(&self) -> &ProvenanceStore {
        self.engine.store()
    }

    /// The capture engine (tab state, visit counts).
    pub fn engine(&self) -> &CaptureEngine {
        &self.engine
    }

    /// The textual index over history objects.
    pub fn text_index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The observability handle this browser (and its store) reports into.
    pub fn obs(&self) -> &Obs {
        self.engine.store().obs()
    }

    /// Number of visits recorded for `url`.
    pub fn visit_count(&self, url: &str) -> u32 {
        self.engine.visit_count(url)
    }

    /// Redacts a URL (or any history key) from the store and the text
    /// index (§4: "use browser provenance to increase user privacy").
    /// Returns how many history objects were redacted. Call
    /// [`snapshot`](Self::snapshot) afterwards to scrub the string from
    /// disk as well.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn redact(&mut self, key: &str) -> CoreResult<usize> {
        let nodes = self.engine.redact(key)?;
        for node in &nodes {
            self.index.remove_document(node.index());
        }
        self.publish_index_gauges();
        Ok(nodes.len())
    }

    /// Compacts the store into a snapshot.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn snapshot(&mut self) -> CoreResult<()> {
        self.engine.store_mut().snapshot()?;
        Ok(())
    }

    /// Flushes the log to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn sync(&mut self) -> CoreResult<()> {
        self.engine.store_mut().sync()?;
        Ok(())
    }

    /// On-disk size accounting (experiment E1).
    pub fn size_report(&self) -> SizeReport {
        self.engine.store().size_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, NavigationCause, TabId};
    use bp_graph::Timestamp;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "bp-browser-test-{tag}-{}-{:?}",
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

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn browse(b: &mut ProvenanceBrowser) {
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
            Some("Citizen Kane (1941)"),
            NavigationCause::Link,
        ))
        .unwrap();
        b.ingest(&BrowserEvent::new(
            t(3),
            EventKind::Download {
                tab: TabId(0),
                path: "/home/u/film-poster.jpg".to_owned(),
                bytes: 5000,
            },
        ))
        .unwrap();
    }

    #[test]
    fn ingest_updates_graph_and_index() {
        let dir = TempDir::new("ingest");
        let mut b = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        browse(&mut b);
        assert!(b.graph().node_count() >= 5);
        // Title text is searchable.
        let hits = b.text_index().search("citizen");
        assert_eq!(hits.len(), 1);
        // Download path is searchable.
        assert_eq!(b.text_index().search("poster").len(), 1);
        // Search term node is indexed.
        assert!(!b.text_index().search("rosebud").is_empty());
        assert_eq!(b.visit_count("http://films/kane"), 1);
    }

    #[test]
    fn index_rebuilds_on_reopen() {
        let dir = TempDir::new("reopen");
        {
            let mut b = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
            browse(&mut b);
        }
        let b = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        assert_eq!(b.text_index().search("citizen").len(), 1);
        assert_eq!(b.text_index().search("poster").len(), 1);
        assert_eq!(b.visit_count("http://films/kane"), 1);
    }

    #[test]
    fn ingest_all_counts_and_stops_on_error() {
        let dir = TempDir::new("ingest-all");
        let mut b = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        let events = vec![
            BrowserEvent::tab_opened(t(0), TabId(0), None),
            BrowserEvent::navigate(t(1), TabId(0), "http://a/", None, NavigationCause::Typed),
        ];
        assert_eq!(b.ingest_all(&events).unwrap(), 2);
        let bad = vec![BrowserEvent::navigate(
            t(2),
            TabId(7),
            "http://b/",
            None,
            NavigationCause::Link,
        )];
        assert!(b.ingest_all(&bad).is_err());
    }

    #[test]
    fn snapshot_then_reopen() {
        let dir = TempDir::new("snapshot");
        {
            let mut b = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
            browse(&mut b);
            b.snapshot().unwrap();
            b.sync().unwrap();
        }
        let b = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        assert!(b.graph().node_count() >= 5);
        assert!(b.size_report().snapshot_bytes > 0);
        assert_eq!(b.text_index().search("citizen").len(), 1);
    }

    #[test]
    fn redact_scrubs_search_results_and_reopen() {
        let dir = TempDir::new("redact");
        {
            let mut b = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
            browse(&mut b);
            assert_eq!(b.text_index().search("citizen").len(), 1);
            let n = b.redact("http://films/kane").unwrap();
            assert!(n >= 1, "visit (and page object) redacted");
            assert!(b.text_index().search("citizen").is_empty());
            assert!(b.text_index().search("kane").is_empty());
            // Other history is untouched.
            assert!(!b.text_index().search("rosebud").is_empty());
            assert_eq!(b.visit_count("http://films/kane"), 0);
            b.snapshot().unwrap();
        }
        // After reopen + reindex from the recovered graph, the redacted
        // content is still gone.
        let b = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        assert!(b.text_index().search("citizen").is_empty());
        // And no trace on disk after the compaction.
        let mut disk = Vec::new();
        for entry in std::fs::read_dir(&dir.0).unwrap() {
            disk.extend(std::fs::read(entry.unwrap().path()).unwrap());
        }
        assert!(!disk
            .windows(b"films/kane".len())
            .any(|w| w == b"films/kane".as_slice()));
    }

    #[test]
    fn redact_unknown_key_is_noop() {
        let dir = TempDir::new("redact-noop");
        let mut b = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        assert_eq!(b.redact("http://never/").unwrap(), 0);
    }

    #[test]
    fn frozen_snapshot_follows_capture_mutations() {
        let dir = TempDir::new("frozen");
        let obs = Obs::isolated();
        let mut b = ProvenanceBrowser::open_with_obs(
            &dir.0,
            CaptureConfig::default(),
            SyncPolicy::OsManaged,
            obs.clone(),
        )
        .unwrap();
        browse(&mut b);
        let refreshes = || {
            (
                obs.counter(names::BP_GRAPH_FROZEN_EXTEND).get(),
                obs.counter(names::BP_GRAPH_FROZEN_REBUILD).get(),
                obs.histogram(names::BP_GRAPH_FROZEN_BUILD_US).count(),
            )
        };
        let a = b.frozen();
        let again = b.frozen();
        assert!(std::sync::Arc::ptr_eq(&a, &again), "stable epoch: cached");
        assert_eq!(b.frozen_stats().0, 1);
        assert_eq!(refreshes(), (0, 1, 1), "first snapshot is built");
        assert_eq!(a.node_count(), b.graph().node_count());
        b.ingest(&BrowserEvent::navigate(
            t(4),
            TabId(0),
            "http://more/",
            None,
            NavigationCause::Link,
        ))
        .unwrap();
        let fresh = b.frozen();
        assert!(!std::sync::Arc::ptr_eq(&a, &fresh), "ingest invalidates");
        assert_eq!(b.frozen_stats().0, 2);
        assert_eq!(refreshes(), (1, 1, 2), "appends extend");
        assert_eq!(fresh.node_count(), b.graph().node_count());
        b.redact("http://films/kane").unwrap();
        b.frozen();
        assert_eq!(refreshes(), (1, 2, 3), "a redaction rebuilds");
    }

    #[test]
    fn engine_accessor_exposes_tabs() {
        let dir = TempDir::new("engine");
        let mut b = ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap();
        b.ingest(&BrowserEvent::tab_opened(t(0), TabId(3), None))
            .unwrap();
        assert_eq!(b.engine().open_tabs(), vec![TabId(3)]);
        assert_eq!(b.engine().config(), &CaptureConfig::default());
    }
}
