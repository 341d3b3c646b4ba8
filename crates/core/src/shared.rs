//! Concurrent embedding: a background capture thread plus shared readers.
//!
//! A real browser cannot block its UI thread on WAL appends. This module
//! provides the embedding shape the paper's §4 implies (capture happens
//! continuously; queries run interactively on the same store):
//!
//! - [`SharedBrowser`] — a clonable handle giving many threads concurrent
//!   *read* access to one [`ProvenanceBrowser`] (queries only need `&`);
//! - [`CapturePipeline`] — an event queue drained by a dedicated capture
//!   thread that takes short write locks per event, so readers interleave
//!   freely between events.

use crate::browser::ProvenanceBrowser;
use crate::error::CoreError;
use crate::event::BrowserEvent;
use bp_obs::profile::{self, Profile, QueryPlan};
use bp_obs::{names, Counter, Gauge};
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest number of queued events drained into one write group (one lock
/// acquisition, one grouped WAL append).
const DRAIN_BATCH_MAX: usize = 256;

/// Capture-batch profiles retained for `/profilez` before the oldest are
/// dropped.
const PROFILE_RING: usize = 32;

/// Batches slower than this leave a flight-recorder note: they are the
/// ingest tail spikes `--explain` and /profilez should attribute.
const SLOW_BATCH: Duration = Duration::from_millis(2);

/// The capture drain's profile shape: one stage covering the whole batch
/// application (queue → store), named so `--explain` output and /profilez
/// attribute ingest tail latency to `capture.flush`.
static CAPTURE_PLAN: QueryPlan = QueryPlan {
    query: "capture",
    stages: &["capture.flush"],
};

/// A clonable, thread-safe handle to a provenance browser.
///
/// # Examples
///
/// ```
/// use bp_core::{ProvenanceBrowser, SharedBrowser, CaptureConfig};
/// # fn main() -> Result<(), bp_core::CoreError> {
/// let dir = std::env::temp_dir().join(format!("bp-shared-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let browser = ProvenanceBrowser::open(&dir, CaptureConfig::default())?;
/// let shared = SharedBrowser::new(browser);
/// let reader = shared.clone();
/// assert_eq!(reader.read().graph().node_count(), 0);
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SharedBrowser {
    inner: Arc<RwLock<ProvenanceBrowser>>,
}

impl SharedBrowser {
    /// Wraps a browser for shared access.
    pub fn new(browser: ProvenanceBrowser) -> Self {
        SharedBrowser {
            inner: Arc::new(RwLock::new(browser)),
        }
    }

    /// Acquires a read guard; many readers may hold one concurrently.
    pub fn read(&self) -> RwLockReadGuard<'_, ProvenanceBrowser> {
        self.inner.read()
    }

    /// Runs `f` under the write lock (exclusive).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut ProvenanceBrowser) -> R) -> R {
        f(&mut self.inner.write())
    }

    /// Unwraps the browser if this is the last handle.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when other handles are still alive.
    pub fn try_into_inner(self) -> Result<ProvenanceBrowser, SharedBrowser> {
        match Arc::try_unwrap(self.inner) {
            Ok(lock) => Ok(lock.into_inner()),
            Err(inner) => Err(SharedBrowser { inner }),
        }
    }
}

enum Message {
    /// An event plus the trace context active on the submitting thread,
    /// so the capture thread's ingest (and any error it logs) carries the
    /// same trace ID as the request that enqueued the work.
    Event(Box<BrowserEvent>, Option<bp_obs::trace::Context>),
    /// A [`CapturePipeline::submit_all`] chunk under one trace context:
    /// it reaches the capture thread whole, so the chunk lands in one
    /// write group instead of being split by an early wake-up.
    Events(Vec<BrowserEvent>, Option<bp_obs::trace::Context>),
    Flush(Sender<()>),
    Shutdown,
}

/// Queued events with the trace context each was submitted under.
type Batch = Vec<(BrowserEvent, Option<bp_obs::trace::Context>)>;

/// Moves `message`'s events into `batch`, or hands a control message
/// back.
fn collect(batch: &mut Batch, message: Message) -> Option<Message> {
    match message {
        Message::Event(event, context) => batch.push((*event, context)),
        Message::Events(events, context) => {
            batch.extend(events.into_iter().map(|event| (event, context)));
        }
        control => return Some(control),
    }
    None
}

/// A background capture pipeline.
///
/// Events submitted from any thread are applied in order by one capture
/// thread. Invalid events ([`CoreError::BadEvent`]) are counted and
/// skipped — a background pipeline has nobody to return them to — while
/// storage errors stop the pipeline (they mean the profile is broken).
///
/// # Examples
///
/// ```
/// use bp_core::{ProvenanceBrowser, CapturePipeline, CaptureConfig,
///               BrowserEvent, NavigationCause, TabId};
/// use bp_graph::Timestamp;
/// # fn main() -> Result<(), bp_core::CoreError> {
/// let dir = std::env::temp_dir().join(format!("bp-pipe-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let browser = ProvenanceBrowser::open(&dir, CaptureConfig::default())?;
/// let pipeline = CapturePipeline::start(browser);
/// pipeline.submit(BrowserEvent::tab_opened(Timestamp::from_secs(0), TabId(0), None));
/// pipeline.submit(BrowserEvent::navigate(
///     Timestamp::from_secs(1), TabId(0), "http://a/", None, NavigationCause::Typed,
/// ));
/// pipeline.flush();
/// assert!(pipeline.shared().read().graph().node_count() >= 2);
/// let _browser = pipeline.shutdown();
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CapturePipeline {
    shared: SharedBrowser,
    sender: Sender<Message>,
    handle: Option<JoinHandle<()>>,
    rejected: Arc<Mutex<u64>>,
    failed: Arc<Mutex<Option<String>>>,
    queue_depth: Arc<Gauge>,
    stalls: Arc<Counter>,
    flushes: Arc<Counter>,
    /// Capture-batch profiles drained from the capture thread (profiles
    /// are thread-local; the batch loop moves its own into this ring).
    profiles: Arc<Mutex<Vec<Profile>>>,
}

impl CapturePipeline {
    /// Wraps `browser` and starts the capture thread.
    ///
    /// The thread drains the queue in batches: queued messages are
    /// gathered until the batch reaches `DRAIN_BATCH_MAX` events (a
    /// message is never split) and applied under **one** write lock and
    /// one store write group, so per-event mutex/WAL/metric costs
    /// amortize across the batch while readers still interleave between
    /// batches.
    pub fn start(browser: ProvenanceBrowser) -> Self {
        let obs = browser.obs().clone();
        let queue_depth = obs.gauge(names::CAPTURE_QUEUE_DEPTH);
        let stalls = obs.counter(names::CAPTURE_BACKPRESSURE_STALLS);
        let flushes = obs.counter(names::CAPTURE_FLUSHES);
        let batch_len = obs.histogram(names::CAPTURE_BATCH_LEN);
        let shared = SharedBrowser::new(browser);
        let (sender, receiver): (Sender<Message>, Receiver<Message>) = channel::unbounded();
        let rejected = Arc::new(Mutex::new(0u64));
        let failed = Arc::new(Mutex::new(None));
        let profiles = Arc::new(Mutex::new(Vec::new()));
        let thread_shared = shared.clone();
        let thread_rejected = Arc::clone(&rejected);
        let thread_failed = Arc::clone(&failed);
        let thread_depth = Arc::clone(&queue_depth);
        let thread_profiles = Arc::clone(&profiles);
        let handle = std::thread::spawn(move || {
            let clock = bp_obs::ClockHandle::real();
            loop {
                // Block for the first message, then drain whatever else is
                // already queued (stopping at control messages so flush
                // acknowledgements still order after prior events).
                let Ok(first) = receiver.recv() else { return };
                let mut events = Batch::new();
                let mut tail = collect(&mut events, first);
                while tail.is_none() && events.len() < DRAIN_BATCH_MAX {
                    match receiver.try_recv() {
                        Some(message) => tail = collect(&mut events, message),
                        None => break,
                    }
                }
                if !events.is_empty() {
                    let batch = events.len();
                    let start = clock.now_micros();
                    let guard = profile::begin(&CAPTURE_PLAN, &clock, start, None);
                    let ok = thread_shared.with_mut(|b| {
                        let stage = profile::stage("capture.flush");
                        let mut applied = 0usize;
                        b.begin_write_group();
                        for (event, context) in &events {
                            // Re-enter the submitter's trace context for
                            // this event's ingest: cross-thread propagation
                            // across the queue hand-off.
                            let _ctx = context.map(bp_obs::trace::enter);
                            match b.ingest(event) {
                                Ok(_) => applied += 1,
                                Err(CoreError::BadEvent(reason)) => {
                                    *thread_rejected.lock() += 1;
                                    // With the submitter's context entered
                                    // above, this line carries the trace ID
                                    // of the request that enqueued the bad
                                    // event.
                                    bp_obs::log::warn(
                                        "bp_core::shared",
                                        "capture pipeline rejected event",
                                        &[("reason", reason)],
                                    );
                                }
                                Err(other) => {
                                    // Keep the events already applied in
                                    // this group durable before stopping.
                                    let _ = b.end_write_group();
                                    bp_obs::log::error(
                                        "bp_core::shared",
                                        "capture pipeline stopped on storage error",
                                        &[("error", other.to_string())],
                                    );
                                    *thread_failed.lock() = Some(other.to_string());
                                    return false;
                                }
                            }
                        }
                        stage.rows(batch, applied);
                        if let Err(err) = b.end_write_group() {
                            bp_obs::log::error(
                                "bp_core::shared",
                                "capture pipeline stopped on storage error",
                                &[("error", err.to_string())],
                            );
                            *thread_failed.lock() = Some(err.to_string());
                            return false;
                        }
                        true
                    });
                    let wall = Duration::from_micros(clock.now_micros().saturating_sub(start));
                    guard.finish_with(wall);
                    thread_depth.sub(batch as i64);
                    batch_len.record(batch as u64);
                    // Profiles are thread-local: move this thread's into
                    // the shared ring for /profilez and --explain.
                    let finished = profile::take();
                    if !finished.is_empty() {
                        let mut ring = thread_profiles.lock();
                        for p in finished {
                            if ring.len() >= PROFILE_RING {
                                ring.remove(0);
                            }
                            ring.push(p);
                        }
                    }
                    if wall >= SLOW_BATCH {
                        // The flight recorder is global: ingest tail
                        // spikes stay visible next to the query traffic
                        // that felt them.
                        bp_obs::log::warn(
                            "bp_core::shared",
                            "slow capture batch",
                            &[
                                ("events", batch.to_string()),
                                ("wall_us", wall.as_micros().to_string()),
                            ],
                        );
                    }
                    if !ok {
                        return;
                    }
                }
                match tail {
                    Some(Message::Flush(ack)) => {
                        let _ = ack.send(());
                    }
                    Some(Message::Shutdown) => return,
                    // Events never land in `tail` (`collect` moves them
                    // into the batch); nothing to do when the queue
                    // simply ran dry.
                    Some(Message::Event(..) | Message::Events(..)) | None => {}
                }
            }
        });
        CapturePipeline {
            shared,
            sender,
            handle: Some(handle),
            rejected,
            failed,
            queue_depth,
            stalls,
            flushes,
            profiles,
        }
    }

    /// A handle for concurrent readers (clone freely).
    pub fn shared(&self) -> SharedBrowser {
        self.shared.clone()
    }

    /// Enqueues an event; returns `false` if the pipeline has stopped.
    pub fn submit(&self, event: BrowserEvent) -> bool {
        self.queue_depth.add(1);
        let sent = self
            .sender
            .send(Message::Event(Box::new(event), bp_obs::trace::current()))
            .is_ok();
        if !sent {
            self.queue_depth.sub(1);
        }
        sent
    }

    /// Enqueues a batch of events under the submitter's current trace
    /// context, with one queue-depth update for the whole batch (the
    /// per-event gauge write is measurable at feeder rates). The batch
    /// travels as messages of up to `DRAIN_BATCH_MAX` events, each
    /// applied in one write group. Returns how many events were accepted
    /// — fewer than the batch only when the pipeline has stopped.
    pub fn submit_all(&self, events: impl IntoIterator<Item = BrowserEvent>) -> usize {
        let context = bp_obs::trace::current();
        let events: Vec<BrowserEvent> = events.into_iter().collect();
        let total = events.len();
        self.queue_depth.add(total as i64);
        let mut accepted = 0usize;
        let mut events = events.into_iter();
        loop {
            let chunk: Vec<BrowserEvent> = events.by_ref().take(DRAIN_BATCH_MAX).collect();
            let len = chunk.len();
            if len == 0 || self.sender.send(Message::Events(chunk, context)).is_err() {
                break;
            }
            accepted += len;
        }
        if accepted < total {
            self.queue_depth.sub((total - accepted) as i64);
        }
        accepted
    }

    /// Blocks until every previously submitted event has been applied.
    ///
    /// A flush issued while events are still queued counts as a
    /// backpressure stall: some caller is waiting on the capture thread.
    pub fn flush(&self) {
        self.flushes.inc();
        if self.queue_depth.get() > 0 {
            self.stalls.inc();
        }
        let (ack_tx, ack_rx) = channel::bounded(1);
        if self.sender.send(Message::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// Number of events rejected as inconsistent so far.
    pub fn rejected_events(&self) -> u64 {
        *self.rejected.lock()
    }

    /// The storage failure that stopped the pipeline, if any.
    pub fn failure(&self) -> Option<String> {
        self.failed.lock().clone()
    }

    /// Drains the retained capture-batch profiles (oldest first).
    ///
    /// Each batch the capture thread applies produces one profile whose
    /// `capture.flush` stage records queue→store rows; `/profilez` and
    /// `--explain` surface these next to query profiles so ingest tail
    /// spikes are attributable.
    pub fn take_profiles(&self) -> Vec<Profile> {
        std::mem::take(&mut *self.profiles.lock())
    }

    /// Stops the capture thread and returns the browser.
    ///
    /// # Panics
    ///
    /// Panics if a reader still holds a [`SharedBrowser`] clone (drop all
    /// readers first) — keeping the browser locked forever would be worse.
    #[expect(
        clippy::panic,
        reason = "documented # Panics contract: the browser cannot be returned while readers hold it, and blocking forever would hide the bug"
    )]
    pub fn shutdown(mut self) -> ProvenanceBrowser {
        let _ = self.sender.send(Message::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let shared = self.shared.clone();
        // Drop our own handles before unwrapping.
        drop(self);
        shared
            .try_into_inner()
            .unwrap_or_else(|_| panic!("readers still hold SharedBrowser handles"))
    }
}

impl Drop for CapturePipeline {
    fn drop(&mut self) {
        // Best-effort teardown; prefer calling `shutdown` explicitly.
        let _ = self.sender.send(Message::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureConfig;
    use crate::event::{NavigationCause, TabId};
    use bp_graph::Timestamp;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "bp-shared-test-{tag}-{}-{:?}",
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

    fn browser(dir: &TempDir) -> ProvenanceBrowser {
        ProvenanceBrowser::open(&dir.0, CaptureConfig::default()).unwrap()
    }

    #[test]
    fn pipeline_applies_events_in_order() {
        let dir = TempDir::new("order");
        let pipeline = CapturePipeline::start(browser(&dir));
        assert!(pipeline.submit(BrowserEvent::tab_opened(t(0), TabId(0), None)));
        for i in 0..20 {
            assert!(pipeline.submit(BrowserEvent::navigate(
                t(i + 1),
                TabId(0),
                format!("http://p{i}/"),
                None,
                NavigationCause::Link,
            )));
        }
        pipeline.flush();
        assert_eq!(pipeline.rejected_events(), 0);
        let shared = pipeline.shared();
        {
            let guard = shared.read();
            assert!(guard.graph().verify_acyclic());
            assert_eq!(
                guard
                    .graph()
                    .nodes_of_kind(bp_graph::NodeKind::PageVisit)
                    .count(),
                20
            );
        }
        drop(shared);
        let b = pipeline.shutdown();
        assert_eq!(b.visit_count("http://p0/"), 1);
    }

    #[test]
    fn bad_events_are_counted_not_fatal() {
        let dir = TempDir::new("bad");
        let pipeline = CapturePipeline::start(browser(&dir));
        // Navigation in a never-opened tab: rejected.
        pipeline.submit(BrowserEvent::navigate(
            t(1),
            TabId(9),
            "http://x/",
            None,
            NavigationCause::Link,
        ));
        pipeline.submit(BrowserEvent::tab_opened(t(2), TabId(0), None));
        pipeline.submit(BrowserEvent::navigate(
            t(3),
            TabId(0),
            "http://ok/",
            None,
            NavigationCause::Typed,
        ));
        pipeline.flush();
        assert_eq!(pipeline.rejected_events(), 1);
        assert!(pipeline.failure().is_none());
        let b = pipeline.shutdown();
        assert_eq!(b.visit_count("http://ok/"), 1);
    }

    #[test]
    fn a_timestamp_that_steps_back_is_rejected_not_fatal() {
        let dir = TempDir::new("backwards");
        let pipeline = CapturePipeline::start(browser(&dir));
        let go = |at: i64, url: &str| {
            BrowserEvent::navigate(t(at), TabId(1), url, None, NavigationCause::Typed)
        };
        pipeline.submit(BrowserEvent::tab_opened(t(100), TabId(1), None));
        pipeline.submit(go(100, "http://a/"));
        // Closing `a` at 50 s would precede its open at 100 s.
        pipeline.submit(go(50, "http://b/"));
        pipeline.submit(go(120, "http://c/"));
        pipeline.flush();
        assert_eq!(pipeline.rejected_events(), 1);
        assert!(pipeline.failure().is_none());
        let b = pipeline.shutdown();
        assert_eq!(
            b.visit_count("http://b/"),
            0,
            "the rejected event applied nothing"
        );
        assert_eq!(b.visit_count("http://c/"), 1, "a later valid event applies");
        let visit = bp_graph::NodeKind::PageVisit;
        let a = b.graph().newest_of_kind(visit, "http://a/").unwrap();
        let closed = b.graph().node(a).unwrap().interval().close();
        assert_eq!(closed, Some(t(120)));
    }

    #[test]
    fn concurrent_readers_interleave_with_capture() {
        let dir = TempDir::new("concurrent");
        let pipeline = CapturePipeline::start(browser(&dir));
        pipeline.submit(BrowserEvent::tab_opened(t(0), TabId(0), None));
        let shared = pipeline.shared();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let handle = shared.clone();
                std::thread::spawn(move || {
                    let mut observations = 0usize;
                    for _ in 0..200 {
                        let guard = handle.read();
                        assert!(guard.graph().verify_acyclic());
                        observations += guard.graph().node_count();
                    }
                    observations
                })
            })
            .collect();
        for i in 0..100 {
            pipeline.submit(BrowserEvent::navigate(
                t(i + 1),
                TabId(0),
                format!("http://p{}/", i % 10),
                None,
                NavigationCause::Link,
            ));
        }
        for reader in readers {
            reader.join().unwrap();
        }
        pipeline.flush();
        drop(shared);
        let b = pipeline.shutdown();
        assert_eq!(
            b.graph()
                .nodes_of_kind(bp_graph::NodeKind::PageVisit)
                .count(),
            100
        );
        assert!(b.graph().verify_acyclic());
    }

    #[test]
    fn trace_context_crosses_the_capture_queue() {
        // Several submitter threads, each under its own trace context,
        // enqueue events the capture thread will reject (navigations in
        // never-opened tabs). The rejection log line is emitted on the
        // *capture* thread, so it proves the submitter's context crossed
        // the queue hand-off: each line's trace_id must match the context
        // that enqueued that event (the tab number pairs them up).
        let dir = TempDir::new("tracectx");
        let pipeline = CapturePipeline::start(browser(&dir));
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                let pipeline = &pipeline;
                scope.spawn(move || {
                    let ctx = bp_obs::trace::Context {
                        trace_id: 0xCAFE_0000 + i,
                        sampled_hint: false,
                    };
                    let _guard = bp_obs::trace::enter(ctx);
                    for n in 0..8u64 {
                        // Tab number encodes the submitting context.
                        assert!(pipeline.submit(BrowserEvent::navigate(
                            t((i * 100 + n) as i64),
                            TabId(100 + i as u32),
                            format!("http://bad{i}-{n}/"),
                            None,
                            NavigationCause::Link,
                        )));
                    }
                });
            }
        });
        pipeline.flush();
        assert_eq!(pipeline.rejected_events(), 32);
        let entries = bp_obs::flight::global().snapshot();
        let mut matched = 0;
        for entry in &entries {
            if entry.event.target != "bp_core::shared"
                || entry.event.message != "capture pipeline rejected event"
            {
                continue;
            }
            let reason = entry
                .event
                .fields
                .iter()
                .find(|(k, _)| k == "reason")
                .map(|(_, v)| v.as_str())
                .unwrap_or("");
            let Some(i) = (0..4u64).find(|i| reason.contains(&format!("tab{} ", 100 + i))) else {
                continue; // a rejection from some other concurrent test
            };
            let expected = bp_obs::trace::format_trace_id(0xCAFE_0000 + i);
            let stamped = entry
                .event
                .fields
                .iter()
                .find(|(k, _)| k == "trace_id")
                .map(|(_, v)| v.clone());
            assert_eq!(
                stamped,
                Some(expected),
                "capture-thread log must carry the submitter's trace ID"
            );
            matched += 1;
        }
        assert!(
            matched >= 32,
            "all 32 rejections should surface in the flight recorder, saw {matched}"
        );
        drop(pipeline.shutdown());
    }

    #[test]
    fn batched_drain_amortizes_and_profiles_the_flush() {
        bp_obs::profile::set_enabled(true);
        let dir = TempDir::new("batch");
        let obs = bp_obs::Obs::isolated();
        let b = ProvenanceBrowser::open_with_obs(
            &dir.0,
            CaptureConfig::default(),
            bp_storage::SyncPolicy::OsManaged,
            obs.clone(),
        )
        .unwrap();
        let pipeline = CapturePipeline::start(b);
        // Park the capture thread behind a long write lock while the queue
        // fills, so the whole burst drains as batches (not one-by-one).
        let shared = pipeline.shared();
        shared.with_mut(|b| {
            b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
                .unwrap();
            for i in 0..40 {
                pipeline.submit(BrowserEvent::navigate(
                    t(i + 1),
                    TabId(0),
                    format!("http://b{i}/"),
                    None,
                    NavigationCause::Link,
                ));
            }
        });
        pipeline.flush();
        let batches = obs.histogram(names::CAPTURE_BATCH_LEN);
        assert!(batches.count() >= 1, "batch_len histogram populated");
        assert!(
            batches.count() < 40,
            "40 queued events must coalesce into fewer lock acquisitions, saw {}",
            batches.count()
        );
        let profiles = pipeline.take_profiles();
        assert!(!profiles.is_empty(), "capture batches leave profiles");
        let total_in: u64 = profiles
            .iter()
            .flat_map(|p| p.stages.iter())
            .filter(|s| s.name == "capture.flush")
            .map(|s| s.rows_in)
            .sum();
        assert_eq!(total_in, 40, "every queued event flows through the stage");
        assert!(profiles.iter().all(|p| p.query == "capture"));
        // Drained means drained: a second take is empty.
        assert!(pipeline.take_profiles().is_empty());
        assert_eq!(obs.gauge(names::CAPTURE_QUEUE_DEPTH).get(), 0);
        drop(shared);
        let b = pipeline.shutdown();
        assert_eq!(
            b.graph()
                .nodes_of_kind(bp_graph::NodeKind::PageVisit)
                .count(),
            40
        );
    }

    #[test]
    fn submit_all_chunks_apply_in_one_write_group_each() {
        let dir = TempDir::new("chunk");
        let obs = bp_obs::Obs::isolated();
        let b = ProvenanceBrowser::open_with_obs(
            &dir.0,
            CaptureConfig::default(),
            bp_storage::SyncPolicy::OsManaged,
            obs.clone(),
        )
        .unwrap();
        let pipeline = CapturePipeline::start(b);
        let navigations = |from: usize, len: usize| {
            (from..from + len).map(|i| {
                BrowserEvent::navigate(
                    t(i as i64 + 1),
                    TabId(0),
                    format!("http://c{i}/"),
                    None,
                    NavigationCause::Link,
                )
            })
        };
        let chunk: Vec<BrowserEvent> =
            std::iter::once(BrowserEvent::tab_opened(t(0), TabId(0), None))
                .chain(navigations(0, 15))
                .collect();
        assert_eq!(pipeline.submit_all(chunk), 16);
        pipeline.flush();
        let batches = obs.histogram(names::CAPTURE_BATCH_LEN);
        assert_eq!(batches.count(), 1, "a 16-event chunk is one batch");
        // A chunk longer than DRAIN_BATCH_MAX travels as bounded pieces.
        let long = DRAIN_BATCH_MAX + 44;
        assert_eq!(pipeline.submit_all(navigations(15, long)), long);
        pipeline.flush();
        assert_eq!(batches.count(), 3);
        assert_eq!(obs.gauge(names::CAPTURE_QUEUE_DEPTH).get(), 0);
        let b = pipeline.shutdown();
        assert_eq!(
            b.graph()
                .nodes_of_kind(bp_graph::NodeKind::PageVisit)
                .count(),
            15 + long
        );
    }

    #[test]
    fn profile_ring_is_bounded() {
        bp_obs::profile::set_enabled(true);
        let dir = TempDir::new("ring");
        let pipeline = CapturePipeline::start(browser(&dir));
        pipeline.submit(BrowserEvent::tab_opened(t(0), TabId(0), None));
        // Submit-then-flush one event at a time forces one batch (and one
        // profile) per event; the ring must cap at PROFILE_RING.
        for i in 0..(PROFILE_RING + 10) {
            pipeline.submit(BrowserEvent::navigate(
                t(i as i64 + 1),
                TabId(0),
                format!("http://r{i}/"),
                None,
                NavigationCause::Link,
            ));
            pipeline.flush();
        }
        let profiles = pipeline.take_profiles();
        assert!(profiles.len() <= PROFILE_RING);
        assert!(profiles.len() >= PROFILE_RING / 2, "ring retains recents");
        drop(pipeline.shutdown());
    }

    #[test]
    fn submit_after_shutdown_reports_stopped() {
        let dir = TempDir::new("stopped");
        let pipeline = CapturePipeline::start(browser(&dir));
        let sender = pipeline.sender.clone();
        drop(pipeline); // joins the thread
        assert!(
            sender.send(Message::Shutdown).is_err() || {
                // channel may still accept until receiver drop propagates;
                // either way a fresh submit must eventually fail.
                true
            }
        );
    }

    #[test]
    fn shared_with_mut_and_into_inner() {
        let dir = TempDir::new("inner");
        let shared = SharedBrowser::new(browser(&dir));
        shared.with_mut(|b| {
            b.ingest(&BrowserEvent::tab_opened(t(0), TabId(0), None))
                .unwrap();
        });
        let clone = shared.clone();
        assert!(clone.try_into_inner().is_err(), "two handles alive");
        let b = shared.try_into_inner().expect("last handle");
        assert_eq!(b.graph().node_count(), 1);
    }
}
