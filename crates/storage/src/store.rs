//! The durable provenance graph store.
//!
//! [`ProvenanceStore`] is the paper's "single, homogeneous provenance graph
//! store" (§3.4) made durable: an in-memory [`ProvenanceGraph`] kept
//! consistent with an on-disk write-ahead log plus snapshot. The store
//! keeps no index beside the graph: the graph's key table answers
//! key → nodes, and each node holds its own open/close interval.
//!
//! Layout on disk (one directory per profile):
//!
//! ```text
//! <dir>/snapshot.bps   header (`BPSNAP\x03`, the last log generation it
//!                      covers), then the compacted graph; replaced by an
//!                      atomic rename at each compaction
//! <dir>/log.wal        header (`BPLOG\x01`, the log's generation), then
//!                      the ops appended since the last snapshot
//! ```
//!
//! Recovery replays the snapshot, then the log if the log's generation is
//! the one after the snapshot's, truncating any torn tail. A log the
//! snapshot already covers is skipped and reset; one from a later
//! generation is refused. Replay is deterministic: node/edge ids are dense
//! log positions, so the rebuilt graph is byte-for-byte the pre-crash
//! committed state.

use crate::error::{StorageError, StorageResult};
use crate::intern::StringInterner;
use crate::record::{Codec, Op, OpValue};
use crate::wal::{SyncPolicy, Wal};
use bp_graph::{
    AttrMap, AttrValue, Edge, EdgeKind, Node, NodeId, NodeKind, ProvenanceGraph, Timestamp, Version,
};
use bp_obs::{names, Counter, Histogram, Obs};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SNAPSHOT_FILE: &str = "snapshot.bps";
const LOG_FILE: &str = "log.wal";
/// Magic + format version of the snapshot's first frame, which goes on with
/// the last log generation the snapshot covers (`u64`, little-endian).
/// Recovery rejects snapshots from an unknown format generation instead of
/// misinterpreting their bytes. Version 3 is version 2's columnar delta
/// encoding ([`crate::snapshot`]) plus that generation; version 1 (the
/// literal op stream) is refused.
const SNAPSHOT_MAGIC: &[u8] = b"BPSNAP\x03";
/// The whole first frame of a version-2 snapshot, which predates log
/// generations: it covers generation 0, so the log beside it is replayed.
const SNAPSHOT_HEADER_V2: &[u8] = b"BPSNAP\x02";
/// Magic of the log's first frame, which goes on with the log's generation
/// (`u64`, little-endian). No op record starts with these bytes: op tags
/// are below 6.
const LOG_MAGIC: &[u8] = b"BPLOG\x01";

/// A durable browser-provenance store.
///
/// Every mutator returns [`StorageError::LogSuperseded`], and changes
/// nothing, after a compaction failed past its rename, until a later
/// [`snapshot`](Self::snapshot) succeeds.
///
/// # Examples
///
/// ```
/// use bp_storage::{ProvenanceStore, SyncPolicy};
/// use bp_graph::{NodeKind, EdgeKind, Timestamp};
///
/// # fn main() -> Result<(), bp_storage::StorageError> {
/// let dir = std::env::temp_dir().join(format!("bp-store-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let mut store = ProvenanceStore::open(&dir, SyncPolicy::OsManaged)?;
/// let t = Timestamp::from_secs(1);
/// let term = store.add_node(NodeKind::SearchTerm, "rosebud", t, &[])?;
/// let visit = store.add_visit("http://se/?q=rosebud", t)?;
/// store.add_edge(visit, term, EdgeKind::SearchResult, t)?;
/// assert_eq!(store.graph().node_count(), 2);
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProvenanceStore {
    graph: ProvenanceGraph,
    interner: StringInterner,
    wal: Wal,
    codec: Codec,
    dir: PathBuf,
    /// When batching, encoded ops accumulate here and are appended as one
    /// frame at [`commit_batch`](Self::commit_batch) — making multi-op
    /// units (one browser event's worth of mutations) atomic on disk.
    pending: Option<Vec<u8>>,
    /// When a write group is open, committed batch frames accumulate here
    /// and hit the log as one [`Wal::append_group`] call (one `write`, one
    /// policy-driven `sync`) at [`commit_write_group`](Self::commit_write_group).
    group: Option<Vec<Vec<u8>>>,
    /// Generation of the log being appended to. The snapshot on disk
    /// covers every earlier one.
    generation: u64,
    /// Bytes of the snapshot on disk, kept so that sizing the store
    /// costs no `stat`.
    snapshot_bytes: u64,
    /// Why writes are refused: a compaction renamed its snapshot into
    /// place but could not start the next log, so the snapshot covers the
    /// log still open, and recovery would skip anything appended to it.
    superseded: Option<String>,
    /// Makes the next compaction fail after its rename.
    #[cfg(test)]
    fail_after_rename: bool,
    obs: Obs,
    /// Hot-path metric handles, resolved once at open.
    wal_appends: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    wal_group_groups: Arc<Counter>,
    wal_group_events: Arc<Counter>,
    wal_group_sync_us: Arc<Histogram>,
}

impl ProvenanceStore {
    /// Opens (creating if necessary) the store in `dir`, replaying any
    /// existing snapshot and log.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] on filesystem failure, or
    /// [`StorageError::Corrupt`]/[`StorageError::Replay`] if committed
    /// records cannot be reapplied (which indicates on-disk corruption
    /// beyond a torn tail).
    pub fn open(dir: impl AsRef<Path>, policy: SyncPolicy) -> StorageResult<Self> {
        Self::open_with_obs(dir, policy, Obs::global())
    }

    /// [`open`](Self::open) reporting metrics into an explicit [`Obs`]
    /// handle instead of the process-global one. Tests
    /// that assert exact metric values use this with [`Obs::isolated`].
    ///
    /// # Errors
    ///
    /// See [`open`](Self::open).
    pub fn open_with_obs(
        dir: impl AsRef<Path>,
        policy: SyncPolicy,
        obs: Obs,
    ) -> StorageResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let wal_appends = obs.counter(names::WAL_APPENDS_TOTAL);
        let wal_bytes = obs.counter(names::WAL_BYTES_WRITTEN);
        let wal_group_groups = obs.counter(names::WAL_GROUP_COMMIT_GROUPS);
        let wal_group_events = obs.counter(names::WAL_GROUP_COMMIT_EVENTS);
        let wal_group_sync_us = obs.histogram(names::WAL_GROUP_COMMIT_SYNC_US);
        let mut store = ProvenanceStore {
            graph: ProvenanceGraph::new(),
            interner: StringInterner::new(),
            wal: Wal::open(dir.join(LOG_FILE), policy)?,
            codec: Codec::new(),
            dir,
            pending: None,
            group: None,
            generation: 0,
            snapshot_bytes: 0,
            superseded: None,
            #[cfg(test)]
            fail_after_rename: false,
            obs,
            wal_appends,
            wal_bytes,
            wal_group_groups,
            wal_group_events,
            wal_group_sync_us,
        };
        // `log.wal` may have just been created.
        sync_dir(&store.dir)?;
        store.recover()?;
        store.publish_gauges();
        Ok(store)
    }

    /// The observability handle this store reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Publishes the store's size gauges (graph, interner) to the registry.
    fn publish_gauges(&self) {
        self.obs
            .gauge(names::STORAGE_GRAPH_NODES)
            .set(self.graph.node_count() as i64);
        self.obs
            .gauge(names::STORAGE_GRAPH_EDGES)
            .set(self.graph.edge_count() as i64);
        self.obs
            .gauge(names::STORAGE_INTERNER_STRINGS)
            .set(self.interner.len() as i64);
        self.obs
            .gauge(names::STORAGE_INTERNER_BYTES)
            .set(self.interner.payload_bytes() as i64);
    }

    fn recover(&mut self) -> StorageResult<()> {
        let covered = self.replay_snapshot()?;
        let next = covered.saturating_add(1);
        let contents = self.wal.read_all()?;
        let (generation, records) = match contents.frames.split_first() {
            Some((first, rest)) => match parse_header(LOG_MAGIC, first) {
                Some(generation) => (generation, rest),
                // Written before logs carried a header: the first
                // generation's log.
                None => (1, contents.frames.as_slice()),
            },
            // Empty, or torn inside its header: the next generation's
            // empty log.
            None => (next, &[][..]),
        };
        if self.wal.truncated_on_open() {
            self.obs.counter(names::WAL_TORN_TAIL_TRUNCATIONS).inc();
            bp_obs::log::warn(
                "bp_storage::store",
                "torn tail truncated on log open; committed history intact",
                &[],
            );
        }
        if generation > next {
            return Err(StorageError::corrupt(
                0,
                format!(
                    "log generation {generation} follows a snapshot of generation \
                     {covered}: the snapshot is older than the log"
                ),
            ));
        }
        if generation < next {
            // A compaction renamed its snapshot into place and stopped
            // before it reset the log: the snapshot holds all of it.
            self.obs
                .counter(names::STORAGE_STALE_LOGS_SKIPPED_TOTAL)
                .inc();
            bp_obs::log::warn(
                "bp_storage::store",
                "log already covered by the snapshot; skipped and reset",
                &[
                    ("log_generation", generation.to_string()),
                    ("snapshot_generation", covered.to_string()),
                ],
            );
            return self.start_log(next);
        }
        if contents.frames.is_empty() {
            self.start_log(next)?;
        }
        self.generation = generation;
        // The log's codec state continues from a fresh codec (the log is
        // reset at snapshot time), not from the snapshot codec.
        let mut codec = Codec::new();
        for frame in records {
            let mut pos = 0;
            while pos < frame.len() {
                let op = codec.decode(frame, &mut pos)?;
                self.replay(op)?;
            }
        }
        // Future appends continue the replayed delta state.
        self.codec = codec;
        if !records.is_empty() {
            self.obs
                .counter(names::WAL_RECOVERED_FRAMES)
                .add(records.len() as u64);
            bp_obs::log::info(
                "bp_storage::store",
                "write-ahead log recovered",
                &[
                    ("frames", records.len().to_string()),
                    ("nodes", self.graph.node_count().to_string()),
                    ("edges", self.graph.edge_count().to_string()),
                ],
            );
        }
        Ok(())
    }

    /// Replays the snapshot, if there is one, and returns the last log
    /// generation it covers: 0 without a snapshot or with a version-2 one.
    fn replay_snapshot(&mut self) -> StorageResult<u64> {
        let path = self.dir.join(SNAPSHOT_FILE);
        if !path.exists() {
            return Ok(0);
        }
        let mut snap = Wal::open(&path, SyncPolicy::OsManaged)?;
        self.snapshot_bytes = snap.len_bytes();
        let contents = snap.read_all()?;
        let mut frames = contents.frames.iter();
        let covered = match frames.next() {
            None => return Ok(0), // empty snapshot: nothing to replay
            Some(header) if header == SNAPSHOT_HEADER_V2 => 0,
            Some(header) => parse_header(SNAPSHOT_MAGIC, header).ok_or_else(|| {
                StorageError::corrupt(
                    0,
                    format!(
                        "snapshot format mismatch: expected {SNAPSHOT_MAGIC:?}, found {:?}",
                        &header[..header.len().min(8)]
                    ),
                )
            })?,
        };
        // Columnar frames lower back into the op stream.
        for frame in frames {
            for op in crate::snapshot::decode(frame)? {
                self.replay(op)?;
            }
        }
        Ok(covered)
    }

    /// Empties the log and starts it again as generation `generation`,
    /// its header frame synced before any record follows it.
    fn start_log(&mut self, generation: u64) -> StorageResult<()> {
        self.wal.reset()?;
        self.wal.append(&header(LOG_MAGIC, generation))?;
        self.wal.sync()?;
        self.generation = generation;
        Ok(())
    }

    /// Refuses a write that recovery would skip (see `superseded`).
    /// Every mutator calls it before it interns anything, and `commit`
    /// before it applies an op, so a refused write changes nothing; and
    /// since `snapshot` flushes every open batch and group before its
    /// rename, no frame is left to reach the covered log.
    fn check_writable(&self) -> StorageResult<()> {
        match &self.superseded {
            Some(reason) => Err(StorageError::LogSuperseded(reason.clone())),
            None => Ok(()),
        }
    }

    fn replay(&mut self, op: Op) -> StorageResult<()> {
        match op {
            Op::DefineString { id, value } => {
                self.interner.define(id, &value).map_err(|expected| {
                    StorageError::Replay(format!(
                        "string id {id} defined out of order (expected {expected})"
                    ))
                })
            }
            other => self.apply_structural(&other).map(|_| ()),
        }
    }

    /// Applies a non-DefineString op to the graph (shared between
    /// live mutation and replay). Keys, attribute names and string values
    /// are the interner's shared strings, so applying an op allocates none.
    fn apply_structural(&mut self, op: &Op) -> StorageResult<Option<NodeId>> {
        match op {
            Op::DefineString { .. } => Err(StorageError::Replay(
                "DefineString reached the structural apply path".to_owned(),
            )),
            Op::AddNode {
                kind,
                key,
                version,
                open_at,
                attrs,
            } => {
                let key = self.resolve(*key)?;
                let mut node = Node::with_version(*kind, key, *version, *open_at);
                self.resolve_attrs(attrs, node.attrs_mut())?;
                Ok(Some(self.graph.add_node(node)))
            }
            Op::AddEdge {
                src,
                dst,
                kind,
                at,
                attrs,
            } => {
                let mut edge = Edge::new(*src, *dst, *kind, *at);
                self.resolve_attrs(attrs, edge.attrs_mut())?;
                self.graph
                    .add_edge_full(edge)
                    .map_err(|e| StorageError::Replay(e.to_string()))?;
                Ok(None)
            }
            Op::CloseNode { node, at } => {
                self.graph
                    .node_mut(*node)
                    .and_then(|n| n.close_at(*at))
                    .map_err(|e| StorageError::Replay(e.to_string()))?;
                Ok(None)
            }
            Op::SetNodeAttr { node, key, value } => {
                let kname = self.resolve(*key)?;
                let value = value.resolve(&self.interner)?;
                self.graph
                    .node_mut(*node)
                    .map_err(|e| StorageError::Replay(e.to_string()))?
                    .attrs_mut()
                    .set(kname, value);
                Ok(None)
            }
            Op::RedactNode { node, replacement } => {
                let replacement = self.resolve(*replacement)?;
                self.graph
                    .redact_node(*node, replacement)
                    .map_err(|e| StorageError::Replay(e.to_string()))?;
                Ok(None)
            }
        }
    }

    /// The interner's shared copy of string `id`.
    fn resolve(&self, id: u32) -> StorageResult<Arc<str>> {
        self.interner
            .resolve(id)
            .ok_or(StorageError::UnknownStringId(id))
    }

    /// Sets `attrs` on `map` with their names and string values resolved.
    fn resolve_attrs(&self, attrs: &[(u32, OpValue)], map: &mut AttrMap) -> StorageResult<()> {
        for (kid, value) in attrs {
            map.set(self.resolve(*kid)?, value.resolve(&self.interner)?);
        }
        Ok(())
    }

    /// Interns `s`, appending a DefineString record if new.
    fn intern(&mut self, s: &str, batch: &mut Vec<u8>) -> u32 {
        let (id, new) = self.interner.intern_full(s);
        if new {
            let op = Op::DefineString {
                id,
                value: s.to_owned(),
            };
            self.codec.encode(&op, batch);
        }
        id
    }

    /// A value as its record carries it: a string by its interned id,
    /// its DefineString record (if new) ahead of its first use.
    fn intern_value(&mut self, value: &AttrValue, batch: &mut Vec<u8>) -> OpValue {
        match value {
            AttrValue::Str(s) => OpValue::Str(self.intern(s, batch)),
            other => OpValue::Inline(other.clone()),
        }
    }

    fn intern_attrs(
        &mut self,
        attrs: &[(&str, AttrValue)],
        batch: &mut Vec<u8>,
    ) -> Vec<(u32, OpValue)> {
        attrs
            .iter()
            .map(|(k, v)| (self.intern(k, batch), self.intern_value(v, batch)))
            .collect()
    }

    /// Appends one frame to the log, keeping the WAL counters in step.
    fn append_frame(&mut self, payload: &[u8]) -> StorageResult<()> {
        self.wal.append(payload)?;
        self.wal_appends.inc();
        // 8 bytes of frame header (length + checksum) per append.
        self.wal_bytes.add(payload.len() as u64 + 8);
        Ok(())
    }

    /// Routes one finished frame either into the open write group
    /// (deferring the disk write to the group boundary) or straight to the
    /// log.
    fn enqueue_frame(&mut self, frame: Vec<u8>) -> StorageResult<()> {
        match &mut self.group {
            Some(group) => {
                group.push(frame);
                Ok(())
            }
            None => self.append_frame(&frame),
        }
    }

    fn commit(&mut self, op: Op, mut batch: Vec<u8>) -> StorageResult<Option<NodeId>> {
        self.check_writable()?;
        self.codec.encode(&op, &mut batch);
        let result = self.apply_structural(&op)?;
        match &mut self.pending {
            Some(pending) => pending.extend_from_slice(&batch),
            None => self.enqueue_frame(batch)?,
        }
        Ok(result)
    }

    /// Starts an atomic batch: subsequent mutations accumulate in memory
    /// and reach the log as **one frame** at
    /// [`commit_batch`](Self::commit_batch). Recovery therefore replays a
    /// batch entirely or not at all — the capture layer wraps each browser
    /// event in a batch so a crash can never persist half a navigation
    /// (a visit without its edges, a download without its source link).
    ///
    /// Batches do not nest; calling again while one is open is a no-op.
    pub fn begin_batch(&mut self) {
        if self.pending.is_none() {
            self.pending = Some(Vec::new());
        }
    }

    /// Appends the open batch to the log as a single frame.
    ///
    /// A no-op if no batch is open or it is empty.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if the append fails; the in-memory
    /// state already reflects the batch (mutations are validated before
    /// application, so the only divergence risk is the device failing).
    pub fn commit_batch(&mut self) -> StorageResult<()> {
        if let Some(pending) = self.pending.take() {
            if !pending.is_empty() {
                let grouped = self.group.is_some();
                self.enqueue_frame(pending)?;
                // Inside a write group the gauges are published once at the
                // group boundary instead of per batch.
                if !grouped {
                    self.publish_gauges();
                }
            }
        }
        Ok(())
    }

    /// Starts a write group: frames produced by subsequent
    /// [`commit_batch`](Self::commit_batch) calls (and unbatched commits)
    /// accumulate in memory and reach the log as **one**
    /// [`Wal::append_group`] call — one `write(2)`, one policy-driven
    /// `sync` — at [`commit_write_group`](Self::commit_write_group). Each
    /// batch keeps its own frame, so torn-group recovery still replays
    /// complete batches only.
    ///
    /// Groups do not nest; calling again while one is open is a no-op.
    pub fn begin_write_group(&mut self) {
        if self.group.is_none() {
            self.group = Some(Vec::new());
        }
    }

    /// Appends the open write group's frames to the log in one call.
    ///
    /// A no-op if no group is open or it is empty.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if the append fails; as with
    /// [`commit_batch`](Self::commit_batch), the in-memory state already
    /// reflects the group's mutations.
    pub fn commit_write_group(&mut self) -> StorageResult<()> {
        let Some(frames) = self.group.take() else {
            return Ok(());
        };
        if frames.is_empty() {
            return Ok(());
        }
        let receipt = self.wal.append_group(&frames)?;
        self.wal_appends.add(receipt.frames as u64);
        self.wal_bytes.add(receipt.bytes);
        self.wal_group_groups.inc();
        self.wal_group_events.add(receipt.frames as u64);
        if receipt.synced {
            self.wal_group_sync_us.record(receipt.sync_micros);
        }
        self.publish_gauges();
        Ok(())
    }

    /// Whether a write group is currently open.
    pub fn group_active(&self) -> bool {
        self.group.is_some()
    }

    /// Adds a node of any kind with attributes; returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if the log append fails.
    pub fn add_node(
        &mut self,
        kind: NodeKind,
        key: &str,
        at: Timestamp,
        attrs: &[(&str, AttrValue)],
    ) -> StorageResult<NodeId> {
        let version = if kind.is_versioned() {
            self.graph
                .latest_version_of(kind, key)
                .map_or(Version::FIRST, |(_, v)| v.next())
        } else {
            Version::FIRST
        };
        self.add_node_at_version(kind, key, at, attrs, version)
    }

    /// Adds a node whose version the caller has already resolved, skipping
    /// the version-chain lookup. Callers must pass the version that
    /// [`add_node`](Self::add_node) would have computed; anything else
    /// corrupts the version chain.
    fn add_node_at_version(
        &mut self,
        kind: NodeKind,
        key: &str,
        at: Timestamp,
        attrs: &[(&str, AttrValue)],
        version: Version,
    ) -> StorageResult<NodeId> {
        self.check_writable()?;
        let mut batch = Vec::new();
        let key_id = self.intern(key, &mut batch);
        let encoded_attrs = self.intern_attrs(attrs, &mut batch);
        let op = Op::AddNode {
            kind,
            key: key_id,
            version,
            open_at: at,
            attrs: encoded_attrs,
        };
        self.commit(op, batch)?
            .ok_or_else(|| StorageError::Replay("AddNode commit yielded no node id".to_owned()))
    }

    /// Adds a page-visit instance of `url`, automatically versioned and
    /// linked to its predecessor with a [`EdgeKind::VersionOf`] edge —
    /// the §3.1 cycle-breaking entry point.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if the log append fails.
    pub fn add_visit(&mut self, url: &str, at: Timestamp) -> StorageResult<NodeId> {
        self.add_visit_with_attrs(url, at, &[])
    }

    /// [`add_visit`](Self::add_visit) with initial attributes folded into
    /// the `AddNode` record. The version chain is resolved exactly once:
    /// the same lookup yields both the new node's version and the
    /// predecessor for its [`EdgeKind::VersionOf`] edge, which matters on
    /// the capture hot path where every navigate lands here.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if the log append fails.
    pub fn add_visit_with_attrs(
        &mut self,
        url: &str,
        at: Timestamp,
        attrs: &[(&str, AttrValue)],
    ) -> StorageResult<NodeId> {
        let prior = self.graph.latest_version_of(NodeKind::PageVisit, url);
        let version = prior.map_or(Version::FIRST, |(_, v)| v.next());
        let id = self.add_node_at_version(NodeKind::PageVisit, url, at, attrs, version)?;
        if let Some((prev, _)) = prior {
            self.add_edge(id, prev, EdgeKind::VersionOf, at)?;
        }
        Ok(id)
    }

    /// Adds a derives-from edge.
    ///
    /// # Errors
    ///
    /// [`StorageError::Replay`] wraps graph rejections (an unknown node,
    /// or an edge out of the graph's order, see
    /// [`ProvenanceGraph::check_edge`]); [`StorageError::Io`] covers log
    /// failures. On rejection nothing is logged.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        kind: EdgeKind,
        at: Timestamp,
    ) -> StorageResult<()> {
        self.add_edge_with_attrs(src, dst, kind, at, &[])
    }

    /// Adds a derives-from edge carrying attributes.
    ///
    /// # Errors
    ///
    /// See [`add_edge`](Self::add_edge).
    pub fn add_edge_with_attrs(
        &mut self,
        src: NodeId,
        dst: NodeId,
        kind: EdgeKind,
        at: Timestamp,
        attrs: &[(&str, AttrValue)],
    ) -> StorageResult<()> {
        // Validate before interning or encoding: a rejected edge must not
        // reach the log (replay would fail on it) nor perturb codec or
        // interner state.
        self.check_writable()?;
        self.check_edge(src, dst)?;
        let mut batch = Vec::new();
        let encoded_attrs = self.intern_attrs(attrs, &mut batch);
        let op = Op::AddEdge {
            src,
            dst,
            kind,
            at,
            attrs: encoded_attrs,
        };
        self.commit(op, batch)?;
        Ok(())
    }

    /// Fully validates an edge before anything is interned, encoded, or
    /// logged: a rejected edge must leave the store (including the codec's
    /// delta-timestamp state and the interner) exactly as it found it.
    fn check_edge(&self, src: NodeId, dst: NodeId) -> StorageResult<()> {
        self.graph
            .check_edge(src, dst)
            .map_err(|e| StorageError::Replay(e.to_string()))
    }

    /// Closes a node's open interval (§3.2's page-close record).
    ///
    /// # Errors
    ///
    /// [`StorageError::Replay`] if the node is unknown or `at` precedes its
    /// open; [`StorageError::Io`] on log failure. A rejected close is
    /// checked before the commit advances the codec, so it logs nothing.
    pub fn close_node(&mut self, node: NodeId, at: Timestamp) -> StorageResult<()> {
        self.graph
            .node(node)
            .and_then(|n| n.interval().check_close(at))
            .map_err(|e| StorageError::Replay(e.to_string()))?;
        self.commit(Op::CloseNode { node, at }, Vec::new())?;
        Ok(())
    }

    /// Sets one attribute on an existing node.
    ///
    /// # Errors
    ///
    /// [`StorageError::Replay`] if the node is unknown, [`StorageError::Io`]
    /// on log failure.
    pub fn set_node_attr(
        &mut self,
        node: NodeId,
        key: &str,
        value: impl Into<AttrValue>,
    ) -> StorageResult<()> {
        self.check_writable()?;
        self.graph
            .node(node)
            .map_err(|e| StorageError::Replay(e.to_string()))?;
        let mut batch = Vec::new();
        let key_id = self.intern(key, &mut batch);
        let value = self.intern_value(&value.into(), &mut batch);
        self.commit(
            Op::SetNodeAttr {
                node,
                key: key_id,
                value,
            },
            batch,
        )?;
        Ok(())
    }

    /// Redacts every node whose primary key equals `key` (§4 privacy):
    /// their keys become `[redacted:<node id>]`, attributes are dropped,
    /// and the old key stops resolving in the graph's key table. Graph structure
    /// and timestamps are preserved. Returns the redacted node ids.
    ///
    /// The URL string itself disappears from disk at the next
    /// [`snapshot`](Self::snapshot): compaction rewrites the string table
    /// with only live references.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if logging fails; an unknown key is
    /// not an error (returns an empty list).
    pub fn redact_key(&mut self, key: &str) -> StorageResult<Vec<NodeId>> {
        self.check_writable()?;
        let nodes = self.graph.nodes_with_key(key).to_vec();
        for &node in &nodes {
            let mut batch = Vec::new();
            let replacement = self.intern(&format!("[redacted:{}]", node.index()), &mut batch);
            self.commit(Op::RedactNode { node, replacement }, batch)?;
        }
        if !nodes.is_empty() {
            self.obs
                .counter(names::STORAGE_REDACTIONS_TOTAL)
                .add(nodes.len() as u64);
            // Deliberately does NOT name the key: the flight recorder
            // must not become a side channel for content the user asked
            // to scrub. Count only, no key.
            bp_obs::log::warn(
                "bp_storage::store",
                "redaction scrubbed history objects",
                &[("objects", nodes.len().to_string())],
            );
        }
        Ok(nodes)
    }

    /// The in-memory graph view.
    pub fn graph(&self) -> &ProvenanceGraph {
        &self.graph
    }

    /// The string interner.
    pub fn interner(&self) -> &StringInterner {
        &self.interner
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Flushes the log to stable storage.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] on sync failure.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.wal.sync()
    }

    /// The generation of the log being appended to. The snapshot on disk
    /// covers every earlier generation; a log written before logs carried
    /// a header counts as generation 1.
    pub fn log_generation(&self) -> u64 {
        self.generation
    }

    /// Writes a compacted snapshot of the current state and starts the
    /// next generation's log.
    ///
    /// The snapshot records the generation of the log it supersedes. It is
    /// written to a temporary file, synced and renamed into place, and the
    /// directory is synced so that the rename survives a power cut; only
    /// then is the log reset, to a synced header frame carrying the next
    /// generation. A crash at any point leaves a profile that opens to the
    /// full history:
    ///
    /// - before the rename, the old snapshot and log are intact;
    /// - between the rename and the log reset, the new snapshot sits beside
    ///   a log it already covers, and recovery skips that log and resets
    ///   it (`storage.stale_logs_skipped_total` counts it);
    /// - during the reset, the log is empty or torn inside its header, and
    ///   reads as the next generation's empty log.
    ///
    /// If the compaction fails after the rename, the store refuses every
    /// later write with [`StorageError::LogSuperseded`], since recovery
    /// would skip what it appended, until a later snapshot succeeds.
    /// DESIGN § Durability states the same guarantee.
    ///
    /// Compaction rebuilds the string table from scratch: only strings the
    /// live graph still references are written. Together with
    /// [`redact_key`](Self::redact_key), this guarantees redacted URLs do
    /// not survive on disk after the next snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] on filesystem failure.
    pub fn snapshot(&mut self) -> StorageResult<()> {
        let sw = bp_obs::ClockHandle::real().start();
        // An open batch (and any open write group) must land in the (old)
        // log before it is replaced; their ops are already applied in
        // memory and the snapshot below captures them, so flushing keeps
        // every representation aligned.
        self.commit_batch()?;
        self.commit_write_group()?;
        let tmp = self.dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        let _ = std::fs::remove_file(&tmp);
        // Fresh interner: ids are re-assigned in first-reference order and
        // dead strings (including redacted keys) are dropped.
        let mut compact = StringInterner::new();
        let snapshot_bytes = {
            let mut snap = Wal::open(&tmp, SyncPolicy::OsManaged)?;
            snap.append(&header(SNAPSHOT_MAGIC, self.generation))?;
            let columns = crate::snapshot::encode(&self.graph, &mut compact)?;
            snap.append(&columns)?;
            snap.sync()?;
            snap.len_bytes()
        };
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        self.snapshot_bytes = snapshot_bytes;
        // From here the snapshot covers the open log.
        if let Err(err) = self.start_next_log() {
            self.superseded = Some(err.to_string());
            bp_obs::log::error(
                "bp_storage::store",
                "compaction failed after its rename; writes refused",
                &[("error", err.to_string())],
            );
            return Err(err);
        }
        self.superseded = None;
        self.codec = Codec::new();
        // Future log records must reference the compact table, matching
        // what recovery will replay.
        self.interner = compact;
        let elapsed = sw.elapsed();
        self.obs.counter(names::STORAGE_COMPACTIONS_TOTAL).inc();
        self.obs
            .histogram(names::STORAGE_SNAPSHOT_DURATION_US)
            .record_duration(elapsed);
        self.publish_gauges();
        let report = self.size_report();
        bp_obs::log::info(
            "bp_storage::store",
            "compaction complete; log reset",
            &[
                ("snapshot_bytes", report.snapshot_bytes.to_string()),
                ("generation", self.generation.to_string()),
                ("nodes", report.node_count.to_string()),
                ("edges", report.edge_count.to_string()),
                ("elapsed", format!("{elapsed:?}")),
            ],
        );
        Ok(())
    }

    /// Starts the log of the generation after the one the new snapshot
    /// covers.
    fn start_next_log(&mut self) -> StorageResult<()> {
        #[cfg(test)]
        if std::mem::take(&mut self.fail_after_rename) {
            return Err(std::io::Error::other("injected failure after the rename").into());
        }
        // The reset below is synced; the rename must be durable before it,
        // or a power cut could keep the next generation's log beside the
        // old snapshot, which recovery refuses.
        sync_dir(&self.dir)?;
        self.start_log(self.generation.saturating_add(1))
    }

    /// On-disk size accounting for experiment E1.
    pub fn size_report(&self) -> SizeReport {
        SizeReport {
            snapshot_bytes: self.snapshot_bytes,
            log_bytes: self.wal.len_bytes(),
            node_count: self.graph.node_count(),
            edge_count: self.graph.edge_count(),
            interned_strings: self.interner.len(),
            interned_bytes: self.interner.payload_bytes() as u64,
        }
    }
}

/// Syncs `dir` itself, so that a file just created in it or renamed into
/// it survives a power cut: syncing the file does not persist its entry.
fn sync_dir(dir: &Path) -> StorageResult<()> {
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// The header frame of a log or a snapshot: `magic`, then `generation`.
fn header(magic: &[u8], generation: u64) -> Vec<u8> {
    let mut frame = magic.to_vec();
    frame.extend_from_slice(&generation.to_le_bytes());
    frame
}

/// The generation in `frame`, if it is a header frame with `magic`.
fn parse_header(magic: &[u8], frame: &[u8]) -> Option<u64> {
    let generation = frame.strip_prefix(magic)?;
    Some(u64::from_le_bytes(generation.try_into().ok()?))
}

/// On-disk footprint summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeReport {
    /// Bytes in the snapshot file.
    pub snapshot_bytes: u64,
    /// Committed bytes in the log, its header frame included.
    pub log_bytes: u64,
    /// Nodes in the store.
    pub node_count: usize,
    /// Edges in the store.
    pub edge_count: usize,
    /// Distinct interned strings.
    pub interned_strings: usize,
    /// Total interned string payload bytes.
    pub interned_bytes: u64,
}

impl SizeReport {
    /// Total on-disk bytes (snapshot + log).
    pub fn total_bytes(&self) -> u64 {
        self.snapshot_bytes + self.log_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "bp-store-test-{tag}-{}-{:?}",
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

    /// On-disk bytes of a log that holds only its header frame.
    const LOG_HEADER_BYTES: u64 = 8 + LOG_MAGIC.len() as u64 + 8;

    /// Builds a small history; returns (dir kept alive, node ids).
    fn build(dir: &TempDir) -> (ProvenanceStore, Vec<NodeId>) {
        let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        let term = store
            .add_node(NodeKind::SearchTerm, "rosebud", t(1), &[])
            .unwrap();
        let search = store.add_visit("http://se/?q=rosebud", t(2)).unwrap();
        store
            .add_edge(search, term, EdgeKind::SearchResult, t(2))
            .unwrap();
        let kane = store.add_visit("http://films/kane", t(3)).unwrap();
        store.add_edge(kane, search, EdgeKind::Link, t(3)).unwrap();
        store.set_node_attr(kane, "title", "Citizen Kane").unwrap();
        store.close_node(search, t(4)).unwrap();
        (store, vec![term, search, kane])
    }

    #[test]
    fn basic_mutations_update_graph_and_indexes() {
        let dir = TempDir::new("basic");
        let (store, ids) = build(&dir);
        assert_eq!(store.graph().node_count(), 3);
        assert_eq!(store.graph().edge_count(), 2);
        assert_eq!(store.graph().nodes_with_key("http://films/kane"), &[ids[2]]);
        assert_eq!(
            store.graph().node(ids[2]).unwrap().attrs().get_str("title"),
            Some("Citizen Kane")
        );
        assert_eq!(
            store.graph().node(ids[1]).unwrap().interval().close(),
            Some(t(4))
        );
    }

    #[test]
    fn reopen_recovers_identical_state() {
        let dir = TempDir::new("recover");
        let (store, ids) = build(&dir);
        let nodes_before: Vec<String> = store
            .graph()
            .nodes()
            .map(|(_, n)| format!("{n:?}"))
            .collect();
        let edges_before: Vec<String> = store
            .graph()
            .edges()
            .map(|(_, e)| format!("{e:?}"))
            .collect();
        drop(store);

        let store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        let nodes_after: Vec<String> = store
            .graph()
            .nodes()
            .map(|(_, n)| format!("{n:?}"))
            .collect();
        let edges_after: Vec<String> = store
            .graph()
            .edges()
            .map(|(_, e)| format!("{e:?}"))
            .collect();
        assert_eq!(nodes_before, nodes_after);
        assert_eq!(edges_before, edges_after);
        assert_eq!(store.graph().nodes_with_key("http://films/kane"), &[ids[2]]);
    }

    #[test]
    fn writes_after_recovery_continue_cleanly() {
        let dir = TempDir::new("continue");
        let (store, ids) = build(&dir);
        drop(store);
        let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        let dl = store
            .add_node(NodeKind::Download, "/tmp/kane.mp4", t(10), &[])
            .unwrap();
        store
            .add_edge(dl, ids[2], EdgeKind::DownloadFrom, t(10))
            .unwrap();
        drop(store);
        let store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        assert_eq!(store.graph().node_count(), 4);
        assert_eq!(store.graph().edge_count(), 3);
    }

    #[test]
    fn visits_version_automatically() {
        let dir = TempDir::new("versions");
        let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        let v0 = store.add_visit("http://same/", t(1)).unwrap();
        let v1 = store.add_visit("http://same/", t(2)).unwrap();
        assert_ne!(v0, v1);
        assert_eq!(store.graph().node(v1).unwrap().version(), Version::new(1));
        let has_version_edge = store
            .graph()
            .parents(v1)
            .any(|(e, p)| store.graph().edge(e).unwrap().kind() == EdgeKind::VersionOf && p == v0);
        assert!(has_version_edge);
        // Both visits share the key table entry.
        assert_eq!(store.graph().nodes_with_key("http://same/"), &[v0, v1]);
    }

    /// Runs `script` on a fresh store with rejected mutations attempted
    /// at its marked points or skipped, and returns the log's bytes.
    fn log_after(tag: &str, attempt: bool, script: fn(&mut ProvenanceStore, bool)) -> Vec<u8> {
        let dir = TempDir::new(tag);
        let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        script(&mut store, attempt);
        drop(store);
        // Recovery must succeed: the rejected mutations never hit the log.
        let store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        drop(store);
        std::fs::read(dir.0.join("log.wal")).unwrap()
    }

    #[test]
    fn rejected_edges_do_not_pollute_the_log() {
        fn script(store: &mut ProvenanceStore, attempt: bool) {
            let a = store.add_visit("a", t(1)).unwrap();
            let b = store.add_visit("b", t(2)).unwrap();
            let c = store.add_visit("c", t(3)).unwrap();
            store.add_edge(c, a, EdgeKind::Link, t(3)).unwrap();
            if attempt {
                let attrs = [("fresh-attr", AttrValue::from(1i64))];
                let rejected = [
                    (a, b, "an older node to a newer one"),
                    (b, b, "a self-loop"),
                    (b, a, "a source older than the last edge's"),
                    (a, NodeId::new(99), "an unknown node"),
                ];
                for (src, dst, what) in rejected {
                    let added = store.add_edge_with_attrs(src, dst, EdgeKind::Link, t(9), &attrs);
                    assert!(added.is_err(), "{what} is rejected");
                }
                assert_eq!(store.graph().edge_count(), 1);
            }
            // The next record's timestamp delta and string ids are what
            // they would be without the rejections.
            store
                .add_edge_with_attrs(c, b, EdgeKind::Link, t(4), &[("note", "x".into())])
                .unwrap();
        }
        assert_eq!(
            log_after("reject-edges", true, script),
            log_after("reject-edges-none", false, script)
        );
    }

    #[test]
    fn a_close_before_the_open_is_rejected_and_logs_nothing() {
        fn script(store: &mut ProvenanceStore, attempt: bool) {
            let a = store.add_visit("a", t(10)).unwrap();
            if attempt {
                let before = std::fs::read(store.dir().join("log.wal")).unwrap();
                assert!(matches!(
                    store.close_node(a, t(9)),
                    Err(StorageError::Replay(_))
                ));
                let after = std::fs::read(store.dir().join("log.wal")).unwrap();
                assert_eq!(before, after, "the log is byte-identical");
                assert!(store.graph().node(a).unwrap().interval().is_open());
            }
            store.close_node(a, t(12)).unwrap();
        }
        assert_eq!(
            log_after("reject-close", true, script),
            log_after("reject-close-none", false, script)
        );
    }

    #[test]
    fn snapshot_compacts_and_recovers() {
        let dir = TempDir::new("snapshot");
        let (mut store, ids) = build(&dir);
        store.snapshot().unwrap();
        let report = store.size_report();
        assert!(report.snapshot_bytes > 0);
        assert_eq!(
            report.log_bytes, LOG_HEADER_BYTES,
            "log reset to its header after snapshot"
        );
        // Post-snapshot writes land in the fresh log.
        let dl = store
            .add_node(NodeKind::Download, "/tmp/x", t(20), &[])
            .unwrap();
        store
            .add_edge(dl, ids[2], EdgeKind::DownloadFrom, t(20))
            .unwrap();
        drop(store);

        let store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        assert_eq!(store.graph().node_count(), 4);
        assert_eq!(store.graph().edge_count(), 3);
        assert_eq!(
            store.graph().node(ids[2]).unwrap().attrs().get_str("title"),
            Some("Citizen Kane"),
            "attributes folded into snapshot survive"
        );
        assert_eq!(
            store.graph().node(ids[1]).unwrap().interval().close(),
            Some(t(4)),
            "close records folded into snapshot survive"
        );
    }

    #[test]
    fn double_snapshot_is_idempotent() {
        let dir = TempDir::new("double-snap");
        let (mut store, _) = build(&dir);
        store.snapshot().unwrap();
        let first = store.size_report().snapshot_bytes;
        store.snapshot().unwrap();
        let second = store.size_report().snapshot_bytes;
        assert_eq!(first, second);
        drop(store);
        let store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        assert_eq!(store.graph().node_count(), 3);
    }

    #[test]
    fn torn_log_tail_loses_only_last_record() {
        let dir = TempDir::new("torn");
        let (store, _) = build(&dir);
        let nodes = store.graph().node_count();
        drop(store);
        // Append garbage to the log (simulated torn write).
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.0.join(LOG_FILE))
            .unwrap();
        f.write_all(&[1, 2, 3]).unwrap();
        drop(f);
        let store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        assert_eq!(store.graph().node_count(), nodes);
    }

    #[test]
    fn size_report_totals() {
        let dir = TempDir::new("sizes");
        let (store, _) = build(&dir);
        let report = store.size_report();
        assert!(report.log_bytes > 0);
        assert_eq!(report.node_count, 3);
        assert_eq!(report.edge_count, 2);
        assert!(report.interned_strings >= 4, "keys + attr key");
        assert_eq!(report.total_bytes(), report.log_bytes);
    }

    #[test]
    fn empty_store_opens_and_reopens() {
        let dir = TempDir::new("empty");
        {
            let store = ProvenanceStore::open(&dir.0, SyncPolicy::OsManaged).unwrap();
            assert_eq!(store.graph().node_count(), 0);
        }
        let store = ProvenanceStore::open(&dir.0, SyncPolicy::OsManaged).unwrap();
        assert_eq!(store.graph().node_count(), 0);
    }

    #[test]
    fn redaction_hides_key_and_survives_recovery() {
        let dir = TempDir::new("redact");
        let (mut store, ids) = build(&dir);
        let redacted = store.redact_key("http://films/kane").unwrap();
        assert_eq!(redacted, vec![ids[2]]);
        assert_eq!(
            store.graph().node(ids[2]).unwrap().key(),
            format!("[redacted:{}]", ids[2].index())
        );
        assert!(store.graph().node(ids[2]).unwrap().attrs().is_empty());
        assert!(store.graph().nodes_with_key("http://films/kane").is_empty());
        // Unknown keys are a no-op.
        assert!(store.redact_key("http://never/").unwrap().is_empty());
        drop(store);
        let store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        assert!(store.graph().nodes_with_key("http://films/kane").is_empty());
        assert!(store
            .graph()
            .node(ids[2])
            .unwrap()
            .key()
            .starts_with("[redacted:"));
        // Structure still intact for lineage.
        assert_eq!(store.graph().edge_count(), 2);
    }

    #[test]
    fn redacted_keys_resolve_alike_live_and_after_either_recovery() {
        const URL: &str = "http://a.example/";
        let placeholders = ["[redacted:0]", "[redacted:1]"];
        let mut stores = Vec::new();
        for path in ["live", "log", "snapshot"] {
            let dir = TempDir::new(&format!("redact-keys-{path}"));
            let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
            store.add_visit(URL, t(1)).unwrap();
            store.add_visit(URL, t(2)).unwrap();
            assert_eq!(store.redact_key(URL).unwrap().len(), 2);
            if path == "snapshot" {
                store.snapshot().unwrap();
            }
            if path != "live" {
                drop(store);
                store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
            }
            stores.push((path, store, dir));
        }
        for (path, store, _) in &stores {
            let g = store.graph();
            assert!(g.nodes_with_key(URL).is_empty(), "{path}");
            for kind in NodeKind::ALL {
                assert_eq!(g.newest_of_kind(kind, URL), None, "{path}");
            }
            assert_eq!(
                g.latest_version_of(NodeKind::PageVisit, URL),
                None,
                "{path}"
            );
            // Each redacted visit is the newest (and latest version) under
            // its own placeholder, whichever way the graph was built.
            for (i, key) in placeholders.into_iter().enumerate() {
                let id = NodeId::new(i as u32);
                assert_eq!(g.nodes_with_key(key), &[id], "{path} {key}");
                for kind in NodeKind::ALL {
                    let expected = (kind == NodeKind::PageVisit).then_some(id);
                    assert_eq!(g.newest_of_kind(kind, key), expected, "{path} {key}");
                }
                assert_eq!(
                    g.latest_version_of(NodeKind::PageVisit, key),
                    Some((id, g.node(id).unwrap().version())),
                    "{path} {key}"
                );
            }
        }
        // A later visit to the redacted URL starts a fresh version chain.
        for (path, store, _) in &mut stores {
            let v = store.add_visit(URL, t(3)).unwrap();
            assert_eq!(
                store.graph().node(v).unwrap().version(),
                Version::FIRST,
                "{path}"
            );
            assert_eq!(store.graph().out_degree(v), 0, "{path}: no VersionOf edge");
        }
    }

    /// `bytes_per_node` counts only the live path: a key, an attribute
    /// name or a title copied instead of shared after a reopen or a
    /// compaction would double those bytes there and fail nothing else.
    #[test]
    fn every_node_key_is_the_interners_one_arc_on_every_path() {
        fn assert_shared(store: &ProvenanceStore, path: &str) {
            let interner = store.interner();
            let shared = |s: &Arc<str>| {
                let interned = interner.lookup(s).and_then(|id| interner.resolve(id));
                interned.is_some_and(|i| Arc::ptr_eq(s, &i))
            };
            let graph = store.graph();
            let nodes = graph
                .nodes()
                .map(|(id, n)| (format!("node {id}"), n.attrs()));
            let edges = graph
                .edges()
                .map(|(id, e)| (format!("edge {id}"), e.attrs()));
            for (id, node) in graph.nodes() {
                let key = node.shared_key();
                assert!(
                    shared(key),
                    "{path}: node {id} holds its own copy of {key:?}"
                );
            }
            let mut values = 0;
            for (owner, attrs) in nodes.chain(edges) {
                for (name, value) in attrs.iter_shared() {
                    assert!(shared(name), "{path}: {owner} holds its own {name:?}");
                    if let AttrValue::Str(s) = value {
                        assert!(shared(s), "{path}: {owner} holds its own {name} {s:?}");
                        values += 1;
                    }
                }
            }
            assert_eq!(values, 3, "{path}: two titles and an edge's note");
        }
        let dir = TempDir::new("shared-keys");
        let (mut store, ids) = build(&dir);
        let kane = store.add_visit("http://films/kane", t(5)).unwrap();
        let title = [("title", AttrValue::from("Citizen Kane"))];
        let welles = store
            .add_visit_with_attrs("http://films/welles", t(6), &title)
            .unwrap();
        let note = [("note", AttrValue::from("Citizen Kane"))];
        store
            .add_edge_with_attrs(welles, kane, EdgeKind::Link, t(6), &note)
            .unwrap();
        store.set_node_attr(ids[1], "title", "rosebud").unwrap();
        store.redact_key("http://films/kane").unwrap();
        assert_shared(&store, "live");
        drop(store);
        let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        assert_shared(&store, "log reopen");
        store.snapshot().unwrap();
        assert_shared(&store, "after snapshot");
        drop(store);
        let store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        assert_shared(&store, "snapshot reopen");
    }

    /// Logs written before string values were interned hold each title
    /// inline. Such a log still opens; its titles take no string id, so
    /// the `DefineString`s after them keep their ids, and the next
    /// compaction stores the titles by reference.
    #[test]
    fn a_log_with_inline_titles_replays_and_compacts_by_reference() {
        // The history both ways: a visit titled "Kane", a revisit with the
        // same title, then a visit to a new URL titled "Kane" too.
        let new_dir = TempDir::new("inline-new");
        let mut new = ProvenanceStore::open(&new_dir.0, SyncPolicy::Always).unwrap();
        let title = [("title", AttrValue::from("Kane"))];
        new.add_visit_with_attrs("http://a/", t(1), &title).unwrap();
        new.add_visit_with_attrs("http://a/", t(2), &title).unwrap();
        new.add_visit_with_attrs("http://b/", t(3), &title).unwrap();

        let old_dir = TempDir::new("inline-old");
        std::fs::create_dir_all(&old_dir.0).unwrap();
        let inline = || vec![(1, OpValue::Inline(AttrValue::from("Kane")))];
        let define = |id, value: &str| Op::DefineString {
            id,
            value: value.to_owned(),
        };
        let visit = |key, version, open_at| Op::AddNode {
            kind: NodeKind::PageVisit,
            key,
            version: Version::new(version),
            open_at,
            attrs: inline(),
        };
        let frames = [
            vec![
                define(0, "http://a/"),
                define(1, "title"),
                visit(0, 0, t(1)),
            ],
            vec![
                visit(0, 1, t(2)),
                Op::AddEdge {
                    src: NodeId::new(1),
                    dst: NodeId::new(0),
                    kind: EdgeKind::VersionOf,
                    at: t(2),
                    attrs: Vec::new(),
                },
            ],
            vec![define(2, "http://b/"), visit(2, 0, t(3))],
        ];
        let mut wal = Wal::open(old_dir.0.join(LOG_FILE), SyncPolicy::Always).unwrap();
        let mut codec = Codec::new();
        for ops in &frames {
            let mut frame = Vec::new();
            for op in ops {
                codec.encode(op, &mut frame);
            }
            wal.append(&frame).unwrap();
        }
        drop(wal);

        let graph = |store: &ProvenanceStore| -> Vec<String> {
            let g = store.graph();
            let nodes = g.nodes().map(|(id, n)| format!("N {id} {n:?}"));
            nodes
                .chain(g.edges().map(|(id, e)| format!("E {id} {e:?}")))
                .collect()
        };
        let strings = |store: &ProvenanceStore| -> Vec<String> {
            store.interner().iter().map(|(_, s)| s.to_owned()).collect()
        };
        let mut old = ProvenanceStore::open(&old_dir.0, SyncPolicy::Always).unwrap();
        assert_eq!(graph(&old), graph(&new));
        assert_eq!(strings(&new), ["http://a/", "title", "Kane", "http://b/"]);
        assert_eq!(strings(&old), ["http://a/", "title", "http://b/"]);

        // New records after the old ones intern the title with the next id.
        for store in [&mut old, &mut new] {
            store
                .add_visit_with_attrs("http://b/", t(4), &title)
                .unwrap();
        }
        drop(old);
        let mut old = ProvenanceStore::open(&old_dir.0, SyncPolicy::Always).unwrap();
        assert_eq!(graph(&old), graph(&new));
        assert_eq!(strings(&old), ["http://a/", "title", "http://b/", "Kane"]);

        // A compaction writes the same snapshot for both.
        old.snapshot().unwrap();
        new.snapshot().unwrap();
        let snapshot = |dir: &TempDir| std::fs::read(dir.0.join(SNAPSHOT_FILE)).unwrap();
        assert_eq!(snapshot(&old_dir), snapshot(&new_dir));
        drop(old);
        let old = ProvenanceStore::open(&old_dir.0, SyncPolicy::Always).unwrap();
        assert_eq!(graph(&old), graph(&new));
        assert_eq!(strings(&old), strings(&new));
    }

    #[test]
    fn snapshot_after_redaction_leaves_no_url_bytes_on_disk() {
        let dir = TempDir::new("redact-snap");
        let (mut store, _) = build(&dir);
        store.redact_key("http://films/kane").unwrap();
        store.snapshot().unwrap();
        // Scan every byte the store has on disk for the secret URL.
        let mut disk = Vec::new();
        for entry in std::fs::read_dir(&dir.0).unwrap() {
            disk.extend(std::fs::read(entry.unwrap().path()).unwrap());
        }
        let needle = b"films/kane";
        let found = disk.windows(needle.len()).any(|w| w == needle.as_slice());
        assert!(!found, "redacted URL must not survive compaction");
        // And the store still works after the compact-interner swap.
        drop(store);
        let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        assert_eq!(store.graph().node_count(), 3);
        let v = store.add_visit("http://new/", t(100)).unwrap();
        drop(store);
        let store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        assert_eq!(store.graph().node(v).unwrap().key(), "http://new/");
    }

    #[test]
    fn snapshot_compacts_dead_strings() {
        let dir = TempDir::new("compact-strings");
        let (mut store, _) = build(&dir);
        let before = store.interner().len();
        store.redact_key("http://se/?q=rosebud").unwrap();
        store.snapshot().unwrap();
        // The old URL is gone; redaction placeholders were added, so just
        // assert the specific string is absent.
        assert!(store.interner().lookup("http://se/?q=rosebud").is_none());
        let _ = before;
    }

    #[test]
    fn snapshot_format_mismatch_is_rejected() {
        let dir = TempDir::new("snap-version");
        let (mut store, _) = build(&dir);
        store.snapshot().unwrap();
        drop(store);
        // Corrupt the header frame's payload to an alien version.
        let path = dir.0.join("snapshot.bps");
        let mut wal = Wal::open(&path, SyncPolicy::OsManaged).unwrap();
        let frames = wal.read_all().unwrap().frames;
        assert_eq!(frames[0], header(b"BPSNAP\x03", 1));
        drop(wal);
        // The retired literal-op-stream generation is as alien as any.
        for header in [b"BPSNAP\x01", b"BPSNAP\x63"] {
            let alien_path = dir.0.join("alien.bps");
            let mut alien = Wal::open(&alien_path, SyncPolicy::OsManaged).unwrap();
            alien.append(header).unwrap();
            for frame in &frames[1..] {
                alien.append(frame).unwrap();
            }
            drop(alien);
            std::fs::rename(alien_path, &path).unwrap();
            let err = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap_err();
            assert!(err.to_string().contains("format mismatch"), "{err}");
        }
    }

    #[test]
    fn batches_are_atomic_frames() {
        let dir = TempDir::new("batch");
        let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        // One batch with a visit + attr + edge-worthy second node.
        store.begin_batch();
        let a = store.add_visit("http://a/", t(1)).unwrap();
        store.set_node_attr(a, "title", "A").unwrap();
        let b = store.add_visit("http://b/", t(2)).unwrap();
        store.add_edge(b, a, EdgeKind::Link, t(2)).unwrap();
        store.commit_batch().unwrap();
        // A second, separate batch.
        store.begin_batch();
        store.add_visit("http://c/", t(3)).unwrap();
        store.commit_batch().unwrap();
        drop(store);

        // The log holds its header and two frames: cut the file before the
        // second frame's end and the FIRST batch must survive completely.
        let log = dir.0.join("log.wal");
        let mut wal = Wal::open(&log, SyncPolicy::OsManaged).unwrap();
        let contents = wal.read_all().unwrap();
        assert_eq!(contents.frames.len(), 1 + 2, "one frame per batch");
        drop(wal);
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();

        let store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        assert_eq!(
            store.graph().node_count(),
            2,
            "batch 1 intact, batch 2 gone"
        );
        assert_eq!(store.graph().edge_count(), 1);
        assert_eq!(
            store.graph().node(a).unwrap().attrs().get_str("title"),
            Some("A")
        );
        assert!(store.graph().nodes_with_key("http://c/").is_empty());
    }

    #[test]
    fn empty_and_nested_batches_are_harmless() {
        let dir = TempDir::new("batch-edge");
        let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        store.begin_batch();
        store.begin_batch(); // nesting is a no-op
        store.commit_batch().unwrap(); // empty batch writes nothing
        store.commit_batch().unwrap(); // double-commit is a no-op
        assert_eq!(store.size_report().log_bytes, LOG_HEADER_BYTES);
        // Snapshot mid-batch flushes it first.
        store.begin_batch();
        store.add_visit("http://x/", t(1)).unwrap();
        store.snapshot().unwrap();
        drop(store);
        let store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        assert_eq!(store.graph().nodes_with_key("http://x/").len(), 1);
    }

    #[test]
    fn write_groups_keep_per_batch_frames() {
        let dir = TempDir::new("group");
        let obs = Obs::isolated();
        let mut store =
            ProvenanceStore::open_with_obs(&dir.0, SyncPolicy::Always, obs.clone()).unwrap();
        store.begin_write_group();
        assert!(store.group_active());
        for i in 0..3 {
            store.begin_batch();
            store.add_visit(&format!("http://g{i}/"), t(i)).unwrap();
            store.commit_batch().unwrap();
        }
        // Nothing but the header on disk until the group commits.
        assert_eq!(store.size_report().log_bytes, LOG_HEADER_BYTES);
        store.commit_write_group().unwrap();
        assert!(!store.group_active());
        // Double-commit and empty groups are no-ops.
        store.commit_write_group().unwrap();
        store.begin_write_group();
        store.commit_write_group().unwrap();
        assert_eq!(obs.counter(names::WAL_GROUP_COMMIT_GROUPS).get(), 1);
        assert_eq!(obs.counter(names::WAL_GROUP_COMMIT_EVENTS).get(), 3);
        assert_eq!(obs.counter(names::WAL_APPENDS_TOTAL).get(), 3);
        drop(store);

        // Each batch kept its own frame inside the group, after the header.
        let mut wal = Wal::open(dir.0.join(LOG_FILE), SyncPolicy::OsManaged).unwrap();
        assert_eq!(wal.read_all().unwrap().frames.len(), 1 + 3);
    }

    /// Cutting a group-committed log at every byte offset recovers a
    /// complete prefix of batches, and the recovered store is
    /// bit-identical to one built from only those batches.
    #[test]
    fn torn_write_group_recovers_bit_identical_prefix_state() {
        let visits = ["http://a/", "http://b/", "http://c/", "http://d/"];
        let reference = |dir: &TempDir, n: usize| -> ProvenanceStore {
            let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::OsManaged).unwrap();
            for (i, url) in visits.iter().take(n).enumerate() {
                store.begin_batch();
                let v = store.add_visit(url, t(i64::try_from(i).unwrap())).unwrap();
                store
                    .set_node_attr(v, "n", i64::try_from(i).unwrap())
                    .unwrap();
                store.commit_batch().unwrap();
            }
            store
        };
        let fingerprint = |store: &ProvenanceStore| -> String {
            use std::fmt::Write;
            let mut s = String::new();
            for (id, n) in store.graph().nodes() {
                let _ = writeln!(s, "N {id} {n:?}");
            }
            for (id, e) in store.graph().edges() {
                let _ = writeln!(s, "E {id} {e:?}");
            }
            let _ = writeln!(s, "I {:?}", store.interner().iter().collect::<Vec<_>>());
            s
        };

        // Write all four visits as ONE write group; note frame boundaries.
        let dir = TempDir::new("torn-group");
        let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::OsManaged).unwrap();
        store.begin_write_group();
        for (i, url) in visits.iter().enumerate() {
            store.begin_batch();
            let v = store.add_visit(url, t(i64::try_from(i).unwrap())).unwrap();
            store
                .set_node_attr(v, "n", i64::try_from(i).unwrap())
                .unwrap();
            store.commit_batch().unwrap();
        }
        store.commit_write_group().unwrap();
        drop(store);
        let log = dir.0.join(LOG_FILE);
        let bytes = std::fs::read(&log).unwrap();
        let mut wal = Wal::open(&log, SyncPolicy::OsManaged).unwrap();
        let frames = wal.read_all().unwrap().frames;
        assert_eq!(
            frames.len(),
            1 + visits.len(),
            "the header, then a frame each"
        );
        drop(wal);
        // Where each frame ends; a cut inside the header leaves the empty
        // log of the next generation, which holds no batch either.
        let mut boundaries = vec![0usize];
        for frame in &frames {
            boundaries.push(boundaries.last().unwrap() + 8 + frame.len());
        }
        boundaries.remove(0);

        // Reference fingerprints for every complete prefix.
        let expected: Vec<String> = (0..=visits.len())
            .map(|n| {
                let rdir = TempDir::new(&format!("torn-group-ref{n}"));
                let store = reference(&rdir, n);
                fingerprint(&store)
            })
            .collect();

        for cut in 0..=bytes.len() {
            std::fs::write(&log, &bytes[..cut]).unwrap();
            let complete = boundaries
                .iter()
                .filter(|&&b| b <= cut)
                .count()
                .saturating_sub(1);
            let store = ProvenanceStore::open(&dir.0, SyncPolicy::OsManaged).unwrap();
            assert_eq!(
                fingerprint(&store),
                expected[complete],
                "cut at byte {cut} must recover exactly {complete} batches"
            );
        }
    }

    /// Nodes, edges and strings, in id order.
    fn state(store: &ProvenanceStore) -> Vec<String> {
        let g = store.graph();
        let nodes = g.nodes().map(|(id, n)| format!("N {id} {n:?}"));
        let edges = g.edges().map(|(id, e)| format!("E {id} {e:?}"));
        let strings = store.interner().iter().map(|(id, s)| format!("S {id} {s}"));
        nodes.chain(edges).chain(strings).collect()
    }

    /// A log without a header beside a version-3 snapshot is the log of
    /// a profile whose first compaction stopped after its rename: the
    /// snapshot covers it, so recovery skips it and starts generation 2.
    #[test]
    fn a_headerless_log_beside_a_new_snapshot_counts_as_covered() {
        let dir = TempDir::new("headerless-covered");
        let (mut store, _) = build(&dir);
        let log = dir.0.join(LOG_FILE);
        let mut records = Wal::open(&log, SyncPolicy::OsManaged)
            .unwrap()
            .read_all()
            .unwrap()
            .frames;
        assert_eq!(parse_header(LOG_MAGIC, &records.remove(0)), Some(1));
        store.snapshot().unwrap();
        let live = state(&store);
        drop(store);
        // The same records as a log written before logs carried a header.
        std::fs::remove_file(&log).unwrap();
        let mut headerless = Wal::open(&log, SyncPolicy::OsManaged).unwrap();
        headerless.append_group(&records).unwrap();
        drop(headerless);

        let obs = Obs::isolated();
        let store =
            ProvenanceStore::open_with_obs(&dir.0, SyncPolicy::Always, obs.clone()).unwrap();
        assert_eq!(state(&store), live);
        assert_eq!(store.log_generation(), 2);
        assert_eq!(store.size_report().log_bytes, LOG_HEADER_BYTES);
        assert_eq!(
            obs.counter(names::STORAGE_STALE_LOGS_SKIPPED_TOTAL).get(),
            1
        );
    }

    /// A compaction that fails after its rename leaves a snapshot that
    /// covers the open log. The store then refuses every write, applying
    /// nothing, so no acknowledged record lands where recovery skips it;
    /// the profile reopens to the full history, and a later snapshot that
    /// succeeds lifts the refusal.
    #[test]
    fn writes_are_refused_after_a_compaction_fails_past_its_rename() {
        let refused = |r: StorageResult<NodeId>| matches!(r, Err(StorageError::LogSuperseded(_)));
        for retry in [false, true] {
            let dir = TempDir::new(&format!("superseded-{retry}"));
            let (mut store, ids) = build(&dir);
            store.fail_after_rename = true;
            assert!(matches!(store.snapshot(), Err(StorageError::Io(_))));
            let live = state(&store);
            assert!(refused(store.add_visit("http://late/", t(9))));
            store.begin_batch();
            assert!(refused(store.add_node(
                NodeKind::Download,
                "/late",
                t(9),
                &[]
            )));
            assert!(store.set_node_attr(ids[2], "title", "late").is_err());
            assert!(
                store.commit_batch().is_ok(),
                "the refused batch holds nothing"
            );
            assert_eq!(state(&store), live, "a refused write applies nothing");
            if retry {
                store.snapshot().unwrap();
                assert_eq!(store.log_generation(), 2);
                let late = store.add_visit("http://late/", t(9)).unwrap();
                assert_eq!(store.graph().node_count(), late.index() as usize + 1);
            }
            let live = state(&store);
            drop(store);
            let obs = Obs::isolated();
            let store =
                ProvenanceStore::open_with_obs(&dir.0, SyncPolicy::Always, obs.clone()).unwrap();
            assert_eq!(state(&store), live, "retry {retry}");
            let stale = obs.counter(names::STORAGE_STALE_LOGS_SKIPPED_TOTAL).get();
            assert_eq!(stale, u64::from(!retry), "retry {retry}");
        }
    }

    #[test]
    fn interner_survives_recovery() {
        let dir = TempDir::new("intern");
        let (store, _) = build(&dir);
        let len_before = store.interner().len();
        drop(store);
        let store = ProvenanceStore::open(&dir.0, SyncPolicy::Always).unwrap();
        assert_eq!(store.interner().len(), len_before);
        assert!(store.interner().lookup("rosebud").is_some());
    }
}
