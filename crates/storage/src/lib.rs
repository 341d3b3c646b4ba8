//! # bp-storage — the durable provenance graph store
//!
//! The paper's prototype stored its "model browser provenance schema … as a
//! SQLite relational database" (§4). This crate is the equivalent substrate
//! built from scratch for the reproduction (SQLite is a substrate the paper
//! did not contribute; see DESIGN.md for the substitution argument): a
//! write-ahead-logged, snapshot-compacted, crash-recoverable store for the
//! homogeneous provenance graph, with the storage-research flourishes §3.1
//! calls for:
//!
//! - [`Wal`] — checksummed append-only log with torn-tail recovery;
//! - [`Codec`]/[`Op`] — compact record format (varints, interned strings,
//!   delta-encoded timestamps);
//! - [`StringInterner`] — dictionary compression of repeated strings,
//!   one table owned by the store and mutated only through it;
//! - [`factorize`] — Chapman-style structural factorization of repeated
//!   edge patterns (ablation A2);
//! - [`ProvenanceStore`] — the façade tying graph, interner, codec and log
//!   together with exact crash recovery. It keeps no index beside the
//!   graph: URL lookup is the graph's own key table
//!   (`ProvenanceGraph::nodes_with_key`), and interval overlap reads each
//!   node's own interval (`Node::interval`).
//!
//! # Example
//!
//! ```
//! use bp_storage::{ProvenanceStore, SyncPolicy};
//! use bp_graph::{NodeKind, EdgeKind, Timestamp};
//!
//! # fn main() -> Result<(), bp_storage::StorageError> {
//! let dir = std::env::temp_dir().join(format!("bp-lib-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut store = ProvenanceStore::open(&dir, SyncPolicy::OsManaged)?;
//! let visit = store.add_visit("http://example.com/", Timestamp::from_secs(1))?;
//! let dl = store.add_node(NodeKind::Download, "/tmp/f.zip", Timestamp::from_secs(2), &[])?;
//! store.add_edge(dl, visit, EdgeKind::DownloadFrom, Timestamp::from_secs(2))?;
//! assert_eq!(store.graph().edge_count(), 1);
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code returns errors or degrades instead of aborting.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
// Diagnostics go through bp_obs::log, leveled and flight-recorded.
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
// The log and the snapshot must be byte-identical for one history, so no
// hash-order iteration may reach an encoder.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

mod cast;
mod crc;
mod error;
mod factorize;
mod intern;
mod record;
mod snapshot;
mod store;
pub mod varint;
mod wal;

pub use crc::crc32c;
pub use error::{StorageError, StorageResult};
pub use factorize::{defactorize, factorize, raw_structure_size, FactorizedEdges};
pub use intern::StringInterner;
pub use record::{Codec, Op, OpValue};
pub use store::{ProvenanceStore, SizeReport};
pub use wal::{GroupAppend, SyncPolicy, Wal, WalContents};

#[cfg(test)]
mod proptests {
    use super::*;
    use bp_graph::{EdgeKind, NodeId, NodeKind, Timestamp};
    use proptest::prelude::*;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "bp-storage-prop-{tag}-{}-{:?}",
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

    /// A random mutation script against the store.
    #[derive(Debug, Clone)]
    enum Cmd {
        Visit(u8),
        Edge(u8, u8, u8),
        Close(u8, u8),
        Attr(u8, u8),
        Snapshot,
    }

    fn cmd_strategy() -> impl Strategy<Value = Cmd> {
        prop_oneof![
            4 => (0u8..12).prop_map(Cmd::Visit),
            4 => (any::<u8>(), any::<u8>(), 0u8..15).prop_map(|(a, b, k)| Cmd::Edge(a, b, k)),
            2 => (any::<u8>(), 0u8..8).prop_map(|(n, back)| Cmd::Close(n, back)),
            2 => (any::<u8>(), any::<u8>()).prop_map(|(n, v)| Cmd::Attr(n, v)),
            1 => Just(Cmd::Snapshot),
        ]
    }

    /// An edge drawn into the graph's order: from the last edge's source
    /// or a newer node to an older node, or `None` while the graph has
    /// fewer than two nodes.
    fn ordered_edge(store: &ProvenanceStore, a: u8, b: u8) -> Option<(NodeId, NodeId)> {
        let g = store.graph();
        let n = g.node_count() as u32;
        if n < 2 {
            return None;
        }
        let last = g.edges().last().map_or(1, |(_, e)| e.src().index().max(1));
        let src = last + u32::from(a) % (n - last);
        Some((NodeId::new(src), NodeId::new(u32::from(b) % src)))
    }

    fn run_script(store: &mut ProvenanceStore, cmds: &[Cmd]) {
        let mut clock = 0i64;
        for cmd in cmds {
            clock += 1;
            let ts = Timestamp::from_secs(clock);
            match cmd {
                Cmd::Visit(u) => {
                    store.add_visit(&format!("http://p{u}/"), ts).unwrap();
                }
                Cmd::Edge(a, b, k) => {
                    if let Some((src, dst)) = ordered_edge(store, *a, *b) {
                        let kind = EdgeKind::from_code(*k).unwrap_or(EdgeKind::Link);
                        store.add_edge(src, dst, kind, ts).unwrap();
                    }
                }
                Cmd::Close(u, back) => {
                    let n = store.graph().node_count() as u32;
                    if n == 0 {
                        continue;
                    }
                    let node = NodeId::new(u32::from(*u) % n);
                    // Up to 7 s back: some closes precede their node's
                    // open, and those are rejected with nothing applied.
                    let at = Timestamp::from_secs(clock - i64::from(*back));
                    let open = store.graph().node(node).unwrap().opened_at();
                    let closed = store.close_node(node, at);
                    assert_eq!(closed.is_ok(), at >= open, "close at {at:?}, open {open:?}");
                }
                Cmd::Attr(u, v) => {
                    let n = store.graph().node_count() as u32;
                    if n == 0 {
                        continue;
                    }
                    let node = bp_graph::NodeId::new(*u as u32 % n);
                    store
                        .set_node_attr(node, "visit_count", i64::from(*v))
                        .unwrap();
                }
                Cmd::Snapshot => store.snapshot().unwrap(),
            }
        }
    }

    fn fingerprint(store: &ProvenanceStore) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (id, n) in store.graph().nodes() {
            let _ = writeln!(s, "N {id} {n:?}");
        }
        for (id, e) in store.graph().edges() {
            let _ = writeln!(s, "E {id} {e:?}");
        }
        let _ = writeln!(s, "I {}", store.interner().len());
        let _ = writeln!(
            s,
            "V {:?}",
            store
                .graph()
                .latest_version_of(NodeKind::PageVisit, "http://p0/")
        );
        s
    }

    /// One call of a public store mutator, for [`same_history_same_bytes`].
    #[derive(Debug, Clone)]
    enum Step {
        Visit(u8, u8),
        Node(u8, u8, u8),
        Edge(u8, u8, u8, u8),
        Close(u8),
        Attr(u8, u8, u8),
        Redact(u8),
        BeginBatch,
        CommitBatch,
        BeginGroup,
        CommitGroup,
        Snapshot,
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            4 => (0u8..8, any::<u8>()).prop_map(|(u, a)| Step::Visit(u, a)),
            2 => (0u8..7, 0u8..8, any::<u8>()).prop_map(|(k, u, a)| Step::Node(k, u, a)),
            4 => (any::<u8>(), any::<u8>(), 0u8..15, any::<u8>())
                .prop_map(|(a, b, k, v)| Step::Edge(a, b, k, v)),
            2 => any::<u8>().prop_map(Step::Close),
            2 => (any::<u8>(), 0u8..4, any::<u8>()).prop_map(|(n, k, v)| Step::Attr(n, k, v)),
            1 => (0u8..8).prop_map(Step::Redact),
            2 => Just(Step::BeginBatch),
            2 => Just(Step::CommitBatch),
            1 => Just(Step::BeginGroup),
            1 => Just(Step::CommitGroup),
            1 => Just(Step::Snapshot),
        ]
    }

    /// Attribute `k` with a value drawn from `v`, one value type per name.
    fn attr(k: u8, v: u8) -> (&'static str, bp_graph::AttrValue) {
        match k % 4 {
            0 => ("title", format!("page {v}").into()),
            1 => ("visit_count", i64::from(v).into()),
            2 => ("typed", v.is_multiple_of(2).into()),
            _ => ("score", (f64::from(v) / 8.0).into()),
        }
    }

    /// Feeds `steps` to `store` through its public mutators, then commits
    /// whatever batch or write group is still open. Each edge is drawn
    /// into the graph's order.
    fn feed(store: &mut ProvenanceStore, steps: &[Step]) {
        let node = |store: &ProvenanceStore, i: u8| {
            let n = store.graph().node_count() as u32;
            (n > 0).then(|| NodeId::new(u32::from(i) % n))
        };
        for (clock, step) in (1i64..).zip(steps) {
            let ts = Timestamp::from_secs(clock);
            match *step {
                Step::Visit(u, a) => {
                    let attrs = [attr(a, a), attr(a.wrapping_add(1), a)];
                    store
                        .add_visit_with_attrs(&format!("http://p{u}/"), ts, &attrs)
                        .unwrap();
                }
                Step::Node(k, u, a) => {
                    let kind = NodeKind::ALL[usize::from(k) % NodeKind::ALL.len()];
                    store
                        .add_node(kind, &format!("http://p{u}/"), ts, &[attr(a, a)])
                        .unwrap();
                }
                Step::Edge(a, b, k, v) => {
                    if let Some((src, dst)) = ordered_edge(store, a, b) {
                        let kind = EdgeKind::from_code(k).unwrap_or(EdgeKind::Link);
                        store
                            .add_edge_with_attrs(src, dst, kind, ts, &[attr(v, v)])
                            .unwrap();
                    }
                }
                Step::Close(i) => {
                    if let Some(n) = node(store, i) {
                        store.close_node(n, ts).unwrap();
                    }
                }
                Step::Attr(i, k, v) => {
                    if let Some(n) = node(store, i) {
                        let (key, value) = attr(k, v);
                        store.set_node_attr(n, key, value).unwrap();
                    }
                }
                Step::Redact(u) => {
                    store.redact_key(&format!("http://p{u}/")).unwrap();
                }
                Step::BeginBatch => store.begin_batch(),
                Step::CommitBatch => store.commit_batch().unwrap(),
                Step::BeginGroup => store.begin_write_group(),
                Step::CommitGroup => store.commit_write_group().unwrap(),
                Step::Snapshot => store.snapshot().unwrap(),
            }
        }
        store.commit_batch().unwrap();
        store.commit_write_group().unwrap();
    }

    /// Everything a reopened store must recover: every node with its
    /// interval and attributes, every edge with its attributes, the key
    /// table through `nodes_with_key` and `newest_of_kind`, and the
    /// interned strings.
    fn recoverable_state(store: &ProvenanceStore) -> String {
        use std::fmt::Write;
        let g = store.graph();
        let mut s = String::new();
        let mut keys = std::collections::BTreeSet::new();
        for (id, n) in g.nodes() {
            let _ = writeln!(s, "N {id} {n:?}");
            keys.insert(n.key().to_owned());
        }
        for (id, e) in g.edges() {
            let _ = writeln!(s, "E {id} {e:?}");
        }
        for key in (0..8).map(|u| format!("http://p{u}/")).chain(keys) {
            let newest = NodeKind::ALL.map(|kind| g.newest_of_kind(kind, &key));
            let _ = writeln!(s, "K {key} {:?} {newest:?}", g.nodes_with_key(&key));
        }
        let _ = writeln!(s, "S {:?}", store.interner().iter().collect::<Vec<_>>());
        s
    }

    /// The bytes of the store's files, by name.
    fn files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        ["log.wal", "snapshot.bps"]
            .into_iter()
            .filter_map(|name| {
                let bytes = std::fs::read(dir.join(name)).ok()?;
                Some((name.to_owned(), bytes))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Two stores in one process fed the same mutator sequence write
        /// byte-identical files, although each `HashMap` in them hashes
        /// with its own seed; and each store, dropped without a sync and
        /// reopened, recovers exactly its live state.
        #[test]
        fn same_history_same_bytes(steps in prop::collection::vec(step_strategy(), 1..80)) {
            let dirs = [TempDir::new("same-a"), TempDir::new("same-b")];
            let mut live = Vec::new();
            for dir in &dirs {
                let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::OsManaged).unwrap();
                feed(&mut store, &steps);
                live.push(recoverable_state(&store));
            }
            prop_assert_eq!(files(&dirs[0].0), files(&dirs[1].0));
            prop_assert_eq!(&live[0], &live[1]);
            for (dir, live) in dirs.iter().zip(&live) {
                let reopened = ProvenanceStore::open(&dir.0, SyncPolicy::OsManaged).unwrap();
                prop_assert_eq!(&recoverable_state(&reopened), live);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Any mutation script, replayed through close/reopen, recovers the
        /// exact committed state (graph shape, attributes, intervals).
        #[test]
        fn recovery_is_exact(cmds in prop::collection::vec(cmd_strategy(), 1..60)) {
            let dir = TempDir::new("exact");
            let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::OsManaged).unwrap();
            run_script(&mut store, &cmds);
            let fingerprint_before = fingerprint(&store);
            drop(store);
            let store = ProvenanceStore::open(&dir.0, SyncPolicy::OsManaged).unwrap();
            prop_assert_eq!(fingerprint(&store), fingerprint_before);
            prop_assert!(store.graph().verify_acyclic());
        }

        /// Factorized edge structure always decodes back exactly, for any
        /// graph the store can produce.
        #[test]
        fn factorization_roundtrips(cmds in prop::collection::vec(cmd_strategy(), 1..60)) {
            let dir = TempDir::new("fact");
            let mut store = ProvenanceStore::open(&dir.0, SyncPolicy::OsManaged).unwrap();
            run_script(&mut store, &cmds);
            let g = store.graph();
            let fact = factorize(g);
            let decoded = defactorize(&fact).unwrap();
            let expected: Vec<_> = g.edges().map(|(_, e)| (e.src(), e.dst(), e.kind())).collect();
            prop_assert_eq!(decoded, expected);
        }
    }
}
