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
//! - [`StringInterner`]/[`ShardedInterner`] — dictionary compression of
//!   repeated strings (the sharded variant takes `&self` so capture no
//!   longer serializes against queries);
//! - [`factorize`] — Chapman-style structural factorization of repeated
//!   edge patterns (ablation A2);
//! - [`TimeIndex`] — the interval-overlap index (the substrate of
//!   time-contextual search, §2.3); URL lookup is the graph's own key
//!   table (`ProvenanceGraph::nodes_with_key`);
//! - [`ProvenanceStore`] — the façade tying graph, log, and indexes
//!   together with exact crash recovery.
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

mod cast;
mod crc;
mod error;
mod factorize;
mod index;
mod intern;
mod record;
mod snapshot;
mod store;
pub mod varint;
mod wal;

pub use crc::crc32c;
pub use error::{StorageError, StorageResult};
pub use factorize::{defactorize, factorize, raw_structure_size, FactorizedEdges};
pub use index::TimeIndex;
pub use intern::{ShardedInterner, StringInterner};
pub use record::{Codec, Op};
pub use store::{ProvenanceStore, SizeReport};
pub use wal::{GroupAppend, SyncPolicy, Wal, WalContents};

#[cfg(test)]
mod proptests {
    use super::*;
    use bp_graph::{EdgeKind, NodeKind, Timestamp};
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
        Close(u8),
        Attr(u8, u8),
        Snapshot,
    }

    fn cmd_strategy() -> impl Strategy<Value = Cmd> {
        prop_oneof![
            4 => (0u8..12).prop_map(Cmd::Visit),
            4 => (any::<u8>(), any::<u8>(), 0u8..15).prop_map(|(a, b, k)| Cmd::Edge(a, b, k)),
            2 => any::<u8>().prop_map(Cmd::Close),
            2 => (any::<u8>(), any::<u8>()).prop_map(|(n, v)| Cmd::Attr(n, v)),
            1 => Just(Cmd::Snapshot),
        ]
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
                    let n = store.graph().node_count() as u32;
                    if n == 0 {
                        continue;
                    }
                    let src = bp_graph::NodeId::new(*a as u32 % n);
                    let dst = bp_graph::NodeId::new(*b as u32 % n);
                    let kind = EdgeKind::from_code(*k).unwrap_or(EdgeKind::Link);
                    let _ = store.add_edge(src, dst, kind, ts);
                }
                Cmd::Close(u) => {
                    let n = store.graph().node_count() as u32;
                    if n == 0 {
                        continue;
                    }
                    let node = bp_graph::NodeId::new(*u as u32 % n);
                    // close_at panics if before open; guard like the
                    // capture layer does.
                    let open = store.graph().node(node).unwrap().opened_at();
                    if ts >= open {
                        store.close_node(node, ts).unwrap();
                    }
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
            let mut expected = Vec::new();
            for src in g.node_ids() {
                for &eid in g.out_edges(src) {
                    let e = g.edge(eid).unwrap();
                    expected.push((src, e.dst(), e.kind()));
                }
            }
            prop_assert_eq!(decoded, expected);
        }
    }
}
