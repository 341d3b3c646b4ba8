//! String interning.
//!
//! Browser histories repeat strings heavily — domains, attribute keys
//! ("title", "visit_count"), transition labels. Chapman et al.'s provenance
//! factorization (cited in §3.1) begins with exactly this observation;
//! interning is the store's first compression layer. Each distinct string
//! gets a dense `u32` id; records reference ids, and `define` records in
//! the WAL persist the mapping itself.
//!
//! Two implementations share that contract: [`StringInterner`] is the
//! plain single-threaded table, and [`ShardedInterner`] partitions the
//! string → id map across FNV-hashed shards with per-shard locks so
//! capture-side interning of fresh URLs no longer serializes against
//! query-side lookups (the store embeds the sharded one).

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A dense string ↔ id table.
///
/// Ids are assigned sequentially from 0 in first-seen order, which makes
/// the table reproducible from a replayed log.
///
/// # Examples
///
/// ```
/// use bp_storage::StringInterner;
/// let mut interner = StringInterner::new();
/// let a = interner.intern("title");
/// let b = interner.intern("title");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), Some("title"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StringInterner {
    by_string: HashMap<String, u32>,
    by_id: Vec<String>,
}

impl StringInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `s`, allocating the next id if unseen. The
    /// boolean is `true` when the string was newly defined (callers append
    /// a `define` record to the log in that case).
    pub fn intern_full(&mut self, s: &str) -> (u32, bool) {
        if let Some(&id) = self.by_string.get(s) {
            return (id, false);
        }
        let id = self.by_id.len() as u32;
        self.by_id.push(s.to_owned());
        self.by_string.insert(s.to_owned(), id);
        (id, true)
    }

    /// Returns the id for `s`, allocating if unseen.
    pub fn intern(&mut self, s: &str) -> u32 {
        self.intern_full(s).0
    }

    /// Looks up a string without allocating.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.by_string.get(s).copied()
    }

    /// Resolves an id back to its string.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.by_id.get(id as usize).map(String::as_str)
    }

    /// Installs a specific id → string mapping during log replay.
    ///
    /// Replay must define ids in exactly the order they were allocated;
    /// a gap or mismatch indicates a corrupt or reordered log.
    ///
    /// # Errors
    ///
    /// Returns `Err(expected_id)` if `id` is not the next id to allocate.
    pub fn define(&mut self, id: u32, s: &str) -> Result<(), u32> {
        let expected = self.by_id.len() as u32;
        if id != expected {
            return Err(expected);
        }
        self.by_id.push(s.to_owned());
        self.by_string.insert(s.to_owned(), id);
        Ok(())
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Total bytes of interned string payloads (for size accounting).
    pub fn payload_bytes(&self) -> usize {
        self.by_id.iter().map(String::len).sum()
    }

    /// Iterates `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.by_id
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.as_str()))
    }
}

/// Number of lock shards in a [`ShardedInterner`]. A power of two so the
/// hash → shard reduction is a mask; 16 shards keep contention negligible
/// for a handful of capture/query threads without bloating the struct.
const SHARD_COUNT: usize = 16;

/// FNV-1a — the shard partition hash. Hand-rolled (no external deps) and
/// deliberately *not* the std hasher: shard placement must be stable
/// across runs so the deterministic stress tests can reason about it.
fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in s.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A concurrently usable string ↔ id table with FNV-partitioned shards.
///
/// Semantics are identical to [`StringInterner`] — dense sequential ids in
/// first-defined order, replayable via [`define`](Self::define) — but every
/// method takes `&self`: the string → id map lives in [`SHARD_COUNT`]
/// independently locked shards, and the id → string table is a separate
/// lock acquired only on the (rare, per-*novel*-string) allocation path
/// and on resolve. Interning a hot URL takes one shard read lock; two
/// threads interning different strings almost always touch different
/// shards.
///
/// Lock order is always shard → `by_id`, on every path, so the pair cannot
/// deadlock.
///
/// Each string is stored once, as an `Arc<str>` that the shard map and the
/// id table share. [`resolve`](Self::resolve) hands out clones of that one
/// `Arc`, so the graph's nodes hold the interner's copy of their key and
/// attribute names instead of their own.
///
/// # Examples
///
/// ```
/// use bp_storage::ShardedInterner;
/// let interner = ShardedInterner::new();
/// let a = interner.intern("title");
/// let b = interner.intern("title");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a).as_deref(), Some("title"));
/// // Both resolve to the interner's one copy.
/// let (x, y) = (interner.resolve(a).unwrap(), interner.resolve(b).unwrap());
/// assert!(std::sync::Arc::ptr_eq(&x, &y));
/// ```
#[derive(Debug, Default)]
pub struct ShardedInterner {
    /// string → id, partitioned by `fnv1a(s) % SHARD_COUNT`.
    shards: [RwLock<HashMap<Arc<str>, u32>>; SHARD_COUNT],
    /// id → string, append-only in id order; each entry is the `Arc` its
    /// shard map holds.
    by_id: RwLock<Vec<Arc<str>>>,
    /// Running total of interned payload bytes — kept incrementally so
    /// [`payload_bytes`](Self::payload_bytes) is O(1) (it used to be an
    /// O(strings) walk on every per-event gauge publish).
    payload: AtomicUsize,
}

impl ShardedInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard_of(&self, s: &str) -> &RwLock<HashMap<Arc<str>, u32>> {
        // SHARD_COUNT is a power of two; mask instead of modulo.
        let index = usize_from_hash(fnv1a(s)) & (SHARD_COUNT - 1);
        &self.shards[index]
    }

    /// Returns the id for `s`, allocating the next id if unseen. The
    /// boolean is `true` when the string was newly defined (callers append
    /// a `define` record to the log in that case).
    pub fn intern_full(&self, s: &str) -> (u32, bool) {
        self.intern_with(s, || Arc::from(s))
    }

    /// Returns the id for `s`, allocating if unseen.
    pub fn intern(&self, s: &str) -> u32 {
        self.intern_full(s).0
    }

    /// Returns the id for `s`; if unseen, the interner keeps a clone of
    /// `s` itself rather than a copy of its bytes.
    pub fn intern_shared(&self, s: &Arc<str>) -> u32 {
        self.intern_with(s, || Arc::clone(s)).0
    }

    fn intern_with(&self, s: &str, to_arc: impl FnOnce() -> Arc<str>) -> (u32, bool) {
        let shard = self.shard_of(s);
        if let Some(&id) = shard.read().get(s) {
            return (id, false);
        }
        let mut map = shard.write();
        // Double-check: another thread may have won the race between the
        // read unlock and the write lock.
        if let Some(&id) = map.get(s) {
            return (id, false);
        }
        let shared = to_arc();
        let mut by_id = self.by_id.write();
        let id = u32::try_from(by_id.len()).unwrap_or(u32::MAX);
        by_id.push(Arc::clone(&shared));
        drop(by_id);
        self.payload.fetch_add(s.len(), Ordering::Relaxed);
        map.insert(shared, id);
        (id, true)
    }

    /// Looks up a string without allocating.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.shard_of(s).read().get(s).copied()
    }

    /// Resolves an id back to its string: a clone of the interner's
    /// `Arc`, so nothing is allocated.
    pub fn resolve(&self, id: u32) -> Option<Arc<str>> {
        self.by_id.read().get(id as usize).cloned()
    }

    /// Installs a specific id → string mapping during log replay.
    ///
    /// Replay must define ids in exactly the order they were allocated;
    /// a gap or mismatch indicates a corrupt or reordered log.
    ///
    /// # Errors
    ///
    /// Returns `Err(expected_id)` if `id` is not the next id to allocate.
    pub fn define(&self, id: u32, s: &str) -> Result<(), u32> {
        // Same shard → by_id lock order as intern_full.
        let mut map = self.shard_of(s).write();
        let mut by_id = self.by_id.write();
        let expected = u32::try_from(by_id.len()).unwrap_or(u32::MAX);
        if id != expected {
            return Err(expected);
        }
        let shared: Arc<str> = Arc::from(s);
        by_id.push(Arc::clone(&shared));
        drop(by_id);
        self.payload.fetch_add(s.len(), Ordering::Relaxed);
        map.insert(shared, id);
        Ok(())
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.by_id.read().len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.read().is_empty()
    }

    /// Total bytes of interned string payloads — O(1), maintained
    /// incrementally.
    pub fn payload_bytes(&self) -> usize {
        self.payload.load(Ordering::Relaxed)
    }

    /// Snapshot of the strings in id order.
    pub fn strings(&self) -> Vec<Arc<str>> {
        self.by_id.read().clone()
    }
}

/// `u64 → usize` without an `as` cast (`clippy::as_conversions`, as in
/// the codecs): shard selection only needs the low bits, which always fit.
fn usize_from_hash(h: u64) -> usize {
    usize::try_from(h & 0xffff).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = StringInterner::new();
        assert_eq!(i.intern("a"), i.intern("a"));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = StringInterner::new();
        assert_eq!(i.intern("x"), 0);
        assert_eq!(i.intern("y"), 1);
        assert_eq!(i.intern("x"), 0);
        assert_eq!(i.intern("z"), 2);
    }

    #[test]
    fn intern_full_reports_novelty() {
        let mut i = StringInterner::new();
        assert_eq!(i.intern_full("a"), (0, true));
        assert_eq!(i.intern_full("a"), (0, false));
    }

    #[test]
    fn resolve_and_lookup() {
        let mut i = StringInterner::new();
        let id = i.intern("hello");
        assert_eq!(i.resolve(id), Some("hello"));
        assert_eq!(i.lookup("hello"), Some(id));
        assert_eq!(i.resolve(99), None);
        assert_eq!(i.lookup("missing"), None);
    }

    #[test]
    fn define_enforces_order() {
        let mut i = StringInterner::new();
        i.define(0, "a").unwrap();
        i.define(1, "b").unwrap();
        assert_eq!(i.define(3, "d"), Err(2));
        assert_eq!(i.resolve(1), Some("b"));
    }

    #[test]
    fn payload_bytes_counts_string_content() {
        let mut i = StringInterner::new();
        i.intern("abc");
        i.intern("de");
        assert_eq!(i.payload_bytes(), 5);
    }

    #[test]
    fn iter_in_id_order() {
        let mut i = StringInterner::new();
        i.intern("b");
        i.intern("a");
        let all: Vec<(u32, &str)> = i.iter().collect();
        assert_eq!(all, vec![(0, "b"), (1, "a")]);
    }

    #[test]
    fn sharded_matches_plain_semantics() {
        let plain = {
            let mut i = StringInterner::new();
            i.intern("x");
            i.intern("y");
            i.intern("x");
            i
        };
        let sharded = ShardedInterner::new();
        assert_eq!(sharded.intern("x"), 0);
        assert_eq!(sharded.intern("y"), 1);
        assert_eq!(sharded.intern("x"), 0);
        assert_eq!(sharded.len(), plain.len());
        assert_eq!(sharded.payload_bytes(), plain.payload_bytes());
        assert_eq!(sharded.resolve(1).as_deref(), Some("y"));
        assert_eq!(sharded.resolve(9), None);
        assert_eq!(sharded.lookup("y"), Some(1));
        assert_eq!(sharded.lookup("z"), None);
        assert_eq!(sharded.intern_full("z"), (2, true));
        assert_eq!(sharded.intern_full("z"), (2, false));
        assert!(!sharded.is_empty());
        assert!(ShardedInterner::new().is_empty());
    }

    #[test]
    fn sharded_define_enforces_order() {
        let i = ShardedInterner::new();
        i.define(0, "a").unwrap();
        i.define(1, "b").unwrap();
        assert_eq!(i.define(3, "d"), Err(2));
        assert_eq!(i.resolve(1).as_deref(), Some("b"));
        assert_eq!(i.strings(), vec![Arc::<str>::from("a"), Arc::from("b")]);
    }

    #[test]
    fn fnv_is_stable() {
        // Shard placement must not drift between runs or platforms: pin
        // the reference FNV-1a vectors.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    proptest! {
        /// A sharded interner and the plain one agree on every id for any
        /// interleaving-free sequence, and replay via define matches.
        #[test]
        fn sharded_agrees_with_plain(strings in prop::collection::vec(".{0,20}", 0..50)) {
            let mut plain = StringInterner::new();
            let sharded = ShardedInterner::new();
            for s in &strings {
                prop_assert_eq!(plain.intern_full(s), sharded.intern_full(s));
            }
            prop_assert_eq!(plain.len(), sharded.len());
            prop_assert_eq!(plain.payload_bytes(), sharded.payload_bytes());
            let replayed = ShardedInterner::new();
            for (id, s) in sharded.strings().iter().enumerate() {
                replayed.define(u32::try_from(id).unwrap(), s).unwrap();
            }
            for (id, s) in plain.iter() {
                prop_assert_eq!(replayed.resolve(id), Some(Arc::from(s)));
            }
        }
    }

    proptest! {
        /// Interning then resolving is the identity, and a rebuilt interner
        /// (via define in id order) matches the original.
        #[test]
        fn intern_resolve_roundtrip(strings in prop::collection::vec(".{0,20}", 0..50)) {
            let mut i = StringInterner::new();
            let ids: Vec<u32> = strings.iter().map(|s| i.intern(s)).collect();
            for (s, id) in strings.iter().zip(&ids) {
                prop_assert_eq!(i.resolve(*id), Some(s.as_str()));
            }
            // Replay reconstruction.
            let mut replayed = StringInterner::new();
            for (id, s) in i.iter() {
                replayed.define(id, s).unwrap();
            }
            prop_assert_eq!(replayed.len(), i.len());
            for (id, s) in i.iter() {
                prop_assert_eq!(replayed.resolve(id), Some(s));
            }
        }
    }
}
