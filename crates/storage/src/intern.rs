//! String interning.
//!
//! Browser histories repeat strings heavily — domains, attribute keys
//! ("title", "visit_count"), transition labels, a page's title on every
//! visit to it. Chapman et al.'s provenance factorization (cited in §3.1)
//! begins with exactly this observation; interning is the store's first
//! compression layer. Each distinct string gets a dense `u32` id; records
//! reference ids, and `define` records in the WAL persist the mapping
//! itself.
//!
//! The store owns one [`StringInterner`] and mutates it only under
//! `&mut ProvenanceStore`, and a compaction fills a private one; no query
//! reads it. The borrow checker therefore enforces the one-writer rule,
//! and the table needs no lock.

use std::collections::HashMap;
use std::sync::Arc;

/// A dense string ↔ id table.
///
/// Ids are assigned sequentially from 0 in first-seen order, which makes
/// the table reproducible from a replayed log.
///
/// Each string is stored once, as an `Arc<str>` that the string → id map
/// and the id table share. [`resolve`](Self::resolve) hands out clones of
/// that one `Arc`, so the graph's nodes hold the interner's copy of their
/// key, attribute names and string values instead of their own.
///
/// # Examples
///
/// ```
/// use bp_storage::StringInterner;
/// let mut interner = StringInterner::new();
/// let a = interner.intern("title");
/// let b = interner.intern("title");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a).as_deref(), Some("title"));
/// // Both resolve to the interner's one copy.
/// let (x, y) = (interner.resolve(a).unwrap(), interner.resolve(b).unwrap());
/// assert!(std::sync::Arc::ptr_eq(&x, &y));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StringInterner {
    by_string: HashMap<Arc<str>, u32>,
    /// id → string, in id order; each entry is the `Arc` `by_string` holds.
    by_id: Vec<Arc<str>>,
    /// Running total of interned payload bytes, so
    /// [`payload_bytes`](Self::payload_bytes) is O(1) on every per-event
    /// gauge publish.
    payload: usize,
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
        match self.lookup(s) {
            Some(id) => (id, false),
            None => (self.push(Arc::from(s)), true),
        }
    }

    /// Returns the id for `s`, allocating if unseen.
    pub fn intern(&mut self, s: &str) -> u32 {
        self.intern_full(s).0
    }

    /// Returns the id for `s`; if unseen, the interner keeps a clone of
    /// `s` itself rather than a copy of its bytes.
    pub fn intern_shared(&mut self, s: &Arc<str>) -> u32 {
        self.lookup(s).unwrap_or_else(|| self.push(Arc::clone(s)))
    }

    /// The id the next new string receives.
    fn next_id(&self) -> u32 {
        u32::try_from(self.by_id.len()).unwrap_or(u32::MAX)
    }

    fn push(&mut self, shared: Arc<str>) -> u32 {
        let id = self.next_id();
        self.payload += shared.len();
        self.by_id.push(Arc::clone(&shared));
        self.by_string.insert(shared, id);
        id
    }

    /// Looks up a string without allocating.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.by_string.get(s).copied()
    }

    /// Resolves an id back to its string: a clone of the interner's
    /// `Arc`, so nothing is allocated.
    pub fn resolve(&self, id: u32) -> Option<Arc<str>> {
        self.by_id.get(id as usize).cloned()
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
        let expected = self.next_id();
        if id != expected {
            return Err(expected);
        }
        self.push(Arc::from(s));
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
        self.payload
    }

    /// Iterates `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.by_id.iter().enumerate().map(|(i, s)| (i as u32, &**s))
    }
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
        assert_eq!(i.resolve(id).as_deref(), Some("hello"));
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
        assert_eq!(i.resolve(1).as_deref(), Some("b"));
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

    proptest! {
        /// Interning then resolving is the identity, and a rebuilt interner
        /// (via define in id order) matches the original.
        #[test]
        fn intern_resolve_roundtrip(strings in prop::collection::vec(".{0,20}", 0..50)) {
            let mut i = StringInterner::new();
            let ids: Vec<u32> = strings.iter().map(|s| i.intern(s)).collect();
            for (s, id) in strings.iter().zip(&ids) {
                prop_assert_eq!(i.resolve(*id), Some(Arc::from(s.as_str())));
            }
            // Replay reconstruction.
            let mut replayed = StringInterner::new();
            for (id, s) in i.iter() {
                replayed.define(id, s).unwrap();
            }
            prop_assert_eq!(replayed.len(), i.len());
            let total: usize = i.iter().map(|(_, s)| s.len()).sum();
            prop_assert_eq!(i.payload_bytes(), total);
            prop_assert_eq!(replayed.payload_bytes(), total);
            for (id, s) in i.iter() {
                prop_assert_eq!(replayed.resolve(id), Some(Arc::from(s)));
            }
        }
    }
}
