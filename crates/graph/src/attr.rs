//! Attribute values attached to nodes and edges.
//!
//! The paper's §3.4 vision is "a single, homogeneous provenance graph store"
//! in which "both nodes and edges can have attributes" (§3). Attributes are
//! small typed values keyed by interned-able string names; the storage layer
//! (`bp-storage`) interns the names and the string values, the graph layer
//! keeps them readable.

use core::fmt;
use std::sync::Arc;

/// A single typed attribute value.
///
/// # Examples
///
/// ```
/// use bp_graph::AttrValue;
/// let v = AttrValue::from("hello");
/// assert_eq!(v.as_str(), Some("hello"));
/// assert_eq!(AttrValue::from(3i64).as_int(), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// UTF-8 text. Shared: the store hands every node the interner's one
    /// copy of a string value, so a title repeated over many visits is
    /// held once.
    Str(Arc<str>),
    /// Signed integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// Boolean flag.
    Bool(bool),
    /// Raw bytes (e.g. a content hash).
    Bytes(Vec<u8>),
}

impl AttrValue {
    /// Returns the string payload, if this is a [`AttrValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer payload, if this is an [`AttrValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float payload, if this is an [`AttrValue::Float`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            AttrValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is an [`AttrValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the byte payload, if this is an [`AttrValue::Bytes`].
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            AttrValue::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Approximate in-memory/encoded size in bytes, used by storage-overhead
    /// accounting (experiment E1).
    pub fn size_bytes(&self) -> usize {
        match self {
            AttrValue::Str(s) => s.len(),
            AttrValue::Int(_) => 8,
            AttrValue::Float(_) => 8,
            AttrValue::Bool(_) => 1,
            AttrValue::Bytes(b) => b.len(),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => write!(f, "{s:?}"),
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::Bytes(b) => write!(f, "0x{}", hex(b)),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(Arc::from(s))
    }
}
impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(Arc::from(s))
    }
}
impl From<i64> for AttrValue {
    fn from(i: i64) -> Self {
        AttrValue::Int(i)
    }
}
impl From<u32> for AttrValue {
    fn from(i: u32) -> Self {
        AttrValue::Int(i as i64)
    }
}
impl From<f64> for AttrValue {
    fn from(f: f64) -> Self {
        AttrValue::Float(f)
    }
}
impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}
impl From<Vec<u8>> for AttrValue {
    fn from(b: Vec<u8>) -> Self {
        AttrValue::Bytes(b)
    }
}

/// An ordered map of attribute name → value.
///
/// A `Vec` of `(name, value)` pairs kept sorted by name: iteration (and
/// therefore on-disk encoding and `Debug` output) is deterministic, which
/// matters both for the byte-for-byte WAL recovery property tests and for
/// reproducible experiment output. Nodes carry one or two attributes, so
/// a binary search over one small allocation beats a tree. Names are
/// shared `Arc<str>`s: the store hands every node the interner's copy of
/// a name instead of allocating its own.
///
/// # Examples
///
/// ```
/// use bp_graph::{AttrMap, AttrValue};
/// let mut attrs = AttrMap::new();
/// attrs.set("title", "Citizen Kane");
/// attrs.set("visit_count", 3i64);
/// assert_eq!(attrs.get("title").and_then(AttrValue::as_str), Some("Citizen Kane"));
/// assert_eq!(attrs.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttrMap {
    entries: Vec<(Arc<str>, AttrValue)>,
}

impl AttrMap {
    /// Creates an empty attribute map.
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, key: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| (**k).cmp(key))
    }

    /// Sets `key` to `value`, returning the previous value if any. The
    /// name is converted to an `Arc<str>` only when it is new to the map.
    pub fn set<K>(&mut self, key: K, value: impl Into<AttrValue>) -> Option<AttrValue>
    where
        K: AsRef<str> + Into<Arc<str>>,
    {
        let value = value.into();
        match self.find(key.as_ref()) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                // Grow by one: a default `Vec` growth would reserve room
                // for four attributes where most nodes carry one.
                self.entries.reserve_exact(1);
                self.entries.insert(i, (key.into(), value));
                None
            }
        }
    }

    /// Looks up an attribute by name.
    pub fn get(&self, key: &str) -> Option<&AttrValue> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// Convenience accessor for string attributes.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(AttrValue::as_str)
    }

    /// Convenience accessor for integer attributes.
    pub fn get_int(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(AttrValue::as_int)
    }

    /// Removes an attribute, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<AttrValue> {
        self.find(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no attributes are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates attributes in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.entries.iter().map(|(k, v)| (&**k, v))
    }

    /// Iterates attributes in key order, each name as the map's shared
    /// `Arc`, so an interner can keep that copy instead of its own.
    pub fn iter_shared(&self) -> impl Iterator<Item = (&Arc<str>, &AttrValue)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Approximate encoded size in bytes (keys + values), for experiment E1.
    pub fn size_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|(k, v)| k.len() + v.size_bytes())
            .sum()
    }
}

impl FromIterator<(String, AttrValue)> for AttrMap {
    fn from_iter<I: IntoIterator<Item = (String, AttrValue)>>(iter: I) -> Self {
        let mut map = AttrMap::new();
        map.extend(iter);
        map
    }
}

impl Extend<(String, AttrValue)> for AttrMap {
    fn extend<I: IntoIterator<Item = (String, AttrValue)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.set(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors_match_variants() {
        assert_eq!(AttrValue::from("x").as_str(), Some("x"));
        assert_eq!(AttrValue::from("x").as_int(), None);
        assert_eq!(AttrValue::from(7i64).as_int(), Some(7));
        assert_eq!(AttrValue::from(1.5).as_float(), Some(1.5));
        assert_eq!(AttrValue::from(true).as_bool(), Some(true));
        assert_eq!(
            AttrValue::from(vec![1u8, 2]).as_bytes(),
            Some(&[1u8, 2][..])
        );
    }

    #[test]
    fn value_sizes() {
        assert_eq!(AttrValue::from("abcd").size_bytes(), 4);
        assert_eq!(AttrValue::from(0i64).size_bytes(), 8);
        assert_eq!(AttrValue::from(false).size_bytes(), 1);
        assert_eq!(AttrValue::from(vec![0u8; 16]).size_bytes(), 16);
    }

    #[test]
    fn map_set_get_remove() {
        let mut m = AttrMap::new();
        assert!(m.is_empty());
        assert_eq!(m.set("a", 1i64), None);
        assert_eq!(m.set("a", 2i64), Some(AttrValue::Int(1)));
        assert_eq!(m.get_int("a"), Some(2));
        assert_eq!(m.remove("a"), Some(AttrValue::Int(2)));
        assert!(m.get("a").is_none());
    }

    #[test]
    fn map_iterates_in_key_order() {
        let mut m = AttrMap::new();
        m.set("zeta", 1i64);
        m.set("alpha", 2i64);
        m.set("mid", 3i64);
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn map_size_accounting() {
        let mut m = AttrMap::new();
        m.set("url", "http://a.example/"); // 3 + 17
        m.set("n", 1i64); // 1 + 8
        assert_eq!(m.size_bytes(), 3 + 17 + 1 + 8);
    }

    #[test]
    fn map_from_iterator() {
        let m: AttrMap = vec![("k".to_owned(), AttrValue::from(1i64))]
            .into_iter()
            .collect();
        assert_eq!(m.get_int("k"), Some(1));
    }

    #[test]
    fn display_is_nonempty_for_all_variants() {
        for v in [
            AttrValue::from(""),
            AttrValue::from(0i64),
            AttrValue::from(0.0),
            AttrValue::from(false),
            AttrValue::from(Vec::new()),
        ] {
            assert!(!v.to_string().is_empty());
        }
        assert_eq!(AttrValue::from(vec![0xabu8]).to_string(), "0xab");
    }
}
