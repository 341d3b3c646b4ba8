//! Node kinds and node payloads.
//!
//! Section 3.3 of the paper: "If clicking a bookmark generates a provenance
//! relationship, then bookmarks must exist as nodes in the provenance store.
//! Similarly, downloads and search terms can be represented as history
//! nodes." This module defines the homogeneous node model that realizes the
//! §3.4 vision: every kind of history object is a first-class graph node.

use crate::attr::AttrMap;
use crate::error::GraphError;
use crate::ids::Version;
use crate::time::{TimeInterval, Timestamp};
use core::fmt;
use std::sync::Arc;

/// The kind of history object a node represents.
///
/// # Examples
///
/// ```
/// use bp_graph::NodeKind;
/// assert!(NodeKind::Download.is_artifact());
/// assert!(NodeKind::PageVisit.is_versioned());
/// assert_eq!(NodeKind::SearchTerm.label(), "search_term");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeKind {
    /// A logical web page, identified by URL. Pages aggregate across visits;
    /// they are the "general page queries" object Firefox optimizes for.
    Page,
    /// One versioned visit *instance* of a page (§3.1's cycle-breaking
    /// device). Edges between visits record how the user moved.
    PageVisit,
    /// A bookmark object; clicking it generates provenance (§3.3).
    Bookmark,
    /// A user-entered web search term — "concise, conceptual, user-generated
    /// descriptors that are in the lineage of the page they generate" (§3.3).
    SearchTerm,
    /// A downloaded file.
    Download,
    /// A form-fill entry ("deep web" content, §3.3).
    FormEntry,
    /// A browser tab session; groups visits open in one tab.
    Tab,
}

impl NodeKind {
    /// All node kinds, in stable encoding order.
    pub const ALL: [NodeKind; 7] = [
        NodeKind::Page,
        NodeKind::PageVisit,
        NodeKind::Bookmark,
        NodeKind::SearchTerm,
        NodeKind::Download,
        NodeKind::FormEntry,
        NodeKind::Tab,
    ];

    /// Stable small-integer code used by the storage layer.
    pub const fn code(self) -> u8 {
        match self {
            NodeKind::Page => 0,
            NodeKind::PageVisit => 1,
            NodeKind::Bookmark => 2,
            NodeKind::SearchTerm => 3,
            NodeKind::Download => 4,
            NodeKind::FormEntry => 5,
            NodeKind::Tab => 6,
        }
    }

    /// Decodes a storage code back into a kind.
    pub const fn from_code(code: u8) -> Option<NodeKind> {
        match code {
            0 => Some(NodeKind::Page),
            1 => Some(NodeKind::PageVisit),
            2 => Some(NodeKind::Bookmark),
            3 => Some(NodeKind::SearchTerm),
            4 => Some(NodeKind::Download),
            5 => Some(NodeKind::FormEntry),
            6 => Some(NodeKind::Tab),
            _ => None,
        }
    }

    /// Snake-case label, used by the query language and DOT export.
    pub const fn label(self) -> &'static str {
        match self {
            NodeKind::Page => "page",
            NodeKind::PageVisit => "visit",
            NodeKind::Bookmark => "bookmark",
            NodeKind::SearchTerm => "search_term",
            NodeKind::Download => "download",
            NodeKind::FormEntry => "form_entry",
            NodeKind::Tab => "tab",
        }
    }

    /// Parses a label produced by [`NodeKind::label`].
    pub fn from_label(label: &str) -> Option<NodeKind> {
        NodeKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// Returns `true` for kinds that represent concrete user artifacts
    /// (things that end up on disk or in the bookmark bar) rather than
    /// browsing activity.
    pub const fn is_artifact(self) -> bool {
        matches!(self, NodeKind::Bookmark | NodeKind::Download)
    }

    /// Returns `true` for kinds that are versioned per §3.1 — a re-occurrence
    /// creates a new instance rather than mutating the old one.
    pub const fn is_versioned(self) -> bool {
        matches!(self, NodeKind::PageVisit)
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The payload of one graph node.
///
/// A node carries its kind, a primary `key` (URL for pages and visits, the
/// query string for search terms, the file path for downloads, …), a
/// version (§3.1), its open/close interval (§3.2), and free-form attributes.
/// The key is a shared `Arc<str>`: [`crate::ProvenanceGraph::add_node`]
/// swaps it for the graph's one copy, so every version of a page holds
/// the same string.
///
/// # Examples
///
/// ```
/// use bp_graph::{Node, NodeKind, Timestamp};
/// let n = Node::new(NodeKind::Page, "http://example.com/", Timestamp::from_secs(1));
/// assert_eq!(n.key(), "http://example.com/");
/// assert!(n.interval().is_open());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    kind: NodeKind,
    key: Arc<str>,
    version: Version,
    interval: TimeInterval,
    attrs: AttrMap,
}

impl Node {
    /// Creates a first-version node opened at `at`.
    pub fn new(kind: NodeKind, key: impl Into<Arc<str>>, at: Timestamp) -> Self {
        Node {
            kind,
            key: key.into(),
            version: Version::FIRST,
            interval: TimeInterval::open_at(at),
            attrs: AttrMap::new(),
        }
    }

    /// Creates a specific version of a node (used when versioning breaks a
    /// would-be cycle).
    pub fn with_version(
        kind: NodeKind,
        key: impl Into<Arc<str>>,
        version: Version,
        at: Timestamp,
    ) -> Self {
        Node {
            kind,
            key: key.into(),
            version,
            interval: TimeInterval::open_at(at),
            attrs: AttrMap::new(),
        }
    }

    /// Builder-style attribute attachment.
    #[must_use]
    pub fn with_attr(
        mut self,
        key: impl AsRef<str> + Into<Arc<str>>,
        value: impl Into<crate::AttrValue>,
    ) -> Self {
        self.attrs.set(key, value);
        self
    }

    /// The node kind.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The primary key (URL, query string, file path, …).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The primary key as the shared string it is stored in.
    pub fn shared_key(&self) -> &Arc<str> {
        &self.key
    }

    /// Points the node at `key`, an equal string held elsewhere, so both
    /// share one allocation.
    pub(crate) fn share_key(&mut self, key: Arc<str>) {
        debug_assert_eq!(key, self.key);
        self.key = key;
    }

    /// The version of this instance.
    pub fn version(&self) -> Version {
        self.version
    }

    /// The open/close interval.
    pub fn interval(&self) -> &TimeInterval {
        &self.interval
    }

    /// Timestamp at which this node was created/opened.
    pub fn opened_at(&self) -> Timestamp {
        self.interval.open()
    }

    /// Closes the node's interval (page close, tab close, download complete).
    ///
    /// # Errors
    ///
    /// [`GraphError::ClosesBeforeOpen`] if `at` precedes the opening
    /// timestamp; the node is left as it was.
    pub fn close_at(&mut self, at: Timestamp) -> Result<(), GraphError> {
        self.interval.close_at(at)
    }

    /// Redacts the node's content: the key is replaced by `replacement`
    /// (and returned) and all attributes are dropped. Structure (kind, version, interval,
    /// edges) is preserved — the §4 privacy goal is hiding *what* was
    /// browsed, while lineage shape may legitimately remain for forensics.
    ///
    /// Crate-private: [`crate::ProvenanceGraph::redact_node`] is the only
    /// way to rewrite a key, so the graph can count key rewrites (CSR
    /// snapshots extend across every other mutation).
    pub(crate) fn redact(&mut self, replacement: Arc<str>) -> Arc<str> {
        self.attrs = AttrMap::new();
        std::mem::replace(&mut self.key, replacement)
    }

    /// Immutable view of the attributes.
    pub fn attrs(&self) -> &AttrMap {
        &self.attrs
    }

    /// Mutable view of the attributes.
    pub fn attrs_mut(&mut self) -> &mut AttrMap {
        &mut self.attrs
    }

    /// Approximate encoded size in bytes, for experiment E1.
    pub fn size_bytes(&self) -> usize {
        // kind code + version + open/close timestamps + key + attrs
        1 + 4 + 16 + self.key.len() + self.attrs.size_bytes()
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}@{}", self.kind, self.key, self.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_roundtrip() {
        for kind in NodeKind::ALL {
            assert_eq!(NodeKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(NodeKind::from_code(200), None);
    }

    #[test]
    fn kind_labels_roundtrip() {
        for kind in NodeKind::ALL {
            assert_eq!(NodeKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(NodeKind::from_label("nonsense"), None);
    }

    #[test]
    fn kind_codes_are_distinct() {
        let mut codes: Vec<u8> = NodeKind::ALL.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), NodeKind::ALL.len());
    }

    #[test]
    fn artifact_and_versioned_classification() {
        assert!(NodeKind::Download.is_artifact());
        assert!(NodeKind::Bookmark.is_artifact());
        assert!(!NodeKind::Page.is_artifact());
        assert!(NodeKind::PageVisit.is_versioned());
        assert!(!NodeKind::Page.is_versioned());
    }

    #[test]
    fn node_construction_and_close() {
        let t0 = Timestamp::from_secs(10);
        let mut n = Node::new(NodeKind::PageVisit, "http://example.com/a", t0);
        assert_eq!(n.kind(), NodeKind::PageVisit);
        assert_eq!(n.version(), Version::FIRST);
        assert!(n.interval().is_open());
        n.close_at(Timestamp::from_secs(20)).unwrap();
        assert_eq!(n.interval().close(), Some(Timestamp::from_secs(20)));
    }

    #[test]
    fn node_with_version_and_attrs() {
        let n = Node::with_version(
            NodeKind::PageVisit,
            "http://example.com/",
            Version::new(3),
            Timestamp::EPOCH,
        )
        .with_attr("title", "Example")
        .with_attr("visit_count", 9i64);
        assert_eq!(n.version().number(), 3);
        assert_eq!(n.attrs().get_str("title"), Some("Example"));
        assert_eq!(n.attrs().get_int("visit_count"), Some(9));
    }

    #[test]
    fn node_size_accounts_for_key_and_attrs() {
        let bare = Node::new(NodeKind::Page, "abcd", Timestamp::EPOCH);
        assert_eq!(bare.size_bytes(), 1 + 4 + 16 + 4);
        let with_attr = bare.clone().with_attr("t", "xy");
        assert_eq!(with_attr.size_bytes(), bare.size_bytes() + 1 + 2);
    }

    #[test]
    fn display_shows_kind_key_version() {
        let n = Node::new(NodeKind::SearchTerm, "rosebud", Timestamp::EPOCH);
        assert_eq!(n.to_string(), "search_term:rosebud@v0");
    }
}
