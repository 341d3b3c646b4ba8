//! Edge kinds and edge payloads.
//!
//! "Every relationship in the browser history corresponds to an action taken
//! by the browser to obtain one set of data from another" (§3). Edges are
//! directed **derives-from** relationships: an edge `src → dst` states that
//! the object at `src` was derived from (caused by, obtained via) the object
//! at `dst`. Ancestor traversal therefore follows edges forward, and
//! descendant traversal follows them backward — matching the provenance
//! convention used by PASS.

use crate::attr::AttrMap;
use crate::ids::NodeId;
use crate::time::Timestamp;
use core::fmt;
use std::sync::Arc;

/// The browser action that generated a relationship.
///
/// This is a superset of the HTTP referrer, modelled on Firefox's
/// "transitions" table (§3) plus the second-class relationships §3.2 argues
/// should be first-class (typed-location navigations, new tabs, temporal
/// overlap) and the §3.3 object relationships (search, form, bookmark,
/// download).
///
/// # Examples
///
/// ```
/// use bp_graph::EdgeKind;
/// assert!(EdgeKind::Redirect.is_automatic());
/// assert!(EdgeKind::Link.is_user_action());
/// assert!(!EdgeKind::TemporalOverlap.is_causal());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// The user clicked a hyperlink (the classic referrer relationship).
    Link,
    /// The user typed a URL into the location bar (or accepted an
    /// autocompletion) — a relationship most browsers drop (§3.2).
    TypedLocation,
    /// The user clicked a bookmark; connects the visit to the bookmark node.
    BookmarkClick,
    /// The server redirected the browser (HTTP 3xx or meta refresh).
    /// Automatic — "not generated as the result of a user action" (§3.2).
    Redirect,
    /// Top-level page loaded embedded content (frame, image, script).
    /// Automatic, like [`EdgeKind::Redirect`].
    Embed,
    /// The user submitted a form; connects the result page to the form
    /// entry node ("deep web" capture, §3.3).
    FormSubmit,
    /// A web search produced this page; connects a visit to the
    /// [`NodeKind::SearchTerm`](crate::NodeKind::SearchTerm) node in its
    /// lineage (§3.3).
    SearchResult,
    /// A file was downloaded from a page.
    DownloadFrom,
    /// The user opened a page in a new tab from an existing page.
    NewTab,
    /// The user reloaded the page (new visit version derives from the old).
    Reload,
    /// The user navigated with back/forward buttons (new visit version
    /// derives from the visit navigated away from).
    BackForward,
    /// The visit instance is a new version of a page previously visited;
    /// connects successive versions of the same logical object (§3.1).
    VersionOf,
    /// The visit instantiates a logical [`NodeKind::Page`](crate::NodeKind::Page)
    /// node; connects instance to its timeless page object.
    InstanceOf,
    /// Two objects were open during overlapping time spans (§3.2). The only
    /// non-causal relationship; conceptually undirected, stored with the
    /// paper's arbitrary ordering rule ("the first node opened in a time
    /// span points to later nodes" — here the later node derives-from the
    /// earlier one, keeping the DAG invariant).
    TemporalOverlap,
    /// The bookmark object was created from a page visit.
    BookmarkCreated,
}

impl EdgeKind {
    /// All edge kinds, in stable encoding order.
    pub const ALL: [EdgeKind; 15] = [
        EdgeKind::Link,
        EdgeKind::TypedLocation,
        EdgeKind::BookmarkClick,
        EdgeKind::Redirect,
        EdgeKind::Embed,
        EdgeKind::FormSubmit,
        EdgeKind::SearchResult,
        EdgeKind::DownloadFrom,
        EdgeKind::NewTab,
        EdgeKind::Reload,
        EdgeKind::BackForward,
        EdgeKind::VersionOf,
        EdgeKind::InstanceOf,
        EdgeKind::TemporalOverlap,
        EdgeKind::BookmarkCreated,
    ];

    /// Stable small-integer code used by the storage layer.
    pub const fn code(self) -> u8 {
        match self {
            EdgeKind::Link => 0,
            EdgeKind::TypedLocation => 1,
            EdgeKind::BookmarkClick => 2,
            EdgeKind::Redirect => 3,
            EdgeKind::Embed => 4,
            EdgeKind::FormSubmit => 5,
            EdgeKind::SearchResult => 6,
            EdgeKind::DownloadFrom => 7,
            EdgeKind::NewTab => 8,
            EdgeKind::Reload => 9,
            EdgeKind::BackForward => 10,
            EdgeKind::VersionOf => 11,
            EdgeKind::InstanceOf => 12,
            EdgeKind::TemporalOverlap => 13,
            EdgeKind::BookmarkCreated => 14,
        }
    }

    /// Decodes a storage code back into a kind.
    pub fn from_code(code: u8) -> Option<EdgeKind> {
        EdgeKind::ALL.get(code as usize).copied()
    }

    /// Snake-case label, used by the query language and DOT export.
    pub const fn label(self) -> &'static str {
        match self {
            EdgeKind::Link => "link",
            EdgeKind::TypedLocation => "typed",
            EdgeKind::BookmarkClick => "bookmark_click",
            EdgeKind::Redirect => "redirect",
            EdgeKind::Embed => "embed",
            EdgeKind::FormSubmit => "form_submit",
            EdgeKind::SearchResult => "search_result",
            EdgeKind::DownloadFrom => "download_from",
            EdgeKind::NewTab => "new_tab",
            EdgeKind::Reload => "reload",
            EdgeKind::BackForward => "back_forward",
            EdgeKind::VersionOf => "version_of",
            EdgeKind::InstanceOf => "instance_of",
            EdgeKind::TemporalOverlap => "temporal_overlap",
            EdgeKind::BookmarkCreated => "bookmark_created",
        }
    }

    /// Parses a label produced by [`EdgeKind::label`].
    pub fn from_label(label: &str) -> Option<EdgeKind> {
        EdgeKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// Relationships generated automatically rather than by a user action
    /// (§3.2: redirects and inner content are "a special case ... not
    /// generated as the result of a user action"). Personalization
    /// algorithms may wish to exclude these.
    pub const fn is_automatic(self) -> bool {
        matches!(
            self,
            EdgeKind::Redirect | EdgeKind::Embed | EdgeKind::VersionOf | EdgeKind::InstanceOf
        )
    }

    /// Relationships generated by a deliberate user action.
    pub const fn is_user_action(self) -> bool {
        matches!(
            self,
            EdgeKind::Link
                | EdgeKind::TypedLocation
                | EdgeKind::BookmarkClick
                | EdgeKind::FormSubmit
                | EdgeKind::SearchResult
                | EdgeKind::DownloadFrom
                | EdgeKind::NewTab
                | EdgeKind::Reload
                | EdgeKind::BackForward
                | EdgeKind::BookmarkCreated
        )
    }

    /// Causal relationships participate in lineage. Temporal overlap is
    /// associative context, not causality, and is excluded from ancestor
    /// queries such as download lineage.
    pub const fn is_causal(self) -> bool {
        !matches!(self, EdgeKind::TemporalOverlap)
    }

    /// Relationships §3.2 calls "second-class citizens" in today's browsers:
    /// ones most browsers fail to record at all. Used by ablation A4.
    pub const fn is_second_class(self) -> bool {
        matches!(
            self,
            EdgeKind::TypedLocation
                | EdgeKind::NewTab
                | EdgeKind::TemporalOverlap
                | EdgeKind::BookmarkClick
                | EdgeKind::SearchResult
                | EdgeKind::FormSubmit
        )
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The payload of one directed derives-from edge.
///
/// Edges are time-stamped (the §3.1 "time stamping edges" design point:
/// every traversal is an event with a time) and may carry attributes.
///
/// # Examples
///
/// ```
/// use bp_graph::{Edge, EdgeKind, NodeId, Timestamp};
/// let e = Edge::new(NodeId::new(1), NodeId::new(0), EdgeKind::Link, Timestamp::from_secs(5));
/// assert_eq!(e.src(), NodeId::new(1));
/// assert_eq!(e.dst(), NodeId::new(0));
/// assert!(e.kind().is_causal());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    src: NodeId,
    dst: NodeId,
    kind: EdgeKind,
    at: Timestamp,
    attrs: AttrMap,
}

impl Edge {
    /// Creates an edge stating that `src` derives from `dst` at time `at`.
    pub fn new(src: NodeId, dst: NodeId, kind: EdgeKind, at: Timestamp) -> Self {
        Edge {
            src,
            dst,
            kind,
            at,
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

    /// The derived (newer) endpoint.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The source-of-derivation (older) endpoint.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The action that generated the relationship.
    pub fn kind(&self) -> EdgeKind {
        self.kind
    }

    /// When the action occurred.
    pub fn at(&self) -> Timestamp {
        self.at
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
        // src + dst + kind + timestamp + attrs
        4 + 4 + 1 + 8 + self.attrs.size_bytes()
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -[{}]-> {}", self.src, self.kind, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_roundtrip() {
        for kind in EdgeKind::ALL {
            assert_eq!(EdgeKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(EdgeKind::from_code(99), None);
    }

    #[test]
    fn kind_labels_roundtrip() {
        for kind in EdgeKind::ALL {
            assert_eq!(EdgeKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(EdgeKind::from_label("bogus"), None);
    }

    #[test]
    fn codes_match_all_order() {
        for (i, kind) in EdgeKind::ALL.iter().enumerate() {
            assert_eq!(kind.code() as usize, i, "ALL order must match codes");
        }
    }

    #[test]
    fn automatic_vs_user_action_partition_causal_kinds() {
        for kind in EdgeKind::ALL {
            if kind == EdgeKind::TemporalOverlap {
                continue; // neither: associative context
            }
            assert!(
                kind.is_automatic() ^ kind.is_user_action(),
                "{kind} must be exactly one of automatic/user-action"
            );
        }
    }

    #[test]
    fn temporal_overlap_is_the_only_non_causal_kind() {
        let non_causal: Vec<EdgeKind> = EdgeKind::ALL
            .into_iter()
            .filter(|k| !k.is_causal())
            .collect();
        assert_eq!(non_causal, vec![EdgeKind::TemporalOverlap]);
    }

    #[test]
    fn second_class_includes_typed_and_new_tab() {
        assert!(EdgeKind::TypedLocation.is_second_class());
        assert!(EdgeKind::NewTab.is_second_class());
        assert!(!EdgeKind::Link.is_second_class());
        assert!(!EdgeKind::Redirect.is_second_class());
    }

    #[test]
    fn edge_accessors() {
        let e = Edge::new(
            NodeId::new(2),
            NodeId::new(1),
            EdgeKind::Redirect,
            Timestamp::from_secs(3),
        )
        .with_attr("status", 301i64);
        assert_eq!(e.src().index(), 2);
        assert_eq!(e.dst().index(), 1);
        assert_eq!(e.at(), Timestamp::from_secs(3));
        assert_eq!(e.attrs().get_int("status"), Some(301));
    }

    #[test]
    fn edge_size_includes_attrs() {
        let bare = Edge::new(
            NodeId::new(0),
            NodeId::new(1),
            EdgeKind::Link,
            Timestamp::EPOCH,
        );
        assert_eq!(bare.size_bytes(), 17);
        let attributed = bare.clone().with_attr("k", "vv");
        assert_eq!(attributed.size_bytes(), 17 + 1 + 2);
    }

    #[test]
    fn display_shows_direction() {
        let e = Edge::new(
            NodeId::new(5),
            NodeId::new(4),
            EdgeKind::Link,
            Timestamp::EPOCH,
        );
        assert_eq!(e.to_string(), "n5 -[link]-> n4");
    }
}
