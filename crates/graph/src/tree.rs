//! The link-traversal history tree.
//!
//! §3.1: "if both pages and links are versioned as new instances, and only
//! link relationships are considered, the result is a tree structure.
//! There were a number of early efforts by researchers such as Ayers and
//! Stasko to develop an interface that used this property to visualize
//! recent history; we believe it could also be used for efficient storage
//! and query."
//!
//! This module exploits the property both ways: [`HistoryTree`] extracts
//! the navigation forest (every visit has at most one navigation parent),
//! renders it for humans (the Ayers & Stasko use), and encodes it as a
//! delta-compressed parent-pointer array (the storage use — compared
//! against general edge encodings in the A2 bench family).

use crate::edge::EdgeKind;
use crate::graph::ProvenanceGraph;
use crate::ids::NodeId;
use std::fmt::Write as _;

/// Edge kinds that represent the user *arriving somewhere from somewhere*:
/// each visit has at most one such parent, which is what makes the
/// structure a tree.
fn is_navigation(kind: EdgeKind) -> bool {
    matches!(
        kind,
        EdgeKind::Link
            | EdgeKind::TypedLocation
            | EdgeKind::BookmarkClick
            | EdgeKind::Redirect
            | EdgeKind::FormSubmit
            | EdgeKind::SearchResult
            | EdgeKind::NewTab
            | EdgeKind::Reload
            | EdgeKind::BackForward
    )
}

/// The navigation forest over a provenance graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryTree {
    /// `parent[i]` is the navigation parent of node `i` (as a raw index),
    /// or `u32::MAX` for roots / non-visit nodes.
    parent: Vec<u32>,
    /// Children lists (visit nodes only).
    children: Vec<Vec<NodeId>>,
    /// Root nodes in id order (session/tree starts).
    roots: Vec<NodeId>,
}

const NO_PARENT: u32 = u32::MAX;

impl HistoryTree {
    /// Extracts the navigation forest from `graph`.
    ///
    /// Every node's parent is the target of its first navigation out-edge
    /// (the action that brought the user there). Nodes without one —
    /// session starts, search terms, bookmarks, pages — are roots if they
    /// have tree children, otherwise omitted from `roots`.
    pub fn extract(graph: &ProvenanceGraph) -> Self {
        let n = graph.node_count();
        let mut parent = vec![NO_PARENT; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for node in graph.node_ids() {
            let nav_parent = graph.parents(node).find_map(|(eid, target)| {
                let kind = graph.edge(eid).ok()?.kind();
                is_navigation(kind).then_some(target)
            });
            if let Some(p) = nav_parent {
                parent[node.as_usize()] = p.index();
                children[p.as_usize()].push(node);
            }
        }
        let roots = (0..n as u32)
            .map(NodeId::new)
            .filter(|id| parent[id.as_usize()] == NO_PARENT && !children[id.as_usize()].is_empty())
            .collect();
        HistoryTree {
            parent,
            children,
            roots,
        }
    }

    /// The navigation parent of `node`, if any.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        match self.parent.get(node.as_usize()) {
            Some(&p) if p != NO_PARENT => Some(NodeId::new(p)),
            _ => None,
        }
    }

    /// The navigation children of `node`.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        self.children
            .get(node.as_usize())
            .map_or(&[], Vec::as_slice)
    }

    /// Tree roots that have at least one child.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Number of nodes that have a navigation parent.
    pub fn edge_count(&self) -> usize {
        self.parent.iter().filter(|&&p| p != NO_PARENT).count()
    }

    /// Depth of `node` (root = 0).
    pub fn depth(&self, node: NodeId) -> usize {
        let mut depth = 0;
        let mut current = node;
        while let Some(p) = self.parent(current) {
            depth += 1;
            current = p;
        }
        depth
    }

    /// Size of the subtree rooted at `node` (including itself).
    pub fn subtree_size(&self, node: NodeId) -> usize {
        let mut size = 0;
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            size += 1;
            stack.extend_from_slice(self.children(n));
        }
        size
    }

    /// Encodes the forest as a delta-compressed parent-pointer array —
    /// the §3.1 "efficient storage" use. Most parents are the immediately
    /// preceding node (the user walked forward), so deltas are tiny
    /// varints.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        bp_varint_write(&mut out, self.parent.len() as u64);
        for (i, &p) in self.parent.iter().enumerate() {
            if p == NO_PARENT {
                // 0 marks "no parent"; real deltas are shifted by one.
                bp_varint_write(&mut out, 0);
            } else {
                let delta = i as i64 - i64::from(p); // parents precede children
                debug_assert!(delta > 0, "tree edges point backward in id order");
                bp_varint_write(&mut out, delta as u64);
            }
        }
        out
    }

    /// Decodes an [`encode`](Self::encode)d forest.
    ///
    /// Returns `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let n = bp_varint_read(bytes, &mut pos)? as usize;
        if n > bytes.len().saturating_mul(10) {
            return None; // implausible count for the available bytes
        }
        let mut parent = vec![NO_PARENT; n];
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, slot) in parent.iter_mut().enumerate() {
            let v = bp_varint_read(bytes, &mut pos)?;
            if v != 0 {
                let p = (i as u64).checked_sub(v)?;
                *slot = p as u32;
                children[p as usize].push(NodeId::new(i as u32));
            }
        }
        let roots = (0..n as u32)
            .map(NodeId::new)
            .filter(|id| parent[id.as_usize()] == NO_PARENT && !children[id.as_usize()].is_empty())
            .collect();
        Some(HistoryTree {
            parent,
            children,
            roots,
        })
    }

    /// Renders the forest as ASCII art (the Ayers & Stasko visualization),
    /// up to `max_depth` levels and `max_nodes` total lines.
    pub fn render_ascii(
        &self,
        graph: &ProvenanceGraph,
        max_depth: usize,
        max_nodes: usize,
    ) -> String {
        let mut out = String::new();
        let mut printed = 0usize;
        for &root in &self.roots {
            if printed >= max_nodes {
                let _ = writeln!(out, "…");
                break;
            }
            self.render_node(graph, root, 0, max_depth, max_nodes, &mut printed, &mut out);
        }
        out
    }

    #[allow(clippy::too_many_arguments, reason = "internal recursion carrier")]
    fn render_node(
        &self,
        graph: &ProvenanceGraph,
        node: NodeId,
        depth: usize,
        max_depth: usize,
        max_nodes: usize,
        printed: &mut usize,
        out: &mut String,
    ) {
        if depth > max_depth || *printed >= max_nodes {
            return;
        }
        *printed += 1;
        let label = graph
            .node(node)
            .map(|n| {
                let mut key = n.key().to_owned();
                if key.len() > 60 {
                    key.truncate(60);
                    key.push('…');
                }
                format!("[{}] {}", n.kind(), key)
            })
            .unwrap_or_else(|_| node.to_string());
        let _ = writeln!(out, "{}{label}", "  ".repeat(depth));
        for &child in self.children(node) {
            self.render_node(graph, child, depth + 1, max_depth, max_nodes, printed, out);
        }
    }
}

// Tiny local varint (bp-graph has no dependency on bp-storage).
fn bp_varint_write(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn bp_varint_read(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut result = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(result);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NodeKind};
    use crate::time::Timestamp;
    use proptest::prelude::*;

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// A two-session history with branching (back + new link).
    fn sample() -> (ProvenanceGraph, Vec<NodeId>) {
        let mut g = ProvenanceGraph::new();
        let a = g.add_node(Node::new(NodeKind::PageVisit, "http://a/", t(1)));
        let b = g.add_node(Node::new(NodeKind::PageVisit, "http://b/", t(2)));
        let c = g.add_node(Node::new(NodeKind::PageVisit, "http://c/", t(3)));
        let d = g.add_node(Node::new(NodeKind::PageVisit, "http://d/", t(4)));
        let lone = g.add_node(Node::new(NodeKind::PageVisit, "http://lone/", t(9)));
        g.add_edge(b, a, EdgeKind::Link, t(2)).unwrap();
        g.add_edge(c, a, EdgeKind::Link, t(3)).unwrap(); // branched from a
        g.add_edge(d, c, EdgeKind::Link, t(4)).unwrap();
        // A non-navigation edge that must NOT become a tree edge.
        g.add_edge(d, b, EdgeKind::TemporalOverlap, t(4)).unwrap();
        (g, vec![a, b, c, d, lone])
    }

    #[test]
    fn extraction_builds_the_branching_tree() {
        let (g, ids) = sample();
        let tree = HistoryTree::extract(&g);
        assert_eq!(tree.roots(), &[ids[0]]);
        assert_eq!(tree.parent(ids[1]), Some(ids[0]));
        assert_eq!(tree.parent(ids[2]), Some(ids[0]));
        assert_eq!(tree.parent(ids[3]), Some(ids[2]));
        assert_eq!(tree.parent(ids[0]), None);
        assert_eq!(tree.parent(ids[4]), None, "lone page is not in any tree");
        assert_eq!(tree.children(ids[0]), &[ids[1], ids[2]]);
        assert_eq!(tree.edge_count(), 3);
        assert_eq!(tree.depth(ids[3]), 2);
        assert_eq!(tree.subtree_size(ids[0]), 4);
        assert_eq!(tree.subtree_size(ids[3]), 1);
    }

    #[test]
    fn overlap_edges_never_enter_the_tree() {
        let (g, ids) = sample();
        let tree = HistoryTree::extract(&g);
        // d's nav parent is c, not b (overlap edge ignored).
        assert_eq!(tree.parent(ids[3]), Some(ids[2]));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (g, _) = sample();
        let tree = HistoryTree::extract(&g);
        let encoded = tree.encode();
        let decoded = HistoryTree::decode(&encoded).unwrap();
        assert_eq!(decoded, tree);
        // Forward-walking histories encode at ~1 byte per node.
        assert!(encoded.len() <= g.node_count() + 2);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(HistoryTree::decode(&[]).is_none());
        assert!(HistoryTree::decode(&[0xff]).is_none());
        // Parent delta pointing past the beginning.
        let mut bad = Vec::new();
        bp_varint_write(&mut bad, 2); // two nodes
        bp_varint_write(&mut bad, 5); // node 0 claims parent 0-5
        bp_varint_write(&mut bad, 0);
        assert!(HistoryTree::decode(&bad).is_none());
        // Absurd node count.
        let mut huge = Vec::new();
        bp_varint_write(&mut huge, u64::MAX);
        assert!(HistoryTree::decode(&huge).is_none());
    }

    #[test]
    fn render_shows_indented_structure() {
        let (g, _) = sample();
        let tree = HistoryTree::extract(&g);
        let art = tree.render_ascii(&g, 10, 100);
        assert!(art.contains("[visit] http://a/"));
        assert!(art.contains("  [visit] http://b/"));
        assert!(art.contains("    [visit] http://d/"));
        // Depth / node caps hold.
        let shallow = tree.render_ascii(&g, 0, 100);
        assert!(!shallow.contains("http://b/"));
        let tiny = tree.render_ascii(&g, 10, 1);
        assert_eq!(tiny.lines().count(), 1);
    }

    proptest! {
        /// For any graph built by random forward navigation, the extracted
        /// structure is a forest (each node ≤ 1 parent, no cycles, depth
        /// finite) and encode/decode is the identity.
        #[test]
        fn extracted_structure_is_a_forest(
            links in prop::collection::vec((1u8..40, 0u8..40), 1..80)
        ) {
            let mut g = ProvenanceGraph::new();
            let n = 41;
            for i in 0..n {
                g.add_node(Node::new(NodeKind::PageVisit, format!("u{i}"), t(i)));
            }
            // Each link from a node to an older one, added by source.
            let mut links: Vec<(u32, u32)> = links
                .iter()
                .map(|&(src, dst)| (u32::from(src), u32::from(dst) % u32::from(src)))
                .collect();
            links.sort_by_key(|&(src, _)| src);
            for (src, dst) in links {
                g.add_edge(NodeId::new(src), NodeId::new(dst), EdgeKind::Link, t(i64::from(src)))
                    .unwrap();
            }
            let tree = HistoryTree::extract(&g);
            for node in g.node_ids() {
                // Walking up terminates (depth bounded by node count).
                prop_assert!(tree.depth(node) <= g.node_count());
                // Parent link is mirrored in the children list.
                if let Some(p) = tree.parent(node) {
                    prop_assert!(tree.children(p).contains(&node));
                }
            }
            let decoded = HistoryTree::decode(&tree.encode()).unwrap();
            prop_assert_eq!(decoded, tree);
        }
    }
}
