//! Columnar, delta-encoded snapshot format (`BPSNAP\x02`).
//!
//! The v1 snapshot was simply the compacted op stream — every node record
//! re-paid the per-op framing (tag byte, interleaved string defines,
//! per-record attr counts). Browser history is highly regular, so a
//! column-per-field layout compresses much better (§3.1; the paper's E1
//! budget is 39.5% overhead over raw history):
//!
//! - **strings** are front-coded in id order: each entry stores the length
//!   of the prefix it shares with its predecessor plus the differing
//!   suffix. Interned strings are dominated by URLs that share long
//!   scheme://host/path prefixes.
//! - **nodes** are split into columns: kind bytes, zigzag-delta key ids,
//!   versions, zigzag-delta open timestamps, then attribute lists. Sorted
//!   and near-sorted columns make the varints one byte each.
//! - **edge structure** reuses [`crate::factorize`]'s signature-dictionary
//!   encoding when the graph's per-source edge grouping matches edge-id
//!   order (the common case: capture creates a node's out-edges right
//!   after the node), and falls back to explicit delta triples otherwise.
//!   Timestamps and attributes live in separate columns either way.
//! - **closes** are (node-id delta, close-time delta) pairs.
//!
//! Decoding lowers the columns back into the [`Op`] stream the v1 format
//! stored literally — DefineStrings in id order, AddNodes, AddEdges,
//! CloseNodes — so recovery replays through exactly the same structural
//! apply path and rebuilds bit-identical state.

// An on-disk codec: every conversion is checked, never an `as` cast.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::cast::{offset_u64, usize_from_u64};
use crate::error::{StorageError, StorageResult};
use crate::factorize::{defactorize, factorize, FactorizedEdges};
use crate::intern::ShardedInterner;
use crate::record::{read_attrs, write_attrs, Op};
use crate::varint;
use bp_graph::{NodeId, NodeKind, ProvenanceGraph, Timestamp, Version};

/// Edge-structure encoding selector: explicit delta triples.
const EDGES_EXPLICIT: u8 = 0;
/// Edge-structure encoding selector: factorized signature dictionary.
const EDGES_FACTORIZED: u8 = 1;

/// Encodes `graph` into one columnar frame, interning every string the
/// snapshot references into `compact` (in the id order the decoder will
/// replay them).
///
/// # Errors
///
/// Infallible for any in-memory graph today; the `Result` keeps the
/// signature aligned with [`decode`] and future size limits.
pub(crate) fn encode(graph: &ProvenanceGraph, compact: &ShardedInterner) -> StorageResult<Vec<u8>> {
    // First pass: assign compact string ids in reference order (node keys
    // and attr keys in node-id order, then edge attr keys in edge-id
    // order) — the same order the string table is emitted and replayed.
    // Keys enter the table as the nodes' own shared strings, so the store
    // that adopts `compact` still holds each key once.
    for (_, node) in graph.nodes() {
        compact.intern_shared(node.shared_key());
        for (k, _) in node.attrs().iter() {
            compact.intern(k);
        }
    }
    for (_, edge) in graph.edges() {
        for (k, _) in edge.attrs().iter() {
            compact.intern(k);
        }
    }

    let mut out = Vec::new();

    // --- String table, front-coded in id order. ---
    let table = compact.strings();
    varint::write_u64(&mut out, offset_u64(table.len()));
    let mut prev = "";
    for s in &table {
        let shared = common_prefix_len(prev, s);
        varint::write_u64(&mut out, offset_u64(shared));
        varint::write_u64(&mut out, offset_u64(s.len() - shared));
        out.extend_from_slice(&s.as_bytes()[shared..]);
        prev = s;
    }

    // --- Node columns. ---
    varint::write_u64(&mut out, offset_u64(graph.node_count()));
    for (_, node) in graph.nodes() {
        out.push(node.kind().code());
    }
    let mut last_key = 0i64;
    for (_, node) in graph.nodes() {
        // Resolved above, so lookup cannot miss.
        let key = i64::from(compact.intern(node.key()));
        varint::write_i64(&mut out, key - last_key);
        last_key = key;
    }
    for (_, node) in graph.nodes() {
        varint::write_u64(&mut out, u64::from(node.version().number()));
    }
    let mut last_open = 0i64;
    for (_, node) in graph.nodes() {
        let micros = node.opened_at().as_micros();
        varint::write_i64(&mut out, micros - last_open);
        last_open = micros;
    }
    for (_, node) in graph.nodes() {
        let attrs: Vec<(u32, bp_graph::AttrValue)> = node
            .attrs()
            .iter()
            .map(|(k, v)| (compact.intern(k), v.clone()))
            .collect();
        write_attrs(&mut out, &attrs);
    }

    // --- Edge structure. ---
    varint::write_u64(&mut out, offset_u64(graph.edge_count()));
    if grouped_order_is_id_order(graph) {
        let fact = factorize(graph);
        out.push(EDGES_FACTORIZED);
        varint::write_bytes(&mut out, fact.as_bytes());
    } else {
        out.push(EDGES_EXPLICIT);
        let mut last_src = 0i64;
        for (_, edge) in graph.edges() {
            let src = i64::from(edge.src().index());
            varint::write_i64(&mut out, src - last_src);
            last_src = src;
            varint::write_i64(&mut out, src - i64::from(edge.dst().index()));
            out.push(edge.kind().code());
        }
    }
    // Edge timestamp + attr columns, always in edge-id order.
    let mut last_at = 0i64;
    for (_, edge) in graph.edges() {
        let micros = edge.at().as_micros();
        varint::write_i64(&mut out, micros - last_at);
        last_at = micros;
    }
    for (_, edge) in graph.edges() {
        let attrs: Vec<(u32, bp_graph::AttrValue)> = edge
            .attrs()
            .iter()
            .map(|(k, v)| (compact.intern(k), v.clone()))
            .collect();
        write_attrs(&mut out, &attrs);
    }

    // --- Close records, ascending node id. ---
    let closes: Vec<(u32, i64)> = graph
        .nodes()
        .filter_map(|(id, n)| n.interval().close().map(|c| (id.index(), c.as_micros())))
        .collect();
    varint::write_u64(&mut out, offset_u64(closes.len()));
    let mut last_id = 0u64;
    let mut last_close = 0i64;
    for (id, micros) in &closes {
        let id = u64::from(*id);
        varint::write_u64(&mut out, id - last_id);
        last_id = id;
        varint::write_i64(&mut out, micros - last_close);
        last_close = *micros;
    }

    Ok(out)
}

/// Decodes one columnar frame back into the equivalent op stream (string
/// defines, nodes, edges, closes — all in id order).
///
/// # Errors
///
/// Returns [`StorageError::Corrupt`] on truncation or malformed columns.
pub(crate) fn decode(frame: &[u8]) -> StorageResult<Vec<Op>> {
    let buf = frame;
    let mut pos = 0usize;
    let mut ops = Vec::new();

    // --- String table. ---
    let n_strings = read_count(buf, &mut pos)?;
    let mut prev = String::new();
    for i in 0..n_strings {
        let shared = read_count(buf, &mut pos)?;
        if shared > prev.len() || !prev.is_char_boundary(shared) {
            return Err(StorageError::corrupt(
                offset_u64(pos),
                "front-coded prefix exceeds predecessor",
            ));
        }
        let suffix = varint::read_str(buf, &mut pos)?;
        let mut s = String::with_capacity(shared + suffix.len());
        s.push_str(&prev[..shared]);
        s.push_str(suffix);
        ops.push(Op::DefineString {
            id: u32_from_index(i, pos)?,
            value: s.clone(),
        });
        prev = s;
    }

    // --- Node columns. ---
    let n_nodes = read_count(buf, &mut pos)?;
    let mut kinds = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let code = read_byte(buf, &mut pos)?;
        kinds.push(
            NodeKind::from_code(code)
                .ok_or_else(|| StorageError::corrupt(offset_u64(pos), "bad node kind"))?,
        );
    }
    let mut keys = Vec::with_capacity(n_nodes);
    let mut last_key = 0i64;
    for _ in 0..n_nodes {
        last_key += varint::read_i64(buf, &mut pos)?;
        keys.push(u32_from_signed(last_key, pos)?);
    }
    let mut versions = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        versions.push(Version::new(varint::read_u32(buf, &mut pos)?));
    }
    let mut opens = Vec::with_capacity(n_nodes);
    let mut last_open = 0i64;
    for _ in 0..n_nodes {
        last_open += varint::read_i64(buf, &mut pos)?;
        opens.push(Timestamp::from_micros(last_open));
    }
    for i in 0..n_nodes {
        let attrs = read_attrs(buf, &mut pos)?;
        ops.push(Op::AddNode {
            kind: kinds[i],
            key: keys[i],
            version: versions[i],
            open_at: opens[i],
            attrs,
        });
    }
    let node_ops_start = ops.len() - n_nodes;

    // --- Edge structure. ---
    let n_edges = read_count(buf, &mut pos)?;
    let tag = read_byte(buf, &mut pos)?;
    let structure: Vec<(NodeId, NodeId, bp_graph::EdgeKind)> = match tag {
        EDGES_FACTORIZED => {
            let bytes = varint::read_bytes(buf, &mut pos)?.to_vec();
            let fact = FactorizedEdges::from_bytes(bytes, n_edges)?;
            let triples = defactorize(&fact)?;
            if triples.len() != n_edges {
                return Err(StorageError::corrupt(
                    offset_u64(pos),
                    "factorized edge count mismatch",
                ));
            }
            triples
        }
        EDGES_EXPLICIT => {
            let mut triples = Vec::with_capacity(n_edges);
            let mut last_src = 0i64;
            for _ in 0..n_edges {
                last_src += varint::read_i64(buf, &mut pos)?;
                let src = u32_from_signed(last_src, pos)?;
                let dst_delta = varint::read_i64(buf, &mut pos)?;
                let dst = u32_from_signed(last_src - dst_delta, pos)?;
                let code = read_byte(buf, &mut pos)?;
                let kind = bp_graph::EdgeKind::from_code(code)
                    .ok_or_else(|| StorageError::corrupt(offset_u64(pos), "bad edge kind"))?;
                triples.push((NodeId::new(src), NodeId::new(dst), kind));
            }
            triples
        }
        other => {
            return Err(StorageError::corrupt(
                offset_u64(pos),
                format!("unknown edge encoding tag {other}"),
            ))
        }
    };
    let mut ats = Vec::with_capacity(n_edges);
    let mut last_at = 0i64;
    for _ in 0..n_edges {
        last_at += varint::read_i64(buf, &mut pos)?;
        ats.push(Timestamp::from_micros(last_at));
    }
    for (i, (src, dst, kind)) in structure.into_iter().enumerate() {
        let attrs = read_attrs(buf, &mut pos)?;
        ops.push(Op::AddEdge {
            src,
            dst,
            kind,
            at: ats[i],
            attrs,
        });
    }

    // --- Closes. ---
    let n_closes = read_count(buf, &mut pos)?;
    let mut last_id = 0u64;
    let mut last_close = 0i64;
    for _ in 0..n_closes {
        last_id += varint::read_u64(buf, &mut pos)?;
        let node = usize_from_u64(last_id)
            .filter(|&id| id < n_nodes)
            .ok_or_else(|| StorageError::corrupt(offset_u64(pos), "close references bad node"))?;
        last_close += varint::read_i64(buf, &mut pos)?;
        let _ = node_ops_start; // ids are dense: validated against n_nodes above
        ops.push(Op::CloseNode {
            node: NodeId::new(u32_from_index(node, pos)?),
            at: Timestamp::from_micros(last_close),
        });
    }
    if pos != buf.len() {
        return Err(StorageError::corrupt(
            offset_u64(pos),
            "trailing bytes after snapshot columns",
        ));
    }
    Ok(ops)
}

/// Whether walking nodes in id order and each node's out-edges in list
/// order visits edge ids 0, 1, 2, … — the precondition for reusing the
/// factorized structure encoding (which stores edges grouped by source).
fn grouped_order_is_id_order(graph: &ProvenanceGraph) -> bool {
    let mut next = 0u32;
    for src in graph.node_ids() {
        for &eid in graph.out_edges(src) {
            if eid.index() != next {
                return false;
            }
            next += 1;
        }
    }
    true
}

fn common_prefix_len(a: &str, b: &str) -> usize {
    let mut n = a
        .as_bytes()
        .iter()
        .zip(b.as_bytes())
        .take_while(|(x, y)| x == y)
        .count();
    // Keep the split on a char boundary so decode can slice the prefix.
    while !b.is_char_boundary(n) {
        n -= 1;
    }
    n
}

fn read_count(buf: &[u8], pos: &mut usize) -> StorageResult<usize> {
    let n = varint::read_u64(buf, pos)?;
    usize_from_u64(n)
        .filter(|&n| n <= buf.len())
        .ok_or_else(|| StorageError::corrupt(offset_u64(*pos), "count exceeds buffer"))
}

fn read_byte(buf: &[u8], pos: &mut usize) -> StorageResult<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| StorageError::corrupt(offset_u64(*pos), "truncated byte"))?;
    *pos += 1;
    Ok(b)
}

fn u32_from_index(i: usize, pos: usize) -> StorageResult<u32> {
    u32::try_from(i).map_err(|_| StorageError::corrupt(offset_u64(pos), "index exceeds u32"))
}

fn u32_from_signed(v: i64, pos: usize) -> StorageResult<u32> {
    u32::try_from(v).map_err(|_| StorageError::corrupt(offset_u64(pos), "delta out of range"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_graph::{AttrValue, EdgeKind, Node};

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// A graph shaped like real capture output: out-edges created right
    /// after their source node (grouped order == id order).
    fn capture_shaped(n: usize) -> ProvenanceGraph {
        let mut g = ProvenanceGraph::new();
        let hub = g.add_node(Node::new(NodeKind::Page, "http://hub.example/", t(0)));
        let mut prev = None;
        for i in 0..n {
            let mut node = Node::new(
                NodeKind::PageVisit,
                format!("http://hub.example/article/{i}"),
                t(i64::try_from(i).unwrap() + 1),
            );
            node.attrs_mut().set("title", format!("Article {i}"));
            let v = g.add_node(node);
            let ts = t(i64::try_from(i).unwrap() + 1);
            g.add_edge(v, hub, EdgeKind::InstanceOf, ts).unwrap();
            if let Some(p) = prev {
                g.add_edge(v, p, EdgeKind::Link, ts).unwrap();
            }
            prev = Some(v);
        }
        g
    }

    /// Interleaves edge creation across sources so grouped order differs
    /// from id order, forcing the explicit fallback.
    fn interleaved() -> ProvenanceGraph {
        let mut g = ProvenanceGraph::new();
        let a = g.add_node(Node::new(NodeKind::Page, "a", t(0)));
        let b = g.add_node(Node::new(NodeKind::Page, "b", t(0)));
        let c = g.add_node(Node::new(NodeKind::Page, "c", t(0)));
        g.add_edge(c, a, EdgeKind::Link, t(1)).unwrap(); // edge 0: src 2
        g.add_edge(b, a, EdgeKind::Link, t(2)).unwrap(); // edge 1: src 1
        g.add_edge(c, b, EdgeKind::Link, t(3)).unwrap(); // edge 2: src 2
        g
    }

    fn replay(ops: Vec<Op>) -> (ProvenanceGraph, ShardedInterner) {
        let g = std::cell::RefCell::new(ProvenanceGraph::new());
        let interner = ShardedInterner::new();
        for op in ops {
            match op {
                Op::DefineString { id, value } => interner.define(id, &value).unwrap(),
                Op::AddNode {
                    kind,
                    key,
                    version,
                    open_at,
                    attrs,
                } => {
                    let key = interner.resolve(key).unwrap();
                    let mut node = Node::with_version(kind, key, version, open_at);
                    for (kid, v) in attrs {
                        node.attrs_mut().set(interner.resolve(kid).unwrap(), v);
                    }
                    g.borrow_mut().add_node(node);
                }
                Op::AddEdge {
                    src,
                    dst,
                    kind,
                    at,
                    attrs,
                } => {
                    let mut edge = bp_graph::Edge::new(src, dst, kind, at);
                    for (kid, v) in attrs {
                        edge.attrs_mut().set(interner.resolve(kid).unwrap(), v);
                    }
                    g.borrow_mut().add_edge_full(edge).unwrap();
                }
                Op::CloseNode { node, at } => {
                    g.borrow_mut().node_mut(node).unwrap().close_at(at);
                }
                other => panic!("unexpected op in snapshot stream: {other:?}"),
            }
        }
        (g.into_inner(), interner)
    }

    fn fingerprint(g: &ProvenanceGraph) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (id, n) in g.nodes() {
            let _ = writeln!(s, "N {id} {n:?}");
        }
        for (id, e) in g.edges() {
            let _ = writeln!(s, "E {id} {e:?}");
        }
        s
    }

    #[test]
    fn roundtrip_capture_shaped_uses_factorized_edges() {
        let mut g = capture_shaped(40);
        g.node_mut(NodeId::new(3)).unwrap().close_at(t(100));
        g.node_mut(NodeId::new(7)).unwrap().close_at(t(101));
        assert!(grouped_order_is_id_order(&g));
        let compact = ShardedInterner::new();
        let frame = encode(&g, &compact).unwrap();
        let (decoded, interner) = replay(decode(&frame).unwrap());
        assert_eq!(fingerprint(&decoded), fingerprint(&g));
        assert_eq!(interner.len(), compact.len());
        assert_eq!(interner.strings(), compact.strings());
    }

    #[test]
    fn roundtrip_interleaved_uses_explicit_edges() {
        let g = interleaved();
        assert!(!grouped_order_is_id_order(&g));
        let frame = encode(&g, &ShardedInterner::new()).unwrap();
        let (decoded, _) = replay(decode(&frame).unwrap());
        assert_eq!(fingerprint(&decoded), fingerprint(&g));
    }

    #[test]
    fn roundtrip_attr_values_of_every_type() {
        let mut g = ProvenanceGraph::new();
        let mut node = Node::new(NodeKind::Download, "/tmp/f.bin", t(1));
        node.attrs_mut().set("s", "text");
        node.attrs_mut().set("i", -42i64);
        node.attrs_mut().set("f", 2.5f64);
        node.attrs_mut().set("b", true);
        node.attrs_mut().set("raw", AttrValue::Bytes(vec![0, 255]));
        g.add_node(node);
        let frame = encode(&g, &ShardedInterner::new()).unwrap();
        let (decoded, _) = replay(decode(&frame).unwrap());
        assert_eq!(fingerprint(&decoded), fingerprint(&g));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = ProvenanceGraph::new();
        let frame = encode(&g, &ShardedInterner::new()).unwrap();
        assert!(decode(&frame).unwrap().is_empty());
    }

    #[test]
    fn columnar_is_smaller_than_op_stream() {
        let g = capture_shaped(200);
        let compact = ShardedInterner::new();
        let columns = encode(&g, &compact).unwrap();
        // The v1 equivalent: the compacted op stream.
        let mut codec = crate::record::Codec::new();
        let mut v1 = Vec::new();
        for (id, s) in compact.strings().iter().enumerate() {
            codec.encode(
                &Op::DefineString {
                    id: u32::try_from(id).unwrap(),
                    value: s.to_string(),
                },
                &mut v1,
            );
        }
        for (_, node) in g.nodes() {
            let attrs = node
                .attrs()
                .iter()
                .map(|(k, v)| (compact.intern(k), v.clone()))
                .collect();
            codec.encode(
                &Op::AddNode {
                    kind: node.kind(),
                    key: compact.intern(node.key()),
                    version: node.version(),
                    open_at: node.opened_at(),
                    attrs,
                },
                &mut v1,
            );
        }
        for (_, edge) in g.edges() {
            codec.encode(
                &Op::AddEdge {
                    src: edge.src(),
                    dst: edge.dst(),
                    kind: edge.kind(),
                    at: edge.at(),
                    attrs: Vec::new(),
                },
                &mut v1,
            );
        }
        assert!(
            columns.len() * 10 < v1.len() * 9,
            "columnar {} should be at least 10% below op-stream {}",
            columns.len(),
            v1.len()
        );
    }

    #[test]
    fn truncated_frames_are_corrupt_never_panic() {
        let g = capture_shaped(10);
        let frame = encode(&g, &ShardedInterner::new()).unwrap();
        for cut in 0..frame.len() {
            assert!(
                decode(&frame[..cut]).is_err(),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let g = capture_shaped(3);
        let mut frame = encode(&g, &ShardedInterner::new()).unwrap();
        frame.push(7);
        assert!(decode(&frame).is_err());
    }

    #[test]
    fn front_coding_respects_char_boundaries() {
        let mut g = ProvenanceGraph::new();
        g.add_node(Node::new(NodeKind::Page, "http://é/aé", t(0)));
        g.add_node(Node::new(NodeKind::Page, "http://é/aüz", t(0)));
        let frame = encode(&g, &ShardedInterner::new()).unwrap();
        let (decoded, _) = replay(decode(&frame).unwrap());
        assert_eq!(fingerprint(&decoded), fingerprint(&g));
    }
}
