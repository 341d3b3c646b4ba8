//! Columnar, delta-encoded snapshot format (`BPSNAP\x02`, and `BPSNAP\x03`,
//! whose header frame adds the log generation the snapshot covers).
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
//!   scheme://host/path prefixes. String attribute values (titles) are in
//!   the table too, after every key, and the attribute columns hold their
//!   ids: a title repeated over many visits is stored once.
//! - **nodes** are split into columns: kind bytes, zigzag-delta key ids,
//!   versions, zigzag-delta open timestamps, then attribute lists. Sorted
//!   and near-sorted columns make the varints one byte each.
//! - **edge structure** reuses [`crate::factorize`]'s signature-dictionary
//!   encoding, which stores edges grouped by source: the graph keeps its
//!   edges in source order, so that grouping is edge-id order. Timestamps
//!   and attributes live in separate columns.
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
use crate::intern::StringInterner;
use crate::record::{read_attrs, write_attrs, Op, OpValue};
use crate::varint;
use bp_graph::{AttrMap, AttrValue, NodeId, NodeKind, ProvenanceGraph, Timestamp, Version};

/// Edge-structure encoding selector: factorized signature dictionary.
/// Selector 0 (explicit triples, for edges out of source order) is
/// retired and refused as corrupt: the graph rejects such edges.
const EDGES_FACTORIZED: u8 = 1;

/// Encodes `graph` into one columnar frame, interning every string the
/// snapshot references into `compact` (in the id order the decoder will
/// replay them).
///
/// # Errors
///
/// Infallible for any in-memory graph today; the `Result` keeps the
/// signature aligned with [`decode`] and future size limits.
pub(crate) fn encode(
    graph: &ProvenanceGraph,
    compact: &mut StringInterner,
) -> StorageResult<Vec<u8>> {
    // First pass: assign compact string ids in reference order (node keys
    // and attr names in node-id order, then edge attr names in edge-id
    // order, then string values in that same order) — the same order the
    // string table is emitted and replayed. Values come after every key
    // so that URLs stay adjacent for the front coding. Strings enter the
    // table as the graph's own shared `Arc`s, so the store that adopts
    // `compact` still holds each one once.
    for (_, node) in graph.nodes() {
        compact.intern_shared(node.shared_key());
        for (k, _) in node.attrs().iter_shared() {
            compact.intern_shared(k);
        }
    }
    for (_, edge) in graph.edges() {
        for (k, _) in edge.attrs().iter_shared() {
            compact.intern_shared(k);
        }
    }
    let node_attrs = graph.nodes().map(|(_, node)| node.attrs());
    for attrs in node_attrs.chain(graph.edges().map(|(_, edge)| edge.attrs())) {
        for (_, value) in attrs.iter() {
            if let AttrValue::Str(s) = value {
                compact.intern_shared(s);
            }
        }
    }

    let mut out = Vec::new();

    // --- String table, front-coded in id order. ---
    varint::write_u64(&mut out, offset_u64(compact.len()));
    let mut prev = "";
    for (_, s) in compact.iter() {
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
        write_attrs(&mut out, &attr_refs(node.attrs(), compact));
    }

    // --- Edge structure. ---
    varint::write_u64(&mut out, offset_u64(graph.edge_count()));
    out.push(EDGES_FACTORIZED);
    varint::write_bytes(&mut out, factorize(graph).as_bytes());
    // Edge timestamp + attr columns, always in edge-id order.
    let mut last_at = 0i64;
    for (_, edge) in graph.edges() {
        let micros = edge.at().as_micros();
        varint::write_i64(&mut out, micros - last_at);
        last_at = micros;
    }
    for (_, edge) in graph.edges() {
        write_attrs(&mut out, &attr_refs(edge.attrs(), compact));
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
    if tag != EDGES_FACTORIZED {
        return Err(StorageError::corrupt(
            offset_u64(pos),
            format!("unknown edge encoding tag {tag}"),
        ));
    }
    let bytes = varint::read_bytes(buf, &mut pos)?.to_vec();
    let structure = defactorize(&FactorizedEdges::from_bytes(bytes, n_edges)?)?;
    if structure.len() != n_edges {
        return Err(StorageError::corrupt(
            offset_u64(pos),
            "factorized edge count mismatch",
        ));
    }
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

/// `attrs` as a record carries them, each name and string value by its
/// id in `compact`, which the first pass of [`encode`] has filled.
fn attr_refs(attrs: &AttrMap, compact: &mut StringInterner) -> Vec<(u32, OpValue)> {
    attrs
        .iter_shared()
        .map(|(k, v)| {
            let value = match v {
                AttrValue::Str(s) => OpValue::Str(compact.intern_shared(s)),
                other => OpValue::Inline(other.clone()),
            };
            (compact.intern_shared(k), value)
        })
        .collect()
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
    /// after their source node.
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

    fn replay(ops: Vec<Op>) -> (ProvenanceGraph, StringInterner) {
        let g = std::cell::RefCell::new(ProvenanceGraph::new());
        let mut interner = StringInterner::new();
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
                        let v = v.resolve(&interner).unwrap();
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
                        let v = v.resolve(&interner).unwrap();
                        edge.attrs_mut().set(interner.resolve(kid).unwrap(), v);
                    }
                    g.borrow_mut().add_edge_full(edge).unwrap();
                }
                Op::CloseNode { node, at } => {
                    g.borrow_mut().node_mut(node).unwrap().close_at(at).unwrap();
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
        g.node_mut(NodeId::new(3))
            .unwrap()
            .close_at(t(100))
            .unwrap();
        g.node_mut(NodeId::new(7))
            .unwrap()
            .close_at(t(101))
            .unwrap();
        let mut compact = StringInterner::new();
        let frame = encode(&g, &mut compact).unwrap();
        let (decoded, interner) = replay(decode(&frame).unwrap());
        assert_eq!(fingerprint(&decoded), fingerprint(&g));
        assert_eq!(interner.len(), compact.len());
        assert!(interner.iter().eq(compact.iter()));
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
        let frame = encode(&g, &mut StringInterner::new()).unwrap();
        let (decoded, _) = replay(decode(&frame).unwrap());
        assert_eq!(fingerprint(&decoded), fingerprint(&g));
    }

    /// A snapshot written before string values were interned holds each
    /// title inline in its attribute column, once per visit. It still
    /// decodes, to the graph the current encoding gives, and its titles
    /// take no string id; the current encoding holds the title once.
    #[test]
    fn an_inline_title_from_an_older_snapshot_still_decodes() {
        let mut g = ProvenanceGraph::new();
        for (version, at) in [(0, t(1)), (1, t(2))] {
            let url = "http://a.example/";
            let mut node = Node::with_version(NodeKind::PageVisit, url, Version::new(version), at);
            node.attrs_mut().set("title", "Example");
            g.add_node(node);
        }

        let mut frame = Vec::new();
        varint::write_u64(&mut frame, 2); // strings: the key, the name
        for s in ["http://a.example/", "title"] {
            varint::write_u64(&mut frame, 0); // shared prefix
            varint::write_str(&mut frame, s);
        }
        varint::write_u64(&mut frame, 2); // nodes
        frame.extend([NodeKind::PageVisit.code(); 2]);
        frame.extend([0, 0]); // key id deltas
        frame.extend([0, 1]); // versions
        varint::write_i64(&mut frame, t(1).as_micros()); // open deltas
        varint::write_i64(&mut frame, t(1).as_micros());
        for _ in 0..2 {
            write_attrs(&mut frame, &[(1, OpValue::Inline("Example".into()))]);
        }
        varint::write_u64(&mut frame, 0); // edges
        frame.push(EDGES_FACTORIZED);
        varint::write_bytes(&mut frame, factorize(&ProvenanceGraph::new()).as_bytes());
        varint::write_u64(&mut frame, 0); // closes

        let (decoded, interner) = replay(decode(&frame).unwrap());
        assert_eq!(fingerprint(&decoded), fingerprint(&g));
        assert_eq!(interner.len(), 2);
        let mut compact = StringInterner::new();
        let current = encode(&g, &mut compact).unwrap();
        assert_eq!(compact.lookup("Example"), Some(2));
        let copies = |frame: &[u8]| frame.windows(7).filter(|w| w == b"Example").count();
        assert_eq!((copies(&frame), copies(&current)), (2, 1));
        assert_eq!(
            fingerprint(&replay(decode(&current).unwrap()).0),
            fingerprint(&g)
        );
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = ProvenanceGraph::new();
        let frame = encode(&g, &mut StringInterner::new()).unwrap();
        assert!(decode(&frame).unwrap().is_empty());
    }

    #[test]
    fn columnar_is_smaller_than_op_stream() {
        let g = capture_shaped(200);
        let mut compact = StringInterner::new();
        let columns = encode(&g, &mut compact).unwrap();
        // The v1 equivalent: the compacted op stream.
        let mut codec = crate::record::Codec::new();
        let mut v1 = Vec::new();
        for (id, s) in compact.iter() {
            codec.encode(
                &Op::DefineString {
                    id,
                    value: s.to_owned(),
                },
                &mut v1,
            );
        }
        for (_, node) in g.nodes() {
            let attrs = attr_refs(node.attrs(), &mut compact);
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
        let frame = encode(&g, &mut StringInterner::new()).unwrap();
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
        let mut frame = encode(&g, &mut StringInterner::new()).unwrap();
        frame.push(7);
        assert!(decode(&frame).is_err());
    }

    #[test]
    fn front_coding_respects_char_boundaries() {
        let mut g = ProvenanceGraph::new();
        g.add_node(Node::new(NodeKind::Page, "http://é/aé", t(0)));
        g.add_node(Node::new(NodeKind::Page, "http://é/aüz", t(0)));
        let frame = encode(&g, &mut StringInterner::new()).unwrap();
        let (decoded, _) = replay(decode(&frame).unwrap());
        assert_eq!(fingerprint(&decoded), fingerprint(&g));
    }
}
