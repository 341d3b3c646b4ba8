//! Factorized edge storage (Chapman et al.-style).
//!
//! "Chapman et al. developed general factorization and inheritance-based
//! methods that are almost certainly applicable to browser history" (§3.1).
//! Browser provenance is highly repetitive: nearly every visit carries the
//! same *shape* of out-edges (one `instance_of`, one navigation edge, maybe
//! a `version_of`). This module factors that repetition out:
//!
//! - each node's out-edge **kind signature** (the ordered list of edge
//!   kinds) is stored once in a dictionary and referenced by id;
//! - destination node ids are stored as deltas from the source id (visits
//!   link mostly to recent nodes, so deltas are small varints);
//! - nodes with no out-edges cost one bit of presence information (they are
//!   simply skipped — the node id delta encodes the gap).
//!
//! Factorization covers graph *structure* (src, dst, kind); timestamps and
//! attributes remain in the record log. Ablation **A2** compares this
//! encoding against the raw per-edge triples.

use crate::error::{StorageError, StorageResult};
use crate::varint;
use bp_graph::{EdgeKind, NodeId, ProvenanceGraph};
use std::collections::HashMap;

/// A factorized encoding of a graph's edge structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorizedEdges {
    bytes: Vec<u8>,
    signature_count: usize,
    edge_count: usize,
}

impl FactorizedEdges {
    /// Encoded size in bytes.
    pub fn encoded_size(&self) -> usize {
        self.bytes.len()
    }

    /// Number of distinct kind signatures in the dictionary.
    pub fn signature_count(&self) -> usize {
        self.signature_count
    }

    /// Number of edges encoded.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Raw encoded bytes (for persistence).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reconstructs a value from persisted bytes (as produced by
    /// [`as_bytes`](Self::as_bytes)) plus the edge count recorded alongside
    /// them. The signature dictionary length is read back from the head of
    /// the encoding; full validation happens in [`defactorize`].
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Corrupt`] if the dictionary length prefix is
    /// unreadable.
    pub fn from_bytes(bytes: Vec<u8>, edge_count: usize) -> StorageResult<Self> {
        let mut pos = 0usize;
        let dict_len = varint::read_u64(&bytes, &mut pos)?;
        let signature_count = usize::try_from(dict_len)
            .ok()
            .filter(|&n| n <= bytes.len())
            .ok_or_else(|| StorageError::corrupt(0, "signature dict too large"))?;
        Ok(FactorizedEdges {
            bytes,
            signature_count,
            edge_count,
        })
    }
}

/// Factorizes the edge structure of `graph`.
///
/// Layout:
/// ```text
/// [sig_dict_len][per sig: kind_count, kinds...]
/// [group_count][per group: src_id_delta, sig_id, dst_deltas...]
/// ```
pub fn factorize(graph: &ProvenanceGraph) -> FactorizedEdges {
    // Build the signature dictionary.
    let mut dict: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut dict_order: Vec<Vec<u8>> = Vec::new();
    let mut groups: Vec<(u32, u32, Vec<i64>)> = Vec::new(); // (src, sig, dst deltas)
    let mut edge_count = 0usize;

    for (src, run) in graph.out_runs() {
        let mut kinds = Vec::with_capacity(run.len());
        let mut deltas = Vec::with_capacity(run.len());
        for e in run {
            kinds.push(e.kind().code());
            deltas.push(i64::from(src.index()) - i64::from(e.dst().index()));
        }
        edge_count += run.len();
        let sig_id = *dict.entry(kinds.clone()).or_insert_with(|| {
            dict_order.push(kinds);
            (dict_order.len() - 1) as u32
        });
        groups.push((src.index(), sig_id, deltas));
    }

    let mut bytes = Vec::new();
    varint::write_u64(&mut bytes, dict_order.len() as u64);
    for sig in &dict_order {
        varint::write_u64(&mut bytes, sig.len() as u64);
        bytes.extend_from_slice(sig);
    }
    varint::write_u64(&mut bytes, groups.len() as u64);
    let mut last_src = 0u32;
    for (src, sig_id, deltas) in &groups {
        varint::write_u64(&mut bytes, u64::from(src - last_src));
        last_src = *src;
        varint::write_u64(&mut bytes, u64::from(*sig_id));
        for &d in deltas {
            varint::write_i64(&mut bytes, d);
        }
    }

    FactorizedEdges {
        bytes,
        signature_count: dict_order.len(),
        edge_count,
    }
}

/// Decodes a factorized structure back into `(src, dst, kind)` triples, in
/// per-source, per-edge order: the order of the graph's edge arena.
///
/// # Errors
///
/// Returns [`StorageError::Corrupt`] on malformed input.
pub fn defactorize(encoded: &FactorizedEdges) -> StorageResult<Vec<(NodeId, NodeId, EdgeKind)>> {
    let buf = &encoded.bytes;
    let mut pos = 0usize;
    let dict_len = varint::read_u64(buf, &mut pos)? as usize;
    if dict_len > buf.len() {
        return Err(StorageError::corrupt(
            pos as u64,
            "signature dict too large",
        ));
    }
    let mut dict: Vec<Vec<EdgeKind>> = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        let n = varint::read_u64(buf, &mut pos)? as usize;
        if pos + n > buf.len() {
            return Err(StorageError::corrupt(pos as u64, "truncated signature"));
        }
        let mut kinds = Vec::with_capacity(n);
        for &code in &buf[pos..pos + n] {
            kinds.push(
                EdgeKind::from_code(code)
                    .ok_or_else(|| StorageError::corrupt(pos as u64, "bad edge kind"))?,
            );
        }
        pos += n;
        dict.push(kinds);
    }
    let group_count = varint::read_u64(buf, &mut pos)? as usize;
    let mut out = Vec::with_capacity(encoded.edge_count);
    let mut last_src = 0u32;
    for _ in 0..group_count {
        let delta = varint::read_u32(buf, &mut pos)?;
        let src = last_src + delta;
        last_src = src;
        let sig_id = varint::read_u32(buf, &mut pos)? as usize;
        let kinds = dict
            .get(sig_id)
            .ok_or_else(|| StorageError::corrupt(pos as u64, "bad signature id"))?;
        for &kind in kinds {
            let d = varint::read_i64(buf, &mut pos)?;
            let dst = i64::from(src) - d;
            let dst = u32::try_from(dst)
                .map_err(|_| StorageError::corrupt(pos as u64, "dst delta out of range"))?;
            out.push((NodeId::new(src), NodeId::new(dst), kind));
        }
    }
    Ok(out)
}

/// Size in bytes of the *raw* (unfactorized) structure encoding: per edge,
/// varint src + varint dst + kind byte. The A2 baseline.
pub fn raw_structure_size(graph: &ProvenanceGraph) -> usize {
    let mut bytes = Vec::new();
    for (_, e) in graph.edges() {
        varint::write_u64(&mut bytes, u64::from(e.src().index()));
        varint::write_u64(&mut bytes, u64::from(e.dst().index()));
        bytes.push(e.kind().code());
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_graph::{Node, NodeKind, Timestamp};

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// A repetitive history: every visit has instance_of + link, like real
    /// browsing.
    fn repetitive(n: usize) -> ProvenanceGraph {
        let mut g = ProvenanceGraph::new();
        let page = g.add_node(Node::new(NodeKind::Page, "http://hub/", t(0)));
        let mut prev = None;
        for i in 0..n {
            let v = g.add_node(Node::new(
                NodeKind::PageVisit,
                format!("http://p{i}/"),
                t(i as i64 + 1),
            ));
            g.add_edge(v, page, EdgeKind::InstanceOf, t(i as i64 + 1))
                .unwrap();
            if let Some(p) = prev {
                g.add_edge(v, p, EdgeKind::Link, t(i as i64 + 1)).unwrap();
            }
            prev = Some(v);
        }
        g
    }

    fn structure_of(g: &ProvenanceGraph) -> Vec<(NodeId, NodeId, EdgeKind)> {
        g.edges()
            .map(|(_, e)| (e.src(), e.dst(), e.kind()))
            .collect()
    }

    #[test]
    fn roundtrip_exact() {
        let g = repetitive(50);
        let fact = factorize(&g);
        let decoded = defactorize(&fact).unwrap();
        assert_eq!(decoded, structure_of(&g));
        assert_eq!(fact.edge_count(), g.edge_count());
    }

    #[test]
    fn factorized_beats_raw_on_repetitive_structure() {
        let g = repetitive(500);
        let fact = factorize(&g);
        let raw = raw_structure_size(&g);
        assert!(
            fact.encoded_size() < raw,
            "factorized {} should beat raw {}",
            fact.encoded_size(),
            raw
        );
        // The dictionary is tiny: only a couple of distinct signatures.
        assert!(
            fact.signature_count() <= 3,
            "got {}",
            fact.signature_count()
        );
    }

    #[test]
    fn empty_graph() {
        let g = ProvenanceGraph::new();
        let fact = factorize(&g);
        assert_eq!(fact.edge_count(), 0);
        assert!(defactorize(&fact).unwrap().is_empty());
    }

    #[test]
    fn graph_with_no_edges() {
        let mut g = ProvenanceGraph::new();
        g.add_node(Node::new(NodeKind::Page, "a", t(0)));
        g.add_node(Node::new(NodeKind::Page, "b", t(0)));
        let fact = factorize(&g);
        assert_eq!(fact.edge_count(), 0);
        assert!(defactorize(&fact).unwrap().is_empty());
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let g = repetitive(10);
        let mut fact = factorize(&g);
        fact.bytes.truncate(fact.bytes.len() / 2);
        assert!(defactorize(&fact).is_err());
    }

    #[test]
    fn all_edge_kinds_survive() {
        let mut g = ProvenanceGraph::new();
        let hub = g.add_node(Node::new(NodeKind::Page, "hub", t(0)));
        for (i, kind) in EdgeKind::ALL.into_iter().enumerate() {
            let v = g.add_node(Node::new(
                NodeKind::PageVisit,
                format!("v{i}"),
                t(i as i64 + 1),
            ));
            g.add_edge(v, hub, kind, t(i as i64 + 1)).unwrap();
        }
        let decoded = defactorize(&factorize(&g)).unwrap();
        let kinds: Vec<EdgeKind> = decoded.iter().map(|(_, _, k)| *k).collect();
        assert_eq!(kinds, EdgeKind::ALL.to_vec());
    }
}
