//! Log-record format: the operations that mutate a provenance store.
//!
//! The store is a replayable sequence of [`Op`]s. Every string payload
//! (URLs, attribute names, string attribute values such as titles) goes
//! through the interner and appears in the log as one
//! [`Op::DefineString`] record followed by references; timestamps
//! are delta-encoded against the previous record ([`Codec`] carries that
//! state), since history events are nearly sorted in time and deltas
//! compress far better than absolute microsecond counts.

// An on-disk codec: every conversion is checked, never an `as` cast.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::cast::{offset_u64, usize_from_u64};
use crate::error::{StorageError, StorageResult};
use crate::intern::StringInterner;
use crate::varint;
use bp_graph::{AttrValue, EdgeKind, NodeId, NodeKind, Timestamp, Version};

/// An attribute value as a record carries it.
#[derive(Debug, Clone, PartialEq)]
pub enum OpValue {
    /// A string value by its interned id. The store writes every string
    /// value this way, so a title repeated over many visits is stored
    /// once, in its [`Op::DefineString`].
    Str(u32),
    /// A value held in the record itself: every value that is not a
    /// string, and a string value read from a log or snapshot written
    /// before string values were interned. Such a string takes no id.
    Inline(AttrValue),
}

impl OpValue {
    /// The attribute value, with a string id resolved to the interner's
    /// shared copy.
    ///
    /// # Errors
    ///
    /// [`StorageError::UnknownStringId`] if `interner` has no such id.
    pub(crate) fn resolve(&self, interner: &StringInterner) -> StorageResult<AttrValue> {
        match self {
            OpValue::Str(id) => interner
                .resolve(*id)
                .map(AttrValue::Str)
                .ok_or(StorageError::UnknownStringId(*id)),
            OpValue::Inline(value) => Ok(value.clone()),
        }
    }
}

/// One replayable store mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Defines interned string `id` (ids are dense and in order).
    DefineString {
        /// The id being defined; must be the interner's next id at replay.
        id: u32,
        /// The string payload.
        value: String,
    },
    /// Appends a node. The node's id is implicit: nodes are numbered
    /// densely in log order, so replay assigns the same ids.
    AddNode {
        /// Node kind.
        kind: NodeKind,
        /// Interned id of the node's primary key (URL, query, path, …).
        key: u32,
        /// Version of this instance (§3.1).
        version: Version,
        /// Opening timestamp.
        open_at: Timestamp,
        /// Attributes as (interned key id, value) pairs, sorted by key id.
        attrs: Vec<(u32, OpValue)>,
    },
    /// Appends an edge (same implicit dense numbering as nodes).
    AddEdge {
        /// Derived endpoint.
        src: NodeId,
        /// Derivation-source endpoint.
        dst: NodeId,
        /// The generating action.
        kind: EdgeKind,
        /// When the action occurred.
        at: Timestamp,
        /// Attributes as (interned key id, value) pairs.
        attrs: Vec<(u32, OpValue)>,
    },
    /// Closes a node's open interval (§3.2's missing "close" record).
    CloseNode {
        /// The node being closed.
        node: NodeId,
        /// Closing timestamp.
        at: Timestamp,
    },
    /// Sets or updates one attribute on an existing node (e.g. a title
    /// that arrives after the page loads, or a bumped visit counter).
    SetNodeAttr {
        /// The node to update.
        node: NodeId,
        /// Interned attribute key id.
        key: u32,
        /// New value.
        value: OpValue,
    },
    /// Redacts a node: its key becomes the interned `replacement` and its
    /// attributes are dropped (§4 privacy). Structure is preserved.
    RedactNode {
        /// The node to redact.
        node: NodeId,
        /// Interned id of the replacement key.
        replacement: u32,
    },
}

const TAG_DEFINE_STRING: u8 = 0;
const TAG_ADD_NODE: u8 = 1;
const TAG_ADD_EDGE: u8 = 2;
const TAG_CLOSE_NODE: u8 = 3;
const TAG_SET_NODE_ATTR: u8 = 4;
const TAG_REDACT_NODE: u8 = 5;

/// A string value inline: written before string values were interned,
/// and still read so that such logs and snapshots open.
const ATTR_STR: u8 = 0;
const ATTR_INT: u8 = 1;
const ATTR_FLOAT: u8 = 2;
const ATTR_BOOL_FALSE: u8 = 3;
const ATTR_BOOL_TRUE: u8 = 4;
const ATTR_BYTES: u8 = 5;
/// A string value by its interned id.
const ATTR_STR_ID: u8 = 6;

/// Stateful encoder/decoder for [`Op`]s.
///
/// Carries the previous timestamp for delta encoding; encode and decode
/// must process the same op sequence from the same starting state (a fresh
/// `Codec` at the head of the log, or one reset after a snapshot).
#[derive(Debug, Clone, Default)]
pub struct Codec {
    last_micros: i64,
}

impl Codec {
    /// Creates a codec at the log-head state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `op`, appending to `out`.
    pub fn encode(&mut self, op: &Op, out: &mut Vec<u8>) {
        match op {
            Op::DefineString { id, value } => {
                out.push(TAG_DEFINE_STRING);
                varint::write_u64(out, u64::from(*id));
                varint::write_str(out, value);
            }
            Op::AddNode {
                kind,
                key,
                version,
                open_at,
                attrs,
            } => {
                out.push(TAG_ADD_NODE);
                out.push(kind.code());
                varint::write_u64(out, u64::from(*key));
                varint::write_u64(out, u64::from(version.number()));
                self.write_ts(out, *open_at);
                write_attrs(out, attrs);
            }
            Op::AddEdge {
                src,
                dst,
                kind,
                at,
                attrs,
            } => {
                out.push(TAG_ADD_EDGE);
                varint::write_u64(out, u64::from(src.index()));
                varint::write_u64(out, u64::from(dst.index()));
                out.push(kind.code());
                self.write_ts(out, *at);
                write_attrs(out, attrs);
            }
            Op::CloseNode { node, at } => {
                out.push(TAG_CLOSE_NODE);
                varint::write_u64(out, u64::from(node.index()));
                self.write_ts(out, *at);
            }
            Op::SetNodeAttr { node, key, value } => {
                out.push(TAG_SET_NODE_ATTR);
                varint::write_u64(out, u64::from(node.index()));
                varint::write_u64(out, u64::from(*key));
                write_attr_value(out, value);
            }
            Op::RedactNode { node, replacement } => {
                out.push(TAG_REDACT_NODE);
                varint::write_u64(out, u64::from(node.index()));
                varint::write_u64(out, u64::from(*replacement));
            }
        }
    }

    /// Decodes one op from `buf` at `*pos`, advancing `*pos`.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Corrupt`] on truncation, unknown tags, or
    /// malformed payloads.
    pub fn decode(&mut self, buf: &[u8], pos: &mut usize) -> StorageResult<Op> {
        let at = offset_u64(*pos);
        let tag = *buf
            .get(*pos)
            .ok_or_else(|| StorageError::corrupt(at, "missing op tag"))?;
        *pos += 1;
        match tag {
            TAG_DEFINE_STRING => {
                let id = varint::read_u32(buf, pos)?;
                let value = varint::read_str(buf, pos)?.to_owned();
                Ok(Op::DefineString { id, value })
            }
            TAG_ADD_NODE => {
                let kind_code = read_byte(buf, pos)?;
                let kind = NodeKind::from_code(kind_code)
                    .ok_or_else(|| StorageError::corrupt(at, "bad node kind"))?;
                let key = varint::read_u32(buf, pos)?;
                let version = Version::new(varint::read_u32(buf, pos)?);
                let open_at = self.read_ts(buf, pos)?;
                let attrs = read_attrs(buf, pos)?;
                Ok(Op::AddNode {
                    kind,
                    key,
                    version,
                    open_at,
                    attrs,
                })
            }
            TAG_ADD_EDGE => {
                let src = NodeId::new(varint::read_u32(buf, pos)?);
                let dst = NodeId::new(varint::read_u32(buf, pos)?);
                let kind_code = read_byte(buf, pos)?;
                let kind = EdgeKind::from_code(kind_code)
                    .ok_or_else(|| StorageError::corrupt(at, "bad edge kind"))?;
                let ts = self.read_ts(buf, pos)?;
                let attrs = read_attrs(buf, pos)?;
                Ok(Op::AddEdge {
                    src,
                    dst,
                    kind,
                    at: ts,
                    attrs,
                })
            }
            TAG_CLOSE_NODE => {
                let node = NodeId::new(varint::read_u32(buf, pos)?);
                let ts = self.read_ts(buf, pos)?;
                Ok(Op::CloseNode { node, at: ts })
            }
            TAG_SET_NODE_ATTR => {
                let node = NodeId::new(varint::read_u32(buf, pos)?);
                let key = varint::read_u32(buf, pos)?;
                let value = read_attr_value(buf, pos)?;
                Ok(Op::SetNodeAttr { node, key, value })
            }
            TAG_REDACT_NODE => {
                let node = NodeId::new(varint::read_u32(buf, pos)?);
                let replacement = varint::read_u32(buf, pos)?;
                Ok(Op::RedactNode { node, replacement })
            }
            other => Err(StorageError::corrupt(at, format!("unknown op tag {other}"))),
        }
    }

    fn write_ts(&mut self, out: &mut Vec<u8>, ts: Timestamp) {
        let micros = ts.as_micros();
        varint::write_i64(out, micros - self.last_micros);
        self.last_micros = micros;
    }

    fn read_ts(&mut self, buf: &[u8], pos: &mut usize) -> StorageResult<Timestamp> {
        let delta = varint::read_i64(buf, pos)?;
        self.last_micros += delta;
        Ok(Timestamp::from_micros(self.last_micros))
    }
}

fn read_byte(buf: &[u8], pos: &mut usize) -> StorageResult<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| StorageError::corrupt(offset_u64(*pos), "truncated byte"))?;
    *pos += 1;
    Ok(b)
}

pub(crate) fn write_attrs(out: &mut Vec<u8>, attrs: &[(u32, OpValue)]) {
    varint::write_u64(out, offset_u64(attrs.len()));
    for (key, value) in attrs {
        varint::write_u64(out, u64::from(*key));
        write_attr_value(out, value);
    }
}

pub(crate) fn read_attrs(buf: &[u8], pos: &mut usize) -> StorageResult<Vec<(u32, OpValue)>> {
    // Guard against absurd counts from corrupt data before allocating.
    let count = usize_from_u64(varint::read_u64(buf, pos)?)
        .filter(|&c| c <= buf.len().saturating_sub(*pos))
        .ok_or_else(|| StorageError::corrupt(offset_u64(*pos), "attr count exceeds buffer"))?;
    let mut attrs = Vec::with_capacity(count);
    for _ in 0..count {
        let key = varint::read_u32(buf, pos)?;
        let value = read_attr_value(buf, pos)?;
        attrs.push((key, value));
    }
    Ok(attrs)
}

fn write_attr_value(out: &mut Vec<u8>, value: &OpValue) {
    match value {
        OpValue::Str(id) => {
            out.push(ATTR_STR_ID);
            varint::write_u64(out, u64::from(*id));
        }
        OpValue::Inline(AttrValue::Str(s)) => {
            out.push(ATTR_STR);
            varint::write_str(out, s);
        }
        OpValue::Inline(AttrValue::Int(i)) => {
            out.push(ATTR_INT);
            varint::write_i64(out, *i);
        }
        OpValue::Inline(AttrValue::Float(f)) => {
            out.push(ATTR_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        OpValue::Inline(AttrValue::Bool(false)) => out.push(ATTR_BOOL_FALSE),
        OpValue::Inline(AttrValue::Bool(true)) => out.push(ATTR_BOOL_TRUE),
        OpValue::Inline(AttrValue::Bytes(b)) => {
            out.push(ATTR_BYTES);
            varint::write_bytes(out, b);
        }
    }
}

fn read_attr_value(buf: &[u8], pos: &mut usize) -> StorageResult<OpValue> {
    let at = offset_u64(*pos);
    let tag = read_byte(buf, pos)?;
    let inline = match tag {
        ATTR_STR_ID => return Ok(OpValue::Str(varint::read_u32(buf, pos)?)),
        ATTR_STR => AttrValue::from(varint::read_str(buf, pos)?),
        ATTR_INT => AttrValue::Int(varint::read_i64(buf, pos)?),
        ATTR_FLOAT => {
            let end = *pos + 8;
            if end > buf.len() {
                return Err(StorageError::corrupt(at, "truncated float"));
            }
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&buf[*pos..end]);
            *pos = end;
            AttrValue::Float(f64::from_le_bytes(bytes))
        }
        ATTR_BOOL_FALSE => AttrValue::Bool(false),
        ATTR_BOOL_TRUE => AttrValue::Bool(true),
        ATTR_BYTES => AttrValue::Bytes(varint::read_bytes(buf, pos)?.to_vec()),
        other => {
            return Err(StorageError::corrupt(
                at,
                format!("unknown attr tag {other}"),
            ))
        }
    };
    Ok(OpValue::Inline(inline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(ops: &[Op]) -> Vec<Op> {
        let mut enc = Codec::new();
        let mut buf = Vec::new();
        for op in ops {
            enc.encode(op, &mut buf);
        }
        let mut dec = Codec::new();
        let mut pos = 0;
        let mut out = Vec::new();
        while pos < buf.len() {
            out.push(dec.decode(&buf, &mut pos).unwrap());
        }
        assert_eq!(pos, buf.len());
        out
    }

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::DefineString {
                id: 0,
                value: "http://a.example/".to_owned(),
            },
            Op::DefineString {
                id: 1,
                value: "title".to_owned(),
            },
            Op::AddNode {
                kind: NodeKind::PageVisit,
                key: 0,
                version: Version::FIRST,
                open_at: Timestamp::from_micros(1_000_000),
                attrs: vec![(1, OpValue::Str(0))],
            },
            Op::AddNode {
                kind: NodeKind::Download,
                key: 0,
                version: Version::new(2),
                open_at: Timestamp::from_micros(1_000_500),
                attrs: vec![],
            },
            Op::AddEdge {
                src: NodeId::new(1),
                dst: NodeId::new(0),
                kind: EdgeKind::DownloadFrom,
                at: Timestamp::from_micros(1_000_700),
                attrs: vec![(1, OpValue::Inline(AttrValue::Int(7)))],
            },
            Op::CloseNode {
                node: NodeId::new(0),
                at: Timestamp::from_micros(2_000_000),
            },
            Op::SetNodeAttr {
                node: NodeId::new(0),
                key: 1,
                value: OpValue::Inline(AttrValue::Float(2.5)),
            },
            // A title the way logs held it before string values were
            // interned.
            Op::SetNodeAttr {
                node: NodeId::new(0),
                key: 1,
                value: OpValue::Inline(AttrValue::from("Example")),
            },
        ]
    }

    #[test]
    fn ops_roundtrip() {
        let ops = sample_ops();
        assert_eq!(roundtrip(&ops), ops);
    }

    #[test]
    fn delta_timestamps_compress_nearby_events() {
        let mut codec = Codec::new();
        let mut buf_near = Vec::new();
        // Two events 100 µs apart: second timestamp costs 1 byte.
        codec.encode(
            &Op::CloseNode {
                node: NodeId::new(0),
                at: Timestamp::from_micros(1_700_000_000_000_000),
            },
            &mut buf_near,
        );
        let len_first = buf_near.len();
        codec.encode(
            &Op::CloseNode {
                node: NodeId::new(0),
                at: Timestamp::from_micros(1_700_000_000_000_100),
            },
            &mut buf_near,
        );
        let second_len = buf_near.len() - len_first;
        assert!(
            second_len <= 4,
            "nearby event should be tiny, got {second_len}"
        );
        assert!(len_first >= 9, "first absolute timestamp is large");
    }

    #[test]
    fn unknown_tags_are_corrupt() {
        let mut dec = Codec::new();
        let mut pos = 0;
        assert!(dec.decode(&[200u8], &mut pos).is_err());
        // Unknown attr tag inside SetNodeAttr.
        let buf = vec![TAG_SET_NODE_ATTR, 0, 0, 99];
        let mut pos = 0;
        let mut dec = Codec::new();
        assert!(dec.decode(&buf, &mut pos).is_err());
    }

    #[test]
    fn truncated_payloads_are_corrupt() {
        let ops = sample_ops();
        let mut enc = Codec::new();
        let mut buf = Vec::new();
        for op in &ops {
            enc.encode(op, &mut buf);
        }
        // Every strict prefix must fail cleanly somewhere, never panic.
        for cut in 0..buf.len() {
            let mut dec = Codec::new();
            let mut pos = 0;
            let mut decoded = 0;
            while let Ok(_op) = dec.decode(&buf[..cut], &mut pos) {
                decoded += 1;
                if pos >= cut {
                    break;
                }
            }
            assert!(decoded <= ops.len());
        }
    }

    /// A history whose every title is new still pays for interning: each
    /// value costs a `DefineString` tag and a second copy of its id beside
    /// the reference. That is at most 1 + 2 × 2 = 5 B more than the inline
    /// encoding while ids fit in two varint bytes (below 16,384).
    #[test]
    fn an_all_unique_title_costs_at_most_five_bytes_more_than_inline() {
        const TITLES: u32 = 2_000;
        let (mut inline, mut interned) = (Vec::new(), Vec::new());
        let (mut old, mut new) = (Codec::new(), Codec::new());
        for id in 0..TITLES {
            let title = format!("Unique page title number {id}");
            let visit = |value| Op::AddNode {
                kind: NodeKind::PageVisit,
                key: 0,
                version: Version::FIRST,
                open_at: Timestamp::from_secs(i64::from(id)),
                attrs: vec![(1, value)],
            };
            old.encode(&visit(OpValue::Inline(title.as_str().into())), &mut inline);
            new.encode(&Op::DefineString { id, value: title }, &mut interned);
            new.encode(&visit(OpValue::Str(id)), &mut interned);
        }
        // Ids below 128 take one varint byte, so those cost 3 B more.
        let expected = 128 * 3 + (TITLES - 128) * 5;
        assert_eq!(interned.len() - inline.len(), expected as usize);
        let per_title = f64::from(expected) / f64::from(TITLES);
        assert!(per_title <= 5.0, "{per_title:.2} B more per title");
    }

    #[test]
    fn bad_kind_codes_are_corrupt() {
        // AddNode with kind code 99.
        let buf = vec![TAG_ADD_NODE, 99];
        let mut dec = Codec::new();
        let mut pos = 0;
        assert!(dec.decode(&buf, &mut pos).is_err());
    }

    #[test]
    fn absurd_attr_count_rejected_before_allocation() {
        let mut buf = vec![TAG_ADD_NODE, NodeKind::Page.code()];
        varint::write_u64(&mut buf, 0); // key
        varint::write_u64(&mut buf, 0); // version
        varint::write_i64(&mut buf, 0); // ts delta
        varint::write_u64(&mut buf, u64::MAX); // attr count
        let mut dec = Codec::new();
        let mut pos = 0;
        assert!(dec.decode(&buf, &mut pos).is_err());
    }

    /// String values both by id and inline, as older logs hold them.
    fn attr_value_strategy() -> impl Strategy<Value = OpValue> {
        prop_oneof![
            any::<u32>().prop_map(OpValue::Str),
            ".{0,20}".prop_map(|s: String| OpValue::Inline(s.into())),
            any::<i64>().prop_map(|i| OpValue::Inline(AttrValue::Int(i))),
            any::<f64>()
                .prop_filter("NaN breaks PartialEq", |f| !f.is_nan())
                .prop_map(|f| OpValue::Inline(AttrValue::Float(f))),
            any::<bool>().prop_map(|b| OpValue::Inline(AttrValue::Bool(b))),
            prop::collection::vec(any::<u8>(), 0..20)
                .prop_map(|b| OpValue::Inline(AttrValue::Bytes(b))),
        ]
    }

    fn attrs_strategy() -> impl Strategy<Value = Vec<(u32, OpValue)>> {
        prop::collection::vec((any::<u32>(), attr_value_strategy()), 0..4)
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u32>(), ".{0,30}").prop_map(|(id, value)| Op::DefineString { id, value }),
            (
                0u8..7,
                any::<u32>(),
                any::<u32>(),
                any::<i64>(),
                attrs_strategy()
            )
                .prop_map(|(k, key, v, ts, attrs)| Op::AddNode {
                    kind: NodeKind::from_code(k).unwrap(),
                    key,
                    version: Version::new(v),
                    open_at: Timestamp::from_micros(ts / 2),
                    attrs,
                }),
            (
                any::<u32>(),
                any::<u32>(),
                0u8..15,
                any::<i64>(),
                attrs_strategy()
            )
                .prop_map(|(src, dst, k, ts, attrs)| Op::AddEdge {
                    src: NodeId::new(src),
                    dst: NodeId::new(dst),
                    kind: EdgeKind::from_code(k).unwrap(),
                    at: Timestamp::from_micros(ts / 2),
                    attrs,
                }),
            (any::<u32>(), any::<i64>()).prop_map(|(n, ts)| Op::CloseNode {
                node: NodeId::new(n),
                at: Timestamp::from_micros(ts / 2),
            }),
            (any::<u32>(), any::<u32>(), attr_value_strategy()).prop_map(|(n, key, value)| {
                Op::SetNodeAttr {
                    node: NodeId::new(n),
                    key,
                    value,
                }
            }),
            (any::<u32>(), any::<u32>()).prop_map(|(n, r)| Op::RedactNode {
                node: NodeId::new(n),
                replacement: r,
            }),
        ]
    }

    proptest! {
        /// Arbitrary op sequences roundtrip exactly (delta state included).
        #[test]
        fn arbitrary_ops_roundtrip(ops in prop::collection::vec(op_strategy(), 0..40)) {
            prop_assert_eq!(roundtrip(&ops), ops);
        }

        /// Decoding arbitrary bytes never panics.
        #[test]
        fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
            let mut dec = Codec::new();
            let mut pos = 0;
            while pos < bytes.len() {
                if dec.decode(&bytes, &mut pos).is_err() {
                    break;
                }
            }
        }
    }
}
