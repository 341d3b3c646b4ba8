//! Error type for graph operations.

use crate::ids::{EdgeId, NodeId};
use crate::time::Timestamp;
use core::fmt;

/// Errors returned by [`ProvenanceGraph`](crate::ProvenanceGraph) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node identifier did not name a node in this graph.
    UnknownNode(NodeId),
    /// An edge identifier did not name an edge in this graph.
    UnknownEdge(EdgeId),
    /// The edge breaks the graph's edge order: it must run from a newer
    /// node to an older one, and its source must be no older than the
    /// previous edge's. The order keeps provenance acyclic (§3.1); a
    /// self-loop breaks it too.
    EdgeOrder {
        /// The derived endpoint of the rejected edge.
        src: NodeId,
        /// The derivation-source endpoint of the rejected edge.
        dst: NodeId,
    },
    /// An interval would close before it opened.
    ClosesBeforeOpen {
        /// When the interval opened.
        open: Timestamp,
        /// The rejected close.
        close: Timestamp,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(id) => write!(f, "unknown node {id}"),
            GraphError::UnknownEdge(id) => write!(f, "unknown edge {id}"),
            GraphError::EdgeOrder { src, dst } => write!(
                f,
                "edge {src} -> {dst} rejected: edges run from a newer node to an older one, in source order"
            ),
            GraphError::ClosesBeforeOpen { open, close } => {
                write!(f, "close at {close} precedes the open at {open}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let msgs = [
            GraphError::UnknownNode(NodeId::new(1)).to_string(),
            GraphError::UnknownEdge(EdgeId::new(2)).to_string(),
            GraphError::EdgeOrder {
                src: NodeId::new(3),
                dst: NodeId::new(4),
            }
            .to_string(),
            GraphError::ClosesBeforeOpen {
                open: Timestamp::from_micros(5),
                close: Timestamp::from_micros(4),
            }
            .to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
        }
        assert!(msgs[2].contains("n3"));
        assert!(msgs[2].contains("n4"));
        assert!(msgs[3].contains("4us") && msgs[3].contains("5us"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_e: E) {}
        takes_err(GraphError::UnknownNode(NodeId::new(0)));
    }
}
