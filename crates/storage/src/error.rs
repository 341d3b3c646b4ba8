//! Error type for the provenance store.

use core::fmt;

/// Result alias used throughout `bp-storage`.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors returned by storage operations.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// Data failed validation during decode (bad CRC, truncated frame,
    /// malformed record).
    Corrupt {
        /// Byte offset at which the corruption was detected.
        offset: u64,
        /// Human-readable description of what failed.
        reason: String,
    },
    /// A record referenced a string id the interner has not defined —
    /// indicates a logic error or out-of-order log.
    UnknownStringId(u32),
    /// A record was rejected by the graph layer during replay (for
    /// example, an edge whose insertion would now cycle). A committed log
    /// can only contain operations that were legal when appended, so this
    /// indicates corruption or version skew.
    Replay(String),
    /// A WAL payload exceeded the maximum frame size. Writing it anyway
    /// would either truncate the length field or produce a frame recovery
    /// treats as a torn tail — losing every frame after it — so the append
    /// is rejected up front.
    FrameTooLarge {
        /// The oversized payload's length in bytes.
        len: u64,
        /// The maximum payload size a frame may carry.
        max: u32,
    },
    /// A compaction renamed its snapshot into place but failed before it
    /// started the next log, so the snapshot covers the log still open and
    /// recovery would skip anything appended to it. The store refuses
    /// every write until a later snapshot succeeds; reopening the profile
    /// also recovers it. Carries the compaction's error.
    LogSuperseded(String),
}

impl StorageError {
    /// Convenience constructor for corruption errors.
    pub fn corrupt(offset: u64, reason: impl Into<String>) -> Self {
        StorageError::Corrupt {
            offset,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Corrupt { offset, reason } => {
                write!(f, "corrupt data at offset {offset}: {reason}")
            }
            StorageError::UnknownStringId(id) => {
                write!(f, "unknown interned string id {id}")
            }
            StorageError::Replay(msg) => write!(f, "replay rejected: {msg}"),
            StorageError::FrameTooLarge { len, max } => {
                write!(f, "wal payload of {len} bytes exceeds max frame size {max}")
            }
            StorageError::LogSuperseded(reason) => write!(
                f,
                "writes refused: a compaction failed after its rename ({reason}), \
                 so the snapshot covers the open log"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let c = StorageError::corrupt(42, "bad crc");
        assert_eq!(c.to_string(), "corrupt data at offset 42: bad crc");
        assert!(StorageError::UnknownStringId(7).to_string().contains('7'));
        assert!(StorageError::Replay("cycle".into())
            .to_string()
            .contains("cycle"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err = StorageError::from(io);
        assert!(err.to_string().contains("gone"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<StorageError>();
    }
}
