//! Checked integer conversions for the codec layer.
//!
//! The codec files (`varint`, `record`, `wal`, `crc`, `snapshot`) deny
//! bare `as` casts (`clippy::as_conversions`): a silent truncation there
//! changes on-disk bytes. The conversions they need are concentrated here, where
//! each one can state why it is lossless or how it fails.

/// A byte offset or length as a `u64` for error reporting and size
/// accounting. `usize` is at most 64 bits on every supported target, so
/// this is lossless; the saturation path is unreachable and exists only to
/// avoid a panic route.
pub(crate) fn offset_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// A decoded `u64` count/length as a `usize`, or `None` when it exceeds
/// the address space (only possible on 32-bit targets; always corrupt
/// data, since no real payload approaches 4 GiB).
pub(crate) fn usize_from_u64(n: u64) -> Option<usize> {
    usize::try_from(n).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_is_identity_in_u64_range() {
        assert_eq!(offset_u64(0), 0);
        assert_eq!(offset_u64(123_456), 123_456);
    }

    #[test]
    fn usize_from_u64_roundtrips_in_range() {
        assert_eq!(usize_from_u64(42), Some(42));
        #[cfg(target_pointer_width = "64")]
        assert_eq!(usize_from_u64(u64::MAX), Some(usize::MAX));
    }
}
