//! LEB128 variable-length integers and ZigZag signed encoding.
//!
//! The provenance store's record format is varint-heavy: node/edge ids are
//! small dense integers, timestamps are delta-encoded (§3.1 — time stamps
//! are the bulk of per-visit metadata, and consecutive events are close in
//! time), and string ids come from the interner. Varints keep E1's overhead
//! figure honest.

// An on-disk codec: every conversion is checked, never an `as` cast.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use crate::cast::{offset_u64, usize_from_u64};
use crate::error::{StorageError, StorageResult};

/// Appends `value` to `out` as an unsigned LEB128 varint (1–10 bytes).
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = value.to_le_bytes()[0] & 0x7f;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `value` using ZigZag + LEB128 (small magnitudes stay small in
/// either sign — timestamp deltas can be negative when events from
/// different tabs interleave).
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_u64(out, zigzag_encode(value));
}

/// Reads an unsigned LEB128 varint from `buf` at `*pos`, advancing `*pos`.
///
/// # Errors
///
/// Returns [`StorageError::Corrupt`] on truncation or on a varint longer
/// than 10 bytes.
pub fn read_u64(buf: &[u8], pos: &mut usize) -> StorageResult<u64> {
    let mut result = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| StorageError::corrupt(offset_u64(*pos), "truncated varint"))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(StorageError::corrupt(
                offset_u64(*pos),
                "varint overflows u64",
            ));
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
        if shift > 63 {
            return Err(StorageError::corrupt(offset_u64(*pos), "varint too long"));
        }
    }
}

/// Reads a ZigZag-encoded signed varint.
///
/// # Errors
///
/// Same conditions as [`read_u64`].
pub fn read_i64(buf: &[u8], pos: &mut usize) -> StorageResult<i64> {
    Ok(zigzag_decode(read_u64(buf, pos)?))
}

/// Reads a `u32`-sized varint.
///
/// # Errors
///
/// Adds a range check on top of [`read_u64`].
pub fn read_u32(buf: &[u8], pos: &mut usize) -> StorageResult<u32> {
    let v = read_u64(buf, pos)?;
    u32::try_from(v).map_err(|_| StorageError::corrupt(offset_u64(*pos), "varint exceeds u32"))
}

/// Appends a length-prefixed byte string.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_u64(out, offset_u64(bytes.len()));
    out.extend_from_slice(bytes);
}

/// Reads a length-prefixed byte string.
///
/// # Errors
///
/// Returns [`StorageError::Corrupt`] on truncation.
pub fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> StorageResult<&'a [u8]> {
    let len = usize_from_u64(read_u64(buf, pos)?).ok_or_else(|| {
        StorageError::corrupt(offset_u64(*pos), "byte-string length exceeds address space")
    })?;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| StorageError::corrupt(offset_u64(*pos), "truncated byte string"))?;
    let slice = &buf[*pos..end];
    *pos = end;
    Ok(slice)
}

/// Appends a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
///
/// # Errors
///
/// Returns [`StorageError::Corrupt`] on truncation or invalid UTF-8.
pub fn read_str<'a>(buf: &'a [u8], pos: &mut usize) -> StorageResult<&'a str> {
    let at = offset_u64(*pos);
    std::str::from_utf8(read_bytes(buf, pos)?)
        .map_err(|_| StorageError::corrupt(at, "invalid utf-8 in string"))
}

#[inline]
fn zigzag_encode(v: i64) -> u64 {
    // Bit-exact reinterpretation via the byte representation keeps the
    // codec free of `as` casts (`clippy::as_conversions`) at zero cost.
    u64::from_ne_bytes(((v << 1) ^ (v >> 63)).to_ne_bytes())
}

#[inline]
fn zigzag_decode(v: u64) -> i64 {
    let half = i64::from_ne_bytes((v >> 1).to_ne_bytes());
    let sign = i64::from_ne_bytes((v & 1).to_ne_bytes());
    half ^ -sign
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn u64_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn small_values_encode_in_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_u64(&mut buf, 128);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn zigzag_keeps_small_negatives_small() {
        let mut buf = Vec::new();
        write_i64(&mut buf, -1);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_i64(&mut buf, -64);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_i64(&mut buf, -65);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn i64_roundtrip_boundaries() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 1_000_000, -1_000_000] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_i64(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn truncated_varint_is_corrupt() {
        let buf = vec![0x80u8, 0x80];
        let mut pos = 0;
        assert!(matches!(
            read_u64(&buf, &mut pos),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn overlong_varint_is_corrupt() {
        let buf = vec![0xffu8; 11];
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
    }

    #[test]
    fn u32_range_check() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::from(u32::MAX) + 1);
        let mut pos = 0;
        assert!(read_u32(&buf, &mut pos).is_err());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"hello");
        write_bytes(&mut buf, b"");
        let mut pos = 0;
        assert_eq!(read_bytes(&buf, &mut pos).unwrap(), b"hello");
        assert_eq!(read_bytes(&buf, &mut pos).unwrap(), b"");
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_bytes_is_corrupt() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 100); // claims 100 bytes, provides none
        let mut pos = 0;
        assert!(read_bytes(&buf, &mut pos).is_err());
    }

    #[test]
    fn str_roundtrip_and_utf8_check() {
        let mut buf = Vec::new();
        write_str(&mut buf, "héllo");
        let mut pos = 0;
        assert_eq!(read_str(&buf, &mut pos).unwrap(), "héllo");

        let mut bad = Vec::new();
        write_bytes(&mut bad, &[0xff, 0xfe]);
        let mut pos = 0;
        assert!(read_str(&bad, &mut pos).is_err());
    }

    proptest! {
        #[test]
        fn u64_roundtrip(v: u64) {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            prop_assert_eq!(pos, buf.len());
        }

        #[test]
        fn i64_roundtrip(v: i64) {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let mut pos = 0;
            prop_assert_eq!(read_i64(&buf, &mut pos).unwrap(), v);
        }

        #[test]
        fn sequences_roundtrip(values in prop::collection::vec(any::<i64>(), 0..50)) {
            let mut buf = Vec::new();
            for &v in &values {
                write_i64(&mut buf, v);
            }
            let mut pos = 0;
            for &v in &values {
                prop_assert_eq!(read_i64(&buf, &mut pos).unwrap(), v);
            }
            prop_assert_eq!(pos, buf.len());
        }
    }
}
