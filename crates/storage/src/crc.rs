//! CRC-32C (Castagnoli) checksums for log-record integrity.
//!
//! Every WAL record carries a CRC over its payload so recovery can detect
//! torn writes and bit rot at the record granularity and stop replay at the
//! first damaged record (see [`crate::wal`]). Implemented from scratch with
//! a lazily-built 8-bit lookup table.

// An on-disk codec: every conversion is checked, never an `as` cast.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

use std::sync::OnceLock;

const POLY: u32 = 0x82f6_3b78; // CRC-32C (Castagnoli), reflected

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for b in 0u8..=255 {
            let mut crc = u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            t[usize::from(b)] = crc;
        }
        t
    })
}

/// Computes the CRC-32C of `data`.
///
/// # Examples
///
/// ```
/// use bp_storage::crc32c;
/// // Known-answer test vector from RFC 3720 (iSCSI).
/// assert_eq!(crc32c(b"123456789"), 0xE306_9283);
/// ```
pub fn crc32c(data: &[u8]) -> u32 {
    let t = table();
    let mut crc = !0u32;
    for &byte in data {
        // (crc ^ byte) & 0xff is exactly the low byte of crc xor'd with
        // the input byte; indexing via u8 keeps the codec cast-free.
        crc = (crc >> 8) ^ t[usize::from(crc.to_le_bytes()[0] ^ byte)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_answer_vectors() {
        // RFC 3720 appendix B.4 test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = crc32c(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() {
            for bit in 0..8 {
                copy[i] ^= 1 << bit;
                assert_ne!(crc32c(&copy), base, "flip at byte {i} bit {bit} undetected");
                copy[i] ^= 1 << bit;
            }
        }
    }

    proptest! {
        #[test]
        fn deterministic(data in prop::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(crc32c(&data), crc32c(&data));
        }

        #[test]
        fn appending_changes_crc(data in prop::collection::vec(any::<u8>(), 0..256), extra: u8) {
            let mut longer = data.clone();
            longer.push(extra);
            // Not a guarantee for CRCs in general, but holds for a single
            // appended byte: the CRC register cannot map to itself.
            prop_assert_ne!(crc32c(&data), crc32c(&longer));
        }
    }
}
