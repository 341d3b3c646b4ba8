//! Seed: an `as` cast in a codec module; the same cast in a test region is
//! exempt.

// An on-disk codec: every conversion is checked, never an `as` cast.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub fn write_len(out: &mut Vec<u8>, len: usize) {
    out.push(len as u8);
}

#[cfg(test)]
mod tests {
    #[test]
    fn casts_are_fine_in_tests() {
        let n = 300usize;
        assert_eq!(n as u8, 44);
    }
}
