//! Seed: hash-order iteration in an encoder; the sorted copy beside it
//! and the same loop in a test region stay quiet.

// Encoders write bytes that must repeat from run to run.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

use std::collections::HashMap;

pub fn encode_dict(dict: &HashMap<u32, u64>, out: &mut Vec<u8>) {
    for (id, count) in dict.iter() {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
    }
}

pub fn encode_dict_sorted(dict: &HashMap<u32, u64>, out: &mut Vec<u8>) {
    let mut entries: Vec<(&u32, &u64)> = dict.iter().collect();
    entries.sort_unstable();
    for (id, count) in entries {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn hash_order_is_fine_in_tests() {
        let dict = std::collections::HashMap::from([(1u32, 2u64)]);
        for (id, count) in dict.iter() {
            assert_eq!((*id, *count), (1, 2));
        }
    }
}
