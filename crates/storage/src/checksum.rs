//! The workspace's shared integrity checksum.
//!
//! One FNV-1a variant guards every byte that crosses a storage boundary:
//! `cb-kv::serialize` stamps it on cache-entry headers and per-layer
//! blocks, and [`crate::segment_log::SegmentLogBackend`] stamps it on
//! every log record. It hashes 8-byte words (trailing bytes folded
//! individually), which keeps single-bit-flip detection while running ~8x
//! faster than the byte-wise loop — verification sits on the blend's
//! TTFT-critical load path.

/// FNV-1a over 8-byte little-endian words.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().unwrap());
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    for &b in words.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_any_single_bit_flip() {
        let data: Vec<u8> = (0..100u8).collect();
        let base = fnv64(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(base, fnv64(&flipped), "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(fnv64(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn word_and_tail_paths_both_contribute() {
        // Lengths straddling the 8-byte word boundary hash differently.
        let a = fnv64(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = fnv64(&[1, 2, 3, 4, 5, 6, 7, 8, 0]);
        assert_ne!(a, b);
    }
}
