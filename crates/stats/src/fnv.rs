//! FNV-1a, 64-bit: the content digest every fingerprint in the workspace
//! that says "FNV-1a" is built from (store contents, summary rings, bench
//! window checks). Not cryptographic — it detects divergence, not tampering.

/// The FNV-1a 64-bit offset basis: the digest of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the running digest `h` (start from [`FNV1A_OFFSET`]).
/// Folding a concatenation equals folding its parts in order.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV1A_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV1A_OFFSET, b"foo"), b"bar"), fnv1a(FNV1A_OFFSET, b"foobar"));
    }
}
