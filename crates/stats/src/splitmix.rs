//! SplitMix64: the one 64-bit mixer every deterministic stream in the
//! workspace is built from (netsim's fluid noise, worldgen's generator
//! streams, vfs's seeded disk-fault plans). Not cryptographic.

/// SplitMix64's golden-ratio increment: a stream steps its state by this
/// and feeds the state to [`mix`].
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: maps any u64 to a well-mixed u64. Adds [`GAMMA`]
/// first, so `mix(s)` is the draw of a SplitMix64 stream in state `s`.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_stream() {
        // The first outputs of SplitMix64 seeded with 0 (Vigna's reference
        // implementation: state += GAMMA, then finalize).
        let mut state = 0u64;
        let mut next = || {
            let s = state;
            state = s.wrapping_add(GAMMA);
            mix(s)
        };
        assert_eq!(next(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(next(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(next(), 0x06c4_5d18_8009_454f);
    }
}
