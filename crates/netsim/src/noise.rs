//! Deterministic hash-based noise.
//!
//! The fluid traffic layer must be a *pure function of time*: two components
//! asking for a link's utilization at the same instant must see the same
//! value, and re-running a study from the same seed must reproduce it
//! bit-for-bit. Stateful RNGs cannot provide that across out-of-order
//! queries, so all "randomness" in the fluid layer (demand noise, loss draws,
//! per-probe jitter) is derived by hashing `(seed, stream, counter)` with
//! SplitMix64 — a cheap, well-distributed 64-bit mixer.

pub use manic_stats::{mix, GAMMA};

/// Width of the fluid layer's noise bins, seconds: demand noise and queue
/// jitter are redrawn every five minutes, so repeated queries inside a bin
/// agree.
pub const BIN_SECS: i64 = 300;

/// Combine a seed and two stream identifiers into one hash.
#[inline]
pub fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    mix(seed ^ mix(a ^ mix(b)))
}

/// Uniform f64 in [0, 1) from a hash.
#[inline]
pub fn unit(h: u64) -> f64 {
    // Take the top 53 bits for a dyadic uniform in [0,1).
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform in [0,1) from (seed, stream, counter).
#[inline]
pub fn uniform(seed: u64, stream: u64, counter: u64) -> f64 {
    unit(hash3(seed, stream, counter))
}

/// Symmetric noise in [-1, 1) from (seed, stream, counter).
#[inline]
pub fn signed(seed: u64, stream: u64, counter: u64) -> f64 {
    2.0 * uniform(seed, stream, counter) - 1.0
}

/// Approximate standard normal via the sum of four uniforms (Irwin–Hall,
/// variance-corrected). Cheap, deterministic, and plenty for latency jitter.
#[inline]
pub fn gaussian(seed: u64, stream: u64, counter: u64) -> f64 {
    let base = hash3(seed, stream, counter);
    let mut s = 0.0;
    for i in 0..4u64 {
        s += unit(mix(base ^ i));
    }
    // Sum of 4 U(0,1): mean 2, variance 4/12 -> sd = 1/sqrt(3).
    (s - 2.0) * 3.0f64.sqrt()
}

/// Bernoulli draw with probability `p` from (seed, stream, counter).
#[inline]
pub fn bernoulli(seed: u64, stream: u64, counter: u64, p: f64) -> bool {
    uniform(seed, stream, counter) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash3(1, 2, 3), hash3(1, 2, 3));
        assert_ne!(hash3(1, 2, 3), hash3(1, 2, 4));
        assert_ne!(hash3(1, 2, 3), hash3(2, 2, 3));
    }

    #[test]
    fn uniform_in_range_and_spread() {
        let mut lo = 0;
        let mut hi = 0;
        for i in 0..10_000 {
            let u = uniform(42, 7, i);
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                lo += 1;
            } else {
                hi += 1;
            }
        }
        // Split should be near even.
        assert!((lo as i64 - hi as i64).abs() < 500, "lo={lo} hi={hi}");
    }

    #[test]
    fn gaussian_moments() {
        let n = 20_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for i in 0..n {
            let g = gaussian(9, 1, i);
            sum += g;
            sumsq += g * g;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn bernoulli_frequency() {
        let hits = (0..10_000).filter(|&i| bernoulli(5, 5, i, 0.2)).count();
        assert!((hits as f64 / 10_000.0 - 0.2).abs() < 0.02, "hits={hits}");
    }
}
