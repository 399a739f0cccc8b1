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

use crate::time::SimTime;
use std::ops::Range;

/// Width of the fluid layer's noise bins, seconds: demand noise and queue
/// jitter are redrawn every five minutes, so repeated queries inside a bin
/// agree.
pub const BIN_SECS: i64 = 300;

/// Combine a seed and two stream identifiers into one hash.
#[inline]
pub fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    hash3_mixed(seed, a, mix(b))
}

/// [`hash3`] given `mixed_b = mix(b)`: a fluid column computes `mix(bin)`
/// once per bin for every stream that draws in it ([`BinColumn`]).
#[inline]
pub(crate) fn hash3_mixed(seed: u64, a: u64, mixed_b: u64) -> u64 {
    mix(seed ^ mix(a ^ mixed_b))
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
    uniform_mixed(seed, stream, mix(counter))
}

/// [`uniform`] given `mix(counter)`.
#[inline]
pub(crate) fn uniform_mixed(seed: u64, stream: u64, mixed_counter: u64) -> f64 {
    unit(hash3_mixed(seed, stream, mixed_counter))
}

/// Symmetric noise in [-1, 1) from (seed, stream, counter).
#[inline]
pub fn signed(seed: u64, stream: u64, counter: u64) -> f64 {
    signed_unit(hash3(seed, stream, counter))
}

/// Symmetric noise in [-1, 1) from a hash.
#[inline]
pub(crate) fn signed_unit(h: u64) -> f64 {
    2.0 * unit(h) - 1.0
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
    bernoulli_mixed(seed, stream, mix(counter), p)
}

/// [`bernoulli`] given `mix(counter)`.
#[inline]
pub fn bernoulli_mixed(seed: u64, stream: u64, mixed_counter: u64, p: f64) -> bool {
    uniform_mixed(seed, stream, mixed_counter) < p
}

/// The instants `t0 + i * step` of one fluid column and the hash terms of
/// their noise bins (`t.div_euclid(BIN_SECS)`) that every link shares:
/// `mix(bin)`, which queue jitter draws from, and demand noise's seed-free
/// `mix(DEMAND_STREAM ^ mix(bin))`. The fluid fast path fills one per
/// window chunk, so a link's column pays only its own seeded mixes.
#[derive(Debug, Clone, Default)]
pub struct BinColumn {
    t0: SimTime,
    step: i64,
    mixed: Vec<u64>,
    demand: Vec<u64>,
}

impl BinColumn {
    /// Fill with `n` instants from `t0` at `step > 0`, reusing the buffers.
    pub fn fill(&mut self, t0: SimTime, step: i64, n: usize) {
        assert!(step > 0, "a column steps forward in time");
        (self.t0, self.step) = (t0, step);
        self.mixed.clear();
        self.mixed.extend((0..n as i64).map(|i| mix((t0 + i * step).div_euclid(BIN_SECS) as u64)));
        self.demand.clear();
        self.demand.extend(self.mixed.iter().map(|&m| demand_inner(m)));
    }

    pub(crate) fn len(&self) -> usize {
        self.mixed.len()
    }

    pub(crate) fn step(&self) -> i64 {
        self.step
    }

    /// The instant of entry `i`.
    #[inline]
    pub(crate) fn at(&self, i: usize) -> SimTime {
        self.t0 + i as i64 * self.step
    }

    /// `mix(bin)` per entry.
    pub(crate) fn mixed(&self) -> &[u64] {
        &self.mixed
    }

    /// `mix(DEMAND_STREAM ^ mix(bin))` per entry.
    pub(crate) fn demand(&self) -> &[u64] {
        &self.demand
    }

    /// The column cut into runs over which a piecewise-constant query keeps
    /// its answer: each item is a run of entries and the instant of its
    /// first, and `stable_until(t)` must give the first instant after `t`
    /// at which the query can change (a later bound than the truth would
    /// merge runs that differ; an earlier one only splits a run).
    pub fn runs<'a>(
        &'a self,
        mut stable_until: impl FnMut(SimTime) -> SimTime + 'a,
    ) -> impl Iterator<Item = (Range<usize>, SimTime)> + 'a {
        let mut i = 0;
        std::iter::from_fn(move || {
            let n = self.len();
            (i < n).then(|| {
                let t = self.at(i);
                // Entries before `until`: ceil((until - t0) / step).
                let left = stable_until(t).saturating_sub(self.t0);
                let end = usize::try_from((left - 1) / self.step + 1).unwrap_or(0).clamp(i + 1, n);
                let run = i..end;
                i = end;
                (run, t)
            })
        })
    }
}

/// The noise stream of `DiurnalDemand`.
const DEMAND_STREAM: u64 = 0xD1F0;

/// The seed-free term of demand noise `hash3(noise_seed, DEMAND_STREAM,
/// bin)`, given `mix(bin)`.
#[inline]
pub(crate) fn demand_inner(mixed_bin: u64) -> u64 {
    mix(DEMAND_STREAM ^ mixed_bin)
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
