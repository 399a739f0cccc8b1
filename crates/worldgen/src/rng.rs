//! Deterministic generator-local randomness.
//!
//! The generator must be a pure function of `(spec, seed)`: the same world
//! name and seed must produce bit-identical topologies on any machine, any
//! thread count, any build. A splitmix64 stream gives that with no shared
//! state — every generation site derives its own `Rng` from the world seed
//! plus a site salt, so inserting a new call site never perturbs the streams
//! of existing ones.

use manic_stats::{mix, GAMMA};

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A stream derived from `(seed, salt)`. Distinct salts give
    /// statistically independent streams.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng { state: seed ^ salt.wrapping_mul(GAMMA) }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = self.state;
        self.state = s.wrapping_add(GAMMA);
        mix(s)
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// In-place Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// `k` distinct indices out of `[0, n)`, in shuffled order.
    pub fn pick_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot pick {k} of {n}");
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_salt() {
        let a: Vec<u64> = (0..8).map({
            let mut r = Rng::new(7, 1);
            move |_| r.next_u64()
        }).collect();
        let b: Vec<u64> = (0..8).map({
            let mut r = Rng::new(7, 1);
            move |_| r.next_u64()
        }).collect();
        let c: Vec<u64> = (0..8).map({
            let mut r = Rng::new(7, 2);
            move |_| r.next_u64()
        }).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn pick_distinct_is_distinct() {
        let mut r = Rng::new(3, 9);
        for _ in 0..50 {
            let picks = r.pick_distinct(10, 4);
            let mut sorted = picks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(11, 0);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
