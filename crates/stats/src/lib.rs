//! Statistical primitives used throughout manic-rs.
//!
//! The paper's inference and validation pipelines rely on a small set of
//! classical statistics: Student's t-test (level-shift significance, §4.1;
//! NDT throughput comparison, §5.3), the binomial proportion test (loss-rate
//! validation, §5.1), Huber's robust weight function (outlier handling in the
//! level-shift detector, §4.1), CUSUM change-point scanning (§4.1), and
//! medians and quantiles. This crate implements them from scratch with no
//! dependencies, so every other crate can share one vetted implementation;
//! it also holds the two hashes the workspace shares, FNV-1a (content
//! digests) and SplitMix64 (seeded streams).
//!
//! All routines are deterministic.

// Guards of the form `!(x > 0.0)` are NaN-aware on purpose: a NaN
// variance or weight sum must take the degenerate branch.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod binomial;
pub mod cusum;
pub mod describe;
pub mod fnv;
pub mod huber;
pub mod sliding;
pub mod special;
pub mod splitmix;
pub mod ttest;

pub use binomial::{two_proportion_z_test, ProportionTest};
pub use cusum::{cusum_scan, ChangePoint};
pub use describe::{mean, median, quantile, variance, Summary};
pub use fnv::{fnv1a, FNV1A_OFFSET};
pub use huber::huber_weight;
pub use sliding::SlidingMedian;
pub use splitmix::{mix, GAMMA};
pub use ttest::{two_sample_t, TTest, Tails};
