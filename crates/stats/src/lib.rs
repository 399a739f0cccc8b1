//! Statistical primitives used throughout manic-rs.
//!
//! The paper's inference and validation pipelines rely on a small set of
//! classical statistics: Student's t-test (level-shift significance, §4.1;
//! NDT throughput comparison, §5.3), the binomial proportion test (loss-rate
//! validation, §5.1), Huber's robust weight function (outlier handling in the
//! level-shift detector, §4.1), CUSUM change-point scanning (§4.1), and
//! autocorrelation (§4.2). This crate implements them from scratch with no
//! dependencies, so every other crate can share one vetted implementation.
//!
//! All routines operate on `f64` slices and are deterministic.

// Guards of the form `!(x > 0.0)` are NaN-aware on purpose: a NaN
// variance or weight sum must take the degenerate branch.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod acf;
pub mod binomial;
pub mod cusum;
pub mod describe;
pub mod fnv;
pub mod huber;
pub mod regression;
pub mod sliding;
pub mod special;
pub mod ttest;

pub use acf::{autocorrelation, autocovariance, pearson};
pub use binomial::{two_proportion_z_test, ProportionTest};
pub use cusum::{cusum_scan, ChangePoint};
pub use describe::{ecdf, mean, median, quantile, variance, Summary};
pub use fnv::{fnv1a, FNV1A_OFFSET};
pub use huber::{huber_mean, huber_weight};
pub use regression::{ols, OlsFit};
pub use sliding::SlidingMedian;
pub use ttest::{one_sample_t, two_sample_t, welch_t, TTest, Tails};
