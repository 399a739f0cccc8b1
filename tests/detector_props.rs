//! Tier-1 home of the stats and inference property suites.
//!
//! `crates/stats/tests/prop.rs` (t-test and binomial p-values, quantiles,
//! CDFs, CUSUM on a planted shift) and `crates/inference/tests/prop.rs`
//! (autocorrelation-window invariants and planted-window recovery,
//! level-shift episode invariants) test only routines the pipeline runs;
//! they are included here so `cargo test -q` at the root runs them.

#[path = "../crates/stats/tests/prop.rs"]
mod stats_props;

#[path = "../crates/inference/tests/prop.rs"]
mod inference_props;
