//! Tier-1 home of bdrmap's end-to-end suite.
//!
//! `crates/bdrmap/tests/e2e.rs` runs border mapping on compiled worlds and
//! scores it against their interdomain-link ground truth; including it
//! here makes `cargo test -q` at the root run it.

#[path = "../crates/bdrmap/tests/e2e.rs"]
mod e2e;
