//! Tier-1 home of scenario's property suite.
//!
//! `crates/scenario/tests/prop.rs` checks Gao-Rexford routing, world
//! compilation and far-end reply paths on random AS graphs; including it
//! here makes `cargo test -q` at the root run it.

#[path = "../crates/scenario/tests/prop.rs"]
mod prop;
