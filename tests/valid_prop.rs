//! Tier-1 home of valid's property suite.
//!
//! `crates/valid/tests/prop.rs` checks the TCP throughput model, the
//! flow path NDT and the streaming test share, and the Table 1
//! classifier; including it here makes `cargo test -q` at the root run it.

#[path = "../crates/valid/tests/prop.rs"]
mod prop;
