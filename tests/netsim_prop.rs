//! Tier-1 home of netsim's property suite.
//!
//! `crates/netsim/tests/prop.rs` holds the FIB's sorted route table to a
//! linear longest-prefix scan — ECMP groups in member order, lookups
//! interleaved with replacing inserts, rebuilds from `entries()` and
//! clones — and checks ECMP, calendar and prefix invariants; including it
//! here makes `cargo test -q` at the root run it.

#[path = "../crates/netsim/tests/prop.rs"]
mod prop;
