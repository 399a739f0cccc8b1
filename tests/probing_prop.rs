//! Tier-1 home of probing's property suite.
//!
//! `crates/probing/tests/prop.rs` checks TSLP target selection and the
//! probing rate budget on random traceroutes; including it here makes
//! `cargo test -q` at the root run it.

#[path = "../crates/probing/tests/prop.rs"]
mod prop;
