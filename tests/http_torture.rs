//! Tier-1 home of the HTTP parser torture suite.
//!
//! `crates/serve/tests/http_torture.rs` feeds `read_request` random byte
//! streams, every truncation of valid requests and pathological read
//! splits; including it here makes `cargo test -q` at the root run it.

#[path = "../crates/serve/tests/http_torture.rs"]
mod http_torture;
