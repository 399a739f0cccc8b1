//! Tier-1 home of the allocation-lean probe path.
//!
//! `crates/netsim/tests/alloc_lean.rs` installs a counting global allocator
//! and requires that steady-state `send_probe`, `forward_path_into` and
//! `record_route_into` calls never reach it. Included here as a test binary
//! of its own, so the allocator swap stays isolated from every other root
//! test while `cargo test -q` at the root runs the check.

#[path = "../crates/netsim/tests/alloc_lean.rs"]
mod alloc_lean;
