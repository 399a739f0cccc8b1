//! Tier-1 home of the `LinkSummary` oracle, plus what the summary costs in
//! memory.
//!
//! `crates/inference/tests/summary_prop.rs` (summary ≡ store dense view over
//! any servable window, a 30-day window over a short history, late ops
//! before the first stored bin, detection on the summary ≡ detection on the
//! store scan, backfill-at-any-round convergence) is included here so
//! `cargo test -q` at the root runs it. On top of it: a summary stores the
//! bins since its first sample, not its whole window — a planet-scale world
//! holds one per probing task, so an eager 30-day allocation per summary is
//! most of the process — and once the window is full it stops allocating.

#[path = "../crates/inference/tests/summary_prop.rs"]
mod summary_props;

use manic_inference::LinkSummary;
use manic_tsdb::{Aggregate, Point, SeriesKey, Store};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const BIN: i64 = 300;
const ROUNDS: i64 = 24;

/// Counts the bytes this thread asks the allocator for (tests run on
/// parallel threads); frees are not subtracted.
struct CountingAlloc;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: defers to `System` for every operation; the only addition is a
// counter in a const-initialised, destructor-free thread local, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes `f` requested from the allocator, and its result.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

fn key() -> SeriesKey {
    SeriesKey::with_tags("tslp", &[("vp", "v1"), ("link", "10.0.0.1"), ("end", "far")])
}

/// Three far-end samples per round, as a task with three destinations
/// writes them.
fn round_points(r: i64) -> [Point; 3] {
    [0, 100, 200].map(|off| Point {
        t: r * BIN + off,
        v: 20.0 + (r % 5) as f64 + off as f64 / 100.0,
    })
}

/// `new` + one `advance_to` and the round's samples per round.
fn maintained(rounds: i64, window: usize) -> LinkSummary {
    let mut s = LinkSummary::new(0, window, BIN);
    for r in 0..rounds {
        s.advance_to((r + 1) * BIN);
        for p in round_points(r) {
            s.observe_sample(p.t, p.v);
        }
    }
    s
}

#[test]
fn a_day_fragment_of_history_costs_under_4_kib_per_summary() {
    let store = Store::new();
    let key = key();
    for r in 0..ROUNDS {
        store.write_batch(&key, &round_points(r));
    }
    // The window every engine summary gets (30 days).
    let window = manic_core::SystemConfig::default().summary_window_bins;
    // The metric registry allocates on first use; keep that out of the count.
    drop(maintained(1, window));

    let (bytes, kept) = bytes_allocated(|| maintained(ROUNDS, window));
    assert!(bytes < 4096, "maintaining 24 rounds allocated {bytes} B");
    let (bytes, filled) =
        bytes_allocated(|| LinkSummary::backfilled(&store, &key, ROUNDS * BIN, window, BIN));
    assert!(bytes < 4096, "backfilling 24 rounds allocated {bytes} B");
    assert_eq!(kept.fingerprint(), filled.fingerprint());
}

#[test]
fn a_full_window_stops_allocating_and_expires_its_oldest_bins() {
    const CAP: usize = 48;
    let store = Store::new();
    let key = key();
    let filled = CAP as i64 + 10;
    let mut s = maintained(filled, CAP);
    let (bytes, ()) = bytes_allocated(|| {
        for r in filled..filled + 200 {
            s.advance_to((r + 1) * BIN);
            for p in round_points(r) {
                s.observe_sample(p.t, p.v);
            }
        }
    });
    assert_eq!(bytes, 0, "a full window must reuse its storage");

    let end = (filled + 200) * BIN;
    let from = end - CAP as i64 * BIN;
    assert!(s.can_serve(from, end));
    assert!(!s.can_serve(from - BIN, end), "the bin before the window has expired");
    for r in 0..filled + 200 {
        store.write_batch(&key, &round_points(r));
    }
    let (mut bins, mut qual) = (Vec::new(), Vec::new());
    s.dense_into(from, end, &mut bins, &mut qual);
    assert_eq!(bins, store.downsample_dense(&key, from, end, BIN, Aggregate::Min));
    assert_eq!(s.fingerprint(), LinkSummary::backfilled(&store, &key, end, CAP, BIN).fingerprint());
}
