//! The reported size of a generated universe is its real heap.
//!
//! `WorldStats::graph_mem_bytes` is what `manic world --stats` prints and the
//! benchmark records as `worldgen.graph_bytes`. A counting global allocator
//! tracks the live bytes of the test thread, and dropping sim-5k's universe
//! graph must free within 15 % of the figure its stats report. This test
//! lives in its own binary so the allocator swap touches no other test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use manic_worldgen::{compile_world, generate, spec_for};

/// Tracks the live heap bytes of threads that opted in; every other
/// thread (the libtest harness's included) passes straight through.
struct CountingAlloc;

// Const-initialized so TLS access never allocates (no lazy init, no drop).
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    // try_with: TLS may be unavailable during thread teardown; those
    // allocations are never ours to count.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = LIVE.try_with(|n| n.set(n.get() + delta));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn reported_graph_size_is_the_live_heap() {
    const SEED: u64 = 0x5167_C044;
    COUNTING.with(|c| c.set(true));
    let built = compile_world("sim-5k", SEED).expect("sim-5k compiles");
    let reported = built.stats.graph_mem_bytes as f64;
    // Generation is a pure function of (spec, seed): this is the universe
    // `compile_world` measured before it compiled the focus and dropped it.
    let graph = generate(&spec_for("sim-5k").expect("library world"), SEED).graph;
    let before = LIVE.with(Cell::get);
    drop(graph);
    let freed = (before - LIVE.with(Cell::get)) as f64;
    COUNTING.with(|c| c.set(false));
    assert!(freed > 0.0, "dropping the universe graph freed nothing");
    let ratio = reported / freed;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "graph_mem_bytes {reported} is {:.0} % of the {freed} live bytes the graph held",
        ratio * 100.0
    );
}
