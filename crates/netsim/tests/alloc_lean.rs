//! Allocation-lean hot path: after warm-up, the per-probe machinery —
//! `send_probe`, `forward_path_into`, `record_route_into` — must not touch
//! the allocator at all. A counting global allocator makes the assertion
//! exact. This test lives in its own integration binary so the allocator
//! swap cannot interfere with any other test; the root package includes it
//! as one more such binary (`tests/alloc_lean.rs`), so the tier-1 command
//! runs it too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use manic_netsim::{
    AsNumber, DiurnalDemand, Fib, IcmpProfile, Ipv4, LinkKind, Network, Prefix, ProbeSpec,
    QueueModel, SimState, Topology,
};

/// Counts allocator entry points on the test thread only; frees are not
/// interesting here. The per-thread gate matters: the libtest harness's
/// main thread blocks in `mpsc::recv` while the test runs, and lazily
/// allocates its thread-local parking context whenever the scheduler makes
/// it actually park — which would otherwise land in our timed window or
/// not, at the OS's whim (a 2-allocation flake).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// Const-initialized so TLS access never allocates (no lazy init, no drop).
thread_local! {
    static COUNTING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn count() {
    // try_with: TLS may be unavailable during thread teardown; those
    // allocations are never ours to count.
    if COUNTING.try_with(std::cell::Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A 4-router chain — vp ─ r1 ─ r2 ─ dst — with symmetric routes, a loaded
/// middle link, and a rate-limited far router (so the limiter bucket path is
/// exercised, not just skipped).
fn chain_net() -> Network {
    let mut topo = Topology::new();
    let q = QueueModel::default();
    let limited = IcmpProfile { rate_limit_pps: Some(1000.0), ..Default::default() };
    let vp = topo.add_router(AsNumber(64500), "vp", "nyc", -5, IcmpProfile::default());
    let r1 = topo.add_router(AsNumber(64500), "r1", "nyc", -5, IcmpProfile::default());
    let r2 = topo.add_router(AsNumber(64501), "r2", "nyc", -5, limited);
    let dst = topo.add_router(AsNumber(64501), "dst", "nyc", -5, IcmpProfile::default());

    let a = |o: u8, h: u8| Ipv4::new(10, 0, o, h);
    let vp0 = topo.add_iface(vp, a(0, 1));
    let r1a = topo.add_iface(r1, a(0, 2));
    let r1b = topo.add_iface(r1, a(1, 1));
    let r2a = topo.add_iface(r2, a(1, 2));
    let r2b = topo.add_iface(r2, a(2, 1));
    let dst0 = topo.add_iface(dst, a(2, 2));

    let load: Arc<dyn manic_netsim::LoadModel> = Arc::new(DiurnalDemand::quiet(-5, 7));
    topo.connect(vp0, r1a, LinkKind::Internal, 1.0, 10_000.0, q, None, None);
    topo.connect(
        r1b,
        r2a,
        LinkKind::Interdomain,
        2.0,
        10_000.0,
        q,
        Some(load.clone()),
        Some(load),
    );
    topo.connect(r2b, dst0, LinkKind::Internal, 1.0, 10_000.0, q, None, None);

    let p24 = |o: u8| Prefix::new(a(o, 0), 24);
    let mut fibs = vec![Fib::new(), Fib::new(), Fib::new(), Fib::new()];
    fibs[vp.0 as usize].insert(Prefix::new(Ipv4::new(0, 0, 0, 0), 0), vec![vp0]);
    fibs[r1.0 as usize].insert(p24(0), vec![r1a]);
    fibs[r1.0 as usize].insert(p24(1), vec![r1b]);
    fibs[r1.0 as usize].insert(p24(2), vec![r1b]);
    fibs[r2.0 as usize].insert(p24(0), vec![r2a]);
    fibs[r2.0 as usize].insert(p24(1), vec![r2a]);
    fibs[r2.0 as usize].insert(p24(2), vec![r2b]);
    fibs[dst.0 as usize].insert(Prefix::new(Ipv4::new(0, 0, 0, 0), 0), vec![dst0]);
    Network::new(topo, fibs, 0x00A1_10C8)
}

#[test]
fn steady_state_probing_allocates_nothing() {
    COUNTING.with(|c| c.set(true));
    let net = chain_net();
    let vp = manic_netsim::RouterId(0);
    let vp_addr = Ipv4::new(10, 0, 0, 1);
    let far = Ipv4::new(10, 0, 2, 2);
    let mut state = SimState::new();
    let mut path = Vec::new();
    let mut slots = Vec::new();

    let drive = |state: &mut SimState, path: &mut Vec<_>, slots: &mut Vec<_>, t0: i64| {
        let mut answered = 0u32;
        for i in 0..200i64 {
            let t = t0 + i * 7;
            let spec = ProbeSpec {
                src: vp,
                src_addr: vp_addr,
                dst: far,
                ttl: 2,
                flow_id: 0xBEEF,
            };
            if !matches!(net.send_probe(state, spec, t), manic_netsim::ProbeStatus::Lost) {
                answered += 1;
            }
            net.forward_path_into(vp, far, 0xBEEF, t, path);
            assert_eq!(path.len(), 3, "chain walk sees r1, r2, dst");
            assert!(net.record_route_into(state, vp, vp_addr, far, 2, 0xBEEF, t, slots));
            assert!(!slots.is_empty());
        }
        answered
    };

    // Warm-up: populates rate-limiter buckets, OnceLock'd metrics, and the
    // scratch/walk buffers' high-water marks.
    drive(&mut state, &mut path, &mut slots, 0);

    let before = allocs();
    let answered = drive(&mut state, &mut path, &mut slots, 100_000);
    let delta = allocs() - before;

    assert!(answered > 0, "probes must actually complete for the test to mean anything");
    assert_eq!(
        delta, 0,
        "steady-state probe loop hit the allocator {delta} times; \
         the hot path must reuse SimState scratch buffers"
    );
}
