//! Tracing from outside the program: spans around calls into a layer, a
//! counting allocator, and process CPU/RSS readings.
//!
//! The tracer always *times* (the end-to-end numbers need durations too)
//! but keeps spans only in a traced run, so an untraced run pays two
//! `Instant::now()` per timed call and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.round`, `serve.publish`.
    pub name: &'static str,
    /// Round / request / repetition number the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A begun span; hand it back to [`Tracer::end`].
pub struct Open {
    start: Instant,
    slot: Option<u32>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        let start = Instant::now();
        let slot = self.on.then(|| {
            let slot = self.spans.len() as u32;
            let at = self.ns(start);
            self.spans.push(Span {
                name,
                id,
                parent: self.open.last().copied(),
                start_ns: at,
                end_ns: at,
            });
            self.open.push(slot);
            slot
        });
        Open { start, slot }
    }

    /// Close a span; returns its duration in seconds (traced or not).
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot as usize].end_ns = self.ns(now);
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(slot), "spans must close innermost first");
        }
        now.duration_since(open.start).as_secs_f64()
    }

    /// Time one call; returns its result and its duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name, id);
        let r = f();
        (r, self.end(open))
    }

    /// Record a span measured on another thread (a client's request).
    pub fn import(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                id,
                parent: None,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Wall cost of one begin/end pair with recording on, measured on a
    /// scratch tracer: what `trace.overhead_share` multiplies span counts by.
    pub fn span_cost_ns() -> f64 {
        const N: u64 = 200_000;
        let mut t = Tracer::new(true);
        let started = Instant::now();
        for i in 0..N {
            let o = t.begin("trace.calibrate", i);
            t.end(o);
        }
        std::hint::black_box(&t.spans);
        started.elapsed().as_nanos() as f64 / N as f64
    }

    /// Write the spans as one JSON document: `self_ns` is a span's duration
    /// minus the time its direct children cover.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{}\n{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                if i > 0 { "," } else { "" },
                s.name,
                s.id,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i]),
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

// ------------------------------------------------------ counting allocator

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls and bytes while switched on (traced
/// runs only; off, it adds one relaxed load per allocation).
pub struct CountingAlloc;

#[inline]
fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; all three arguments are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ------------------------------------------------------------- /proc reads

/// `(user, system)` CPU seconds of this process (`/proc/self/stat`, at the
/// kernel's fixed 100 ticks per second); zeros where `/proc` is missing.
pub fn cpu_times() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name may contain spaces; fields are counted after its ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0.0, 0.0);
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / 100.0;
    (tick(11), tick(12))
}

/// Peak resident set size in MB (`VmHWM`); 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ------------------------------------------------------------ CPU affinity

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every thread it spawns from now on, to
/// the highest-numbered CPU it may run on; returns that CPU, or `None` where
/// the kernel refuses (the run then goes on unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16; // room for 1024 CPUs, glibc's own `cpu_set_t`
    let mut mask = [0u64; WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|&w| w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes that the call
    // only reads.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
