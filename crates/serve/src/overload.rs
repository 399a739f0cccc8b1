//! Overload control: the serving tier's defenses against the open Internet.
//!
//! The paper's MANIC ran as an always-on public observatory; a serving tier
//! in that position meets slowloris clients, connection floods, and
//! dashboards asking for a year of data at one-second bins. This module
//! holds the shared [`OverloadState`] every defense reads and writes:
//!
//! * a **connection budget** (accept-side backpressure once `max_conns`
//!   connections are open — excess clients wait in the kernel listen queue
//!   instead of consuming file descriptors and worker memory);
//! * **admission control** (a shed gate driven by accept-queue depth and a
//!   decaying latency EWMA; closed means non-priority requests get `503 +
//!   Retry-After` while `/api/health` and `/metrics` keep answering);
//! * a **circuit breaker** around the expensive timeseries/explain renders
//!   (a streak of slow renders opens it; cooled-down probes close it);
//! * **memory-pressure degradation** (the response cache is shrunk to a
//!   low watermark when the gate closes, freeing memory before work is
//!   refused).
//!
//! Every decision is counted in `manic_serve_*` metrics; state *transitions*
//! (gate closed/opened, breaker opened/closed) are WARN journal events and
//! per-request rejections are Debug events, so a flood cannot drown the
//! journal in its own rejection records.

use manic_obs::JsonWriter;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning for the overload-control layer. All durations are wall-clock.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Open-connection budget; accepts stall (backpressure) at the cap.
    /// 0 disables the budget.
    pub max_conns: usize,
    /// Deadline for reading one full request head, measured from its first
    /// byte. A slowloris or byte-dribbler is disconnected at this deadline
    /// instead of holding a worker for `keep_alive_timeout` per header line.
    pub header_read_timeout: Duration,
    /// Accepted-but-unserviced connections beyond this close the shed gate.
    pub shed_queue_depth: usize,
    /// Handling-latency EWMA (ms) beyond this closes the shed gate.
    pub shed_latency_ms: f64,
    /// Consecutive slow renders that open the circuit breaker.
    pub breaker_streak: u32,
    /// A timeseries/explain render slower than this (ms) counts as slow.
    pub breaker_slow_ms: f64,
    /// How long the breaker stays open before admitting probe renders.
    pub breaker_cooldown: Duration,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            max_conns: 1024,
            header_read_timeout: Duration::from_secs(2),
            shed_queue_depth: 128,
            shed_latency_ms: 50.0,
            breaker_streak: 8,
            breaker_slow_ms: 250.0,
            breaker_cooldown: Duration::from_secs(2),
        }
    }
}

/// Why the admission gate refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    QueueDepth,
    Latency,
}

impl ShedReason {
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::QueueDepth => "queue_depth",
            ShedReason::Latency => "latency",
        }
    }
}

const BREAKER_CLOSED: u8 = 0;
const BREAKER_OPEN: u8 = 1;

/// Shared overload-control state: written from the accept thread, every
/// worker, and the render paths; read by `/api/health`. Plain atomics
/// throughout — no lock is ever held on a request path.
#[derive(Debug)]
pub struct OverloadState {
    cfg: OverloadConfig,
    origin: Instant,
    /// Connections currently open (accepted and not yet closed).
    conns: AtomicI64,
    /// Connections accepted but not yet picked up by a worker.
    queue_depth: AtomicI64,
    /// Handling-latency EWMA over admitted requests, integer nanoseconds
    /// (lossy racing stores are fine — this is a control signal).
    ewma_ns: AtomicU64,
    /// Microseconds-since-origin of the last EWMA sample, for decay.
    ewma_at_us: AtomicU64,
    /// Last computed gate state, for transition events and `/api/health`.
    shed_active: AtomicBool,
    breaker_state: AtomicU8,
    /// Consecutive slow renders observed while the breaker is closed.
    slow_streak: AtomicU32,
    /// Microseconds-since-origin at which an open breaker admits probes.
    breaker_until_us: AtomicU64,
}

impl OverloadState {
    pub fn new(cfg: OverloadConfig) -> Self {
        OverloadState {
            cfg,
            origin: Instant::now(),
            conns: AtomicI64::new(0),
            queue_depth: AtomicI64::new(0),
            ewma_ns: AtomicU64::new(0),
            ewma_at_us: AtomicU64::new(0),
            shed_active: AtomicBool::new(false),
            breaker_state: AtomicU8::new(BREAKER_CLOSED),
            slow_streak: AtomicU32::new(0),
            breaker_until_us: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &OverloadConfig {
        &self.cfg
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    // ----- connection budget -----

    /// Try to claim a connection slot. `None` means the budget is spent and
    /// the accept loop should stall (kernel backlog backpressure).
    pub fn try_acquire_conn(self: &Arc<Self>) -> Option<ConnGuard> {
        if self.cfg.max_conns > 0
            && self.conns.load(Ordering::Relaxed) >= self.cfg.max_conns as i64
        {
            return None;
        }
        self.conns.fetch_add(1, Ordering::Relaxed);
        crate::obs::metrics().connections.add(1);
        Some(ConnGuard { state: Arc::clone(self), queued: AtomicBool::new(false) })
    }

    pub fn open_conns(&self) -> i64 {
        self.conns.load(Ordering::Relaxed)
    }

    pub fn queue_depth(&self) -> i64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    // ----- admission control (shed gate) -----

    /// Latency EWMA in ms, decayed by halving per second of silence so a
    /// gate closed by a burst reopens once the burst is gone even if no
    /// admitted request ever updates the average again.
    pub fn latency_ewma_ms(&self) -> f64 {
        let raw = self.ewma_ns.load(Ordering::Relaxed);
        if raw == 0 {
            return 0.0;
        }
        let age_s = self.now_us().saturating_sub(self.ewma_at_us.load(Ordering::Relaxed))
            / 1_000_000;
        (raw >> age_s.min(32) as u32) as f64 / 1e6
    }

    /// Fold one admitted request's handling time into the EWMA (α = 1/8).
    pub fn observe_latency(&self, ms: f64) {
        let sample_ns = (ms.max(0.0) * 1e6) as u64;
        let old = self.ewma_ns.load(Ordering::Relaxed);
        let new = if old == 0 { sample_ns } else { old - old / 8 + sample_ns / 8 };
        self.ewma_ns.store(new, Ordering::Relaxed);
        self.ewma_at_us.store(self.now_us(), Ordering::Relaxed);
    }

    /// Admission decision for one non-priority request. `Err` carries the
    /// shed reason; the caller answers `503 + Retry-After` and counts it.
    pub fn admit(&self) -> Result<(), ShedReason> {
        let reason = if self.cfg.shed_queue_depth > 0
            && self.queue_depth() > self.cfg.shed_queue_depth as i64
        {
            Some(ShedReason::QueueDepth)
        } else if self.cfg.shed_latency_ms > 0.0
            && self.latency_ewma_ms() > self.cfg.shed_latency_ms
        {
            Some(ShedReason::Latency)
        } else {
            None
        };
        let was = self.shed_active.swap(reason.is_some(), Ordering::Relaxed);
        match reason {
            None => {
                if was {
                    manic_obs::event!(manic_obs::WARN, "serve", "shed_gate_open", 0);
                }
                Ok(())
            }
            Some(r) => {
                if !was {
                    manic_obs::event!(
                        manic_obs::WARN, "serve", "shed_gate_closed", 0,
                        reason = r.as_str(),
                        queue_depth = self.queue_depth(),
                        ewma_ms = self.latency_ewma_ms(),
                    );
                }
                Err(r)
            }
        }
    }

    pub fn shed_active(&self) -> bool {
        self.shed_active.load(Ordering::Relaxed)
    }

    // ----- circuit breaker -----

    /// May an expensive render run right now? `false` means the breaker is
    /// open and still cooling down — answer 503 without rendering. Once the
    /// cooldown elapses the breaker half-opens: probes are admitted and
    /// their outcome (see [`Self::record_render`]) closes or re-arms it.
    pub fn breaker_admit(&self) -> bool {
        if self.breaker_state.load(Ordering::Relaxed) == BREAKER_CLOSED {
            return true;
        }
        self.now_us() >= self.breaker_until_us.load(Ordering::Relaxed)
    }

    /// Record one render's duration. Slow renders build the streak that
    /// opens the breaker (or re-arm an open one); a fast render closes it.
    pub fn record_render(&self, ms: f64) {
        let slow = ms > self.cfg.breaker_slow_ms;
        let open = self.breaker_state.load(Ordering::Relaxed) == BREAKER_OPEN;
        if slow {
            let streak = self.slow_streak.fetch_add(1, Ordering::Relaxed) + 1;
            if open || streak >= self.cfg.breaker_streak {
                self.breaker_until_us.store(
                    self.now_us() + self.cfg.breaker_cooldown.as_micros() as u64,
                    Ordering::Relaxed,
                );
                if !open
                    && self
                        .breaker_state
                        .swap(BREAKER_OPEN, Ordering::Relaxed)
                        == BREAKER_CLOSED
                {
                    crate::obs::metrics().breaker_opens.inc();
                    manic_obs::event!(
                        manic_obs::WARN, "serve", "breaker_opened", 0,
                        render_ms = ms, streak = streak as u64,
                    );
                }
            }
        } else {
            self.slow_streak.store(0, Ordering::Relaxed);
            if open && self.breaker_state.swap(BREAKER_CLOSED, Ordering::Relaxed) == BREAKER_OPEN
            {
                manic_obs::event!(manic_obs::WARN, "serve", "breaker_closed", 0, render_ms = ms);
            }
        }
    }

    /// Breaker state for `/api/health`: closed, open, or half_open (open
    /// but past its cooldown, admitting probes).
    pub fn breaker_label(&self) -> &'static str {
        if self.breaker_state.load(Ordering::Relaxed) == BREAKER_CLOSED {
            "closed"
        } else if self.now_us() >= self.breaker_until_us.load(Ordering::Relaxed) {
            "half_open"
        } else {
            "open"
        }
    }

    /// Render the `overload` block of `/api/health`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// [`Self::to_json`] into a document under construction.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        let m = crate::obs::metrics();
        w.begin_object().key("max_conns").int(self.cfg.max_conns);
        w.key("open_connections").int(self.open_conns().max(0));
        w.key("queue_depth").int(self.queue_depth().max(0));
        w.key("shed_active").bool(self.shed_active());
        w.key("latency_ewma_ms").f64_fixed(self.latency_ewma_ms(), 3);
        w.key("breaker").str(self.breaker_label());
        w.key("shed_total").int(m.shed_queue_depth.get() + m.shed_latency.get());
        w.key("breaker_rejected_total").int(m.breaker_rejected.get());
        w.key("disconnect_total").int(m.disconnect_total());
        w.key("parse_rejected_total").int(m.parse_rejected_total());
        w.key("cache_bytes").int(m.cache_bytes.get().max(0));
        w.key("cache_shrinks").int(m.cache_shrinks.get()).end_object();
    }
}

/// RAII handle for one budgeted connection. Created at accept, travels with
/// the stream through the worker queue, and releases the budget slot when
/// the connection is done — including connections dropped unserviced at
/// shutdown, whose queue-depth claim is released by the same drop.
#[derive(Debug)]
pub struct ConnGuard {
    state: Arc<OverloadState>,
    queued: AtomicBool,
}

impl ConnGuard {
    /// The accept loop handed this connection to the worker queue.
    pub fn enqueued(&self) {
        self.queued.store(true, Ordering::Relaxed);
        let d = self.state.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        crate::obs::metrics().queue_depth.set(d);
    }

    /// A worker picked the connection up.
    pub fn dequeued(&self) {
        if self.queued.swap(false, Ordering::Relaxed) {
            let d = self.state.queue_depth.fetch_sub(1, Ordering::Relaxed) - 1;
            crate::obs::metrics().queue_depth.set(d);
        }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.dequeued();
        self.state.conns.fetch_sub(1, Ordering::Relaxed);
        crate::obs::metrics().connections.add(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(cfg: OverloadConfig) -> Arc<OverloadState> {
        Arc::new(OverloadState::new(cfg))
    }

    #[test]
    fn conn_budget_caps_and_releases() {
        let s = state(OverloadConfig { max_conns: 2, ..OverloadConfig::default() });
        let a = s.try_acquire_conn().expect("slot 1");
        let _b = s.try_acquire_conn().expect("slot 2");
        assert!(s.try_acquire_conn().is_none(), "budget spent");
        assert_eq!(s.open_conns(), 2);
        drop(a);
        assert_eq!(s.open_conns(), 1);
        assert!(s.try_acquire_conn().is_some(), "slot freed by drop");
    }

    #[test]
    fn unlimited_budget_never_stalls() {
        let s = state(OverloadConfig { max_conns: 0, ..OverloadConfig::default() });
        let guards: Vec<_> = (0..64).map(|_| s.try_acquire_conn().expect("slot")).collect();
        assert_eq!(s.open_conns(), 64);
        drop(guards);
        assert_eq!(s.open_conns(), 0);
    }

    #[test]
    fn queue_depth_tracks_enqueue_dequeue_and_drop() {
        let s = state(OverloadConfig::default());
        let g = s.try_acquire_conn().expect("slot");
        g.enqueued();
        assert_eq!(s.queue_depth(), 1);
        g.dequeued();
        assert_eq!(s.queue_depth(), 0);
        let g2 = s.try_acquire_conn().expect("slot");
        g2.enqueued();
        drop(g2); // dropped unserviced: queue claim released too
        assert_eq!(s.queue_depth(), 0);
        drop(g);
        assert_eq!(s.open_conns(), 0);
    }

    #[test]
    fn shed_gate_closes_on_latency_and_reopens_after_decay() {
        let s = state(OverloadConfig { shed_latency_ms: 10.0, ..OverloadConfig::default() });
        assert!(s.admit().is_ok());
        for _ in 0..32 {
            s.observe_latency(400.0);
        }
        assert_eq!(s.admit(), Err(ShedReason::Latency));
        assert!(s.shed_active());
        // Decay path: the EWMA halves per second of silence, so a burst-
        // closed gate reopens on its own. Check the decay arithmetic
        // directly instead of sleeping seconds: 400 ms sampled 7 virtual
        // seconds ago reads as ~3 ms.
        let raw = s.ewma_ns.load(Ordering::Relaxed);
        let decayed = (raw >> 7) as f64 / 1e6;
        assert!(decayed < 10.0, "7 halvings bring {raw} ns under the gate");
        // And a recovered EWMA reopens the gate.
        s.ewma_ns.store(1_000, Ordering::Relaxed); // 0.001 ms
        assert!(s.admit().is_ok());
        assert!(!s.shed_active());
    }

    #[test]
    fn shed_gate_closes_on_queue_depth() {
        let s = state(OverloadConfig { shed_queue_depth: 1, ..OverloadConfig::default() });
        let a = s.try_acquire_conn().expect("slot");
        let b = s.try_acquire_conn().expect("slot");
        a.enqueued();
        b.enqueued();
        assert_eq!(s.admit(), Err(ShedReason::QueueDepth));
        a.dequeued();
        b.dequeued();
        assert!(s.admit().is_ok());
    }

    #[test]
    fn breaker_opens_on_streak_probes_and_closes() {
        let cfg = OverloadConfig {
            breaker_streak: 3,
            breaker_slow_ms: 10.0,
            breaker_cooldown: Duration::from_millis(30),
            ..OverloadConfig::default()
        };
        let s = state(cfg);
        assert!(s.breaker_admit());
        s.record_render(50.0);
        s.record_render(50.0);
        assert!(s.breaker_admit(), "streak below threshold keeps it closed");
        s.record_render(50.0);
        assert!(!s.breaker_admit(), "third slow render opens the breaker");
        assert_eq!(s.breaker_label(), "open");
        std::thread::sleep(Duration::from_millis(40));
        assert!(s.breaker_admit(), "cooldown elapsed: half-open admits probes");
        assert_eq!(s.breaker_label(), "half_open");
        s.record_render(50.0);
        assert!(!s.breaker_admit(), "slow probe re-arms the cooldown");
        std::thread::sleep(Duration::from_millis(40));
        s.record_render(1.0);
        assert!(s.breaker_admit());
        assert_eq!(s.breaker_label(), "closed");
    }

    #[test]
    fn fast_renders_reset_the_streak() {
        let cfg = OverloadConfig {
            breaker_streak: 3,
            breaker_slow_ms: 10.0,
            ..OverloadConfig::default()
        };
        let s = state(cfg);
        s.record_render(50.0);
        s.record_render(50.0);
        s.record_render(1.0);
        s.record_render(50.0);
        s.record_render(50.0);
        assert!(s.breaker_admit(), "streak interrupted by a fast render");
    }

    #[test]
    fn health_json_shape() {
        let s = state(OverloadConfig::default());
        s.observe_latency(2.0);
        let j = s.to_json();
        for needle in [
            "\"max_conns\":1024",
            "\"shed_active\":false",
            "\"breaker\":\"closed\"",
            "\"queue_depth\":0",
            "\"latency_ewma_ms\":",
        ] {
            assert!(j.contains(needle), "{j} missing {needle}");
        }
    }
}
