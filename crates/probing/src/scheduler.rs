//! Probe-rate budgeting.
//!
//! Every measurement module on a VP runs under a packets-per-second budget:
//! TSLP at 100 pps, border mapping at 100 pps, loss probing at 150 pps
//! (§3.1–§3.3). The budget spaces probe send times so rate-limited routers
//! and the VP's uplink see a smooth stream rather than bursts.

use manic_netsim::time::SimTime;

/// Allocates send times at a fixed rate, never before `not_before`.
///
/// Slots are computed from a probe counter against a fixed origin rather
/// than by accumulating a per-probe interval: truncating the interval to
/// whole microseconds (e.g. 333333 µs at 3 pps) silently runs the budget
/// fast — a whole extra slot every million probes per dropped microsecond —
/// and float accumulation drifts the other way, so neither honors the pps
/// contract rate-limited routers see over long windows.
#[derive(Debug, Clone)]
pub struct RateBudget {
    rate_pps: f64,
    /// Schedule anchor in *microseconds* of simulation time.
    origin_us: i64,
    /// Slots handed out since the anchor.
    emitted: u64,
}

impl RateBudget {
    pub fn new(rate_pps: f64, start: SimTime) -> Self {
        assert!(rate_pps > 0.0);
        RateBudget { rate_pps, origin_us: start * 1_000_000, emitted: 0 }
    }

    /// Reserve the next send slot at or after `now`; returns the slot time
    /// in whole simulation seconds (the resolution probes are issued at).
    pub fn next_slot(&mut self, now: SimTime) -> SimTime {
        let now_us = now * 1_000_000;
        let mut slot =
            self.origin_us + (self.emitted as f64 * 1_000_000.0 / self.rate_pps).round() as i64;
        if slot < now_us {
            // Idle gap: re-anchor the schedule at `now`.
            self.origin_us = now_us;
            self.emitted = 0;
            slot = now_us;
        }
        self.emitted += 1;
        slot / 1_000_000
    }

    /// How many probes fit in a window of `secs` seconds.
    pub fn capacity(&self, secs: f64) -> usize {
        (self.rate_pps * secs) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_advance_at_rate() {
        let mut b = RateBudget::new(2.0, 0);
        // 2 pps: two probes per second.
        let slots: Vec<SimTime> = (0..6).map(|_| b.next_slot(0)).collect();
        assert_eq!(slots, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn cursor_respects_now() {
        let mut b = RateBudget::new(100.0, 0);
        b.next_slot(0);
        // Jump far ahead: cursor snaps to now.
        assert_eq!(b.next_slot(1000), 1000);
    }

    #[test]
    fn fractional_interval_does_not_drift() {
        // 3 pps has a non-terminating interval (333333.3... µs). An
        // accumulated truncated interval drifts a full second over 10,000
        // slots; the counter-based schedule keeps the long-run rate exact.
        let mut b = RateBudget::new(3.0, 0);
        let mut last = 0;
        for _ in 0..10_000 {
            last = b.next_slot(0);
        }
        // Slot 9999 must start at floor(9999 / 3) = 3333 s exactly.
        assert_eq!(last, 3333);
        // And every second must carry exactly 3 slots: count a sample.
        let mut b = RateBudget::new(3.0, 0);
        let slots: Vec<SimTime> = (0..30).map(|_| b.next_slot(0)).collect();
        for s in 0..10 {
            assert_eq!(
                slots.iter().filter(|&&x| x == s).count(),
                3,
                "second {s} must hold 3 slots: {slots:?}"
            );
        }
    }

    #[test]
    fn schedule_reanchors_cleanly_after_idle_gap() {
        let mut b = RateBudget::new(3.0, 0);
        b.next_slot(0);
        b.next_slot(0);
        // Jump ahead: the phase of the old schedule must not leak into the
        // new alignment.
        assert_eq!(b.next_slot(100), 100);
        let slots: Vec<SimTime> = (0..3).map(|_| b.next_slot(100)).collect();
        assert_eq!(slots, vec![100, 100, 101]);
    }

    #[test]
    fn capacity_math() {
        let b = RateBudget::new(100.0, 0);
        assert_eq!(b.capacity(300.0), 30_000);
    }
}
