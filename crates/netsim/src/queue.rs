//! Utilization → queueing-delay / loss mapping.
//!
//! A congested interdomain link shows the TSLP signature the paper relies
//! on: during peak hours the router buffer in the overloaded direction fills,
//! adding a roughly constant standing-queue delay (bounded by the buffer
//! size) and dropping the excess demand. This module converts a fluid
//! utilization figure into `(queue delay, loss probability)`:
//!
//! * below `onset` utilization: negligible stochastic queueing;
//! * between `onset` and 1.0: partial queue that ramps toward the buffer;
//! * at or above 1.0: full standing queue (`buffer_ms`) and loss equal to
//!   the overload fraction `1 − 1/u` — the drops a FIFO tail-drop buffer
//!   imposes when offered load exceeds capacity.

use crate::noise;
use crate::time::SimTime;

/// Instantaneous state of one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkState {
    /// Offered load / capacity (can exceed 1).
    pub utilization: f64,
    /// Standing queue delay experienced by a packet crossing now, ms.
    pub queue_ms: f64,
    /// Probability that a packet crossing now is dropped.
    pub loss: f64,
}

impl LinkState {
    /// An idle link.
    pub fn idle() -> Self {
        LinkState { utilization: 0.0, queue_ms: 0.0, loss: 0.0 }
    }
}

/// Parameters of the queue model.
#[derive(Debug, Clone, Copy)]
pub struct QueueModel {
    /// Maximum standing-queue delay (buffer depth in time units), ms.
    /// Typical peering-router buffers add tens of milliseconds; the paper's
    /// Figure 3 shows ~30-50 ms of diurnal elevation.
    pub buffer_ms: f64,
    /// Utilization at which queueing delay becomes noticeable.
    pub onset: f64,
    /// Baseline loss floor (transient drops even when uncongested).
    pub base_loss: f64,
    /// Small random queueing jitter amplitude at low utilization, ms.
    pub jitter_ms: f64,
    /// Fraction of the raw overload (`1 - 1/u`) that manifests as packet
    /// loss. TCP senders back off against a full buffer, so a link whose
    /// *offered* demand exceeds capacity by 20% settles at ~100% utilization
    /// with a few percent loss, not 17% — the paper's Figure 3 shows 1-3.5%
    /// loss on a persistently congested link. 1.0 recovers the raw fluid
    /// drop rate (used by tests exercising the limit).
    pub overload_elasticity: f64,
}

impl Default for QueueModel {
    fn default() -> Self {
        QueueModel {
            buffer_ms: 40.0,
            onset: 0.90,
            base_loss: 1e-5,
            jitter_ms: 0.3,
            overload_elasticity: 0.2,
        }
    }
}

impl QueueModel {
    /// Map utilization to link state. `seed`/`stream` select the jitter noise
    /// stream (derive `stream` from the link id + direction); `t` indexes it:
    /// jitter varies per 5-minute noise bin, like the demand noise.
    pub fn state(&self, utilization: f64, seed: u64, stream: u64, t: SimTime) -> LinkState {
        self.state_mixed(utilization, seed, stream, noise::mix(t.div_euclid(noise::BIN_SECS) as u64))
    }

    /// [`Self::state`] in the noise bin whose `mix(bin)` is `mixed_bin` (a
    /// [`noise::BinColumn`] entry).
    pub fn state_mixed(&self, utilization: f64, seed: u64, stream: u64, mixed_bin: u64) -> LinkState {
        let u = utilization.max(0.0);
        let jitter = self.jitter_ms * noise::uniform_mixed(seed, stream ^ 0x9E11, mixed_bin);
        let (queue_ms, loss) = if u < self.onset {
            (jitter, self.base_loss)
        } else if u < 1.0 {
            // Partial standing queue: ramp from jitter to ~60% of the buffer
            // as utilization moves from onset to 1.0 (M/M/1-flavored blowup
            // truncated by the buffer).
            let frac = (u - self.onset) / (1.0 - self.onset);
            (jitter + 0.6 * self.buffer_ms * frac * frac, self.base_loss)
        } else {
            // Overload: full buffer plus (TCP-moderated) overload drops.
            let overload_loss = (1.0 - 1.0 / u) * self.overload_elasticity;
            (
                self.buffer_ms * (0.9 + 0.1 * noise::uniform_mixed(seed, stream ^ 0x51AB, mixed_bin)),
                (self.base_loss + overload_loss).min(1.0),
            )
        };
        LinkState { utilization: u, queue_ms, loss }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(u: f64) -> LinkState {
        QueueModel::default().state(u, 1, 2, 0)
    }

    #[test]
    fn idle_link_has_tiny_delay_and_loss() {
        let s = st(0.3);
        assert!(s.queue_ms < 0.5);
        assert!(s.loss < 1e-3);
    }

    #[test]
    fn delay_monotone_in_utilization() {
        // Same time bin -> same jitter draw, so the deterministic part must
        // be monotone.
        let us = [0.2, 0.5, 0.85, 0.92, 0.97, 1.0, 1.2];
        let states: Vec<f64> = us.iter().map(|&u| st(u).queue_ms).collect();
        for w in states.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "{states:?}");
        }
    }

    #[test]
    fn overload_fills_buffer_and_drops() {
        let q = QueueModel::default();
        let s = q.state(1.25, 1, 2, 0);
        assert!(s.queue_ms > 0.85 * q.buffer_ms);
        // (1 - 1/1.25) * 0.2 elasticity = 4% loss.
        assert!((s.loss - 0.04).abs() < 0.005, "loss={}", s.loss);
        // The raw fluid drop rate is recovered at elasticity 1.
        let raw = QueueModel { overload_elasticity: 1.0, ..q }.state(1.25, 1, 2, 0);
        assert!((raw.loss - 0.2).abs() < 0.01, "raw loss={}", raw.loss);
    }

    #[test]
    fn loss_capped_at_one() {
        let s = QueueModel::default().state(1e9, 1, 2, 0);
        assert!(s.loss <= 1.0);
    }

    #[test]
    fn deterministic_per_bin() {
        let q = QueueModel::default();
        // Same 5-minute bin -> identical state.
        assert_eq!(q.state(0.95, 7, 3, 100), q.state(0.95, 7, 3, 299));
        // Different bins may differ in jitter only.
        let a = q.state(0.5, 7, 3, 0);
        let b = q.state(0.5, 7, 3, 301);
        assert_eq!(a.loss, b.loss);
    }
}
