//! Durability/recovery status for `/api/health`.
//!
//! When the serve process runs with a `--data-dir`, operators need to see
//! the persistence layer's frontier without shelling into the host: which
//! fsync policy is in force, whether this process resumed from a
//! checkpoint (and how much WAL tail it discarded), where the last
//! checkpoint sits, and how many rounds of work would be re-executed if
//! the process died right now (`lag_rounds`). The measurement loop updates
//! the shared handle with plain atomics; the render is a small JSON object
//! spliced into the pre-rendered health snapshot.

use manic_obs::JsonWriter;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Shared durability frontier, written by the measurement loop and read by
/// the health endpoint.
#[derive(Debug)]
pub struct DurabilityStatus {
    /// Fsync policy string (`always` / `every-<n>` / `never`); fixed for
    /// the process lifetime.
    policy: String,
    /// This process restored its state from a checkpoint.
    resumed: AtomicBool,
    /// Rounds restored by the resume (0 when fresh).
    recovered_rounds: AtomicU64,
    /// Intact post-checkpoint WAL records discarded on resume.
    tail_discarded: AtomicU64,
    /// Wall-clock recovery time, ms (f64 bits).
    recovery_ms_bits: AtomicU64,
    /// Last checkpoint: round counter and sim time.
    checkpoint_rounds: AtomicU64,
    checkpoint_t: AtomicI64,
    /// Rounds executed so far (checkpointed or not).
    rounds: AtomicU64,
    /// WAL is in ENOSPC-degraded mode (raw samples shed, verdict-critical
    /// records still persisted).
    storage_degraded: AtomicBool,
    /// Corruption findings from the resume path (see
    /// [`manic_core::StorageFindings`]).
    fallback_generations: AtomicU64,
    bad_metas: AtomicU64,
    healed_snapshot: AtomicBool,
    quarantined_frames: AtomicU64,
    quarantined_bytes: AtomicU64,
    gap_windows: AtomicU64,
}

impl DurabilityStatus {
    pub fn new(policy: &str) -> Self {
        DurabilityStatus {
            policy: policy.to_string(),
            resumed: AtomicBool::new(false),
            recovered_rounds: AtomicU64::new(0),
            tail_discarded: AtomicU64::new(0),
            recovery_ms_bits: AtomicU64::new(0f64.to_bits()),
            checkpoint_rounds: AtomicU64::new(0),
            checkpoint_t: AtomicI64::new(0),
            rounds: AtomicU64::new(0),
            storage_degraded: AtomicBool::new(false),
            fallback_generations: AtomicU64::new(0),
            bad_metas: AtomicU64::new(0),
            healed_snapshot: AtomicBool::new(false),
            quarantined_frames: AtomicU64::new(0),
            quarantined_bytes: AtomicU64::new(0),
            gap_windows: AtomicU64::new(0),
        }
    }

    /// Record that this process resumed from a checkpoint.
    pub fn note_recovery(&self, rounds: u64, tail_discarded: u64, recovery_ms: f64) {
        self.resumed.store(true, Ordering::Relaxed);
        self.recovered_rounds.store(rounds, Ordering::Relaxed);
        self.tail_discarded.store(tail_discarded, Ordering::Relaxed);
        self.recovery_ms_bits.store(recovery_ms.to_bits(), Ordering::Relaxed);
        self.rounds.store(rounds, Ordering::Relaxed);
        self.checkpoint_rounds.store(rounds, Ordering::Relaxed);
    }

    /// A checkpoint was written at round `rounds`, sim time `t`.
    pub fn note_checkpoint(&self, rounds: u64, t: i64) {
        self.checkpoint_rounds.store(rounds, Ordering::Relaxed);
        self.checkpoint_t.store(t, Ordering::Relaxed);
        self.rounds.fetch_max(rounds, Ordering::Relaxed);
    }

    /// Round `rounds` finished executing (checkpointed or not).
    pub fn note_progress(&self, rounds: u64) {
        self.rounds.fetch_max(rounds, Ordering::Relaxed);
    }

    /// Record the corruption findings the resume path worked around.
    pub fn note_storage_findings(&self, f: &manic_core::StorageFindings) {
        self.fallback_generations.store(f.fallback_generations, Ordering::Relaxed);
        self.bad_metas.store(f.bad_metas, Ordering::Relaxed);
        self.healed_snapshot.store(f.healed_snapshot, Ordering::Relaxed);
        self.quarantined_frames.store(f.quarantined_frames, Ordering::Relaxed);
        self.quarantined_bytes.store(f.quarantined_bytes, Ordering::Relaxed);
        self.gap_windows.store(f.gap_windows, Ordering::Relaxed);
    }

    /// Track the WAL's ENOSPC-degraded mode (polled by the measurement
    /// loop; flips back to `false` once appends succeed again).
    pub fn set_storage_degraded(&self, degraded: bool) {
        self.storage_degraded.store(degraded, Ordering::Relaxed);
    }

    /// Rounds of work a crash right now would have to re-execute.
    pub fn lag_rounds(&self) -> u64 {
        self.rounds
            .load(Ordering::Relaxed)
            .saturating_sub(self.checkpoint_rounds.load(Ordering::Relaxed))
    }

    /// Render as a JSON object (the `durability` field of `/api/health`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// [`Self::to_json`] into a document under construction.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let flag = |a: &AtomicBool| a.load(Ordering::Relaxed);
        let checkpoint_rounds = load(&self.checkpoint_rounds);
        w.begin_object().key("enabled").bool(true).key("policy").str(&self.policy);
        w.key("resumed").bool(flag(&self.resumed));
        w.key("recovered_rounds").int(load(&self.recovered_rounds));
        w.key("tail_discarded").int(load(&self.tail_discarded));
        w.key("recovery_ms").f64_fixed(f64::from_bits(load(&self.recovery_ms_bits)), 3);
        w.key("checkpoint_rounds").int(checkpoint_rounds);
        w.key("checkpoint_t").int(self.checkpoint_t.load(Ordering::Relaxed));
        w.key("rounds").int(load(&self.rounds)).key("lag_rounds").int(self.lag_rounds());
        w.key("storage").begin_object().key("degraded").bool(flag(&self.storage_degraded));
        w.key("fallback_generations").int(load(&self.fallback_generations));
        w.key("bad_metas").int(load(&self.bad_metas));
        w.key("healed_snapshot").bool(flag(&self.healed_snapshot));
        w.key("quarantined_frames").int(load(&self.quarantined_frames));
        w.key("quarantined_bytes").int(load(&self.quarantined_bytes));
        w.key("gap_windows").int(load(&self.gap_windows));
        w.key("checkpoint_generation").int(checkpoint_rounds).end_object().end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_reflects_lifecycle() {
        let d = DurabilityStatus::new("every-64");
        assert!(d.to_json().contains("\"resumed\":false"));
        assert_eq!(d.lag_rounds(), 0);
        d.note_recovery(20, 3, 12.5);
        d.note_progress(25);
        assert_eq!(d.lag_rounds(), 5);
        let j = d.to_json();
        assert!(j.contains("\"resumed\":true"), "{j}");
        assert!(j.contains("\"recovered_rounds\":20"), "{j}");
        assert!(j.contains("\"tail_discarded\":3"), "{j}");
        assert!(j.contains("\"lag_rounds\":5"), "{j}");
        d.note_checkpoint(25, 7500);
        assert_eq!(d.lag_rounds(), 0);
        assert!(d.to_json().contains("\"checkpoint_t\":7500"));
    }

    #[test]
    fn storage_block_reflects_findings() {
        let d = DurabilityStatus::new("always");
        let j = d.to_json();
        assert!(j.contains("\"storage\":{\"degraded\":false"), "{j}");
        assert!(j.contains("\"healed_snapshot\":false"), "{j}");

        let f = manic_core::StorageFindings {
            fallback_generations: 1,
            healed_snapshot: true,
            quarantined_frames: 2,
            quarantined_bytes: 96,
            gap_windows: 4,
            ..Default::default()
        };
        d.note_storage_findings(&f);
        d.set_storage_degraded(true);
        d.note_checkpoint(40, 12_000);
        let j = d.to_json();
        assert!(j.contains("\"degraded\":true"), "{j}");
        assert!(j.contains("\"fallback_generations\":1"), "{j}");
        assert!(j.contains("\"healed_snapshot\":true"), "{j}");
        assert!(j.contains("\"quarantined_frames\":2"), "{j}");
        assert!(j.contains("\"quarantined_bytes\":96"), "{j}");
        assert!(j.contains("\"gap_windows\":4"), "{j}");
        assert!(j.contains("\"checkpoint_generation\":40"), "{j}");
    }
}
