//! Metric handles for the orchestration layer.
//!
//! Border-mapping counters carry the `manic_bdrmap_` prefix even though the
//! cycle driver lives here — the naming convention follows the subsystem
//! being measured, and `core::run_bdrmap_cycle` is where discovery/loss of
//! links is actually observable (the `manic-bdrmap` crate sees one cycle at
//! a time and cannot diff consecutive probing sets).

use crate::health::HealthState;
use manic_obs::{registry, Counter, Histogram};
use std::sync::OnceLock;

pub(crate) struct Metrics {
    /// bdrmap cycles executed / cycles that produced an empty probing set.
    pub bdrmap_cycles: Counter,
    pub bdrmap_cycles_empty: Counter,
    /// Interdomain links that (dis)appeared between consecutive cycles of
    /// the same VP.
    pub bdrmap_links_discovered: Counter,
    pub bdrmap_links_lost: Counter,
    /// Ally alias tests still indeterminate after all retries (silently
    /// degraded router grouping — previously invisible).
    pub ally_indeterminate: Counter,
    /// TSLP rounds driven by `run_packet_mode`.
    pub rounds: Counter,
    /// Rounds in which a due bdrmap cycle was held back by the empty-cycle
    /// backoff.
    pub backoff_waits: Counter,
    /// VPs withdrawn by host churn.
    pub vp_retired: Counter,
    /// Health-machine transitions, by destination state.
    pub health_to_healthy: Counter,
    pub health_to_degraded: Counter,
    pub health_to_quarantined: Counter,
    pub health_to_retired: Counter,
    /// Congested / clean verdicts recorded to the audit trail.
    pub verdicts_congested: Counter,
    pub verdicts_clean: Counter,
    /// Wall-clock time spent per simulated TSLP round. The serving layer's
    /// load tests watch this to prove query traffic does not slow the
    /// measurement loop.
    pub round_duration: Histogram,
    /// Wall-clock time the round engine spends committing staged per-VP
    /// results in VP-index order (the serialized tail of each round).
    pub commit_ms: Histogram,
    /// Checkpoints written / bytes persisted per checkpoint (snapshot +
    /// metadata) / WAL segments garbage-collected as acknowledged.
    pub checkpoint_writes: Counter,
    pub checkpoint_bytes: Counter,
    pub checkpoint_wal_gc_segments: Counter,
    pub checkpoint_write_ms: Histogram,
    /// Successful resumes from a checkpoint, and how long recovery took.
    pub recoveries: Counter,
    pub recovery_ms: Histogram,
    /// Periodic checkpoint writes that failed (run continues on the last
    /// good generation) / resume attempts that had to fall back a
    /// checkpoint generation / corrupt snapshots healed by replaying an
    /// older generation's snapshot plus further WAL.
    pub checkpoint_errors: Counter,
    pub generation_fallbacks: Counter,
    pub snapshot_heals: Counter,
    /// VP workers whose round panicked (caught and quarantined).
    pub vp_panics: Counter,
}

impl Metrics {
    pub fn health_transition(&self, to: HealthState) -> &Counter {
        match to {
            HealthState::Healthy => &self.health_to_healthy,
            HealthState::Degraded => &self.health_to_degraded,
            HealthState::Quarantined => &self.health_to_quarantined,
            HealthState::Retired => &self.health_to_retired,
        }
    }
}

static METRICS: OnceLock<Metrics> = OnceLock::new();

pub(crate) fn metrics() -> &'static Metrics {
    METRICS.get_or_init(|| {
        let r = registry();
        let health =
            |to| r.counter_labeled("manic_core_health_transitions", &[("to", to)]);
        Metrics {
            bdrmap_cycles: r.counter("manic_bdrmap_cycles"),
            bdrmap_cycles_empty: r.counter("manic_bdrmap_cycles_empty"),
            bdrmap_links_discovered: r.counter("manic_bdrmap_links_discovered"),
            bdrmap_links_lost: r.counter("manic_bdrmap_links_lost"),
            ally_indeterminate: r.counter("manic_core_ally_indeterminate"),
            rounds: r.counter("manic_core_rounds"),
            backoff_waits: r.counter("manic_core_backoff_waits"),
            vp_retired: r.counter("manic_core_vp_retired"),
            health_to_healthy: health("healthy"),
            health_to_degraded: health("degraded"),
            health_to_quarantined: health("quarantined"),
            health_to_retired: health("retired"),
            verdicts_congested: r.counter("manic_core_verdicts_congested"),
            verdicts_clean: r.counter("manic_core_verdicts_clean"),
            round_duration: r.histogram("manic_core_round_duration_ms"),
            commit_ms: r.histogram("manic_core_commit_ms"),
            checkpoint_writes: r.counter("manic_core_checkpoint_writes"),
            checkpoint_bytes: r.counter("manic_core_checkpoint_bytes"),
            checkpoint_wal_gc_segments: r.counter("manic_core_checkpoint_wal_gc_segments"),
            checkpoint_write_ms: r.histogram("manic_core_checkpoint_write_ms"),
            recoveries: r.counter("manic_core_checkpoint_recoveries"),
            recovery_ms: r.histogram("manic_core_checkpoint_recovery_ms"),
            checkpoint_errors: r.counter("manic_core_checkpoint_errors"),
            generation_fallbacks: r.counter("manic_core_generation_fallbacks"),
            snapshot_heals: r.counter("manic_core_snapshot_heals"),
            vp_panics: r.counter("manic_core_vp_panics"),
        }
    })
}
