//! Metric handles for the storage layer's write-ahead log.

use manic_obs::{registry, Counter};
use std::sync::OnceLock;

pub(crate) struct Metrics {
    /// Records appended to the WAL / bytes written (frames included).
    pub wal_appends: Counter,
    pub wal_bytes: Counter,
    /// fsync calls issued by the group-commit policy.
    pub wal_fsyncs: Counter,
    /// Segment rotations.
    pub wal_rotations: Counter,
    /// Torn/corrupt frames fenced off during replay or reopen (each counts
    /// one truncation event — the bytes past it are unparseable).
    pub wal_torn_records: Counter,
    /// Records successfully replayed into a store.
    pub wal_replayed_records: Counter,
    /// Intact-but-unacknowledged tail records discarded when resuming from
    /// a checkpoint (they are regenerated by deterministic re-execution).
    pub wal_tail_discarded: Counter,
    /// Append-path failures (encode or I/O); the in-memory store proceeds.
    pub wal_write_errors: Counter,
    /// Raw samples shed (not persisted) while in ENOSPC-degraded mode.
    pub wal_shed_samples: Counter,
    /// Transitions into ENOSPC-degraded mode (shedding raw-sample frames
    /// while still persisting verdict-critical annotations).
    pub wal_degraded_enters: Counter,
    /// Bytes fenced off mid-file by resync replay (corrupt frame ranges
    /// skipped over, flagged as GAP windows rather than failing replay).
    pub wal_quarantined_bytes: Counter,
    /// GAP quality windows written over quarantined replay ranges.
    pub wal_gap_annotations: Counter,
}

static METRICS: OnceLock<Metrics> = OnceLock::new();

pub(crate) fn metrics() -> &'static Metrics {
    METRICS.get_or_init(|| {
        let r = registry();
        Metrics {
            wal_appends: r.counter("manic_tsdb_wal_appends"),
            wal_bytes: r.counter("manic_tsdb_wal_bytes"),
            wal_fsyncs: r.counter("manic_tsdb_wal_fsyncs"),
            wal_rotations: r.counter("manic_tsdb_wal_rotations"),
            wal_torn_records: r.counter("manic_tsdb_wal_torn_records"),
            wal_replayed_records: r.counter("manic_tsdb_wal_replayed_records"),
            wal_tail_discarded: r.counter("manic_tsdb_wal_tail_discarded"),
            wal_write_errors: r.counter("manic_tsdb_wal_write_errors"),
            wal_shed_samples: r.counter("manic_tsdb_wal_shed_samples"),
            wal_degraded_enters: r.counter("manic_tsdb_wal_degraded_enters"),
            wal_quarantined_bytes: r.counter("manic_tsdb_wal_quarantined_bytes"),
            wal_gap_annotations: r.counter("manic_tsdb_wal_gap_annotations"),
        }
    })
}
