//! `manic-obs`: zero-dependency observability for the MANIC reproduction.
//!
//! Three stores, each a process-wide singleton, all keyed to **sim time**
//! (seconds since the 2016-01-01 UTC epoch, the same clock every other crate
//! uses) rather than wall clock — a 22-month study replayed in 40 seconds
//! must journal events at the times they *happened in the simulation*:
//!
//! * [`registry()`] — atomic counters, gauges, and log-bucketed histograms,
//!   exported as Prometheus text or JSON. Names follow
//!   `manic_<crate>_<name>`; per-VP/per-reason breakdowns are labels.
//! * [`journal()`] — structured events (level, target, name, fields) in a
//!   bounded ring buffer, with an optional stderr echo. Emit via the
//!   [`event!`] macro.
//! * [`audit()`] — the inference audit trail: every congested/uncongested
//!   verdict with its evidence chain, queryable per link.
//!
//! Recording is always on. All three export JSON through [`JsonWriter`], as
//! does every served body and checkpoint meta.

pub mod audit;
pub mod journal;
pub mod json;
pub mod metrics;

pub use audit::{AuditRecord, AuditTrail, Evidence};
pub use journal::{Event, Journal, Level, Value};
pub use json::JsonWriter;
pub use metrics::{Counter, Gauge, Histogram, Registry};

use std::sync::OnceLock;

/// Convenience level constants so call sites can write
/// `obs::event!(obs::WARN, ...)` without importing `Level`.
pub const DEBUG: Level = Level::Debug;
pub const INFO: Level = Level::Info;
pub const WARN: Level = Level::Warn;
pub const ERROR: Level = Level::Error;

static REGISTRY: OnceLock<Registry> = OnceLock::new();
static JOURNAL: OnceLock<Journal> = OnceLock::new();
static AUDIT: OnceLock<AuditTrail> = OnceLock::new();

/// The process-wide metrics registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::default)
}

/// The process-wide event journal.
pub fn journal() -> &'static Journal {
    JOURNAL.get_or_init(Journal::default)
}

/// The process-wide inference audit trail.
pub fn audit() -> &'static AuditTrail {
    AUDIT.get_or_init(AuditTrail::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_stable() {
        let r1 = registry() as *const Registry;
        let r2 = registry() as *const Registry;
        assert_eq!(r1, r2);
        assert!(std::ptr::eq(journal(), journal()));
        assert!(std::ptr::eq(audit(), audit()));
    }
}
