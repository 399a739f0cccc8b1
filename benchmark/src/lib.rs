//! The repo's one benchmark (`BENCHMARK.json` at the repository root).
//!
//! Four named workloads drive `manic-rs` through the public functions of its
//! crates and through the public `manic_obs::registry()` counters — nothing
//! inside the program is instrumented. An untraced run yields the end-to-end
//! metrics; a traced run of the same workload records a span around every
//! call into a layer, reads the program's own counters at the same
//! boundaries, runs the per-layer drills after the timed window, and yields
//! the per-layer ledger. `README.md` beside this crate says what each metric
//! means on each workload and which end-to-end number it should move.

pub mod catalog;
pub mod countvfs;
pub mod drills;
pub mod http;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod world;

use std::collections::BTreeMap;

/// One invocation, as the driver passes it.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: workloads::Workload,
    pub seed: u64,
    /// Length of the timed window. Counted workloads turn it into a whole
    /// number of fixed blocks ([`Options::blocks`]) so that the same
    /// `--seconds` means the same work on every commit.
    pub seconds: u64,
    pub trace: bool,
    /// Library world to run on instead of the workload's own (README sizing
    /// commands; the sim-1k smoke test).
    pub world: Option<String>,
}

impl Options {
    /// Fixed blocks in the timed window: one per ten seconds asked for,
    /// rounded to nearest, at least one. Block sizes are set per workload so
    /// that one block takes about ten seconds on the reference box.
    pub fn blocks(&self) -> u64 {
        ((self.seconds + 5) / 10).max(1)
    }
}

/// A run that could not produce numbers at all (no port, no temp dir, fixed
/// count not reached): reported with its counts and a non-zero exit, never
/// as partial metrics.
#[derive(Debug)]
pub struct Abort {
    pub attempted: u64,
    pub failed: u64,
    pub reason: String,
}

impl Abort {
    pub fn setup(reason: impl Into<String>) -> Self {
        Abort {
            attempted: 1,
            failed: 1,
            reason: reason.into(),
        }
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Human-readable lines: check results, hashes, tails with their sample
    /// counts. Printed before the metrics, never parsed.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Record a metric. The name must be in the catalogue: a typo here would
    /// otherwise print as a silent zero.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::unit_of(name).is_some(),
            "metric '{name}' is not in the catalogue"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// A metric's value; per-layer metrics a workload never touched read 0.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn is_set(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Record an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl std::fmt::Display) {
        self.notes.push(format!(
            "check {what}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        ));
        self.correct &= ok;
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}
