//! The measurement system (Figure 1 of the paper).
//!
//! `manic-core` wires the substrate and the tools into the system the paper
//! describes: vantage points running bdrmap cycles in the background,
//! TSLP probing every five minutes against the maintained probing state,
//! reactive loss probing, a time-series backend, and the inference pipeline
//! that turns raw latency series into per-day, per-link congestion
//! estimates merged across VPs.
//!
//! Two execution modes share all of that logic:
//!
//! * **packet mode** ([`System::run_packet_mode`]) — every probe is
//!   individually forwarded through the simulator and lands in the tsdb;
//!   used for the day-scale experiments (Figure 3/6 time series) and tests;
//! * **fluid mode** ([`longitudinal`]) — the probing layer synthesizes
//!   exactly the min-per-bin statistics the packet mode would have stored
//!   (see `manic_probing::path`), which is what makes the 22-month §6
//!   studies tractable.

pub mod checkpoint;
pub(crate) mod engine;
pub mod health;
pub mod longitudinal;
pub(crate) mod obs;
pub mod system;

pub use checkpoint::{
    has_checkpoint, recover_report, resume, Durable, DurabilityConfig, RecoverReport, ResumeInfo,
    StorageFindings, CHECKPOINT_VERSION,
};
pub use health::{Backoff, HealthState, TaskHealth, VpSupervisor};
pub use longitudinal::{run_longitudinal, run_longitudinal_detailed, LinkDays, LongitudinalConfig, LongitudinalOutput, VpLinkDays};
pub use system::{LinkStatus, System, SystemConfig, TaskHealthStatus, VpRuntime};
