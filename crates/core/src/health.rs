//! Per-task health machine: bounded retries with backoff instead of
//! probing into the void.
//!
//! The production system coexisted with tasks going dark for many reasons —
//! interface silence, router reboots, renumbering, rate limiting — most of
//! them transient. Probing a dark task at full cadence wastes budget and,
//! worse, writes junk into the series. Each TSLP task therefore carries a
//! small state machine:
//!
//! ```text
//!          misses >= degrade_after        misses >= quarantine_after
//! Healthy ─────────────────────► Degraded ─────────────────────► Quarantined
//!    ▲                              │  ▲                            │   │
//!    └── oks >= probation_rounds ───┘  └──── re-probe answers ──────┘   │
//!                                                                       │
//!                     quarantines > max_quarantines                     ▼
//!                Retired ◄──────────────────────────────────── (re-quarantine,
//!            (until the next bdrmap cycle                        backoff × 2)
//!             rebuilds the probing set)
//! ```
//!
//! While `Quarantined`, the task is skipped until its exponential backoff
//! (with deterministic jitter, so re-probes from different tasks do not
//! synchronize into bursts) expires; the single re-probe round then decides
//! between recovery and a doubled backoff. `Retired` tasks stop consuming
//! budget entirely until a bdrmap cycle rebuilds the probing set.

use manic_netsim::noise;
use manic_netsim::time::SimTime;

/// Health of one probing task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Far end answering normally.
    Healthy,
    /// Consecutive far-end misses crossed the degrade threshold; still
    /// probed every round, but on probation.
    Degraded,
    /// Dark long enough to stop probing; retried after a backoff.
    Quarantined,
    /// Quarantined too many times; parked until the next bdrmap cycle.
    Retired,
}

impl HealthState {
    /// Stable snake_case label (metric labels, journal fields).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Retired => "retired",
        }
    }

    /// Inverse of [`Self::as_str`] (checkpoint deserialization).
    pub fn parse(s: &str) -> Option<HealthState> {
        use HealthState::*;
        [Healthy, Degraded, Quarantined, Retired].into_iter().find(|h| h.as_str() == s)
    }
}

/// Thresholds and backoff shape of the health machine.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Consecutive far-end misses before `Healthy -> Degraded`.
    pub degrade_after: u32,
    /// Consecutive far-end misses before `Degraded -> Quarantined`.
    pub quarantine_after: u32,
    /// First quarantine backoff; doubles on each re-quarantine.
    pub base_backoff_secs: i64,
    /// Backoff ceiling.
    pub max_backoff_secs: i64,
    /// Consecutive answered rounds before `Degraded -> Healthy`.
    pub probation_rounds: u32,
    /// Quarantine entries beyond this retire the task.
    pub max_quarantines: u32,
    /// Jitter on the backoff expiry, as a fraction of the backoff.
    pub jitter_frac: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            degrade_after: 2,
            quarantine_after: 4,
            base_backoff_secs: 900,
            max_backoff_secs: 7_200,
            probation_rounds: 2,
            max_quarantines: 3,
            jitter_frac: 0.25,
        }
    }
}

/// Health-machine state of one task.
#[derive(Debug, Clone)]
pub struct TaskHealth {
    pub state: HealthState,
    /// Consecutive rounds without a valid far-end response.
    misses: u32,
    /// Consecutive answered rounds while on probation.
    oks: u32,
    /// While quarantined: do not probe before this time.
    backoff_until: SimTime,
    /// Current backoff length (doubles per re-quarantine).
    backoff_secs: i64,
    /// Times this task entered quarantine since its last reset.
    pub quarantines: u32,
}

impl Default for TaskHealth {
    fn default() -> Self {
        TaskHealth {
            state: HealthState::Healthy,
            misses: 0,
            oks: 0,
            backoff_until: SimTime::MIN,
            backoff_secs: 0,
            quarantines: 0,
        }
    }
}

impl TaskHealth {
    pub fn new() -> Self {
        TaskHealth::default()
    }

    /// Should the task be probed in the round starting at `t`?
    pub fn should_probe(&self, t: SimTime) -> bool {
        match self.state {
            HealthState::Healthy | HealthState::Degraded => true,
            HealthState::Quarantined => t >= self.backoff_until,
            HealthState::Retired => false,
        }
    }

    /// Is the task's series trustworthy this round? Anything past `Healthy`
    /// gets its window annotated so inference masks it.
    pub fn is_suspect(&self) -> bool {
        self.state != HealthState::Healthy
    }

    /// Fold in one probed round's far-end outcome at time `t`.
    ///
    /// `seed`/`stream` feed the deterministic backoff jitter: pass the
    /// simulation seed and a per-task stream (e.g. hashed far IP) so
    /// distinct tasks desynchronize but a rerun reproduces exactly.
    pub fn observe(&mut self, far_ok: bool, t: SimTime, cfg: &HealthConfig, seed: u64, stream: u64) {
        match self.state {
            HealthState::Healthy => {
                if far_ok {
                    self.misses = 0;
                } else {
                    self.misses += 1;
                    if self.misses >= cfg.degrade_after {
                        self.state = HealthState::Degraded;
                        self.oks = 0;
                    }
                }
            }
            HealthState::Degraded => {
                if far_ok {
                    self.oks += 1;
                    if self.oks >= cfg.probation_rounds {
                        self.state = HealthState::Healthy;
                        self.misses = 0;
                    }
                } else {
                    self.oks = 0;
                    self.misses += 1;
                    if self.misses >= cfg.quarantine_after {
                        self.enter_quarantine(t, cfg, seed, stream);
                    }
                }
            }
            HealthState::Quarantined => {
                // Only reached on the re-probe round after backoff expiry.
                if far_ok {
                    self.state = HealthState::Degraded;
                    self.misses = 0;
                    self.oks = 1;
                } else {
                    self.enter_quarantine(t, cfg, seed, stream);
                }
            }
            HealthState::Retired => {}
        }
    }

    /// Checkpoint serialization: every field of the machine, in declaration
    /// order — `(state, misses, oks, backoff_until, backoff_secs,
    /// quarantines)`.
    pub fn to_parts(&self) -> (HealthState, u32, u32, SimTime, i64, u32) {
        (self.state, self.misses, self.oks, self.backoff_until, self.backoff_secs, self.quarantines)
    }

    /// Rebuild from [`Self::to_parts`] output; a resumed machine continues
    /// exactly where the checkpointed one stopped.
    pub fn from_parts(
        state: HealthState,
        misses: u32,
        oks: u32,
        backoff_until: SimTime,
        backoff_secs: i64,
        quarantines: u32,
    ) -> TaskHealth {
        TaskHealth { state, misses, oks, backoff_until, backoff_secs, quarantines }
    }

    fn enter_quarantine(&mut self, t: SimTime, cfg: &HealthConfig, seed: u64, stream: u64) {
        self.quarantines += 1;
        if self.quarantines > cfg.max_quarantines {
            self.state = HealthState::Retired;
            return;
        }
        self.state = HealthState::Quarantined;
        self.backoff_secs = if self.backoff_secs == 0 {
            cfg.base_backoff_secs
        } else {
            (self.backoff_secs * 2).min(cfg.max_backoff_secs)
        };
        let jitter = noise::uniform(seed ^ 0x4EA1, stream, self.quarantines as u64)
            * cfg.jitter_frac
            * self.backoff_secs as f64;
        self.backoff_until = t + self.backoff_secs + jitter as i64;
        self.misses = 0;
    }
}

/// Worker-supervision thresholds: what a panicking or deadline-blowing VP
/// round costs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Strikes beyond this retire the VP (panics are not transient noise:
    /// a worker that keeps crashing on the same state will keep crashing).
    pub max_strikes: u32,
    /// First quarantine backoff; doubles per strike.
    pub base_backoff_secs: i64,
    /// Backoff ceiling.
    pub max_backoff_secs: i64,
    /// Per-VP round deadline in wall-clock milliseconds; a round that
    /// overruns it counts as a watchdog strike. `None` disables the
    /// watchdog (the default — wall-clock deadlines are inherently
    /// non-deterministic, so they are an operational safety net, not part
    /// of the reproducibility contract).
    pub round_deadline_ms: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_strikes: 3,
            base_backoff_secs: 1_800,
            max_backoff_secs: 12 * 3_600,
            round_deadline_ms: None,
        }
    }
}

/// Supervision state of one VP worker: strike-based quarantine with
/// exponential backoff, mirroring the per-task [`TaskHealth`] machine one
/// level up. A caught panic (or a watchdog overrun) is a strike; a struck
/// VP sits out rounds until its backoff expires, and too many strikes
/// retire it until the operator intervenes.
#[derive(Debug, Clone)]
pub struct VpSupervisor {
    /// Panics / watchdog overruns since the VP was created (or restored).
    pub strikes: u32,
    /// While quarantined: do not run rounds before this sim time.
    pub quarantined_until: SimTime,
    /// Current backoff length (doubles per strike).
    backoff_secs: i64,
    /// Struck out: the VP no longer runs rounds at all.
    pub retired: bool,
}

impl Default for VpSupervisor {
    fn default() -> Self {
        VpSupervisor {
            strikes: 0,
            quarantined_until: SimTime::MIN,
            backoff_secs: 0,
            retired: false,
        }
    }
}

impl VpSupervisor {
    pub fn new() -> Self {
        VpSupervisor::default()
    }

    /// May this VP's round run at `t`?
    pub fn may_run(&self, t: SimTime) -> bool {
        !self.retired && t >= self.quarantined_until
    }

    /// Is the VP currently being held out (quarantined or retired)?
    pub fn is_isolated(&self, t: SimTime) -> bool {
        !self.may_run(t)
    }

    /// Record one strike at `t`. Returns the state the VP lands in
    /// ([`HealthState::Quarantined`] or [`HealthState::Retired`]) so the
    /// caller can meter the transition.
    pub fn strike(&mut self, t: SimTime, cfg: &SupervisorConfig) -> HealthState {
        self.strikes += 1;
        if self.strikes > cfg.max_strikes {
            self.retired = true;
            return HealthState::Retired;
        }
        self.backoff_secs = if self.backoff_secs == 0 {
            cfg.base_backoff_secs
        } else {
            (self.backoff_secs * 2).min(cfg.max_backoff_secs)
        };
        self.quarantined_until = t + self.backoff_secs;
        HealthState::Quarantined
    }

    /// Checkpoint serialization: `(strikes, quarantined_until,
    /// backoff_secs, retired)`.
    pub fn to_parts(&self) -> (u32, SimTime, i64, bool) {
        (self.strikes, self.quarantined_until, self.backoff_secs, self.retired)
    }

    /// Rebuild from [`Self::to_parts`] output.
    pub fn from_parts(strikes: u32, quarantined_until: SimTime, backoff_secs: i64, retired: bool) -> Self {
        VpSupervisor { strikes, quarantined_until, backoff_secs, retired }
    }
}

/// Bounded-retry backoff for a whole bdrmap cycle: when a cycle produces an
/// empty probing set (the VP's view collapsed — uplink outage, first-hop
/// reboot), retry on an exponential schedule instead of hammering or
/// sleeping a full `bdrmap_cycle_days`.
#[derive(Debug, Clone)]
pub struct CycleBackoff {
    /// Consecutive failed cycles.
    pub failures: u32,
    /// Do not re-attempt before this time.
    pub next_attempt: SimTime,
    base_secs: i64,
    max_secs: i64,
}

impl CycleBackoff {
    pub fn new(base_secs: i64, max_secs: i64) -> Self {
        CycleBackoff { failures: 0, next_attempt: SimTime::MIN, base_secs, max_secs }
    }

    pub fn may_attempt(&self, t: SimTime) -> bool {
        t >= self.next_attempt
    }

    pub fn note_success(&mut self) {
        self.failures = 0;
        self.next_attempt = SimTime::MIN;
    }

    pub fn note_failure(&mut self, t: SimTime) {
        self.failures += 1;
        let shift = (self.failures - 1).min(16);
        let delay = self.base_secs.saturating_mul(1 << shift).min(self.max_secs);
        self.next_attempt = t + delay;
    }

    /// Checkpoint serialization: `(failures, next_attempt, base_secs,
    /// max_secs)`.
    pub fn to_parts(&self) -> (u32, SimTime, i64, i64) {
        (self.failures, self.next_attempt, self.base_secs, self.max_secs)
    }

    /// Rebuild from [`Self::to_parts`] output.
    pub fn from_parts(failures: u32, next_attempt: SimTime, base_secs: i64, max_secs: i64) -> Self {
        CycleBackoff { failures, next_attempt, base_secs, max_secs }
    }
}

impl Default for CycleBackoff {
    fn default() -> Self {
        // First retry after 30 minutes, doubling to a 12-hour ceiling.
        CycleBackoff::new(1_800, 12 * 3_600)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig::default()
    }

    #[test]
    fn healthy_until_degrade_threshold() {
        let mut h = TaskHealth::new();
        h.observe(false, 0, &cfg(), 1, 1);
        assert_eq!(h.state, HealthState::Healthy, "one miss tolerated");
        h.observe(false, 300, &cfg(), 1, 1);
        assert_eq!(h.state, HealthState::Degraded);
        assert!(h.should_probe(600), "degraded tasks still probed");
        assert!(h.is_suspect());
    }

    #[test]
    fn probation_recovers_to_healthy() {
        let mut h = TaskHealth::new();
        for t in 0..2 {
            h.observe(false, t * 300, &cfg(), 1, 1);
        }
        assert_eq!(h.state, HealthState::Degraded);
        h.observe(true, 600, &cfg(), 1, 1);
        assert_eq!(h.state, HealthState::Degraded, "one ok is not enough");
        h.observe(true, 900, &cfg(), 1, 1);
        assert_eq!(h.state, HealthState::Healthy);
        assert!(!h.is_suspect());
    }

    #[test]
    fn quarantine_applies_backoff_and_jitter() {
        let mut h = TaskHealth::new();
        for t in 0..4i64 {
            h.observe(false, t * 300, &cfg(), 1, 1);
        }
        assert_eq!(h.state, HealthState::Quarantined);
        assert_eq!(h.quarantines, 1);
        // Backoff: not probed right away, probed after base + jitter.
        assert!(!h.should_probe(900 + 300));
        let horizon = 900 + cfg().base_backoff_secs + (cfg().base_backoff_secs as f64 * cfg().jitter_frac) as i64 + 1;
        assert!(h.should_probe(horizon));
        // Distinct streams get distinct jitter (desynchronized re-probes).
        let mut h2 = TaskHealth::new();
        for t in 0..4i64 {
            h2.observe(false, t * 300, &cfg(), 1, 2);
        }
        assert_ne!(h.backoff_until, h2.backoff_until, "jitter differs per stream");
    }

    #[test]
    fn requarantine_doubles_backoff_then_retires() {
        let c = cfg();
        let mut h = TaskHealth::new();
        let mut t = 0i64;
        for _ in 0..4 {
            h.observe(false, t, &c, 1, 1);
            t += 300;
        }
        assert_eq!(h.state, HealthState::Quarantined);
        let first_backoff = h.backoff_secs;
        assert_eq!(first_backoff, c.base_backoff_secs);
        // Re-probe fails twice more: backoff doubles, then the task retires.
        t = h.backoff_until + 1;
        h.observe(false, t, &c, 1, 1);
        assert_eq!(h.state, HealthState::Quarantined);
        assert_eq!(h.backoff_secs, 2 * first_backoff);
        t = h.backoff_until + 1;
        h.observe(false, t, &c, 1, 1);
        assert_eq!(h.quarantines, 3);
        t = h.backoff_until + 1;
        h.observe(false, t, &c, 1, 1);
        assert_eq!(h.state, HealthState::Retired, "4th quarantine > max of 3");
        assert!(!h.should_probe(t + 1_000_000));
    }

    #[test]
    fn quarantined_task_recovers_through_probation() {
        let c = cfg();
        let mut h = TaskHealth::new();
        for t in 0..4i64 {
            h.observe(false, t * 300, &c, 1, 1);
        }
        let t = h.backoff_until + 1;
        h.observe(true, t, &c, 1, 1);
        assert_eq!(h.state, HealthState::Degraded, "re-probe success -> probation");
        h.observe(true, t + 300, &c, 1, 1);
        assert_eq!(h.state, HealthState::Healthy);
    }

    #[test]
    fn backoff_caps_at_max() {
        let c = HealthConfig { max_backoff_secs: 1_000, ..cfg() };
        let mut h = TaskHealth::new();
        let mut t = 0i64;
        for _ in 0..4 {
            h.observe(false, t, &c, 1, 1);
            t += 300;
        }
        for _ in 0..1 {
            t = h.backoff_until + 1;
            h.observe(false, t, &c, 1, 1);
        }
        assert!(h.backoff_secs <= 1_000);
    }

    #[test]
    fn cycle_backoff_doubles_and_resets() {
        let mut b = CycleBackoff::new(100, 1_000);
        assert!(b.may_attempt(0));
        b.note_failure(0);
        assert!(!b.may_attempt(99));
        assert!(b.may_attempt(100));
        b.note_failure(100);
        assert_eq!(b.next_attempt, 300, "2nd failure: +200");
        b.note_failure(300);
        assert_eq!(b.next_attempt, 700, "3rd failure: +400");
        for k in 0..20 {
            b.note_failure(1_000 + k);
        }
        assert!(b.next_attempt <= 1_019 + 1_000, "delay capped");
        b.note_success();
        assert!(b.may_attempt(0));
        assert_eq!(b.failures, 0);
    }
}
