//! Per-task health machine: bounded retries with backoff instead of
//! probing into the void.
//!
//! The production system coexisted with tasks going dark for many reasons —
//! interface silence, router reboots, renumbering, rate limiting — most of
//! them transient. Probing a dark task at full cadence wastes budget and,
//! worse, writes junk into the series. Each TSLP task therefore carries one
//! [`TaskHealth`] record, a small state machine plus a dark-round count:
//!
//! ```text
//!          misses >= DEGRADE_AFTER        misses >= QUARANTINE_AFTER
//! Healthy ─────────────────────► Degraded ─────────────────────► Quarantined
//!    ▲                              │  ▲                            │   │
//!    └── oks >= PROBATION_ROUNDS ───┘  └──── re-probe answers ──────┘   │
//!                                                                       │
//!                 backoff.count > MAX_QUARANTINES                       ▼
//!                Retired ◄──────────────────────────────────── (re-quarantine,
//!            (until the next bdrmap cycle                        backoff × 2)
//!             rebuilds the probing set)
//!
//!   dark_rounds: consecutive probed rounds without a valid far end, in
//!   every state ── >= reactive_mismatch_rounds ──► reactive bdrmap cycle
//!                                                  (clears every record)
//! ```
//!
//! While `Quarantined`, the task is skipped until its exponential backoff
//! (with deterministic jitter, so re-probes from different tasks do not
//! synchronize into bursts) expires; the single re-probe round then decides
//! between recovery and a doubled backoff. `Retired` tasks stop consuming
//! budget entirely until a bdrmap cycle rebuilds the probing set.
//!
//! Three machines back off: a quarantined task, a VP whose worker panicked
//! ([`VpSupervisor`]) and a VP whose bdrmap cycle came back empty. They
//! share one [`Backoff`], which derives its delay from a failure count; the
//! thresholds and schedules are the constants below.

use manic_netsim::noise;
use manic_netsim::time::SimTime;

/// Consecutive far-end misses before `Healthy -> Degraded`.
pub(crate) const DEGRADE_AFTER: u32 = 2;
/// Consecutive far-end misses before `Degraded -> Quarantined`.
pub(crate) const QUARANTINE_AFTER: u32 = 4;
/// Consecutive answered rounds before `Degraded -> Healthy`.
pub(crate) const PROBATION_ROUNDS: u32 = 2;
/// Quarantine entries beyond this retire the task.
pub(crate) const MAX_QUARANTINES: u32 = 3;
/// Jitter on a quarantine's expiry, as a fraction of its backoff.
pub(crate) const JITTER_FRAC: f64 = 0.25;
/// Strikes beyond this retire a VP (panics are not transient noise: a
/// worker that keeps crashing on the same state will keep crashing).
pub(crate) const MAX_STRIKES: u32 = 3;

/// `(base, max)` seconds of a quarantined task's backoff: 15 minutes,
/// doubling per re-quarantine to 2 hours.
pub(crate) const TASK_BACKOFF: (i64, i64) = (900, 7_200);
/// `(base, max)` seconds of a struck VP's backoff: 30 minutes, doubling per
/// strike to 12 hours.
pub(crate) const STRIKE_BACKOFF: (i64, i64) = (1_800, 12 * 3_600);
/// `(base, max)` seconds between empty bdrmap cycles: 30 minutes, doubling
/// to 12 hours, instead of hammering or sleeping a full
/// `BDRMAP_CYCLE_DAYS`.
pub(crate) const CYCLE_BACKOFF: (i64, i64) = (1_800, 12 * 3_600);

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

/// Exponential backoff derived from a failure count: the `count`-th
/// consecutive failure holds retries off for `min(base·2^(count−1), max)`
/// seconds of a `(base, max)` schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Consecutive failures: quarantines, strikes or empty cycles.
    pub count: u32,
    /// Do not retry before this time.
    pub until: SimTime,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            count: 0,
            until: SimTime::MIN,
        }
    }
}

impl Backoff {
    /// The delay the `count`-th failure earns; zero before the first.
    pub(crate) fn delay(count: u32, (base, max): (i64, i64)) -> i64 {
        match count {
            0 => 0,
            n => base.saturating_mul(1 << (n - 1).min(16)).min(max),
        }
    }

    pub(crate) fn may_attempt(&self, t: SimTime) -> bool {
        t >= self.until
    }

    /// Count one more failure at `t` and hold retries off for the delay the
    /// new count earns, stretched by `jitter` (a fraction of that delay).
    pub(crate) fn fail(&mut self, t: SimTime, schedule: (i64, i64), jitter: f64) {
        self.count += 1;
        let secs = Self::delay(self.count, schedule);
        self.until = t + secs + (jitter * secs as f64) as i64;
    }
}

/// Health record of one task: its machine, its dark-round count, and the
/// quarantine backoff (`backoff.count` is the number of quarantine entries
/// since the last bdrmap cycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskHealth {
    pub state: HealthState,
    /// Consecutive rounds without a valid far-end response (the machine's
    /// view: reset on quarantine entry and after probation).
    pub(crate) misses: u32,
    /// Consecutive answered rounds while on probation.
    pub(crate) oks: u32,
    /// Consecutive probed rounds without a valid far-end response, whatever
    /// the state: drives the reactive probing-set refresh.
    pub(crate) dark_rounds: u32,
    pub backoff: Backoff,
}

impl Default for TaskHealth {
    fn default() -> Self {
        TaskHealth {
            state: HealthState::Healthy,
            misses: 0,
            oks: 0,
            dark_rounds: 0,
            backoff: Backoff::default(),
        }
    }
}

impl TaskHealth {
    /// Should the task be probed in the round starting at `t`?
    pub fn should_probe(&self, t: SimTime) -> bool {
        match self.state {
            HealthState::Healthy | HealthState::Degraded => true,
            HealthState::Quarantined => self.backoff.may_attempt(t),
            HealthState::Retired => false,
        }
    }

    /// Fold in one probed round's far-end outcome at time `t`.
    ///
    /// `seed`/`stream` feed the deterministic backoff jitter: pass the
    /// simulation seed and a per-task stream (e.g. hashed far IP) so
    /// distinct tasks desynchronize but a rerun reproduces exactly.
    pub(crate) fn observe(&mut self, far_ok: bool, t: SimTime, seed: u64, stream: u64) {
        self.dark_rounds = if far_ok { 0 } else { self.dark_rounds + 1 };
        match self.state {
            HealthState::Healthy => {
                if far_ok {
                    self.misses = 0;
                } else {
                    self.misses += 1;
                    if self.misses >= DEGRADE_AFTER {
                        self.state = HealthState::Degraded;
                        self.oks = 0;
                    }
                }
            }
            HealthState::Degraded => {
                if far_ok {
                    self.oks += 1;
                    if self.oks >= PROBATION_ROUNDS {
                        self.state = HealthState::Healthy;
                        self.misses = 0;
                    }
                } else {
                    self.oks = 0;
                    self.misses += 1;
                    if self.misses >= QUARANTINE_AFTER {
                        self.enter_quarantine(t, seed, stream);
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
                    self.enter_quarantine(t, seed, stream);
                }
            }
            HealthState::Retired => {}
        }
    }

    fn enter_quarantine(&mut self, t: SimTime, seed: u64, stream: u64) {
        if self.backoff.count >= MAX_QUARANTINES {
            // Retiring keeps the last quarantine's expiry.
            self.backoff.count += 1;
            self.state = HealthState::Retired;
            return;
        }
        self.state = HealthState::Quarantined;
        let draw = noise::uniform(seed ^ 0x4EA1, stream, self.backoff.count as u64 + 1);
        self.backoff.fail(t, TASK_BACKOFF, draw * JITTER_FRAC);
        self.misses = 0;
    }
}

/// Supervision state of one VP worker: strike-based quarantine with
/// exponential backoff, mirroring the per-task [`TaskHealth`] machine one
/// level up. A caught panic is a strike (`backoff.count`); a struck VP sits
/// out rounds until its backoff expires, and more than `MAX_STRIKES`
/// retire it until the operator intervenes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VpSupervisor {
    pub(crate) backoff: Backoff,
}

impl VpSupervisor {
    /// Caught panics since the VP was created (or restored).
    pub fn strikes(&self) -> u32 {
        self.backoff.count
    }

    /// Struck out: the VP no longer runs rounds at all.
    pub fn retired(&self) -> bool {
        self.backoff.count > MAX_STRIKES
    }

    /// May this VP's round run at `t`?
    pub fn may_run(&self, t: SimTime) -> bool {
        !self.retired() && self.backoff.may_attempt(t)
    }

    /// Record one strike at `t`. Returns the state the VP lands in
    /// ([`HealthState::Quarantined`] or [`HealthState::Retired`]) so the
    /// caller can meter the transition.
    pub(crate) fn strike(&mut self, t: SimTime) -> HealthState {
        if self.backoff.count >= MAX_STRIKES {
            // Retiring keeps the last strike's expiry.
            self.backoff.count += 1;
            return HealthState::Retired;
        }
        self.backoff.fail(t, STRIKE_BACKOFF, 0.0);
        HealthState::Quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Observe `n` misses, one round apart, from `t`.
    fn misses(h: &mut TaskHealth, t: i64, n: i64, stream: u64) {
        for k in 0..n {
            h.observe(false, t + k * 300, 1, stream);
        }
    }

    #[test]
    fn healthy_until_degrade_threshold() {
        let mut h = TaskHealth::default();
        h.observe(false, 0, 1, 1);
        assert_eq!(h.state, HealthState::Healthy, "one miss tolerated");
        h.observe(false, 300, 1, 1);
        assert_eq!(h.state, HealthState::Degraded);
        assert!(h.should_probe(600), "degraded tasks still probed");
    }

    #[test]
    fn probation_recovers_to_healthy() {
        let mut h = TaskHealth::default();
        misses(&mut h, 0, 2, 1);
        assert_eq!(h.state, HealthState::Degraded);
        h.observe(true, 600, 1, 1);
        assert_eq!(h.state, HealthState::Degraded, "one ok is not enough");
        h.observe(true, 900, 1, 1);
        assert_eq!(h.state, HealthState::Healthy);
    }

    #[test]
    fn quarantine_applies_backoff_and_jitter() {
        let mut h = TaskHealth::default();
        misses(&mut h, 0, 4, 1);
        assert_eq!(h.state, HealthState::Quarantined);
        assert_eq!(h.backoff.count, 1);
        // Backoff: not probed right away, probed after base + jitter.
        assert!(!h.should_probe(900 + 300));
        let base = TASK_BACKOFF.0;
        assert!(h.should_probe(900 + base + (base as f64 * JITTER_FRAC) as i64 + 1));
        // Distinct streams get distinct jitter (desynchronized re-probes).
        let mut h2 = TaskHealth::default();
        misses(&mut h2, 0, 4, 2);
        assert_ne!(
            h.backoff.until, h2.backoff.until,
            "jitter differs per stream"
        );
    }

    #[test]
    fn requarantine_doubles_backoff_then_retires() {
        let mut h = TaskHealth::default();
        misses(&mut h, 0, 4, 1);
        assert_eq!(h.state, HealthState::Quarantined);
        // Re-probes fail: each backoff doubles, then the task retires.
        for n in 2..=MAX_QUARANTINES {
            let t = h.backoff.until + 1;
            h.observe(false, t, 1, 1);
            assert_eq!(h.state, HealthState::Quarantined);
            assert_eq!(h.backoff.count, n);
            assert!(h.backoff.until >= t + Backoff::delay(n, TASK_BACKOFF));
        }
        let expiry = h.backoff.until;
        h.observe(false, expiry + 1, 1, 1);
        assert_eq!(h.state, HealthState::Retired, "4th quarantine > max of 3");
        assert_eq!(h.backoff.until, expiry, "retiring keeps the last expiry");
        assert!(!h.should_probe(expiry + 1_000_000));
        assert_eq!(h.dark_rounds, 7, "every probed round was dark");
    }

    #[test]
    fn quarantined_task_recovers_through_probation() {
        let mut h = TaskHealth::default();
        misses(&mut h, 0, 4, 1);
        let t = h.backoff.until + 1;
        h.observe(true, t, 1, 1);
        assert_eq!(
            h.state,
            HealthState::Degraded,
            "re-probe success -> probation"
        );
        assert_eq!(h.dark_rounds, 0, "an answer ends the dark run");
        h.observe(true, t + 300, 1, 1);
        assert_eq!(h.state, HealthState::Healthy);
    }

    #[test]
    fn dark_rounds_count_every_probed_miss_in_any_state() {
        let mut h = TaskHealth::default();
        // Degraded with a probation answer in between: the machine's
        // `misses` survives the answer, the dark run does not.
        misses(&mut h, 0, 3, 1);
        h.observe(true, 900, 1, 1);
        assert_eq!((h.state, h.dark_rounds), (HealthState::Degraded, 0));
        misses(&mut h, 1_200, 1, 1);
        assert_eq!((h.state, h.dark_rounds), (HealthState::Quarantined, 1));
    }

    #[test]
    fn backoff_doubles_from_its_count_and_caps() {
        assert_eq!(Backoff::delay(0, (100, 1_000)), 0);
        let delays: Vec<i64> = (1..=6).map(|n| Backoff::delay(n, (100, 1_000))).collect();
        assert_eq!(delays, [100, 200, 400, 800, 1_000, 1_000]);
        assert_eq!(
            Backoff::delay(u32::MAX, CYCLE_BACKOFF),
            CYCLE_BACKOFF.1,
            "no overflow"
        );

        let mut b = Backoff::default();
        assert!(b.may_attempt(0));
        b.fail(0, (100, 1_000), 0.0);
        assert!(!b.may_attempt(99));
        assert!(b.may_attempt(100));
        b.fail(100, (100, 1_000), 0.0);
        assert_eq!(b.until, 300, "2nd failure: +200");
        b.fail(300, (100, 1_000), 0.5);
        assert_eq!(
            b.until,
            300 + 400 + 200,
            "3rd failure: +400, half of it jitter"
        );
    }

    #[test]
    fn supervisor_strikes_out_past_max_strikes() {
        let mut s = VpSupervisor::default();
        let mut t = 0;
        for n in 1..=MAX_STRIKES {
            assert_eq!(s.strike(t), HealthState::Quarantined);
            assert_eq!(s.backoff.until, t + Backoff::delay(n, STRIKE_BACKOFF));
            assert!(!s.may_run(s.backoff.until - 1) && s.may_run(s.backoff.until));
            t = s.backoff.until;
        }
        let expiry = s.backoff.until;
        assert_eq!(s.strike(t), HealthState::Retired);
        assert_eq!((s.strikes(), s.retired()), (MAX_STRIKES + 1, true));
        assert_eq!(s.backoff.until, expiry, "retiring keeps the last expiry");
        assert!(!s.may_run(t + 1_000_000));
    }
}
