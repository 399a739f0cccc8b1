//! Router ICMP generation behaviour.
//!
//! §7 ("Router Queueing Behavior") notes two confounders the system must
//! coexist with: routers that generate ICMP in a slow path (inflating
//! observed latency without any congestion) and routers that rate-limit
//! ICMP responses (the 64-85%-loss artifacts in Table 1's discussion).
//! Both behaviours are modeled per router here.

use crate::time::SimTime;

/// Per-router ICMP response behaviour.
#[derive(Debug, Clone, Copy)]
pub struct IcmpProfile {
    /// Baseline time to generate a time-exceeded/echo reply, ms.
    pub base_ms: f64,
    /// Probability a response takes the slow path.
    pub slow_path_prob: f64,
    /// Extra delay when the slow path is taken, ms.
    pub slow_path_ms: f64,
    /// ICMP responses per second allowed; `None` = unlimited.
    pub rate_limit_pps: Option<f64>,
    /// Token bucket burst size when rate limited.
    pub rate_limit_burst: f64,
    /// Probability the router silently ignores a probe (unresponsive hop).
    pub unresponsive_prob: f64,
    /// Episodic unresponsiveness: on a random fraction of days the router
    /// drops most ICMP generation (maintenance, control-plane pressure).
    /// This produces the paper's §5.1 confounder — "episodes of high far-end
    /// loss uncorrelated with latency spikes".
    pub flaky: Option<FlakyProfile>,
}

/// Episodic unresponsiveness: on random days, the router sheds ICMP work
/// during a fixed maintenance-style window (off-peak in US timezones). This
/// creates far-end loss that is *uncorrelated with latency elevation* — one
/// of the confounders §5.1 attributes the contradicting Table 1 rows to.
#[derive(Debug, Clone, Copy)]
pub struct FlakyProfile {
    /// Probability that any given day is a bad day.
    pub day_prob: f64,
    /// ICMP drop probability inside the window on a bad day.
    pub drop_prob: f64,
    /// UTC hour the daily flaky window opens.
    pub window_start_hour: u8,
    /// UTC hour it closes (exclusive, no wrap).
    pub window_end_hour: u8,
}

impl FlakyProfile {
    /// Deterministic flakiness test for a router (pure function of time).
    #[inline]
    pub fn is_flaky_now(&self, seed: u64, router_salt: u64, t: SimTime) -> bool {
        let hour = (t.rem_euclid(86_400) / 3600) as u8;
        if hour < self.window_start_hour || hour >= self.window_end_hour {
            return false;
        }
        let day = t.div_euclid(86_400) as u64;
        crate::noise::bernoulli(seed ^ 0xF1A6, router_salt, day, self.day_prob)
    }

    /// The first instant after `t` at which [`Self::is_flaky_now`] can
    /// change: the next UTC window edge, or midnight (a new day's draw).
    pub fn stable_until(&self, t: SimTime) -> SimTime {
        let midnight = t - t.rem_euclid(86_400);
        [self.window_start_hour, self.window_end_hour]
            .map(|h| midnight + h as i64 * 3600)
            .into_iter()
            .filter(|&edge| edge > t)
            .fold(midnight + 86_400, SimTime::min)
    }
}

impl Default for IcmpProfile {
    fn default() -> Self {
        IcmpProfile {
            base_ms: 0.3,
            slow_path_prob: 0.01,
            slow_path_ms: 30.0,
            rate_limit_pps: None,
            rate_limit_burst: 10.0,
            unresponsive_prob: 0.0,
            flaky: None,
        }
    }
}

impl IcmpProfile {
    /// A router that heavily rate-limits ICMP (the measurement-artifact case).
    pub fn rate_limited(pps: f64) -> Self {
        IcmpProfile { rate_limit_pps: Some(pps), ..Default::default() }
    }

    /// A router whose ICMP generation is always slow-path (e.g. a busy RP).
    pub fn slow(extra_ms: f64) -> Self {
        IcmpProfile { slow_path_prob: 0.6, slow_path_ms: extra_ms, ..Default::default() }
    }

    /// A router that never answers TTL-expired probes.
    pub fn silent() -> Self {
        IcmpProfile { unresponsive_prob: 1.0, ..Default::default() }
    }
}

/// Stateful token bucket for ICMP rate limiting.
///
/// Probes are executed in nondecreasing time order by the measurement
/// drivers, so a forward-only refill is sufficient; out-of-order queries are
/// clamped (the bucket never goes back in time). That makes a bucket the
/// property of one driver (`SimState`): a probe stamped ahead of its
/// driver's clock would drain it until the driver caught up.
#[derive(Debug, Clone, Copy)]
pub struct RateLimiter {
    tokens: f64,
    last: SimTime,
}

impl RateLimiter {
    pub fn new(burst: f64, at: SimTime) -> Self {
        RateLimiter { tokens: burst, last: at }
    }

    /// Checkpoint serialization: `(tokens, last)`.
    pub fn to_parts(&self) -> (f64, SimTime) {
        (self.tokens, self.last)
    }

    /// Rebuild from [`Self::to_parts`] output.
    pub fn from_parts(tokens: f64, last: SimTime) -> Self {
        RateLimiter { tokens, last }
    }

    /// Try to emit one ICMP response at time `t`; true = allowed.
    pub fn allow(&mut self, pps: f64, burst: f64, t: SimTime) -> bool {
        if t > self.last {
            self.tokens = (self.tokens + (t - self.last) as f64 * pps).min(burst);
            self.last = t;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flaky_state_is_stable_until_the_bound() {
        let flaky = FlakyProfile { day_prob: 0.5, drop_prob: 0.5, window_start_hour: 9, window_end_hour: 17 };
        let mut changes = 0;
        // Five days from before the epoch, at odd offsets, so windows,
        // midnights and both day draws all come up.
        for t in (-2 * 86_400..3 * 86_400).step_by(4_793) {
            let until = flaky.stable_until(t);
            assert!(t < until && until <= t + 86_400, "t {t}: until {until}");
            let now = flaky.is_flaky_now(3, 11, t);
            assert!((t..until).all(|s| flaky.is_flaky_now(3, 11, s) == now), "t {t}: until {until}");
            changes += (flaky.is_flaky_now(3, 11, until) != now) as u32;
        }
        assert!(changes > 10, "the bound is often tight: {changes}");
    }

    #[test]
    fn bucket_allows_burst_then_limits() {
        let mut rl = RateLimiter::new(3.0, 0);
        assert!(rl.allow(1.0, 3.0, 0));
        assert!(rl.allow(1.0, 3.0, 0));
        assert!(rl.allow(1.0, 3.0, 0));
        assert!(!rl.allow(1.0, 3.0, 0), "burst exhausted");
        // One second later one token refilled.
        assert!(rl.allow(1.0, 3.0, 1));
        assert!(!rl.allow(1.0, 3.0, 1));
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut rl = RateLimiter::new(2.0, 0);
        // A long quiet period cannot bank more than the burst.
        assert!(rl.allow(10.0, 2.0, 1000));
        assert!(rl.allow(10.0, 2.0, 1000));
        assert!(!rl.allow(10.0, 2.0, 1000));
    }

    #[test]
    fn out_of_order_queries_do_not_refill() {
        let mut rl = RateLimiter::new(1.0, 100);
        assert!(rl.allow(1.0, 1.0, 100));
        // Earlier timestamp: no refill.
        assert!(!rl.allow(1.0, 1.0, 50));
    }

    #[test]
    fn fractional_rates_refill_over_multiple_seconds() {
        let mut rl = RateLimiter::new(1.0, 0);
        assert!(rl.allow(0.5, 1.0, 0));
        // 0.5 pps: after one second only half a token is back.
        assert!(!rl.allow(0.5, 1.0, 1));
        assert!(rl.allow(0.5, 1.0, 2), "full token after two seconds");
    }

    #[test]
    fn loss_probing_at_150pps_self_induces_icmp_loss() {
        // The §5.2 measurement artifact: loss probing runs at 150 pps
        // (vs TSLP's sparse probes), so a router limiting ICMP generation
        // to 50 pps answers only a third of the probes. The prober measures
        // ~67% "loss" on a path that drops nothing — apparent loss must be
        // attributed to the limiter, not congestion (Table 1's 64-85% rows).
        let pps = 50.0;
        let burst = 50.0;
        let mut rl = RateLimiter::new(burst, 0);
        let probe_rate = 150;
        let secs = 10;
        let mut answered = 0u32;
        for i in 0..probe_rate * secs {
            let t = (i / probe_rate) as SimTime;
            if rl.allow(pps, burst, t) {
                answered += 1;
            }
        }
        let loss = 1.0 - f64::from(answered) / f64::from(probe_rate * secs);
        assert!(
            (0.6..0.75).contains(&loss),
            "self-induced apparent loss should sit in the Table 1 artifact band, got {loss:.3}"
        );
        // The same router under TSLP's per-round load (6 probes per 300 s
        // round) never trips the limiter: the artifact is rate-dependent.
        let mut rl = RateLimiter::new(burst, 0);
        let mut tslp_answered = 0u32;
        for round in 0..100i64 {
            for _ in 0..6 {
                if rl.allow(pps, burst, round * 300) {
                    tslp_answered += 1;
                }
            }
        }
        assert_eq!(tslp_answered, 600, "sparse probing sees no limiter loss");
    }

    #[test]
    fn profiles() {
        let p = IcmpProfile::rate_limited(2.0);
        assert_eq!(p.rate_limit_pps, Some(2.0));
        assert_eq!(IcmpProfile::silent().unresponsive_prob, 1.0);
        assert!(IcmpProfile::slow(25.0).slow_path_prob > 0.5);
    }
}
