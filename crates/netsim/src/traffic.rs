//! Background traffic demand models.
//!
//! The paper's object of study is *persistent* congestion: "a long-term
//! mismatch between installed capacity and actual traffic" (§1) that recurs
//! with diurnal demand (§4.2). The fluid layer models each link direction's
//! offered load as a deterministic function of time:
//!
//! ```text
//! demand(t) = base + amplitude · diurnal(local_hour) · month_scale(t) · weekend(t) + noise(t)
//! ```
//!
//! expressed as a fraction of link capacity. Utilization above the queue
//! model's onset produces a standing queue (elevated TSLP RTT); utilization
//! beyond capacity produces loss — exactly the observables §5 validates
//! against.

use crate::noise::{self, BinColumn};
use crate::time::{self, SimTime, SECS_PER_DAY, SECS_PER_HOUR};

/// A directional demand model: offered load as a fraction of capacity.
///
/// Implementations must be pure functions of time (same `t` → same value),
/// which is what keeps the whole simulation reproducible and cheap to query
/// out of order.
pub trait LoadModel: Send + Sync {
    /// Offered load / capacity at time `t`. May exceed 1.0 (overload).
    fn utilization(&self, t: SimTime) -> f64;

    /// `out[i] = self.utilization(col.at(i))`: one column of the fluid fast
    /// path, which shares `col`'s per-bin hash terms across every link.
    /// Overrides walk the column faster but must stay bit-identical to the
    /// pointwise values.
    fn utilization_into(&self, col: &BinColumn, out: &mut [f64]) {
        for (i, u) in out.iter_mut().enumerate() {
            *u = self.utilization(col.at(i));
        }
    }
}

/// Constant utilization (useful for tests and for always-hot links).
#[derive(Debug, Clone, Copy)]
pub struct ConstantLoad(pub f64);

impl LoadModel for ConstantLoad {
    fn utilization(&self, _t: SimTime) -> f64 {
        self.0
    }
}

/// Per-month peak scaling, as `(month_index, scale)` change points.
///
/// The scale in effect at time `t` is the entry with the largest
/// `month_index <= month_index(t)`; before the first entry the scale is the
/// first entry's value. This is how scenarios script congestion that builds
/// up, peaks, and dissipates over the 22-month study (Figure 7's patterns).
#[derive(Debug, Clone, Default)]
pub struct MonthScale {
    /// `(first instant of the entry's month, scale)`, sorted by instant.
    /// Month 0 starts at `SimTime::MIN`, since `month_index` counts every
    /// instant before 2016 as month 0. `at` then needs no calendar
    /// arithmetic: every `link_state` reads it.
    entries: Vec<(SimTime, f64)>,
}

impl MonthScale {
    /// Flat scale of 1.0 forever.
    pub fn flat() -> Self {
        MonthScale::new(vec![(0, 1.0)])
    }

    pub fn new(mut entries: Vec<(u32, f64)>) -> Self {
        assert!(!entries.is_empty(), "month scale needs at least one entry");
        entries.sort_by_key(|&(m, _)| m);
        let start = |m: u32| if m == 0 { SimTime::MIN } else { time::month_start(m) };
        MonthScale { entries: entries.into_iter().map(|(m, s)| (start(m), s)).collect() }
    }

    pub fn at(&self, t: SimTime) -> f64 {
        // The last entry that has started (of equal ones, the last given).
        let started = self.entries.partition_point(|&(start, _)| start <= t);
        self.entries[started.saturating_sub(1)].1
    }
}

/// Diurnal demand: a smooth evening peak in the link's local timezone, a
/// shoulder through the working day, and a nightly trough, modulated by a
/// monthly trend and a weekend factor.
#[derive(Debug, Clone)]
pub struct DiurnalDemand {
    /// Quiet-hours utilization floor (fraction of capacity).
    pub base: f64,
    /// Additional utilization at the top of the evening peak.
    pub amplitude: f64,
    /// Local hour of the demand peak (e.g. 21.0 for 9pm).
    pub peak_hour: f64,
    /// Width (standard deviation, hours) of the evening peak.
    pub peak_width: f64,
    /// Fixed UTC offset of the demand population, hours.
    pub tz_offset_hours: i8,
    /// Multiplier applied to the amplitude on Saturdays/Sundays (local).
    pub weekend_factor: f64,
    /// Monthly amplitude trend.
    pub monthly: MonthScale,
    /// Uniform noise half-width added to utilization.
    pub noise_amp: f64,
    /// Noise stream seed (derive from the link id).
    pub noise_seed: u64,
}

impl DiurnalDemand {
    /// A benign profile that never congests a link: low base, mild peak.
    pub fn quiet(tz_offset_hours: i8, noise_seed: u64) -> Self {
        DiurnalDemand {
            base: 0.25,
            amplitude: 0.30,
            peak_hour: 21.0,
            peak_width: 3.0,
            tz_offset_hours,
            weekend_factor: 0.9,
            monthly: MonthScale::flat(),
            noise_amp: 0.02,
            noise_seed,
        }
    }

    /// Diurnal shape in [0, 1]: wrap-around Gaussian bump at `peak_hour` plus
    /// a small daytime shoulder. Public so scenario builders can solve for
    /// the amplitude that produces a target daily overload duration.
    pub fn shape(&self, local_hour: f64) -> f64 {
        // Circular distance to the peak.
        let mut d = (local_hour - self.peak_hour).abs();
        if d > 12.0 {
            d = 24.0 - d;
        }
        let evening = (-0.5 * (d / self.peak_width).powi(2)).exp();
        // Daytime shoulder: mild plateau from ~9am local.
        let mut ds = (local_hour - 14.0).abs();
        if ds > 12.0 {
            ds = 24.0 - ds;
        }
        let day = 0.35 * (-0.5 * (ds / 4.5).powi(2)).exp();
        // No clamp: the sum peaks slightly above 1, keeping the shape smooth
        // (and therefore invertible when scenarios solve for amplitudes).
        evening + day
    }

    fn weekend(&self, local_t: SimTime) -> f64 {
        if time::is_weekend(local_t) {
            self.weekend_factor
        } else {
            1.0
        }
    }

    /// Utilization from its parts, `demand` being the noise bin's
    /// [`noise::demand_inner`]; `utilization` and `utilization_into` both
    /// end here, so they round alike.
    fn combine(&self, amp: f64, shape: f64, demand: u64) -> f64 {
        let n = self.noise_amp * noise::signed_unit(noise::mix(self.noise_seed ^ demand));
        (self.base + amp * shape + n).max(0.0)
    }

    /// Utilization at `t`, whose noise bin's `demand_inner` is `demand`.
    fn at(&self, t: SimTime, demand: u64) -> f64 {
        let local = time::local_hour(t, self.tz_offset_hours);
        let local_t = t + self.tz_offset_hours as i64 * SECS_PER_HOUR;
        let amp = self.amplitude * self.monthly.at(t) * self.weekend(local_t);
        self.combine(amp, self.shape(local), demand)
    }
}

impl LoadModel for DiurnalDemand {
    fn utilization(&self, t: SimTime) -> f64 {
        self.at(t, noise::demand_inner(noise::mix(t.div_euclid(noise::BIN_SECS) as u64)))
    }

    /// A walk with no calendar arithmetic per entry: the UTC and local
    /// second-of-day counters step forward, the month scale is re-read only
    /// at UTC midnight (months turn there) and the weekend factor only at
    /// local midnight, and `shape` is evaluated once per slot of the day.
    /// Noise reads the column's per-bin terms. Steps that do not divide a
    /// day into at most one slot per noise bin go pointwise.
    fn utilization_into(&self, col: &BinColumn, out: &mut [f64]) {
        const MAX_SLOTS: usize = (SECS_PER_DAY / noise::BIN_SECS) as usize;
        let (step, demand) = (col.step(), &col.demand()[..out.len()]);
        if SECS_PER_DAY % step != 0 || (SECS_PER_DAY / step) as usize > MAX_SLOTS {
            for (i, (u, &d)) in out.iter_mut().zip(demand).enumerate() {
                *u = self.at(col.at(i), d);
            }
            return;
        }
        let tz = self.tz_offset_hours as i64 * SECS_PER_HOUR;
        let slots = (SECS_PER_DAY / step) as usize;
        let mut shapes = [0.0f64; MAX_SLOTS];
        let t0 = col.at(0);
        let (mut utc, mut local) = (t0.rem_euclid(SECS_PER_DAY), (t0 + tz).rem_euclid(SECS_PER_DAY));
        let mut scale = self.monthly.at(t0);
        let mut weekend = self.weekend(t0 + tz);
        let (mut t, mut slot) = (t0, 0);
        for (i, (u, &d)) in out.iter_mut().zip(demand).enumerate() {
            if i < slots {
                shapes[slot] = self.shape(local as f64 / SECS_PER_HOUR as f64);
            }
            *u = self.combine(self.amplitude * scale * weekend, shapes[slot], d);
            t += step;
            slot = if slot + 1 == slots { 0 } else { slot + 1 };
            utc += step;
            if utc >= SECS_PER_DAY {
                utc -= SECS_PER_DAY;
                scale = self.monthly.at(t);
            }
            local += step;
            if local >= SECS_PER_DAY {
                local -= SECS_PER_DAY;
                weekend = self.weekend(t + tz);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{date_to_sim, datetime_to_sim, Date};

    fn demand(amplitude: f64) -> DiurnalDemand {
        DiurnalDemand {
            base: 0.3,
            amplitude,
            peak_hour: 21.0,
            peak_width: 3.0,
            tz_offset_hours: -5,
            weekend_factor: 1.0,
            monthly: MonthScale::flat(),
            noise_amp: 0.0,
            noise_seed: 1,
        }
    }

    #[test]
    fn peak_at_configured_local_hour() {
        let d = demand(0.6);
        // 2016-06-07 is a Tuesday. 21:00 local at UTC-5 == 02:00 UTC next day.
        let peak = datetime_to_sim(Date::new(2016, 6, 8), 2, 0, 0);
        let trough = datetime_to_sim(Date::new(2016, 6, 7), 9, 0, 0); // 4am local
        assert!(d.utilization(peak) > 0.85);
        assert!(d.utilization(trough) < 0.45);
        assert!(d.utilization(peak) > d.utilization(trough) + 0.3);
    }

    #[test]
    fn weekend_factor_applies_on_local_weekend() {
        let mut d = demand(0.6);
        d.weekend_factor = 0.5;
        // Saturday 2016-06-11, 21:00 local (UTC-5) = Sunday 02:00 UTC.
        let sat_peak = datetime_to_sim(Date::new(2016, 6, 12), 2, 0, 0);
        let tue_peak = datetime_to_sim(Date::new(2016, 6, 8), 2, 0, 0);
        assert!(d.utilization(sat_peak) < d.utilization(tue_peak) - 0.1);
    }

    #[test]
    fn month_scale_changes_peak() {
        let mut d = demand(0.6);
        d.monthly = MonthScale::new(vec![(0, 0.5), (6, 1.5)]);
        let june = datetime_to_sim(Date::new(2016, 6, 8), 2, 0, 0); // month 5
        let august = datetime_to_sim(Date::new(2016, 8, 10), 2, 0, 0); // month 7
        assert!(d.utilization(august) > d.utilization(june) + 0.2);
    }

    #[test]
    fn month_scale_lookup() {
        let ms = MonthScale::new(vec![(3, 2.0), (0, 1.0), (10, 0.5)]);
        assert_eq!(ms.at(date_to_sim(Date::new(2016, 2, 1))), 1.0);
        assert_eq!(ms.at(date_to_sim(Date::new(2016, 5, 1))), 2.0);
        assert_eq!(ms.at(date_to_sim(Date::new(2017, 1, 1))), 0.5);
    }

    /// `at` against the rule it replaced, which converted `t` to a month
    /// index on every call: at every month edge ±1 s and before the epoch,
    /// with two entries for one month (the later one given wins) and with a
    /// first entry after month 0 (its scale holds before it too).
    #[test]
    fn month_scale_matches_month_index_rule() {
        let by_month_index = |sorted: &[(u32, f64)], t: SimTime| {
            let m = time::month_index(t);
            let mut scale = sorted[0].1;
            for &(start, s) in sorted {
                if start <= m {
                    scale = s;
                } else {
                    break;
                }
            }
            scale
        };
        let mut instants = vec![-100 * 365 * SECS_PER_DAY, -400 * SECS_PER_DAY, -1, 0, 1];
        for m in 0..40 {
            let edge = time::month_start(m);
            instants.extend([edge - 1, edge, edge + 1]);
        }
        for given in [
            vec![(3, 2.0), (0, 1.0), (10, 0.5), (3, 2.5), (1, 0.25), (27, 4.0), (27, 3.0)],
            vec![(4, 3.0), (2, 1.5), (2, 0.5)],
        ] {
            let mut sorted = given.clone();
            sorted.sort_by_key(|&(m, _)| m);
            let ms = MonthScale::new(given);
            for &t in &instants {
                assert_eq!(ms.at(t).to_bits(), by_month_index(&sorted, t).to_bits(), "t = {t}");
            }
        }
        let ms = MonthScale::new(vec![(3, 2.0), (0, 1.0), (3, 2.5)]);
        assert_eq!(ms.at(time::month_start(3)), 2.5, "the later of two entries for a month");
    }

    #[test]
    fn pure_function_of_time() {
        let d = DiurnalDemand::quiet(-8, 42);
        let t = datetime_to_sim(Date::new(2017, 3, 3), 12, 34, 56);
        assert_eq!(d.utilization(t), d.utilization(t));
    }

    #[test]
    fn never_negative() {
        let mut d = demand(0.1);
        d.base = 0.0;
        d.noise_amp = 0.5;
        d.noise_seed = 7;
        for i in 0..2000 {
            assert!(d.utilization(i * 300) >= 0.0);
        }
    }
}
