//! Congestion scheduling: scripting which interdomain links congest, when,
//! and how hard.
//!
//! The longitudinal study (§6) observes congestion episodes that build up
//! over months, persist, and dissipate — e.g. Comcast–Google congestion
//! peaking in December 2016 and disappearing by July 2017 while
//! Comcast–Tata rises in the second half of 2017 (Figure 7). A
//! [`CongestionEpisode`] expresses one such arc: an (access ISP, provider)
//! pair, a month range, a target *daily overload duration*, and the fraction
//! of the pair's parallel links affected.
//!
//! The daily duration is the natural control variable because the paper's
//! congestion metric is the fraction of the day a link spends congested
//! (day-link congestion percentage). [`amplitude_for_duration`] inverts the
//! diurnal demand shape to find the amplitude that keeps utilization at or
//! above capacity for the requested number of hours per day.

use manic_netsim::traffic::{DiurnalDemand, MonthScale};
use manic_netsim::AsNumber;

/// One scripted congestion arc between an access ISP and a transit/content
/// provider.
#[derive(Debug, Clone)]
pub struct CongestionEpisode {
    /// Access ISP side.
    pub ap: AsNumber,
    /// Transit / content provider side.
    pub tcp: AsNumber,
    /// First month (index since Jan 2016) of the episode.
    pub start_month: u32,
    /// One past the last month.
    pub end_month: u32,
    /// Hours per day of overload at the episode's peak.
    pub daily_hours: f64,
    /// Fraction of the pair's parallel links affected, in (0, 1].
    pub link_fraction: f64,
}

impl CongestionEpisode {
    pub fn new(ap: AsNumber, tcp: AsNumber, months: std::ops::Range<u32>, daily_hours: f64) -> Self {
        assert!(months.start < months.end, "empty episode");
        assert!(daily_hours > 0.0 && daily_hours < 24.0);
        CongestionEpisode {
            ap,
            tcp,
            start_month: months.start,
            end_month: months.end,
            daily_hours,
            link_fraction: 1.0,
        }
    }

    /// Restrict the episode to a fraction of the pair's links.
    pub fn on_fraction(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0);
        self.link_fraction = f;
        self
    }
}

/// Resolution of [`overload_hours`]: the day is integrated one minute at a
/// time.
const MINUTES_PER_DAY: usize = 24 * 60;

/// Reference demand profile used to invert the shape: same peak geometry the
/// worlds install, with amplitude 1 so `shape()` can be sampled. The shape
/// does not depend on the base utilization.
fn reference() -> DiurnalDemand {
    DiurnalDemand {
        base: 0.0,
        amplitude: 1.0,
        peak_hour: 21.0,
        peak_width: 2.6,
        tz_offset_hours: 0,
        weekend_factor: 1.0,
        monthly: MonthScale::flat(),
        noise_amp: 0.0,
        noise_seed: 0,
    }
}

/// The reference shape at the start of every minute of the day.
fn minute_shapes() -> Vec<f64> {
    let d = reference();
    (0..MINUTES_PER_DAY).map(|m| d.shape(m as f64 / 60.0)).collect()
}

/// Hours of the day whose sampled shape `s` has `base + amplitude * s >= 1`.
fn hours_over(shapes: &[f64], base: f64, amplitude: f64) -> f64 {
    let minutes = shapes.iter().filter(|&&s| base + amplitude * s >= 1.0).count();
    minutes as f64 / 60.0
}

/// Hours per day for which `base + amplitude * shape(hour) >= 1` — the daily
/// overload duration produced by a given amplitude.
pub fn overload_hours(base: f64, amplitude: f64) -> f64 {
    hours_over(&minute_shapes(), base, amplitude)
}

/// Invert [`overload_hours`]: the demand amplitude that yields `hours` of
/// overload per day on top of `base` utilization. Solved by bisection over
/// one table of the day's shape; the duration is monotone in the amplitude.
pub fn amplitude_for_duration(base: f64, hours: f64) -> f64 {
    assert!((0.0..1.0).contains(&base), "base utilization must be < 1");
    assert!(hours > 0.0 && hours < 20.0, "hours out of the invertible range");
    let shapes = minute_shapes();
    let (mut lo, mut hi) = (0.0f64, 20.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if hours_over(&shapes, base, mid) < hours {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Build the month-by-month amplitude schedule for one link given every
/// episode that applies to it, an idle amplitude, and the congested
/// amplitudes. Returns a [`MonthScale`] to multiply into a unit-amplitude
/// demand (the scale *is* the amplitude).
pub fn month_schedule(episodes: &[&CongestionEpisode], base: f64, idle_amplitude: f64) -> MonthScale {
    // Amplitude per month over the 24-month window (plus slack).
    let mut amp = vec![idle_amplitude; 30];
    for ep in episodes {
        let a = amplitude_for_duration(base, ep.daily_hours);
        for m in ep.start_month..ep.end_month.min(30) {
            amp[m as usize] = amp[m as usize].max(a);
        }
    }
    let entries = amp.into_iter().enumerate().map(|(m, a)| (m as u32, a)).collect();
    MonthScale::new(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference integral: a fresh profile and 1,440 `shape` calls per
    /// evaluation, no table.
    fn ref_overload_hours(base: f64, amplitude: f64) -> f64 {
        let d = DiurnalDemand {
            base,
            amplitude: 1.0,
            peak_hour: 21.0,
            peak_width: 2.6,
            tz_offset_hours: 0,
            weekend_factor: 1.0,
            monthly: MonthScale::flat(),
            noise_amp: 0.0,
            noise_seed: 0,
        };
        let mut minutes = 0u32;
        for m in 0..(24 * 60) {
            let h = m as f64 / 60.0;
            if base + amplitude * d.shape(h) >= 1.0 {
                minutes += 1;
            }
        }
        minutes as f64 / 60.0
    }

    /// Reference bisection over [`ref_overload_hours`].
    fn ref_amplitude_for_duration(base: f64, hours: f64) -> f64 {
        let (mut lo, mut hi) = (0.0f64, 20.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if ref_overload_hours(base, mid) < hours {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn shape_table_solver_is_bit_identical_to_the_reference() {
        for base in [0.25, 0.40, 0.55, 0.70, 0.90] {
            for half_hours in 1..40 {
                let hours = half_hours as f64 * 0.5;
                let a = amplitude_for_duration(base, hours);
                let want = ref_amplitude_for_duration(base, hours);
                let msg = format!("base {base} hours {hours}: {a} vs {want}");
                assert_eq!(a.to_bits(), want.to_bits(), "{msg}");
                for amp in [a, 0.5 * a, 1.5 * a, hours / 4.0] {
                    let got = overload_hours(base, amp);
                    let want = ref_overload_hours(base, amp);
                    assert_eq!(got.to_bits(), want.to_bits(), "base {base} amplitude {amp}");
                }
            }
        }
    }

    #[test]
    fn overload_monotone_in_amplitude() {
        let h1 = overload_hours(0.55, 0.5);
        let h2 = overload_hours(0.55, 0.8);
        let h3 = overload_hours(0.55, 1.2);
        assert!(h1 <= h2 && h2 <= h3);
        assert_eq!(overload_hours(0.55, 0.1), 0.0);
    }

    #[test]
    fn inversion_roundtrip() {
        for &hours in &[1.0, 2.0, 4.0, 8.0, 12.0] {
            let a = amplitude_for_duration(0.55, hours);
            let got = overload_hours(0.55, a);
            assert!((got - hours).abs() < 0.25, "hours {hours} -> amp {a} -> {got}");
        }
    }

    #[test]
    fn higher_base_needs_less_amplitude() {
        let a_low = amplitude_for_duration(0.40, 3.0);
        let a_high = amplitude_for_duration(0.70, 3.0);
        assert!(a_high < a_low);
    }

    #[test]
    fn month_schedule_applies_episodes() {
        let ap = AsNumber(1);
        let tcp = AsNumber(2);
        let e1 = CongestionEpisode::new(ap, tcp, 3..6, 4.0);
        let e2 = CongestionEpisode::new(ap, tcp, 5..8, 8.0);
        let ms = month_schedule(&[&e1, &e2], 0.55, 0.3);
        let probe = |m: u32| {
            // MonthScale::at takes a SimTime; use month starts.
            ms.at(manic_netsim::time::month_start(m))
        };
        assert_eq!(probe(0), 0.3);
        let a4 = amplitude_for_duration(0.55, 4.0);
        let a8 = amplitude_for_duration(0.55, 8.0);
        assert!((probe(3) - a4).abs() < 1e-9);
        // Overlap month 5 takes the max.
        assert!((probe(5) - a8).abs() < 1e-9);
        assert!((probe(7) - a8).abs() < 1e-9);
        assert_eq!(probe(9), 0.3);
    }

    #[test]
    #[should_panic(expected = "empty episode")]
    fn empty_episode_rejected() {
        CongestionEpisode::new(AsNumber(1), AsNumber(2), 5..5, 2.0);
    }
}
