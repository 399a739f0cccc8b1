//! High-frequency packet-loss probing (§3.3).
//!
//! The loss module sends TTL-limited ICMP echoes toward the near and far
//! ends of suspect interdomain links, one probe per target interface per
//! second under a 150 pps budget, yielding 300 samples per link end per
//! five-minute window. Link selection is *reactive*: only links to peers or
//! providers (or to a static list of large T&CPs) that showed congestion in
//! a previous week are probed.

use crate::path::{probe_path, ProbePath, VpHandle};
use crate::scheduler::RateBudget;
use crate::tslp::End;
use manic_netsim::noise;
use manic_netsim::time::SimTime;
use manic_netsim::{Ipv4, Network, ProbeSpec, ProbeStatus, SimState};
use manic_tsdb::{SeriesKey, Store, TagSet};

/// One link under loss measurement.
#[derive(Debug, Clone)]
pub struct LossTarget {
    pub near_ip: Ipv4,
    pub far_ip: Ipv4,
    /// Destination whose path crosses the link (borrowed from TSLP state).
    pub dst: Ipv4,
    pub near_ttl: u8,
    pub far_ttl: u8,
    pub flow_id: u16,
}

impl LossTarget {
    pub fn link_label(&self) -> String {
        self.far_ip.to_string()
    }
}

/// Aggregated loss over one window.
#[derive(Debug, Clone, Copy)]
pub struct LossSample {
    pub window_start: SimTime,
    pub end: End,
    pub sent: u32,
    pub lost: u32,
}

impl LossSample {
    pub fn rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.lost as f64 / self.sent as f64
        }
    }
}

/// Loss aggregation window (the paper computes rates over 5-minute windows).
pub const WINDOW_SECS: i64 = 300;
/// Per-interface probing frequency.
pub const PROBES_PER_SEC: u32 = 1;
/// Module budget (§3.3).
pub const LOSS_PPS: f64 = 150.0;

/// Per-VP loss prober.
pub struct LossProber {
    pub vp: VpHandle,
    pub targets: Vec<LossTarget>,
    budget: RateBudget,
}

impl LossProber {
    pub fn new(vp: VpHandle, start: SimTime) -> Self {
        LossProber { vp, targets: Vec::new(), budget: RateBudget::new(LOSS_PPS, start) }
    }

    /// Replace the reactive target set. Panics if the set exceeds the pps
    /// budget (each target costs 2 probes per second).
    pub fn set_targets(&mut self, targets: Vec<LossTarget>) {
        assert!(
            (targets.len() * 2) as f64 <= LOSS_PPS,
            "loss target set exceeds the {LOSS_PPS} pps budget"
        );
        self.targets = targets;
    }

    /// Packet mode: probe every target interface once per second across a
    /// window, and write per-window loss rates into `store`.
    pub fn probe_window(
        &mut self,
        net: &Network,
        state: &mut SimState,
        window_start: SimTime,
        store: &Store,
    ) -> Vec<(usize, LossSample)> {
        let mut out = Vec::new();
        for ti in 0..self.targets.len() {
            let tgt = self.targets[ti].clone();
            for (end, ttl, expect) in [
                (End::Near, tgt.near_ttl, tgt.near_ip),
                (End::Far, tgt.far_ttl, tgt.far_ip),
            ] {
                let mut sent = 0;
                let mut lost = 0;
                for s in 0..WINDOW_SECS {
                    for _ in 0..PROBES_PER_SEC {
                        let t = self.budget.next_slot(window_start + s);
                        let status = net.send_probe(
                            state,
                            ProbeSpec {
                                src: self.vp.router,
                                src_addr: self.vp.addr,
                                dst: tgt.dst,
                                ttl,
                                flow_id: tgt.flow_id,
                            },
                            t,
                        );
                        sent += 1;
                        match status {
                            ProbeStatus::TimeExceeded { from, .. }
                            | ProbeStatus::EchoReply { from, .. }
                                if from == expect => {}
                            _ => lost += 1,
                        }
                    }
                }
                let sample = LossSample { window_start, end, sent, lost };
                store.write(
                    &series_key(&self.vp.name, &tgt, end),
                    window_start,
                    sample.rate(),
                );
                out.push((ti, sample));
            }
        }
        out
    }

    /// Fluid fast path: synthesize per-window loss rates over `[from, to)`
    /// without per-probe work. Sampling noise is injected with a normal
    /// approximation to the binomial.
    pub fn synthesize_window(
        &self,
        net: &Network,
        from: SimTime,
        to: SimTime,
    ) -> Vec<(usize, Vec<LossSample>)> {
        let mut out = Vec::new();
        for (ti, tgt) in self.targets.iter().enumerate() {
            let mut paths: Vec<(End, ProbePath)> = Vec::new();
            for (end, ttl, expect) in [
                (End::Near, tgt.near_ttl, tgt.near_ip),
                (End::Far, tgt.far_ttl, tgt.far_ip),
            ] {
                if let Some(pp) = probe_path(net, &self.vp, tgt.dst, ttl, tgt.flow_id, from) {
                    if pp.responder_addr == expect {
                        paths.push((end, pp));
                    }
                }
            }
            let mut samples = Vec::new();
            let n = (WINDOW_SECS * PROBES_PER_SEC as i64) as f64;
            let mut w = from;
            while w < to {
                let t_mid = w + WINDOW_SECS / 2;
                for (end, pp) in &paths {
                    let (_, p) = pp.rtt_and_prob(net, t_mid, PROBES_PER_SEC as f64);
                    let p_loss = 1.0 - p;
                    let stream = ((tgt.far_ip.0 as u64) << 2)
                        | matches!(end, End::Far) as u64
                        | ((ti as u64) << 40);
                    let g = noise::gaussian(net.seed ^ 0x0010_55AA, stream, w as u64);
                    let lost =
                        (n * p_loss + (n * p_loss * (1.0 - p_loss)).sqrt() * g).round().clamp(0.0, n);
                    samples.push((
                        *end,
                        LossSample {
                            window_start: w,
                            end: *end,
                            sent: n as u32,
                            lost: lost as u32,
                        },
                    ));
                }
                w += WINDOW_SECS;
            }
            out.push((ti, samples.into_iter().map(|(_, s)| s).collect()));
        }
        out
    }
}

/// tsdb key for loss rates.
pub fn series_key(vp: &str, tgt: &LossTarget, end: End) -> SeriesKey {
    SeriesKey::new(
        "loss",
        TagSet::from_pairs([
            ("vp", vp.to_string()),
            ("link", tgt.link_label()),
            ("end", end.tag().to_string()),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_enforced() {
        let vp = VpHandle {
            name: "v".into(),
            router: manic_netsim::RouterId(0),
            addr: "10.0.0.1".parse().unwrap(),
        };
        let mut p = LossProber::new(vp, 0);
        let tgt = LossTarget {
            near_ip: "10.0.1.1".parse().unwrap(),
            far_ip: "10.0.1.2".parse().unwrap(),
            dst: "10.1.64.1".parse().unwrap(),
            near_ttl: 2,
            far_ttl: 3,
            flow_id: 1,
        };
        p.set_targets(vec![tgt.clone(); 75]); // exactly at budget
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.set_targets(vec![tgt; 76])
        }));
        assert!(r.is_err(), "76 targets must exceed the budget");
    }

    #[test]
    fn loss_sample_rate() {
        let s = LossSample { window_start: 0, end: End::Far, sent: 300, lost: 30 };
        assert!((s.rate() - 0.1).abs() < 1e-12);
        let z = LossSample { window_start: 0, end: End::Far, sent: 0, lost: 0 };
        assert_eq!(z.rate(), 0.0);
    }
}
