//! The read-optimized snapshot layer.
//!
//! The measurement loop owns the `System` and mutates the tsdb every
//! simulated round; query traffic must not contend with it. So the loop
//! periodically *publishes* an immutable [`Snapshot`] — dashboard rows,
//! health report, and their **pre-rendered JSON** — into a [`SnapshotHub`],
//! and the server reads whatever epoch is current with one `Arc` clone.
//! `/api/links` and `/api/health` never touch a tsdb lock at all; the
//! snapshot epoch doubles as the response-cache invalidation key for the
//! endpoints that do.

use manic_core::{HealthState, LinkStatus, System, TaskHealthStatus};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Immutable view of the system at one publish instant.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotone publish counter; 0 is the empty pre-first-publish snapshot.
    pub epoch: u64,
    /// Sim time the snapshot was taken at.
    pub sim_now: i64,
    pub links: Vec<LinkStatus>,
    pub health: Vec<TaskHealthStatus>,
    /// Far-end IPs of monitored links — the existence check behind 404s.
    pub link_ips: HashSet<String>,
    /// Pre-rendered `/api/links` body.
    pub links_json: Arc<Vec<u8>>,
    /// Pre-rendered `/api/health` body.
    pub health_json: Arc<Vec<u8>>,
    /// World provenance `(library name, determinism fingerprint)`, if the
    /// system carries one.
    pub world: Option<(String, u64)>,
}

fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

fn rel_name(rel: manic_bdrmap::infer::LinkRel) -> &'static str {
    use manic_bdrmap::infer::LinkRel;
    match rel {
        LinkRel::Provider => "provider",
        LinkRel::Peer => "peer",
        LinkRel::Customer => "customer",
        LinkRel::Unknown => "unknown",
    }
}

fn health_name(state: HealthState) -> &'static str {
    match state {
        HealthState::Healthy => "healthy",
        HealthState::Degraded => "degraded",
        HealthState::Quarantined => "quarantined",
        HealthState::Retired => "retired",
    }
}

impl Snapshot {
    /// The epoch-0 placeholder served before the first publish.
    pub fn empty() -> Snapshot {
        Snapshot::assemble(0, 0, Vec::new(), Vec::new(), None)
    }

    /// Capture the current system state. Reads links, health, and the
    /// latest level-shift verdict per link from the audit trail; records
    /// nothing (the audit trail is evidence, and rebuilding a snapshot is
    /// not an inference event).
    pub fn capture(system: &System, now: i64, lookback: i64, epoch: u64) -> Snapshot {
        let links = system.all_link_statuses(now, lookback);
        let health = system.health_report();
        Snapshot::assemble(epoch, now, links, health, system.world_label.clone())
    }

    fn assemble(
        epoch: u64,
        sim_now: i64,
        links: Vec<LinkStatus>,
        health: Vec<TaskHealthStatus>,
        world: Option<(String, u64)>,
    ) -> Snapshot {
        // Latest reactive (level-shift) verdict per link label, from the
        // audit trail the inference layer maintains.
        let mut verdicts: std::collections::HashMap<String, bool> =
            std::collections::HashMap::new();
        manic_obs::audit().for_each(|rec| {
            if rec.detector == "levelshift" {
                verdicts.insert(rec.link.clone(), rec.congested);
            }
        });

        let mut link_ips = HashSet::new();
        let mut lj = format!("{{\"epoch\":{epoch},\"sim_now\":{sim_now},\"links\":[");
        for (i, l) in links.iter().enumerate() {
            let far = l.far_ip.to_string();
            if i > 0 {
                lj.push(',');
            }
            let congested = verdicts.get(&far).copied();
            lj.push_str(&format!(
                "{{\"vp\":\"{}\",\"near\":\"{}\",\"far\":\"{}\",\"neighbor\":{},\
                 \"rel\":\"{}\",\"far_latest_ms\":{},\"far_baseline_ms\":{},\
                 \"near_latest_ms\":{},\"elevated\":{},\"congested\":{}}}",
                manic_obs::json_escape(&l.vp),
                l.near_ip,
                far,
                match l.neighbor {
                    Some(asn) => format!("\"{asn}\""),
                    None => "null".to_string(),
                },
                rel_name(l.rel),
                json_opt_f64(l.far_latest_ms),
                json_opt_f64(l.far_baseline_ms),
                json_opt_f64(l.near_latest_ms),
                l.elevated,
                match congested {
                    Some(c) => c.to_string(),
                    None => "null".to_string(),
                },
            ));
            link_ips.insert(far);
        }
        lj.push_str("]}");

        // World provenance lets a dashboard (or CI smoke probe) confirm it
        // is looking at the run it thinks it is: same name, same
        // deterministic fingerprint.
        let world_json = match &world {
            Some((name, fp)) => format!(
                "{{\"name\":\"{}\",\"fingerprint\":\"{fp:016x}\"}}",
                manic_obs::json_escape(name)
            ),
            None => "null".to_string(),
        };
        let mut hj = format!(
            "{{\"epoch\":{epoch},\"sim_now\":{sim_now},\"world\":{world_json},\"tasks\":["
        );
        for (i, t) in health.iter().enumerate() {
            if i > 0 {
                hj.push(',');
            }
            hj.push_str(&format!(
                "{{\"vp\":\"{}\",\"vp_active\":{},\"near\":\"{}\",\"far\":\"{}\",\
                 \"state\":\"{}\"}}",
                manic_obs::json_escape(&t.vp),
                t.vp_active,
                t.near_ip,
                t.far_ip,
                health_name(t.state),
            ));
        }
        hj.push_str("]}");

        Snapshot {
            epoch,
            sim_now,
            links,
            health,
            link_ips,
            links_json: Arc::new(lj.into_bytes()),
            health_json: Arc::new(hj.into_bytes()),
            world,
        }
    }
}

/// Publish/read point for snapshots.
///
/// Readers pay one `RwLock` read acquisition and an `Arc` clone — the lock
/// is only write-held for the duration of a pointer swap, so the read path
/// effectively never blocks. The epoch counter is separately readable
/// without touching the lock (cache keys, staleness probes).
#[derive(Debug)]
pub struct SnapshotHub {
    current: RwLock<Arc<Snapshot>>,
    epoch: AtomicU64,
}

impl Default for SnapshotHub {
    fn default() -> Self {
        SnapshotHub::new()
    }
}

impl SnapshotHub {
    pub fn new() -> Self {
        SnapshotHub {
            current: RwLock::new(Arc::new(Snapshot::empty())),
            epoch: AtomicU64::new(0),
        }
    }

    /// Capture from `system` and publish as the next epoch. Returns it.
    pub fn publish_from(&self, system: &System, now: i64, lookback: i64) -> u64 {
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        let snap = Arc::new(Snapshot::capture(system, now, lookback, epoch));
        self.install(snap)
    }

    /// Publish a pre-built snapshot (tests, replay tooling).
    pub fn install(&self, snap: Arc<Snapshot>) -> u64 {
        let epoch = snap.epoch;
        *self.current.write().unwrap() = snap;
        // Epoch becomes visible after the snapshot: a reader pairing a
        // fresh epoch with the previous snapshot would only cache under a
        // key the next read repairs, never serve wrong data.
        self.epoch.store(epoch, Ordering::Release);
        crate::obs::metrics().snapshots_published.inc();
        epoch
    }

    pub fn current(&self) -> Arc<Snapshot> {
        self.current.read().unwrap().clone()
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_renders_valid_shells() {
        let s = Snapshot::empty();
        assert_eq!(s.epoch, 0);
        let lj = String::from_utf8(s.links_json.to_vec()).unwrap();
        assert_eq!(lj, "{\"epoch\":0,\"sim_now\":0,\"links\":[]}");
        let hj = String::from_utf8(s.health_json.to_vec()).unwrap();
        assert_eq!(hj, "{\"epoch\":0,\"sim_now\":0,\"world\":null,\"tasks\":[]}");
    }

    #[test]
    fn labeled_snapshot_renders_world_provenance() {
        let s = Snapshot::assemble(0, 0, Vec::new(), Vec::new(), Some(("sim-5k".into(), 0xABCD)));
        let hj = String::from_utf8(s.health_json.to_vec()).unwrap();
        assert_eq!(
            hj,
            "{\"epoch\":0,\"sim_now\":0,\
             \"world\":{\"name\":\"sim-5k\",\"fingerprint\":\"000000000000abcd\"},\
             \"tasks\":[]}"
        );
    }

    #[test]
    fn hub_swaps_epochs() {
        let hub = SnapshotHub::new();
        assert_eq!(hub.epoch(), 0);
        let mut s = Snapshot::empty();
        s.epoch = 1;
        assert_eq!(hub.install(Arc::new(s)), 1);
        assert_eq!(hub.epoch(), 1);
        assert_eq!(hub.current().epoch, 1);
    }
}
