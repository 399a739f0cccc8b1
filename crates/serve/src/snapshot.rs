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

use manic_core::{LinkStatus, System, TaskHealthStatus};
use manic_obs::JsonWriter;
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

    /// Build a snapshot from its rows, rendering both bodies. The latest
    /// `levelshift` verdict per link is read from the audit trail.
    pub fn assemble(
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
        let mut lj = JsonWriter::new();
        lj.begin_object().key("epoch").int(epoch).key("sim_now").int(sim_now);
        lj.key("links").begin_array();
        for l in &links {
            let far = l.far_ip.to_string();
            lj.begin_object().key("vp").str(&l.vp).key("near").str(l.near_ip).key("far").str(&far);
            lj.key("neighbor").opt(l.neighbor, JsonWriter::str).key("rel").str(l.rel.as_str());
            lj.key("far_latest_ms").opt(l.far_latest_ms, JsonWriter::f64);
            lj.key("far_baseline_ms").opt(l.far_baseline_ms, JsonWriter::f64);
            lj.key("near_latest_ms").opt(l.near_latest_ms, JsonWriter::f64);
            lj.key("elevated").bool(l.elevated);
            lj.key("congested").opt(verdicts.get(&far).copied(), JsonWriter::bool).end_object();
            link_ips.insert(far);
        }
        lj.end_array().end_object();

        // World provenance lets a dashboard (or CI smoke probe) confirm it
        // is looking at the run it thinks it is: same name, same
        // deterministic fingerprint.
        let mut hj = JsonWriter::new();
        hj.begin_object().key("epoch").int(epoch).key("sim_now").int(sim_now);
        hj.key("world").opt(world.as_ref(), |w, (name, fp)| {
            w.begin_object().key("name").str(name);
            w.key("fingerprint").str(format_args!("{fp:016x}")).end_object()
        });
        hj.key("tasks").begin_array();
        for t in &health {
            hj.begin_object().key("vp").str(&t.vp).key("vp_active").bool(t.vp_active);
            hj.key("near").str(t.near_ip).key("far").str(t.far_ip);
            hj.key("state").str(t.state.as_str()).end_object();
        }
        hj.end_array().end_object();

        Snapshot {
            epoch,
            sim_now,
            links,
            health,
            link_ips,
            links_json: Arc::new(lj.finish().into_bytes()),
            health_json: Arc::new(hj.finish().into_bytes()),
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
