//! The checkpoint meta's JSON shape — the only module that knows it.
//!
//! A meta is one JSON object: a [`Header`] of scalar fields (identity,
//! durability knobs, WAL position, snapshot name and hash), then the bulk
//! state (`vps`, `audit`), then a CRC-32 of every byte before the `crc`
//! field. [`encode`] writes it; [`Meta::parse`] verifies and reads it back.

use crate::health::{Backoff, HealthState, TaskHealth, VpSupervisor};
use crate::system::{System, VpRuntime};
use manic_bdrmap::infer::LinkRel;
use manic_bdrmap::{BdrmapResult, InferredLink};
use manic_netsim::time::SimTime;
use manic_netsim::{Ipv4, SimState};
use manic_obs::JsonWriter;
use manic_probing::tslp::{TslpDest, TslpTask};
use manic_tsdb::{FsyncPolicy, WalPosition};
use serde_json::Value as Json;
use std::collections::HashMap;
use std::io;

use super::generations::snapshot_name;
use super::{bad, DurabilityConfig, Durable};

/// Checkpoint format version: the meta's JSON shape plus the snapshot's
/// layout (`Store::write_snapshot`: the WAL's `K`/`B`/`A` frames). A meta of
/// any other version is refused — there is no cross-version reader.
pub const CHECKPOINT_VERSION: i64 = 3;

// ---------------------------------------------------------------- JSON out

fn write_vp(w: &mut JsonWriter, vp: &VpRuntime) {
    w.begin_object().key("name").str(&vp.handle.name).key("active").bool(vp.active);
    w.key("last_cycle").opt(vp.last_cycle, JsonWriter::int);
    let (counter, limiters) = vp.sim.export();
    w.key("sim_counter").str(format_args!("{counter:x}")).key("limiters").begin_array();
    for (router, tokens, last) in limiters {
        w.begin_array().int(router).str(format_args!("{tokens:016x}")).int(last).end_array();
    }
    // `[near, far, flow, [[dst, near_ttl, far_ttl], ...]]` per task.
    w.end_array().key("tasks").begin_array();
    for task in &vp.tslp.tasks {
        w.begin_array().int(task.near_ip.0).int(task.far_ip.0).int(task.flow_id).begin_array();
        for d in &task.dests {
            w.begin_array().int(d.dst.0).int(d.near_ttl).int(d.far_ttl).end_array();
        }
        w.end_array().end_array();
    }
    // `[near, far, state, misses, oks, dark, count, until]` per task,
    // sorted for a deterministic file (HashMap iteration order is not).
    let mut health: Vec<_> = vp.health.iter().collect();
    health.sort_by_key(|((n, f), _)| (n.0, f.0));
    w.end_array().key("health").begin_array();
    for ((n, f), h) in health {
        w.begin_array().int(n.0).int(f.0).str(h.state.as_str()).int(h.misses).int(h.oks);
        w.int(h.dark_rounds).int(h.backoff.count).int(h.backoff.until).end_array();
    }
    w.end_array();
    for (key, b) in [("backoff", vp.cycle_backoff), ("supervisor", vp.supervisor.backoff)] {
        w.key(key).begin_array().int(b.count).int(b.until).end_array();
    }
    // `[near, far, as, rel, ixp]` per link, in `BdrmapResult` order.
    w.key("links");
    match &vp.bdrmap {
        None => {
            w.null();
        }
        Some(bdr) => {
            w.begin_array();
            for l in &bdr.links {
                w.begin_array().int(l.near_ip.0).int(l.far_ip.0).int(l.far_as.0);
                w.str(l.rel.as_str()).bool(l.via_ixp).end_array();
            }
            w.end_array();
        }
    }
    w.end_object();
}

/// Audit values are serialized as `["name", tag, encoded]` triples with an
/// exact encoding per variant (`f64` as IEEE bits), so a restored trail is
/// bit-identical — `to_string` would lose NaN and precision.
fn write_audit(w: &mut JsonWriter, rec: &manic_obs::AuditRecord) {
    use manic_obs::Value;
    w.begin_object().key("t").int(rec.t).key("vp").str(&rec.vp);
    w.key("near").str(&rec.near).key("link").str(&rec.link);
    w.key("detector").str(rec.detector).key("congested").bool(rec.congested);
    w.key("evidence").begin_array();
    for ev in &rec.evidence {
        w.begin_array().str(ev.kind).begin_array();
        for (name, v) in &ev.fields {
            w.begin_array().str(name);
            match v {
                Value::I64(x) => w.str("i").str(x),
                Value::U64(x) => w.str("u").str(format_args!("{x:x}")),
                Value::F64(x) => w.str("f").str(format_args!("{:016x}", x.to_bits())),
                Value::Bool(x) => w.str("b").str(x),
                Value::Str(s) => w.str("s").str(s),
            };
            w.end_array();
        }
        w.end_array().end_array();
    }
    w.end_array().end_object();
}

// ----------------------------------------------------------------- JSON in

fn geti(v: &Json, k: &str) -> io::Result<i64> {
    v.get(k).and_then(Json::as_i64).ok_or_else(|| bad(format!("checkpoint: missing int '{k}'")))
}

fn gets<'a>(v: &'a Json, k: &str) -> io::Result<&'a str> {
    v.get(k).and_then(Json::as_str).ok_or_else(|| bad(format!("checkpoint: missing str '{k}'")))
}

fn getb(v: &Json, k: &str) -> io::Result<bool> {
    v.get(k).and_then(Json::as_bool).ok_or_else(|| bad(format!("checkpoint: missing bool '{k}'")))
}

fn getarr<'a>(v: &'a Json, k: &str) -> io::Result<&'a Vec<Json>> {
    v.get(k).and_then(Json::as_array).ok_or_else(|| bad(format!("checkpoint: missing array '{k}'")))
}

fn elem_i64(a: &[Json], i: usize, what: &str) -> io::Result<i64> {
    a.get(i).and_then(Json::as_i64).ok_or_else(|| bad(format!("checkpoint: bad {what}[{i}]")))
}

fn elem_bool(a: &[Json], i: usize, what: &str) -> io::Result<bool> {
    a.get(i).and_then(Json::as_bool).ok_or_else(|| bad(format!("checkpoint: bad {what}[{i}]")))
}

fn elem_str<'a>(a: &'a [Json], i: usize, what: &str) -> io::Result<&'a str> {
    a.get(i).and_then(Json::as_str).ok_or_else(|| bad(format!("checkpoint: bad {what}[{i}]")))
}

/// `Backoff { count: a[at], until: a[at + 1] }`.
fn elem_backoff(a: &[Json], at: usize, what: &str) -> io::Result<Backoff> {
    Ok(Backoff {
        count: elem_i64(a, at, what)? as u32,
        until: elem_i64(a, at + 1, what)?,
    })
}

/// The elements of the array at `v[k]`, each itself an array.
fn rows<'a>(v: &'a Json, k: &'a str) -> io::Result<impl Iterator<Item = io::Result<&'a [Json]>>> {
    Ok(getarr(v, k)?.iter().map(move |r| {
        let row = r.as_array().map(Vec::as_slice);
        row.ok_or_else(|| bad(format!("checkpoint: {k} row not an array")))
    }))
}

fn from_hex(s: &str) -> io::Result<u64> {
    u64::from_str_radix(s, 16).map_err(|_| bad(format!("checkpoint: bad hex '{s}'")))
}

fn ip(v: i64) -> Ipv4 {
    Ipv4(v as u32)
}

/// Intern an audit string back to `&'static str`. Known detector/evidence
/// vocabulary maps to the original constants; anything else (a future
/// detector read by an older binary) is leaked — audit restore happens once
/// per process, so the leak is bounded by the trail size.
fn intern(s: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "levelshift",
        "elevation",
        "level_shift",
        "masked_bins",
        "quality_flags",
        "autocorr_window",
        "autocorr_rejected",
        "masked",
        "total",
        "flags",
        "start_t",
        "end_t",
        "duration_bins",
        "baseline_ms",
        "level_ms",
        "far_latest_ms",
        "far_baseline_ms",
        "threshold_ms",
        "lookback_s",
    ];
    for k in KNOWN {
        if *k == s {
            return k;
        }
    }
    Box::leak(s.to_string().into_boxed_str())
}

fn parse_audit_value(triple: &[Json]) -> io::Result<(&'static str, manic_obs::Value)> {
    let name = intern(elem_str(triple, 0, "audit value")?);
    let tag = elem_str(triple, 1, "audit value")?;
    let enc = elem_str(triple, 2, "audit value")?;
    let v = match tag {
        "i" => manic_obs::Value::I64(
            enc.parse::<i64>().map_err(|_| bad(format!("checkpoint: bad i64 '{enc}'")))?,
        ),
        "u" => manic_obs::Value::U64(from_hex(enc)?),
        "f" => manic_obs::Value::F64(f64::from_bits(from_hex(enc)?)),
        "b" => manic_obs::Value::Bool(enc == "true"),
        "s" => manic_obs::Value::Str(enc.to_string()),
        other => return Err(bad(format!("checkpoint: unknown value tag '{other}'"))),
    };
    Ok((name, v))
}

fn parse_audit(records: &[Json]) -> io::Result<Vec<manic_obs::AuditRecord>> {
    let mut out = Vec::with_capacity(records.len());
    for r in records {
        let mut evidence = Vec::new();
        for ev in getarr(r, "evidence")? {
            let pair = ev.as_array().ok_or_else(|| bad("checkpoint: evidence not an array"))?;
            let kind = intern(elem_str(pair, 0, "evidence")?);
            let fields = pair
                .get(1)
                .and_then(Json::as_array)
                .ok_or_else(|| bad("checkpoint: evidence fields missing"))?
                .iter()
                .map(|t| {
                    parse_audit_value(
                        t.as_array().ok_or_else(|| bad("checkpoint: audit value not an array"))?,
                    )
                })
                .collect::<io::Result<Vec<_>>>()?;
            evidence.push(manic_obs::Evidence::new(kind, fields));
        }
        out.push(manic_obs::AuditRecord {
            t: geti(r, "t")?,
            vp: gets(r, "vp")?.to_string(),
            near: gets(r, "near")?.to_string(),
            link: gets(r, "link")?.to_string(),
            detector: intern(gets(r, "detector")?),
            congested: getb(r, "congested")?,
            evidence,
        });
    }
    Ok(out)
}

fn restore_vp(vp: &mut VpRuntime, m: &Json) -> io::Result<()> {
    vp.active = getb(m, "active")?;
    vp.last_cycle = m.get("last_cycle").and_then(Json::as_i64);
    let counter = from_hex(gets(m, "sim_counter")?)?;
    let limiters = rows(m, "limiters")?
        .map(|l| {
            let l = l?;
            Ok((
                elem_i64(l, 0, "limiter")? as u32,
                from_hex(elem_str(l, 1, "limiter")?)?,
                elem_i64(l, 2, "limiter")?,
            ))
        })
        .collect::<io::Result<Vec<(u32, u64, i64)>>>()?;
    vp.sim = SimState::import(counter, &limiters);
    // `set_tasks` (not a raw field assignment) so the prober's cached
    // series keys are rebuilt to match the restored task set; the slot
    // table is emptied, so the first commit resolves it in the restored
    // store.
    vp.tslp.set_tasks(
        rows(m, "tasks")?
            .map(|t| {
                let t = t?;
                let dests = t
                    .get(3)
                    .and_then(Json::as_array)
                    .ok_or_else(|| bad("checkpoint: task dests missing"))?
                    .iter()
                    .map(|d| {
                        let d = d.as_array().ok_or_else(|| bad("checkpoint: dest not an array"))?;
                        Ok(TslpDest {
                            dst: ip(elem_i64(d, 0, "dest")?),
                            near_ttl: elem_i64(d, 1, "dest")? as u8,
                            far_ttl: elem_i64(d, 2, "dest")? as u8,
                        })
                    })
                    .collect::<io::Result<Vec<_>>>()?;
                Ok(TslpTask {
                    near_ip: ip(elem_i64(t, 0, "task")?),
                    far_ip: ip(elem_i64(t, 1, "task")?),
                    flow_id: elem_i64(t, 2, "task")? as u16,
                    dests,
                })
            })
            .collect::<io::Result<Vec<_>>>()?,
    );
    vp.slots.clear();
    vp.health = rows(m, "health")?
        .map(|h| {
            let h = h?;
            let rec = TaskHealth {
                state: HealthState::parse(elem_str(h, 2, "health")?)
                    .ok_or_else(|| bad("checkpoint: unknown health state"))?,
                misses: elem_i64(h, 3, "health")? as u32,
                oks: elem_i64(h, 4, "health")? as u32,
                dark_rounds: elem_i64(h, 5, "health")? as u32,
                backoff: elem_backoff(h, 6, "health")?,
            };
            Ok(((ip(elem_i64(h, 0, "health")?), ip(elem_i64(h, 1, "health")?)), rec))
        })
        .collect::<io::Result<HashMap<_, _>>>()?;
    vp.cycle_backoff = elem_backoff(getarr(m, "backoff")?, 0, "backoff")?;
    let supervisor = elem_backoff(getarr(m, "supervisor")?, 0, "supervisor")?;
    vp.supervisor = VpSupervisor { backoff: supervisor };
    vp.bdrmap = match m.get("links") {
        None | Some(Json::Null) => None,
        Some(_) => {
            let links = rows(m, "links")?
                .map(|l| {
                    let l = l?;
                    Ok(InferredLink {
                        near_ip: ip(elem_i64(l, 0, "link")?),
                        far_ip: ip(elem_i64(l, 1, "link")?),
                        far_as: manic_netsim::AsNumber(elem_i64(l, 2, "link")? as u32),
                        rel: LinkRel::parse(elem_str(l, 3, "link")?)
                            .ok_or_else(|| bad("checkpoint: unknown link relationship"))?,
                        via_ixp: elem_bool(l, 4, "link")?,
                    })
                })
                .collect::<io::Result<Vec<_>>>()?;
            // `BdrmapResult::link` binary-searches, so the order is part of
            // the state: links out of `(near, far)` order make a bad meta.
            let key = |l: &InferredLink| (l.near_ip, l.far_ip);
            if !links.windows(2).all(|p| key(&p[0]) < key(&p[1])) {
                return Err(bad("checkpoint: links not sorted by (near, far)"));
            }
            Some(BdrmapResult { links })
        }
    };
    // Derived state, not checkpointed: the incremental summaries recreate
    // themselves at the first post-resume commit by store backfill (their
    // content is a pure function of the restored store, so fingerprints
    // converge with an uninterrupted run's — DESIGN.md §5k).
    vp.summaries.clear();
    Ok(())
}

// ------------------------------------------------------------ whole meta

/// Serialize the meta of the generation `d` is writing at sim time `t`:
/// the scalar fields (`store_hash` is the content hash of the snapshot the
/// generation names, computed by whoever wrote it), every VP's runtime
/// state and the audit trail.
pub(super) fn encode(
    d: &Durable,
    sys: &System,
    t: SimTime,
    pos: WalPosition,
    store_hash: u64,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object().key("version").int(CHECKPOINT_VERSION).key("world").str(&d.world_name);
    w.key("seed").str(format_args!("{:x}", d.seed));
    w.key("t_start").int(d.t_start).key("t_end").int(d.t_end).key("t").int(t);
    w.key("rounds").int(d.rounds).key("policy").str(d.cfg.fsync);
    w.key("rotate_bytes").int(d.cfg.rotate_bytes);
    w.key("checkpoint_every").int(d.cfg.checkpoint_every_rounds);
    w.key("keep_checkpoints").int(d.cfg.keep_checkpoints);
    w.key("wal_segment").int(pos.segment).key("wal_offset").int(pos.offset);
    w.key("store_file").str(snapshot_name(d.rounds));
    w.key("store_hash").str(format_args!("{store_hash:016x}"));
    w.key("vps").begin_array();
    for vp in &sys.vps {
        write_vp(&mut w, vp);
    }
    w.end_array().key("audit").begin_array();
    manic_obs::audit().for_each(|rec| write_audit(&mut w, rec));
    w.end_array();
    // Self-checksum over everything before the crc member: a flipped bit
    // anywhere in the meta (a digit of `t`, a VP counter, ...) must be
    // detected and the generation rejected, not silently trusted.
    let crc = manic_tsdb::segment::crc32(w.as_str().as_bytes());
    w.key("crc").str(format_args!("{crc:08x}")).end_object();
    w.finish()
}

/// What the crc member starts with; the crc covers every byte before it.
const CRC_MEMBER: &str = r#","crc":""#;

/// A verified, parsed meta. The scalar fields — what recovery needs to
/// choose a generation, find its snapshot and reopen the WAL — are decoded;
/// the bulk state stays JSON until a generation is actually restored.
pub(super) struct Meta {
    pub world: String,
    pub seed: u64,
    pub t_start: SimTime,
    pub t_end: SimTime,
    /// Sim time of the checkpoint — re-execution continues here.
    pub t: SimTime,
    pub rounds: u64,
    /// The run's durability knobs; its `vfs`, not checkpointed, is the real disk.
    pub cfg: DurabilityConfig,
    /// WAL position the checkpoint acknowledges.
    pub pos: WalPosition,
    pub store_file: String,
    pub store_hash: u64,
    doc: Json,
}

impl Meta {
    pub fn parse(text: &str) -> io::Result<Meta> {
        // Verify the meta's self-checksum, which every writer appends. It
        // covers every byte before its own member, so any flipped bit in
        // the body, the crc or its key is caught.
        let idx = text.rfind(CRC_MEMBER).ok_or_else(|| bad("meta has no checksum"))?;
        let ok = text[idx + CRC_MEMBER.len()..]
            .get(..8)
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .is_some_and(|want| manic_tsdb::segment::crc32(&text.as_bytes()[..idx]) == want);
        if !ok {
            return Err(bad("meta checksum mismatch"));
        }
        let doc: Json = serde_json::from_str(text).map_err(|e| bad(format!("unreadable: {e:?}")))?;
        let version = geti(&doc, "version")?;
        if version != CHECKPOINT_VERSION {
            // `Unsupported`, not `InvalidData`: the generation is not
            // damaged, so recovery must not fall back past it — the whole
            // directory belongs to another binary.
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "checkpoint format version {version}, but this binary reads and writes \
                     only version {CHECKPOINT_VERSION}"
                ),
            ));
        }
        Ok(Meta {
            world: gets(&doc, "world")?.to_string(),
            seed: from_hex(gets(&doc, "seed")?)?,
            t_start: geti(&doc, "t_start")?,
            t_end: geti(&doc, "t_end")?,
            t: geti(&doc, "t")?,
            rounds: geti(&doc, "rounds")? as u64,
            cfg: DurabilityConfig {
                fsync: FsyncPolicy::parse(gets(&doc, "policy")?)
                    .ok_or_else(|| bad("checkpoint: bad fsync policy"))?,
                checkpoint_every_rounds: geti(&doc, "checkpoint_every")?.max(1) as u64,
                rotate_bytes: geti(&doc, "rotate_bytes")? as u64,
                keep_checkpoints: geti(&doc, "keep_checkpoints")?.max(1) as usize,
                vfs: manic_vfs::real(),
            },
            pos: WalPosition {
                segment: geti(&doc, "wal_segment")? as u64,
                offset: geti(&doc, "wal_offset")? as u64,
            },
            store_file: gets(&doc, "store_file")?.to_string(),
            store_hash: from_hex(gets(&doc, "store_hash")?)?,
            doc,
        })
    }

    /// Restore the bulk state: per-VP runtime state, matched by name
    /// against the rebuilt world, and the process-global audit trail.
    pub fn restore_state(&self, sys: &mut System) -> io::Result<()> {
        for m in getarr(&self.doc, "vps")? {
            let name = gets(m, "name")?;
            let vp = sys
                .vps
                .iter_mut()
                .find(|v| v.handle.name == name)
                .ok_or_else(|| bad(format!("checkpoint names unknown VP '{name}'")))?;
            restore_vp(vp, m)?;
        }
        let records = parse_audit(getarr(&self.doc, "audit")?)?;
        let trail = manic_obs::audit();
        trail.clear();
        records.into_iter().for_each(|rec| trail.record(rec));
        Ok(())
    }
}
