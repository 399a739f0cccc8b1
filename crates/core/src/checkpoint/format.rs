//! The checkpoint meta's JSON shape — the only module that knows it.
//!
//! A meta is one JSON object: a [`Header`] of scalar fields (identity,
//! durability knobs, WAL position, snapshot name and hash), then the bulk
//! state (`vps`, `audit`), then a CRC-32 of every byte before the `crc`
//! field. [`encode`] writes it; [`Meta::parse`] verifies and reads it back.

use crate::health::{CycleBackoff, HealthState, TaskHealth, VpSupervisor};
use crate::system::{System, VpRuntime};
use manic_bdrmap::infer::LinkRel;
use manic_bdrmap::{BdrmapResult, InferredLink};
use manic_netsim::time::SimTime;
use manic_netsim::{Ipv4, SimState};
use manic_obs::json_escape;
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
pub const CHECKPOINT_VERSION: i64 = 2;

fn rel_str(rel: LinkRel) -> &'static str {
    match rel {
        LinkRel::Provider => "provider",
        LinkRel::Peer => "peer",
        LinkRel::Customer => "customer",
        LinkRel::Unknown => "unknown",
    }
}

fn rel_parse(s: &str) -> io::Result<LinkRel> {
    match s {
        "provider" => Ok(LinkRel::Provider),
        "peer" => Ok(LinkRel::Peer),
        "customer" => Ok(LinkRel::Customer),
        "unknown" => Ok(LinkRel::Unknown),
        other => Err(bad(format!("unknown link relationship '{other}'"))),
    }
}

// ---------------------------------------------------------------- JSON out

fn push_str_field(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&json_escape(s));
    out.push('"');
}

fn hex(v: u64) -> String {
    format!("{v:x}")
}

/// Audit values are serialized as `["name", tag, encoded]` triples with an
/// exact encoding per variant (`f64` as IEEE bits), so a restored trail is
/// bit-identical — `to_string` would lose NaN and precision.
fn push_audit_value(out: &mut String, name: &str, v: &manic_obs::Value) {
    out.push('[');
    push_str_field(out, name);
    let (tag, enc) = match v {
        manic_obs::Value::I64(x) => ("i", x.to_string()),
        manic_obs::Value::U64(x) => ("u", hex(*x)),
        manic_obs::Value::F64(x) => ("f", format!("{:016x}", x.to_bits())),
        manic_obs::Value::Bool(x) => ("b", x.to_string()),
        manic_obs::Value::Str(s) => ("s", s.clone()),
    };
    out.push(',');
    push_str_field(out, tag);
    out.push(',');
    push_str_field(out, &enc);
    out.push(']');
}

fn push_dests(out: &mut String, dests: &[(Ipv4, u8, u8)]) {
    out.push('[');
    for (i, (d, nt, ft)) in dests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{},{nt},{ft}]", d.0));
    }
    out.push(']');
}

fn vp_json(vp: &VpRuntime) -> String {
    let mut o = String::from("{\"name\":");
    push_str_field(&mut o, &vp.handle.name);
    o.push_str(&format!(",\"active\":{}", vp.active));
    match vp.last_cycle {
        Some(t) => o.push_str(&format!(",\"last_cycle\":{t}")),
        None => o.push_str(",\"last_cycle\":null"),
    }
    let (counter, limiters) = vp.sim.export();
    o.push_str(",\"sim_counter\":");
    push_str_field(&mut o, &hex(counter));
    o.push_str(",\"limiters\":[");
    for (i, (router, tokens, last)) in limiters.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!("[{router},\"{tokens:016x}\",{last}]"));
    }
    o.push_str("],\"tasks\":[");
    for (i, task) in vp.tslp.tasks.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!("[{},{},{},", task.near_ip.0, task.far_ip.0, task.flow_id));
        let dests: Vec<(Ipv4, u8, u8)> =
            task.dests.iter().map(|d| (d.dst, d.near_ttl, d.far_ttl)).collect();
        push_dests(&mut o, &dests);
        o.push(']');
    }
    // Sorted for a deterministic file (HashMap iteration order is not).
    let mut stale: Vec<_> = vp.stale_rounds.iter().collect();
    stale.sort_by_key(|((n, f), _)| (n.0, f.0));
    o.push_str("],\"stale\":[");
    for (i, ((n, f), c)) in stale.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!("[{},{},{c}]", n.0, f.0));
    }
    let mut health: Vec<_> = vp.health.iter().collect();
    health.sort_by_key(|((n, f), _)| (n.0, f.0));
    o.push_str("],\"health\":[");
    for (i, ((n, f), h)) in health.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let (state, misses, oks, until, secs, quar) = h.to_parts();
        o.push_str(&format!(
            "[{},{},\"{}\",{misses},{oks},{until},{secs},{quar}]",
            n.0,
            f.0,
            state.as_str()
        ));
    }
    let (failures, next_attempt, base, max) = vp.cycle_backoff.to_parts();
    o.push_str(&format!("],\"backoff\":[{failures},{next_attempt},{base},{max}]"));
    let (strikes, until, secs, retired) = vp.supervisor.to_parts();
    o.push_str(&format!(",\"supervisor\":[{strikes},{until},{secs},{retired}]"));
    match &vp.bdrmap {
        None => o.push_str(",\"links\":null,\"dest_link\":[]"),
        Some(bdr) => {
            o.push_str(",\"links\":[");
            for (i, l) in bdr.links.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                o.push_str(&format!(
                    "[{},{},{},\"{}\",{},{},",
                    l.near_ip.0,
                    l.far_ip.0,
                    l.far_as.0,
                    rel_str(l.rel),
                    l.via_ixp,
                    l.trace_count
                ));
                push_dests(&mut o, &l.dests);
                o.push(']');
            }
            let mut dl: Vec<_> = bdr.dest_link.iter().collect();
            dl.sort_by_key(|(d, _)| d.0);
            o.push_str("],\"dest_link\":[");
            for (i, (d, (n, f))) in dl.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                o.push_str(&format!("[{},{},{}]", d.0, n.0, f.0));
            }
            o.push(']');
        }
    }
    o.push('}');
    o
}

fn audit_json(rec: &manic_obs::AuditRecord) -> String {
    let mut o = String::from("{\"t\":");
    o.push_str(&rec.t.to_string());
    o.push_str(",\"vp\":");
    push_str_field(&mut o, &rec.vp);
    o.push_str(",\"near\":");
    push_str_field(&mut o, &rec.near);
    o.push_str(",\"link\":");
    push_str_field(&mut o, &rec.link);
    o.push_str(",\"detector\":");
    push_str_field(&mut o, rec.detector);
    o.push_str(&format!(",\"congested\":{},\"evidence\":[", rec.congested));
    for (i, ev) in rec.evidence.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push('[');
        push_str_field(&mut o, ev.kind);
        o.push_str(",[");
        for (j, (name, v)) in ev.fields.iter().enumerate() {
            if j > 0 {
                o.push(',');
            }
            push_audit_value(&mut o, name, v);
        }
        o.push_str("]]");
    }
    o.push_str("]}");
    o
}

// ----------------------------------------------------------------- JSON in

fn geti(v: &Json, k: &str) -> io::Result<i64> {
    v.get(k).and_then(Json::as_i64).ok_or_else(|| bad(format!("checkpoint: missing int '{k}'")))
}

fn gets<'a>(v: &'a Json, k: &str) -> io::Result<&'a str> {
    v.get(k).and_then(Json::as_str).ok_or_else(|| bad(format!("checkpoint: missing str '{k}'")))
}

fn getarr<'a>(v: &'a Json, k: &str) -> io::Result<&'a Vec<Json>> {
    v.get(k).and_then(Json::as_array).ok_or_else(|| bad(format!("checkpoint: missing array '{k}'")))
}

fn elem_i64(a: &[Json], i: usize, what: &str) -> io::Result<i64> {
    a.get(i).and_then(Json::as_i64).ok_or_else(|| bad(format!("checkpoint: bad {what}[{i}]")))
}

fn elem_str<'a>(a: &'a [Json], i: usize, what: &str) -> io::Result<&'a str> {
    a.get(i).and_then(Json::as_str).ok_or_else(|| bad(format!("checkpoint: bad {what}[{i}]")))
}

fn from_hex(s: &str) -> io::Result<u64> {
    u64::from_str_radix(s, 16).map_err(|_| bad(format!("checkpoint: bad hex '{s}'")))
}

fn ip(v: i64) -> Ipv4 {
    Ipv4(v as u32)
}

fn parse_dests(a: &[Json]) -> io::Result<Vec<(Ipv4, u8, u8)>> {
    a.iter()
        .map(|d| {
            let d = d.as_array().ok_or_else(|| bad("checkpoint: dest not an array"))?;
            Ok((
                ip(elem_i64(d, 0, "dest")?),
                elem_i64(d, 1, "dest")? as u8,
                elem_i64(d, 2, "dest")? as u8,
            ))
        })
        .collect()
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
            congested: r.get("congested").and_then(Json::as_bool).unwrap_or(false),
            evidence,
        });
    }
    Ok(out)
}

fn restore_vp(vp: &mut VpRuntime, m: &Json) -> io::Result<()> {
    vp.active = m.get("active").and_then(Json::as_bool).unwrap_or(true);
    vp.last_cycle = m.get("last_cycle").and_then(Json::as_i64);
    let counter = from_hex(gets(m, "sim_counter")?)?;
    let limiters = getarr(m, "limiters")?
        .iter()
        .map(|l| {
            let l = l.as_array().ok_or_else(|| bad("checkpoint: limiter not an array"))?;
            Ok((
                elem_i64(l, 0, "limiter")? as u32,
                from_hex(elem_str(l, 1, "limiter")?)?,
                elem_i64(l, 2, "limiter")?,
            ))
        })
        .collect::<io::Result<Vec<(u32, u64, i64)>>>()?;
    vp.sim = SimState::import(counter, &limiters);
    // `set_tasks` (not a raw field assignment) so the prober's cached
    // series keys are rebuilt to match the restored task set.
    vp.tslp.set_tasks(
        getarr(m, "tasks")?
            .iter()
            .map(|t| {
                let t = t.as_array().ok_or_else(|| bad("checkpoint: task not an array"))?;
                let dests = t
                    .get(3)
                    .and_then(Json::as_array)
                    .ok_or_else(|| bad("checkpoint: task dests missing"))?;
                Ok(TslpTask {
                    near_ip: ip(elem_i64(t, 0, "task")?),
                    far_ip: ip(elem_i64(t, 1, "task")?),
                    flow_id: elem_i64(t, 2, "task")? as u16,
                    dests: parse_dests(dests)?
                        .into_iter()
                        .map(|(dst, near_ttl, far_ttl)| TslpDest { dst, near_ttl, far_ttl })
                        .collect(),
                })
            })
            .collect::<io::Result<Vec<_>>>()?,
    );
    vp.stale_rounds = getarr(m, "stale")?
        .iter()
        .map(|s| {
            let s = s.as_array().ok_or_else(|| bad("checkpoint: stale not an array"))?;
            Ok((
                (ip(elem_i64(s, 0, "stale")?), ip(elem_i64(s, 1, "stale")?)),
                elem_i64(s, 2, "stale")? as u32,
            ))
        })
        .collect::<io::Result<HashMap<_, _>>>()?;
    vp.health = getarr(m, "health")?
        .iter()
        .map(|h| {
            let h = h.as_array().ok_or_else(|| bad("checkpoint: health not an array"))?;
            let state = HealthState::parse(elem_str(h, 2, "health")?)
                .ok_or_else(|| bad("checkpoint: unknown health state"))?;
            Ok((
                (ip(elem_i64(h, 0, "health")?), ip(elem_i64(h, 1, "health")?)),
                TaskHealth::from_parts(
                    state,
                    elem_i64(h, 3, "health")? as u32,
                    elem_i64(h, 4, "health")? as u32,
                    elem_i64(h, 5, "health")?,
                    elem_i64(h, 6, "health")?,
                    elem_i64(h, 7, "health")? as u32,
                ),
            ))
        })
        .collect::<io::Result<HashMap<_, _>>>()?;
    let b = getarr(m, "backoff")?;
    vp.cycle_backoff = CycleBackoff::from_parts(
        elem_i64(b, 0, "backoff")? as u32,
        elem_i64(b, 1, "backoff")?,
        elem_i64(b, 2, "backoff")?,
        elem_i64(b, 3, "backoff")?,
    );
    // Absent in pre-supervision checkpoints: default to a clean record.
    vp.supervisor = match m.get("supervisor").and_then(Json::as_array) {
        None => VpSupervisor::new(),
        Some(s) => VpSupervisor::from_parts(
            elem_i64(s, 0, "supervisor")? as u32,
            elem_i64(s, 1, "supervisor")?,
            elem_i64(s, 2, "supervisor")?,
            s.get(3).and_then(Json::as_bool).unwrap_or(false),
        ),
    };
    vp.bdrmap = match m.get("links") {
        None | Some(Json::Null) => None,
        Some(links) => {
            let links = links.as_array().ok_or_else(|| bad("checkpoint: links not an array"))?;
            let links = links
                .iter()
                .map(|l| {
                    let l = l.as_array().ok_or_else(|| bad("checkpoint: link not an array"))?;
                    let dests = l
                        .get(6)
                        .and_then(Json::as_array)
                        .ok_or_else(|| bad("checkpoint: link dests missing"))?;
                    Ok(InferredLink {
                        near_ip: ip(elem_i64(l, 0, "link")?),
                        far_ip: ip(elem_i64(l, 1, "link")?),
                        far_as: manic_netsim::AsNumber(elem_i64(l, 2, "link")? as u32),
                        rel: rel_parse(elem_str(l, 3, "link")?)?,
                        via_ixp: l.get(4).and_then(Json::as_bool).unwrap_or(false),
                        trace_count: elem_i64(l, 5, "link")? as usize,
                        dests: parse_dests(dests)?,
                    })
                })
                .collect::<io::Result<Vec<_>>>()?;
            let dest_link = getarr(m, "dest_link")?
                .iter()
                .map(|d| {
                    let d =
                        d.as_array().ok_or_else(|| bad("checkpoint: dest_link not an array"))?;
                    Ok((
                        ip(elem_i64(d, 0, "dest_link")?),
                        (ip(elem_i64(d, 1, "dest_link")?), ip(elem_i64(d, 2, "dest_link")?)),
                    ))
                })
                .collect::<io::Result<HashMap<_, _>>>()?;
            Some(BdrmapResult { links, dest_link })
        }
    };
    // Derived state, not checkpointed: the link index is rebuilt from the
    // restored bdrmap, and the incremental summaries recreate themselves at
    // the first post-resume commit by store backfill (their content is a
    // pure function of the restored store, so fingerprints converge with an
    // uninterrupted run's — DESIGN.md §5k).
    vp.bdrmap_links = vp
        .bdrmap
        .as_ref()
        .map(|b| {
            b.links
                .iter()
                .map(|l| {
                    (
                        (l.near_ip, l.far_ip),
                        crate::system::LinkMeta { far_as: l.far_as, rel: l.rel },
                    )
                })
                .collect()
        })
        .unwrap_or_default();
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
    let mut o = String::from("{\"version\":");
    o.push_str(&CHECKPOINT_VERSION.to_string());
    o.push_str(",\"world\":");
    push_str_field(&mut o, &d.world_name);
    o.push_str(",\"seed\":");
    push_str_field(&mut o, &hex(d.seed));
    o.push_str(&format!(
        ",\"t_start\":{},\"t_end\":{},\"t\":{t},\"rounds\":{}",
        d.t_start, d.t_end, d.rounds
    ));
    o.push_str(",\"policy\":");
    push_str_field(&mut o, &d.cfg.fsync.to_string());
    o.push_str(&format!(
        ",\"rotate_bytes\":{},\"checkpoint_every\":{},\"keep_checkpoints\":{}",
        d.cfg.rotate_bytes, d.cfg.checkpoint_every_rounds, d.cfg.keep_checkpoints
    ));
    o.push_str(&format!(",\"wal_segment\":{},\"wal_offset\":{}", pos.segment, pos.offset));
    o.push_str(",\"store_file\":");
    push_str_field(&mut o, &snapshot_name(d.rounds));
    o.push_str(",\"store_hash\":");
    push_str_field(&mut o, &format!("{store_hash:016x}"));
    o.push_str(",\"vps\":[");
    for (i, vp) in sys.vps.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&vp_json(vp));
    }
    o.push_str("],\"audit\":[");
    let mut sep = "";
    manic_obs::audit().for_each(|rec| {
        o.push_str(sep);
        sep = ",";
        o.push_str(&audit_json(rec));
    });
    o.push(']');
    // Self-checksum over everything before the crc field: a flipped bit
    // anywhere in the meta (a digit of `t`, a VP counter, ...) must be
    // detected and the generation rejected, not silently trusted.
    let crc = manic_tsdb::segment::crc32(o.as_bytes());
    o.push_str(&format!(",\"crc\":\"{crc:08x}\"}}"));
    o
}

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
        // Verify the meta's self-checksum when present (metas from before
        // the crc field are accepted as-is). The crc covers every byte
        // before the field itself, so any flipped bit in the body or the
        // crc is caught.
        if let Some(idx) = text.rfind(",\"crc\":\"") {
            let ok = text[idx + 8..]
                .get(..8)
                .and_then(|h| u32::from_str_radix(h, 16).ok())
                .map(|want| manic_tsdb::segment::crc32(&text.as_bytes()[..idx]) == want)
                .unwrap_or(false);
            if !ok {
                return Err(bad("meta checksum mismatch"));
            }
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
                // Absent in pre-generation checkpoints.
                keep_checkpoints: doc
                    .get("keep_checkpoints")
                    .and_then(Json::as_i64)
                    .map_or(3, |v| v.max(1) as usize),
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
