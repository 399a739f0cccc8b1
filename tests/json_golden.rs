//! Byte goldens for every hand-built JSON document: the served bodies
//! (`/api/links`, `/api/health` with its overload and durability blocks,
//! timeseries, explain, the error envelope), the journal line, the metrics
//! JSON and the checkpoint meta.
//!
//! The constants at the bottom were printed by the emitters that preceded
//! `manic_obs::JsonWriter` (PR 22's method: pin the bytes, then rewrite the
//! code under them). Inputs are finite except where a non-finite value was
//! already `null`; `non_finite_evidence_is_null` covers the one place it was
//! not.

use manic_bdrmap::infer::LinkRel;
use manic_core::{
    DurabilityConfig, Durable, HealthState, LinkStatus, System, SystemConfig, TaskHealthStatus,
};
use manic_netsim::time::{date_to_sim, Date};
use manic_netsim::{AsNumber, Ipv4};
use manic_obs::{AuditRecord, Event, Evidence, Level, Registry, Value};
use manic_scenario::worlds::toy;
use manic_serve::{
    DurabilityStatus, OverloadConfig, OverloadState, Request, Response, ServeConfig, ServeState,
    Snapshot, SnapshotHub,
};
use manic_tsdb::wal::FsyncPolicy;
use manic_tsdb::SeriesKey;
use std::sync::Arc;

fn pin(name: &str, actual: &str, expected: &str) {
    assert!(actual == expected, "{name} drifted:\n  got  {actual:?}\n  want {expected:?}");
}

fn body(r: &Response) -> String {
    format!("{} {}", r.status, String::from_utf8(r.body.to_vec()).unwrap())
}

fn get(state: &ServeState, path: &str, query: &str) -> Response {
    let req = Request {
        method: "GET".into(),
        path: path.into(),
        query: query
            .split('&')
            .filter(|s| !s.is_empty())
            .map(|p| {
                let (k, v) = p.split_once('=').unwrap();
                (k.to_string(), v.to_string())
            })
            .collect(),
        raw_query: query.into(),
        keep_alive: true,
    };
    manic_serve::api::handle(state, &req)
}

fn durability() -> DurabilityStatus {
    let d = DurabilityStatus::new("every-\"64\"");
    d.note_recovery(20, 3, 12.3456);
    d.note_progress(31);
    d.note_checkpoint(24, 7_200);
    d.note_storage_findings(&manic_core::StorageFindings {
        fallback_generations: 1,
        bad_metas: 2,
        healed_snapshot: true,
        quarantined_frames: 3,
        quarantined_bytes: 96,
        gap_windows: 4,
        ..Default::default()
    });
    d.set_storage_degraded(true);
    d
}

fn evidence() -> Vec<Evidence> {
    vec![
        Evidence::new(
            "level_shift",
            vec![
                ("start_t", Value::from(600i64)),
                ("duration_bins", Value::from(7u64)),
                ("baseline_ms", Value::from(20.5)),
                ("level_ms", Value::from(1e21)),
                ("tiny_ms", Value::from(1e-7)),
                ("neg", Value::from(-0.0)),
            ],
        ),
        Evidence::new(
            "quality_flags",
            vec![("flags", Value::from("a\"b\\c\nd\u{1}é€😀")), ("ok", Value::from(true))],
        ),
    ]
}

#[test]
fn pure_emitters_are_pinned() {
    let ev = Event {
        t: -42,
        level: Level::Warn,
        target: "core",
        name: "health_transition",
        fields: vec![
            ("vp", Value::from("a\"b\\c\nd\r\t\u{1}\u{1f}é")),
            ("rounds", Value::from(u64::MAX)),
            ("delta", Value::from(i64::MIN)),
            ("ok", Value::from(false)),
            ("ms", Value::from(1.5f64)),
            ("big", Value::from(1e21)),
            ("tiny", Value::from(1e-7)),
            ("third", Value::from(1.0 / 3.0)),
            ("whole", Value::from(20.0)),
        ],
    };
    pin("JOURNAL_LINE", &ev.to_json(), JOURNAL_LINE);

    let r = Registry::new();
    r.counter_labeled("manic_t_c", &[("vp", "x\"y\\z")]).add(7);
    r.counter("manic_t_a").add(3);
    r.gauge("manic_t_g").set(-5);
    r.gauge("manic_t_g2").set(9);
    let h = r.histogram("manic_t_h");
    for v in [0.01, 0.5, 1.0, 7.3, 250.0, 1e9] {
        h.observe(v);
    }
    r.histogram_labeled("manic_t_h2", &[("vp", "a")]).observe(3.0);
    r.histogram("manic_t_h3");
    pin("REGISTRY_JSON", &r.render_json(), REGISTRY_JSON);
    pin("EMPTY_REGISTRY_JSON", &Registry::new().render_json(), EMPTY_REGISTRY_JSON);

    pin("ERROR_ENVELOPE", &body(&Response::error(400, "bad \"q\" \\ x\ny\u{1}z")), ERROR_ENVELOPE);
    pin("UNAVAILABLE", &body(&Response::unavailable("overloaded, request shed")), UNAVAILABLE);
    pin("DURABILITY_FRESH", &DurabilityStatus::new("always").to_json(), DURABILITY_FRESH);
    pin("DURABILITY", &durability().to_json(), DURABILITY);

    let rec = AuditRecord {
        t: 900,
        vp: "vp \"q\"".into(),
        near: "10.9.0.1".into(),
        link: "10.9.0.2".into(),
        detector: "levelshift",
        congested: true,
        evidence: evidence(),
    };
    pin("AUDIT_RECORD", &rec.to_json(), AUDIT_RECORD);
}

/// `Evidence` used to render a non-string value with `to_string()`, so an
/// elevation verdict with no far samples served a bare `NaN` token from
/// `/api/link/<ip>/explain`. Every non-finite float is `null`, as in the
/// journal.
#[test]
fn non_finite_evidence_is_null() {
    let rec = AuditRecord {
        t: 0,
        vp: "vp-a".into(),
        near: "10.9.0.1".into(),
        link: "10.9.0.2".into(),
        detector: "elevation",
        congested: false,
        evidence: vec![Evidence::new(
            "elevation",
            vec![
                ("far_latest_ms", Value::from(f64::NAN)),
                ("far_baseline_ms", Value::from(f64::INFINITY)),
                ("threshold_ms", Value::from(f64::NEG_INFINITY)),
            ],
        )],
    };
    let doc: serde_json::Value = serde_json::from_str(&rec.to_json()).expect("valid JSON");
    let ev = &doc["evidence"][0];
    assert_eq!(ev["kind"], "elevation");
    for k in ["far_latest_ms", "far_baseline_ms", "threshold_ms"] {
        assert_eq!(ev[k], serde_json::Value::Null, "{k}");
    }
}

fn link(
    vp: &str,
    far: u8,
    rel: LinkRel,
    rtts: [Option<f64>; 3],
    neighbor: Option<u32>,
) -> LinkStatus {
    LinkStatus {
        vp: vp.into(),
        near_ip: Ipv4::new(10, 9, far, 1),
        far_ip: Ipv4::new(10, 9, far, 2),
        neighbor: neighbor.map(AsNumber),
        rel,
        far_latest_ms: rtts[0],
        far_baseline_ms: rtts[1],
        near_latest_ms: rtts[2],
        elevated: far.is_multiple_of(2),
    }
}

fn task(vp: &str, far: u8, active: bool, state: HealthState) -> TaskHealthStatus {
    TaskHealthStatus {
        vp: vp.into(),
        vp_active: active,
        near_ip: Ipv4::new(10, 9, far, 1),
        far_ip: Ipv4::new(10, 9, far, 2),
        state,
    }
}

/// `name len fnv1a` per checkpoint meta of a 3 h durable toy run whose
/// trail ends in a hand-made record (escapes, every value tag, NaN bits).
fn meta_digest() -> String {
    manic_obs::audit().clear();
    let from = date_to_sim(Date::new(2017, 3, 1));
    let to = from + 3 * 3600;
    let dir = std::env::temp_dir().join(format!("manic-json-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DurabilityConfig {
        fsync: FsyncPolicy::EveryN(8),
        checkpoint_every_rounds: 12,
        ..DurabilityConfig::default()
    };
    let mut sys = System::new(toy(42), SystemConfig::default());
    let mut d = Durable::create(&sys, "toy", 42, &dir, from, to, cfg).expect("create durable");
    d.run_window(&mut sys, to, &|| false).expect("run window");
    for vi in 0..sys.vps.len() {
        sys.arm_reactive_loss(vi, from, to);
    }
    let mut ev = evidence();
    ev[0].fields.push(("nan", Value::from(f64::NAN)));
    manic_obs::audit().record(AuditRecord {
        t: to,
        vp: "vp \"q\"\\".into(),
        near: "10.9.0.1".into(),
        link: "10.9.0.2".into(),
        detector: "elevation",
        congested: false,
        evidence: ev,
    });
    d.finalize(&sys, to).expect("finalize");
    let mut metas: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("checkpoint-"))
        .collect();
    metas.sort();
    let mut out = String::new();
    for p in metas {
        let bytes = std::fs::read(&p).unwrap();
        out.push_str(&format!(
            "{} {} {:016x}\n",
            p.file_name().unwrap().to_string_lossy(),
            bytes.len(),
            manic_stats::fnv1a(manic_stats::FNV1A_OFFSET, &bytes)
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Everything that reads the process-global audit trail or serve metrics,
/// in one test so the order (and so the bytes) is fixed.
#[test]
fn global_state_emitters_are_pinned() {
    pin("META_DIGEST", &meta_digest(), META_DIGEST);
    manic_obs::audit().clear();

    let verdict = |far: u8, congested: bool, detector: &'static str| {
        manic_obs::audit().record(AuditRecord {
            t: 600 + far as i64,
            vp: "vp-a".into(),
            near: format!("10.9.{far}.1"),
            link: format!("10.9.{far}.2"),
            detector,
            congested,
            evidence: evidence(),
        })
    };
    verdict(1, false, "levelshift");
    verdict(1, true, "levelshift");
    verdict(2, false, "levelshift");
    verdict(3, true, "elevation");

    let links = vec![
        link("vp-a", 1, LinkRel::Provider, [Some(21.5), Some(20.0), Some(0.1)], Some(64500)),
        link("vp \"b\"\\", 2, LinkRel::Peer, [None, Some(f64::NAN), Some(f64::INFINITY)], None),
        link("vp-a", 3, LinkRel::Customer, [Some(f64::NEG_INFINITY), None, Some(1e-7)], Some(1)),
        link("vp-c", 4, LinkRel::Unknown, [Some(1e21), Some(-0.0), None], Some(u32::MAX)),
    ];
    let health = vec![
        task("vp-a", 1, true, HealthState::Healthy),
        task("vp \"b\"\\", 2, false, HealthState::Degraded),
        task("vp-a", 3, true, HealthState::Quarantined),
        task("vp-c", 4, false, HealthState::Retired),
    ];
    let snap = Snapshot::assemble(7, 1_234, links, health, Some(("sim-\"5k\"".into(), 0xABCD)));
    pin("LINKS_JSON", std::str::from_utf8(&snap.links_json).unwrap(), LINKS_JSON);
    pin("HEALTH_JSON", std::str::from_utf8(&snap.health_json).unwrap(), HEALTH_JSON);

    let hub = Arc::new(SnapshotHub::new());
    hub.install(Arc::new(snap));
    let store = Arc::new(manic_tsdb::Store::new());
    for (end, base) in [("far", 20.0), ("near", 5.0)] {
        let key = SeriesKey::with_tags("tslp", &[("link", "10.9.1.2"), ("end", end)]);
        for i in 0..6i64 {
            store.write(&key, i * 150, base + i as f64 * 0.25);
        }
    }
    let mut state = ServeState::new(hub, store, &ServeConfig::default());
    state.durability = Some(Arc::new(durability()));

    // Priority-lane bodies first: the latency EWMA is wall-clock, and only
    // the non-priority requests below feed it.
    pin("API_HEALTH", &body(&get(&state, "/api/health", "")), API_HEALTH);
    let plain =
        ServeState::new(Arc::clone(&state.hub), Arc::clone(&state.store), &ServeConfig::default());
    let health = body(&get(&plain, "/api/health", ""));
    pin("API_HEALTH_NO_DURABILITY", &health, API_HEALTH_NO_DURABILITY);

    let o = OverloadState::new(OverloadConfig { max_conns: 77, ..OverloadConfig::default() });
    o.observe_latency(2.5);
    o.observe_latency(4.0);
    pin("OVERLOAD", &o.to_json(), OVERLOAD);

    let ts = get(&state, "/api/link/10.9.1.2/timeseries", "bin=300&agg=mean&end=900&window=900");
    pin("TIMESERIES", &body(&ts), TIMESERIES);
    let ts = get(&state, "/api/link/10.9.4.2/timeseries", "agg=max&end=900");
    pin("TIMESERIES_EMPTY", &body(&ts), TIMESERIES_EMPTY);
    pin("EXPLAIN", &body(&get(&state, "/api/link/10.9.1.2/explain", "")), EXPLAIN);
    pin("EXPLAIN_EMPTY", &body(&get(&state, "/api/link/10.9.4.2/explain", "")), EXPLAIN_EMPTY);
    pin("NOT_FOUND", &body(&get(&state, "/api/link/10.9.9.2/explain", "")), NOT_FOUND);
    pin("BAD_BIN", &body(&get(&state, "/api/link/10.9.1.2/timeseries", "bin=0")), BAD_BIN);
}

// ------------------------------------------------ printed by the parent

const META_DIGEST: &str = "checkpoint-00000012.json 2899 cdc78e41343a5e06\ncheckpoint-00000024.json 2900 fb322801ba70b60e\ncheckpoint-00000036.json 4648 820855aeffdbda1c\n";
const LINKS_JSON: &str = "{\"epoch\":7,\"sim_now\":1234,\"links\":[{\"vp\":\"vp-a\",\"near\":\"10.9.1.1\",\"far\":\"10.9.1.2\",\"neighbor\":\"AS64500\",\"rel\":\"provider\",\"far_latest_ms\":21.5,\"far_baseline_ms\":20,\"near_latest_ms\":0.1,\"elevated\":false,\"congested\":true},{\"vp\":\"vp \\\"b\\\"\\\\\",\"near\":\"10.9.2.1\",\"far\":\"10.9.2.2\",\"neighbor\":null,\"rel\":\"peer\",\"far_latest_ms\":null,\"far_baseline_ms\":null,\"near_latest_ms\":null,\"elevated\":true,\"congested\":false},{\"vp\":\"vp-a\",\"near\":\"10.9.3.1\",\"far\":\"10.9.3.2\",\"neighbor\":\"AS1\",\"rel\":\"customer\",\"far_latest_ms\":null,\"far_baseline_ms\":null,\"near_latest_ms\":0.0000001,\"elevated\":false,\"congested\":null},{\"vp\":\"vp-c\",\"near\":\"10.9.4.1\",\"far\":\"10.9.4.2\",\"neighbor\":\"AS4294967295\",\"rel\":\"unknown\",\"far_latest_ms\":1000000000000000000000,\"far_baseline_ms\":-0,\"near_latest_ms\":null,\"elevated\":true,\"congested\":null}]}";
const HEALTH_JSON: &str = "{\"epoch\":7,\"sim_now\":1234,\"world\":{\"name\":\"sim-\\\"5k\\\"\",\"fingerprint\":\"000000000000abcd\"},\"tasks\":[{\"vp\":\"vp-a\",\"vp_active\":true,\"near\":\"10.9.1.1\",\"far\":\"10.9.1.2\",\"state\":\"healthy\"},{\"vp\":\"vp \\\"b\\\"\\\\\",\"vp_active\":false,\"near\":\"10.9.2.1\",\"far\":\"10.9.2.2\",\"state\":\"degraded\"},{\"vp\":\"vp-a\",\"vp_active\":true,\"near\":\"10.9.3.1\",\"far\":\"10.9.3.2\",\"state\":\"quarantined\"},{\"vp\":\"vp-c\",\"vp_active\":false,\"near\":\"10.9.4.1\",\"far\":\"10.9.4.2\",\"state\":\"retired\"}]}";
const API_HEALTH: &str = "200 {\"epoch\":7,\"sim_now\":1234,\"world\":{\"name\":\"sim-\\\"5k\\\"\",\"fingerprint\":\"000000000000abcd\"},\"tasks\":[{\"vp\":\"vp-a\",\"vp_active\":true,\"near\":\"10.9.1.1\",\"far\":\"10.9.1.2\",\"state\":\"healthy\"},{\"vp\":\"vp \\\"b\\\"\\\\\",\"vp_active\":false,\"near\":\"10.9.2.1\",\"far\":\"10.9.2.2\",\"state\":\"degraded\"},{\"vp\":\"vp-a\",\"vp_active\":true,\"near\":\"10.9.3.1\",\"far\":\"10.9.3.2\",\"state\":\"quarantined\"},{\"vp\":\"vp-c\",\"vp_active\":false,\"near\":\"10.9.4.1\",\"far\":\"10.9.4.2\",\"state\":\"retired\"}],\"overload\":{\"max_conns\":1024,\"open_connections\":0,\"queue_depth\":0,\"shed_active\":false,\"latency_ewma_ms\":0.000,\"breaker\":\"closed\",\"shed_total\":0,\"breaker_rejected_total\":0,\"disconnect_total\":0,\"parse_rejected_total\":0,\"cache_bytes\":0,\"cache_shrinks\":0},\"durability\":{\"enabled\":true,\"policy\":\"every-\\\"64\\\"\",\"resumed\":true,\"recovered_rounds\":20,\"tail_discarded\":3,\"recovery_ms\":12.346,\"checkpoint_rounds\":24,\"checkpoint_t\":7200,\"rounds\":31,\"lag_rounds\":7,\"storage\":{\"degraded\":true,\"fallback_generations\":1,\"bad_metas\":2,\"healed_snapshot\":true,\"quarantined_frames\":3,\"quarantined_bytes\":96,\"gap_windows\":4,\"checkpoint_generation\":24}}}";
const API_HEALTH_NO_DURABILITY: &str = "200 {\"epoch\":7,\"sim_now\":1234,\"world\":{\"name\":\"sim-\\\"5k\\\"\",\"fingerprint\":\"000000000000abcd\"},\"tasks\":[{\"vp\":\"vp-a\",\"vp_active\":true,\"near\":\"10.9.1.1\",\"far\":\"10.9.1.2\",\"state\":\"healthy\"},{\"vp\":\"vp \\\"b\\\"\\\\\",\"vp_active\":false,\"near\":\"10.9.2.1\",\"far\":\"10.9.2.2\",\"state\":\"degraded\"},{\"vp\":\"vp-a\",\"vp_active\":true,\"near\":\"10.9.3.1\",\"far\":\"10.9.3.2\",\"state\":\"quarantined\"},{\"vp\":\"vp-c\",\"vp_active\":false,\"near\":\"10.9.4.1\",\"far\":\"10.9.4.2\",\"state\":\"retired\"}],\"overload\":{\"max_conns\":1024,\"open_connections\":0,\"queue_depth\":0,\"shed_active\":false,\"latency_ewma_ms\":0.000,\"breaker\":\"closed\",\"shed_total\":0,\"breaker_rejected_total\":0,\"disconnect_total\":0,\"parse_rejected_total\":0,\"cache_bytes\":0,\"cache_shrinks\":0}}";
const OVERLOAD: &str = "{\"max_conns\":77,\"open_connections\":0,\"queue_depth\":0,\"shed_active\":false,\"latency_ewma_ms\":2.688,\"breaker\":\"closed\",\"shed_total\":0,\"breaker_rejected_total\":0,\"disconnect_total\":0,\"parse_rejected_total\":0,\"cache_bytes\":0,\"cache_shrinks\":0}";
const TIMESERIES: &str = "200 {\"link\":\"10.9.1.2\",\"epoch\":7,\"start\":0,\"end\":900,\"bin\":300,\"agg\":\"mean\",\"series\":[{\"key\":\"tslp,end=far,link=10.9.1.2\",\"points\":[[0,20.125],[300,20.625],[600,21.125]]},{\"key\":\"tslp,end=near,link=10.9.1.2\",\"points\":[[0,5.125],[300,5.625],[600,6.125]]}]}";
const TIMESERIES_EMPTY: &str = "200 {\"link\":\"10.9.4.2\",\"epoch\":7,\"start\":-13500,\"end\":900,\"bin\":300,\"agg\":\"max\",\"series\":[]}";
const EXPLAIN: &str = "200 {\"link\":\"10.9.1.2\",\"records\":[{\"t\":601,\"vp\":\"vp-a\",\"near\":\"10.9.1.1\",\"link\":\"10.9.1.2\",\"detector\":\"levelshift\",\"congested\":false,\"evidence\":[{\"kind\":\"level_shift\",\"start_t\":600,\"duration_bins\":7,\"baseline_ms\":20.5,\"level_ms\":1000000000000000000000,\"tiny_ms\":0.0000001,\"neg\":-0},{\"kind\":\"quality_flags\",\"flags\":\"a\\\"b\\\\c\\nd\\u0001é€😀\",\"ok\":true}]},{\"t\":601,\"vp\":\"vp-a\",\"near\":\"10.9.1.1\",\"link\":\"10.9.1.2\",\"detector\":\"levelshift\",\"congested\":true,\"evidence\":[{\"kind\":\"level_shift\",\"start_t\":600,\"duration_bins\":7,\"baseline_ms\":20.5,\"level_ms\":1000000000000000000000,\"tiny_ms\":0.0000001,\"neg\":-0},{\"kind\":\"quality_flags\",\"flags\":\"a\\\"b\\\\c\\nd\\u0001é€😀\",\"ok\":true}]}]}";
const EXPLAIN_EMPTY: &str = "200 {\"link\":\"10.9.4.2\",\"records\":[]}";
const NOT_FOUND: &str = "404 {\"error\":{\"status\":404,\"message\":\"unknown link\"}}";
const BAD_BIN: &str =
    "400 {\"error\":{\"status\":400,\"message\":\"bin must be a positive integer of seconds\"}}";
const JOURNAL_LINE: &str = "{\"t\":-42,\"level\":\"warn\",\"target\":\"core\",\"event\":\"health_transition\",\"vp\":\"a\\\"b\\\\c\\nd\\r\\t\\u0001\\u001fé\",\"rounds\":18446744073709551615,\"delta\":-9223372036854775808,\"ok\":false,\"ms\":1.5,\"big\":1000000000000000000000,\"tiny\":0.0000001,\"third\":0.3333333333333333,\"whole\":20}";
const REGISTRY_JSON: &str = "{\"counters\":{\"manic_t_a\":3,\"manic_t_c{vp=\\\"x\\\\\\\"y\\\\\\\\z\\\"}\":7},\"gauges\":{\"manic_t_g\":-5,\"manic_t_g2\":9},\"histograms\":{\"manic_t_h\":{\"count\":6,\"sum_ms\":1000000258.81,\"buckets\":[{\"le\":0.0625,\"n\":1},{\"le\":0.5,\"n\":1},{\"le\":1,\"n\":1},{\"le\":8,\"n\":1},{\"le\":256,\"n\":1},{\"le\":\"+Inf\",\"n\":1}]},\"manic_t_h2{vp=\\\"a\\\"}\":{\"count\":1,\"sum_ms\":3,\"buckets\":[{\"le\":4,\"n\":1}]},\"manic_t_h3\":{\"count\":0,\"sum_ms\":0,\"buckets\":[]}}}";
const EMPTY_REGISTRY_JSON: &str = "{\"counters\":{},\"gauges\":{},\"histograms\":{}}";
const ERROR_ENVELOPE: &str =
    "400 {\"error\":{\"status\":400,\"message\":\"bad \\\"q\\\" \\\\ x\\ny\\u0001z\"}}";
const UNAVAILABLE: &str =
    "503 {\"error\":{\"status\":503,\"message\":\"overloaded, request shed\"}}";
const DURABILITY_FRESH: &str = "{\"enabled\":true,\"policy\":\"always\",\"resumed\":false,\"recovered_rounds\":0,\"tail_discarded\":0,\"recovery_ms\":0.000,\"checkpoint_rounds\":0,\"checkpoint_t\":0,\"rounds\":0,\"lag_rounds\":0,\"storage\":{\"degraded\":false,\"fallback_generations\":0,\"bad_metas\":0,\"healed_snapshot\":false,\"quarantined_frames\":0,\"quarantined_bytes\":0,\"gap_windows\":0,\"checkpoint_generation\":0}}";
const DURABILITY: &str = "{\"enabled\":true,\"policy\":\"every-\\\"64\\\"\",\"resumed\":true,\"recovered_rounds\":20,\"tail_discarded\":3,\"recovery_ms\":12.346,\"checkpoint_rounds\":24,\"checkpoint_t\":7200,\"rounds\":31,\"lag_rounds\":7,\"storage\":{\"degraded\":true,\"fallback_generations\":1,\"bad_metas\":2,\"healed_snapshot\":true,\"quarantined_frames\":3,\"quarantined_bytes\":96,\"gap_windows\":4,\"checkpoint_generation\":24}}";
const AUDIT_RECORD: &str = "{\"t\":900,\"vp\":\"vp \\\"q\\\"\",\"near\":\"10.9.0.1\",\"link\":\"10.9.0.2\",\"detector\":\"levelshift\",\"congested\":true,\"evidence\":[{\"kind\":\"level_shift\",\"start_t\":600,\"duration_bins\":7,\"baseline_ms\":20.5,\"level_ms\":1000000000000000000000,\"tiny_ms\":0.0000001,\"neg\":-0},{\"kind\":\"quality_flags\",\"flags\":\"a\\\"b\\\\c\\nd\\u0001é€😀\",\"ok\":true}]}";
