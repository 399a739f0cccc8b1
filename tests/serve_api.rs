//! Integration tests for the manic-serve HTTP API: real sockets against a
//! server backed by a toy-world measurement run.
//!
//! One shared fixture builds the world, runs a few simulated hours of
//! packet-mode probing (populating the tsdb and the audit trail), publishes
//! a snapshot, and starts two servers: one with default limits and one with
//! a deliberately tiny rate budget for the 429 path. The audit trail and
//! metric registry are process globals, so everything hangs off a single
//! `OnceLock` fixture rather than per-test worlds.

use manic_core::{System, SystemConfig};
use manic_netsim::time::{date_to_sim, Date};
use manic_scenario::worlds::toy;
use manic_serve::{ServeConfig, ServeState, Server, SnapshotHub};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};

struct Fixture {
    addr: SocketAddr,
    strict_addr: SocketAddr,
    hub: Arc<SnapshotHub>,
    store: Arc<manic_tsdb::Store>,
    /// A far-end link IP known to the snapshot (and, in the toy world's
    /// congested case, to the audit trail).
    far: String,
    _server: Server,
    _strict: Server,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let mut sys = System::new(toy(42), SystemConfig::default());
        let from = date_to_sim(Date::new(2017, 3, 1));
        let to = from + 6 * 3600;
        sys.run_packet_mode(from, to);
        for vi in 0..sys.vps.len() {
            sys.arm_reactive_loss(vi, from, to);
        }
        let hub = Arc::new(SnapshotHub::new());
        hub.publish_from(&sys, to, 6 * 3600);

        let store = Arc::clone(&sys.store);
        let cfg = ServeConfig::default();
        let state = Arc::new(ServeState::new(Arc::clone(&hub), Arc::clone(&store), &cfg));
        let server = Server::start("127.0.0.1:0", state, &cfg).expect("bind");

        let strict_cfg = ServeConfig { rate_limit_rps: 2, rate_limit_burst: 2, ..cfg };
        let strict_state =
            Arc::new(ServeState::new(Arc::clone(&hub), Arc::clone(&store), &strict_cfg));
        let strict = Server::start("127.0.0.1:0", strict_state, &strict_cfg).expect("bind strict");

        let far = hub
            .current()
            .links
            .first()
            .map(|l| l.far_ip.to_string())
            .expect("toy world links");
        Fixture {
            addr: server.local_addr(),
            strict_addr: strict.local_addr(),
            hub,
            store,
            far,
            _server: server,
            _strict: strict,
        }
    })
}

/// One request over a fresh connection; returns (status, content-type, body).
fn request(addr: SocketAddr, method: &str, path: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(s, "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").expect("send");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    let raw = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head[9..12].parse().expect("status code");
    let content_type = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-type:").map(str::trim).map(String::from))
        .unwrap_or_default();
    (status, content_type, body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    request(addr, "GET", path)
}

fn get_json(path: &str) -> Value {
    let (status, ct, body) = get(fixture().addr, path);
    assert_eq!(status, 200, "GET {path}: {body}");
    assert_eq!(ct, "application/json");
    serde_json::from_str(&body).expect("valid JSON")
}

#[test]
fn health_reports_every_task() {
    let v = get_json("/api/health");
    assert_eq!(v.get("epoch").and_then(Value::as_i64), Some(fixture().hub.epoch() as i64));
    let tasks = v.get("tasks").and_then(Value::as_array).expect("tasks array");
    assert!(!tasks.is_empty());
    for task in tasks {
        for field in ["vp", "near", "far", "state"] {
            assert!(task.get(field).is_some(), "task missing {field}");
        }
        assert!(task.get("vp_active").and_then(Value::as_bool).is_some());
    }
}

#[test]
fn links_lists_borders_with_verdicts() {
    let v = get_json("/api/links");
    let links = v.get("links").and_then(Value::as_array).expect("links array");
    assert!(!links.is_empty());
    let mut saw_far = false;
    for link in links {
        for field in ["vp", "near", "far", "rel"] {
            assert!(link.get(field).and_then(Value::as_str).is_some(), "missing {field}");
        }
        assert!(link.get("elevated").and_then(Value::as_bool).is_some());
        // congested is a tri-state: true/false once the levelshift detector
        // has spoken for this link, null before that.
        let c = link.get("congested").expect("congested field");
        assert!(c.as_bool().is_some() || matches!(c, Value::Null));
        saw_far |= link.get("far").and_then(Value::as_str) == Some(fixture().far.as_str());
    }
    assert!(saw_far, "snapshot lists the fixture link");
}

#[test]
fn timeseries_serves_real_points_in_both_formats() {
    let far = &fixture().far;
    let v = get_json(&format!("/api/link/{far}/timeseries?bin=300&agg=min"));
    assert_eq!(v.get("link").and_then(Value::as_str), Some(far.as_str()));
    assert_eq!(v.get("bin").and_then(Value::as_i64), Some(300));
    assert_eq!(v.get("agg").and_then(Value::as_str), Some("min"));
    let start = v.get("start").and_then(Value::as_i64).expect("start");
    let end = v.get("end").and_then(Value::as_i64).expect("end");
    let series = v.get("series").and_then(Value::as_array).expect("series");
    assert!(!series.is_empty(), "tslp series exist for {far}");
    let mut points = 0usize;
    for s in series {
        assert!(s.get("key").and_then(Value::as_str).unwrap_or("").contains(far.as_str()));
        for p in s.get("points").and_then(Value::as_array).expect("points") {
            let pair = p.as_array().expect("[t, v] pair");
            let t = pair[0].as_i64().expect("t");
            assert!((start..end).contains(&t), "point at {t} outside [{start},{end})");
            assert!(pair[1].as_f64().expect("v").is_finite());
            points += 1;
        }
    }
    assert!(points > 10, "a 6h window holds many 5-minute rounds, got {points}");

    let (status, ct, body) =
        get(fixture().addr, &format!("/api/link/{far}/timeseries?bin=300&agg=min&format=csv"));
    assert_eq!(status, 200);
    assert_eq!(ct, "text/csv");
    let mut lines = body.lines();
    assert_eq!(lines.next(), Some("series,t,v"));
    assert!(lines.clone().count() >= points, "CSV carries the same points");
    // Series keys contain commas, so the series field is quoted; the last
    // two fields are the numeric point.
    assert!(lines.all(|l| {
        let mut tail = l.rsplitn(3, ',');
        let v_ok = tail.next().is_some_and(|v| v.parse::<f64>().is_ok());
        let t_ok = tail.next().is_some_and(|t| t.parse::<i64>().is_ok());
        let name_ok = tail.next().is_some_and(|n| n.starts_with('"') && n.ends_with('"'));
        v_ok && t_ok && name_ok
    }));
}

#[test]
fn bad_requests_get_400s_not_panics() {
    let addr = fixture().addr;
    let far = &fixture().far;
    for path in [
        format!("/api/link/{far}/timeseries?bin=0"),
        format!("/api/link/{far}/timeseries?bin=-5"),
        format!("/api/link/{far}/timeseries?bin=banana"),
        format!("/api/link/{far}/timeseries?agg=median"),
        format!("/api/link/{far}/timeseries?window=0"),
        format!("/api/link/{far}/timeseries?format=xml"),
        format!("/api/link/{far}/timeseries?end=later"),
        format!("/api/link/{far}/timeseries?end={}", i64::MIN),
    ] {
        let (status, _, body) = get(addr, &path);
        assert_eq!(status, 400, "GET {path} -> {body}");
        let v: Value = serde_json::from_str(&body).expect("error envelope is JSON");
        assert!(v.get("error").and_then(|e| e.get("message")).is_some());
    }
}

#[test]
fn unknown_resources_get_404s() {
    let addr = fixture().addr;
    for path in [
        "/api/link/99.99.99.99/timeseries",
        "/api/link/99.99.99.99/explain",
        "/api/nope",
        "/",
    ] {
        let (status, _, body) = get(addr, path);
        assert_eq!(status, 404, "GET {path} -> {body}");
    }
    let (status, _, _) = request(addr, "POST", "/api/links");
    assert_eq!(status, 405);
}

#[test]
fn hostile_rates_hit_429() {
    let addr = fixture().strict_addr;
    let mut ok = 0;
    let mut limited = 0;
    for _ in 0..20 {
        match get(addr, "/api/links").0 {
            200 => ok += 1,
            429 => limited += 1,
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(ok >= 1, "burst admits the first requests");
    assert!(limited >= 10, "sustained abuse is rejected, got {limited} 429s");
    // The priority lane is exempt: health stays reachable from a
    // rate-limited client.
    for _ in 0..5 {
        assert_eq!(get(addr, "/api/health").0, 200, "priority lane never 429s");
    }
}

#[test]
fn explain_agrees_with_audit_trail() {
    let _ = fixture();
    // Pick a link the detector actually ruled on; the fixture link may be
    // one of the clean borders.
    let link = manic_obs::audit()
        .links()
        .into_iter()
        .next()
        .expect("6h of toy-world probing produces audit records");
    let v = get_json(&format!("/api/link/{link}/explain"));
    assert_eq!(v.get("link").and_then(Value::as_str), Some(link.as_str()));
    let served = v.get("records").and_then(Value::as_array).expect("records");
    let trail = manic_obs::audit().explain(&link);
    assert_eq!(served.len(), trail.len(), "served record count == audit trail");
    for (got, want) in served.iter().zip(&trail) {
        assert_eq!(got.get("t").and_then(Value::as_i64), Some(want.t));
        assert_eq!(got.get("vp").and_then(Value::as_str), Some(want.vp.as_str()));
        assert_eq!(got.get("detector").and_then(Value::as_str), Some(want.detector));
        assert_eq!(got.get("congested").and_then(Value::as_bool), Some(want.congested));
        let ev = got.get("evidence").and_then(Value::as_array).expect("evidence");
        assert_eq!(ev.len(), want.evidence.len());
    }
}

#[test]
fn health_surfaces_storage_recovery_state() {
    // A durability-enabled server reports the storage-health block: resumes
    // that fell back a checkpoint generation, healed snapshots, quarantined
    // WAL ranges, and live ENOSPC-degraded mode.
    let fx = fixture();
    let cfg = ServeConfig::default();
    let status = Arc::new(manic_serve::DurabilityStatus::new("every-64"));
    status.note_recovery(24, 2, 3.5);
    let findings = manic_core::StorageFindings {
        fallback_generations: 1,
        healed_snapshot: true,
        quarantined_frames: 3,
        quarantined_bytes: 128,
        gap_windows: 2,
        ..Default::default()
    };
    status.note_storage_findings(&findings);
    status.set_storage_degraded(true);
    status.note_checkpoint(36, 10_800);
    let mut state = ServeState::new(Arc::clone(&fx.hub), Arc::clone(&fx.store), &cfg);
    state.durability = Some(status);
    let server = Server::start("127.0.0.1:0", Arc::new(state), &cfg).expect("bind durable");

    let (code, ct, body) = get(server.local_addr(), "/api/health");
    assert_eq!(code, 200, "{body}");
    assert_eq!(ct, "application/json");
    let v: Value = serde_json::from_str(&body).expect("valid JSON");
    let d = v.get("durability").expect("durability block");
    assert_eq!(d.get("resumed").and_then(Value::as_bool), Some(true));
    let s = d.get("storage").expect("storage block");
    assert_eq!(s.get("degraded").and_then(Value::as_bool), Some(true));
    assert_eq!(s.get("fallback_generations").and_then(Value::as_i64), Some(1));
    assert_eq!(s.get("healed_snapshot").and_then(Value::as_bool), Some(true));
    assert_eq!(s.get("quarantined_frames").and_then(Value::as_i64), Some(3));
    assert_eq!(s.get("quarantined_bytes").and_then(Value::as_i64), Some(128));
    assert_eq!(s.get("gap_windows").and_then(Value::as_i64), Some(2));
    assert_eq!(s.get("checkpoint_generation").and_then(Value::as_i64), Some(36));

    server.shutdown();
}

#[test]
fn metrics_endpoint_speaks_prometheus() {
    let (status, ct, body) = get(fixture().addr, "/metrics");
    assert_eq!(status, 200);
    assert!(ct.starts_with("text/plain"));
    for needle in [
        "# TYPE manic_serve_requests counter",
        "manic_serve_requests{endpoint=\"links\"}",
        "manic_serve_open_connections",
        "manic_core_round_duration_ms",
    ] {
        assert!(body.contains(needle), "/metrics missing {needle}");
    }
}

/// Read one `Content-Length`-framed response off `r`: (status, body).
fn read_framed(r: &mut impl std::io::BufRead) -> (u16, Vec<u8>) {
    let mut head = String::new();
    loop {
        let before = head.len();
        r.read_line(&mut head).expect("read response head");
        assert!(head.len() > before, "connection closed mid-response");
        if head.ends_with("\r\n\r\n") {
            break;
        }
    }
    let status = head[9..12].parse().expect("status code");
    let len = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(|v| v.trim().parse().ok()))
        .flatten()
        .expect("content-length");
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).expect("read body");
    (status, body)
}

/// The part of a body that is a pure function of the published snapshot.
/// `/api/health` splices a live overload block (open connections, latency
/// EWMA, process-wide counters) onto the snapshot's pre-rendered body;
/// that block differs between any two requests by design.
fn snapshot_part(path: &str, body: &[u8]) -> Vec<u8> {
    let marker: &[u8] = b",\"overload\":";
    match body.windows(marker.len()).position(|w| w == marker) {
        Some(at) if path == "/api/health" => body[..at].to_vec(),
        _ => body.to_vec(),
    }
}

/// HTTP/1.1 pipelining: 24 GETs in one write on one connection come back
/// as 24 responses in request order — the connection loop coalesces them
/// into as few writes as it can — each equal to the same request answered
/// alone on a fresh connection.
#[test]
fn pipelined_requests_answer_in_order_and_match_solo_requests() {
    let fx = fixture();
    let series = format!("/api/link/{}/timeseries?bin=300&agg=min", fx.far);
    let paths: Vec<&str> = (0..24)
        .map(|i| match i % 3 {
            0 => "/api/links",
            1 => "/api/health",
            _ => series.as_str(),
        })
        .collect();
    let batch: String =
        paths.iter().map(|p| format!("GET {p} HTTP/1.1\r\nHost: t\r\n\r\n")).collect();

    let mut s = TcpStream::connect(fx.addr).expect("connect");
    s.write_all(batch.as_bytes()).expect("send pipelined batch");
    s.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut r = std::io::BufReader::new(s);
    let piped: Vec<(u16, Vec<u8>)> = paths.iter().map(|_| read_framed(&mut r)).collect();
    let mut rest = Vec::new();
    r.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "exactly 24 responses, got {} trailing bytes", rest.len());

    for (i, (path, (status, body))) in paths.iter().zip(&piped).enumerate() {
        assert_eq!(*status, 200, "pipelined request {i} ({path})");
        let (solo_status, _, solo_body) = get(fx.addr, path);
        assert_eq!(solo_status, 200, "solo {path}");
        assert_eq!(
            snapshot_part(path, body),
            snapshot_part(path, solo_body.as_bytes()),
            "pipelined response {i} ({path}) differs from the same request sent alone"
        );
    }
}

#[test]
fn snapshot_epoch_is_stable_across_reads() {
    let before = fixture().hub.epoch();
    for _ in 0..3 {
        get_json("/api/links");
    }
    assert_eq!(fixture().hub.epoch(), before, "reads never republish snapshots");
}

// ---------------------------------------------------------------------------
// Overload behavior
// ---------------------------------------------------------------------------

/// Like [`request`] but returns the raw response head too, for header
/// assertions (Retry-After).
fn get_with_head(addr: SocketAddr, path: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").expect("send");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    let raw = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head[9..12].parse().expect("status code");
    (status, head.to_string(), body.to_string())
}

/// Read one metric value out of a Prometheus exposition body.
fn metric_value(metrics_body: &str, series: &str) -> f64 {
    metrics_body
        .lines()
        .find(|l| l.starts_with(series) && l[series.len()..].starts_with(' '))
        .and_then(|l| l.rsplit(' ').next()?.parse().ok())
        .unwrap_or(0.0)
}

fn scrape_metrics() -> String {
    let (status, _, body) = get(fixture().addr, "/metrics");
    assert_eq!(status, 200);
    body
}

#[test]
fn slowloris_is_disconnected_at_the_header_deadline() {
    use std::time::{Duration, Instant};
    let fx = fixture();
    // Dedicated server: short header deadline, deliberately long keep-alive
    // so a disconnect can only come from the per-request deadline.
    let mut cfg = ServeConfig { keep_alive_timeout: Duration::from_secs(30), ..Default::default() };
    cfg.overload.header_read_timeout = Duration::from_millis(300);
    let state = Arc::new(ServeState::new(Arc::clone(&fx.hub), Arc::clone(&fx.store), &cfg));
    let server = Server::start("127.0.0.1:0", state, &cfg).expect("bind");
    let before = metric_value(
        &scrape_metrics(),
        "manic_serve_disconnects{kind=\"header_timeout\"}",
    );

    let started = Instant::now();
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    // Dribble a partial request head, one fragment at a time, never
    // finishing it.
    for fragment in ["GET /api", "/links HT", "TP/1.1\r\nHos"] {
        let _ = s.write_all(fragment.as_bytes());
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut sink = Vec::new();
    let _ = s.read_to_end(&mut sink); // EOF once the server hangs up
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "disconnected by the header deadline, not keep-alive ({elapsed:?})"
    );
    assert!(sink.is_empty(), "no response for a never-finished request");
    let after = metric_value(
        &scrape_metrics(),
        "manic_serve_disconnects{kind=\"header_timeout\"}",
    );
    assert!(after > before, "header-timeout disconnect counted ({before} -> {after})");
    server.shutdown();
}

#[test]
fn shed_gate_returns_503_and_keeps_the_priority_lane_open() {
    let fx = fixture();
    // A latency threshold no real request can beat: the first admitted
    // request primes the EWMA and closes the gate behind itself.
    let mut cfg = ServeConfig::default();
    cfg.overload.shed_latency_ms = 1e-9;
    let state = Arc::new(ServeState::new(Arc::clone(&fx.hub), Arc::clone(&fx.store), &cfg));
    let server = Server::start("127.0.0.1:0", state, &cfg).expect("bind");
    let addr = server.local_addr();

    // First request is admitted (EWMA is empty) and poisons the average.
    assert_eq!(get(addr, "/api/links").0, 200, "first request primes the EWMA");
    let mut shed = 0;
    for _ in 0..5 {
        let (status, head, body) = get_with_head(addr, "/api/links");
        if status == 503 {
            shed += 1;
            assert!(
                head.contains("Retry-After: 1"),
                "shed response advertises Retry-After: {head}"
            );
            let v: Value = serde_json::from_str(&body).expect("shed error envelope is JSON");
            assert!(v.get("error").is_some());
        }
    }
    assert!(shed >= 4, "gate closed after the priming request, got {shed} 503s");

    // The priority lane stays open while the gate is shut...
    let (status, _, body) = get(addr, "/api/health");
    assert_eq!(status, 200, "health answers while shedding: {body}");
    let v: Value = serde_json::from_str(&body).expect("health is JSON");
    let overload = v.get("overload").expect("health carries the overload block");
    assert_eq!(
        overload.get("shed_active").and_then(Value::as_bool),
        Some(true),
        "overload block reports the closed gate: {overload:?}"
    );
    assert!(overload.get("shed_total").and_then(Value::as_i64).unwrap_or(0) >= shed);
    assert_eq!(get(addr, "/metrics").0, 200, "metrics answers while shedding");

    // ...and the rejections are counted.
    let m = scrape_metrics();
    assert!(
        metric_value(&m, "manic_serve_shed{reason=\"latency\"}") >= shed as f64,
        "shed rejections appear in /metrics"
    );
    server.shutdown();
}

#[test]
fn every_parser_rejection_is_counted_in_metrics() {
    let fx = fixture();
    let addr = fx.addr;
    let before = scrape_metrics();

    let raw_request = |raw: &[u8]| -> u16 {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(raw).expect("send");
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).expect("read");
        let resp = String::from_utf8_lossy(&resp).into_owned();
        resp.get(9..12).and_then(|s| s.parse().ok()).unwrap_or(0)
    };

    // One of each parser rejection.
    let huge_uri = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(8192));
    assert_eq!(raw_request(huge_uri.as_bytes()), 414);
    let huge_headers =
        format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "b".repeat(32 * 1024));
    assert_eq!(raw_request(huge_headers.as_bytes()), 431);
    let mut many_headers = String::from("GET / HTTP/1.1\r\n");
    for i in 0..80 {
        many_headers.push_str(&format!("X-{i}: v\r\n"));
    }
    many_headers.push_str("\r\n");
    assert_eq!(raw_request(many_headers.as_bytes()), 431);
    assert_eq!(
        raw_request(b"POST /api/links HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"),
        413
    );
    assert_eq!(raw_request(b"complete garbage\r\n\r\n"), 400);

    let after = scrape_metrics();
    for series in [
        "manic_serve_parse_rejected{reason=\"uri_too_long\"}",
        "manic_serve_parse_rejected{reason=\"headers_too_large\"}",
        "manic_serve_parse_rejected{reason=\"too_many_headers\"}",
        "manic_serve_parse_rejected{reason=\"body\"}",
        "manic_serve_parse_rejected{reason=\"malformed\"}",
    ] {
        assert!(
            metric_value(&after, series) > metric_value(&before, series),
            "{series} not incremented"
        );
    }
    // The health overload block aggregates the same counters.
    let v = get_json("/api/health");
    let overload = v.get("overload").expect("overload block");
    assert!(overload.get("parse_rejected_total").and_then(Value::as_i64).unwrap_or(0) >= 5);
}
