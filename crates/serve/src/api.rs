//! Request routing: URL → response, reading only the published snapshot,
//! the audit trail, and the tsdb.
//!
//! This is also where admission control lives: `/api/health` and
//! `/metrics` ride a **priority lane** (never shed, never rate limited —
//! an operator must be able to see a melting server), every other request
//! passes the overload layer's shed gate, and the two expensive render
//! endpoints additionally sit behind a circuit breaker and hard caps on
//! selection size and response bytes.

use crate::cache::CACHE_SHED_BYTES;
use crate::http::{Request, Response};
use crate::overload::ShedReason;
use crate::server::ServeState;
use manic_obs::JsonWriter;
use manic_tsdb::{Aggregate, TagFilter};

/// Default timeseries window when the client does not name one: 4 h of
/// five-minute TSLP rounds.
const DEFAULT_WINDOW_SECS: i64 = 4 * 3600;
/// Widest permitted window (a full 22-month study, rounded up) — bounds
/// the per-request work a client can demand.
const MAX_WINDOW_SECS: i64 = 700 * 86_400;
/// Widest render a timeseries request may demand, in downsampled points
/// across all matching series; larger selections are rejected up front
/// with a 400 rather than rendered and then thrown away.
const MAX_RENDER_POINTS: i64 = 200_000;
/// Hard cap on a rendered response body; a render that exceeds it is
/// abandoned and answered with a 500 (it indicates a cap mismatch, not
/// client error).
const MAX_RESPONSE_BYTES: usize = 8 * 1024 * 1024;

/// Paths on the reserved priority lane: always admitted, regardless of
/// shed gate, breaker, or rate limiter.
pub(crate) fn is_priority(path: &str) -> bool {
    matches!(path, "/api/health" | "/metrics")
}

/// Route one request. Rate limiting already happened in the worker; this
/// applies admission control and is otherwise pure read-side logic.
pub fn handle(state: &ServeState, req: &Request) -> Response {
    let started = std::time::Instant::now();
    let m = crate::obs::metrics();
    m.endpoint_counter(&req.path).inc();
    let resp = if is_priority(&req.path) {
        route(state, req)
    } else {
        match state.overload.admit() {
            Ok(()) => {
                let resp = route(state, req);
                // Only admitted, handled requests feed the shed signal;
                // 503s are near-free and would drag the EWMA down while
                // the server is at its sickest.
                state.overload.observe_latency(started.elapsed().as_secs_f64() * 1e3);
                resp
            }
            Err(reason) => {
                match reason {
                    ShedReason::QueueDepth => m.shed_queue_depth.inc(),
                    ShedReason::Latency => m.shed_latency.inc(),
                }
                manic_obs::event!(
                    manic_obs::DEBUG, "serve", "request_shed", 0, reason = reason.as_str(),
                );
                // Degrade before refusing more: hand cache memory back to
                // the allocator while the gate is closed.
                state.cache.shrink_to_bytes(CACHE_SHED_BYTES);
                Response::unavailable("overloaded, request shed")
            }
        }
    };
    m.status_counter(resp.status).inc();
    m.request_duration.observe(started.elapsed().as_secs_f64() * 1e3);
    resp
}

fn route(state: &ServeState, req: &Request) -> Response {
    if req.method != "GET" {
        return Response::error(405, "only GET is supported");
    }
    match req.path.as_str() {
        "/api/links" => {
            let snap = state.hub.current();
            Response {
                status: 200,
                content_type: "application/json",
                body: snap.links_json.clone(),
                retry_after: None,
            }
        }
        "/api/health" => {
            // Append the live blocks to the pre-rendered snapshot body.
            let snap = state.hub.current();
            let body = std::str::from_utf8(&snap.health_json).expect("rendered as UTF-8");
            let mut w = JsonWriter::reopen_object(body);
            state.overload.write_json(w.key("overload"));
            if let Some(d) = &state.durability {
                d.write_json(w.key("durability"));
            }
            w.end_object();
            Response::json(200, w.finish())
        }
        "/metrics" => Response::new(
            200,
            "text/plain; version=0.0.4",
            manic_obs::registry().render_prometheus().into_bytes(),
        ),
        path => {
            if let Some(rest) = path.strip_prefix("/api/link/") {
                match rest.split_once('/') {
                    Some((link, "timeseries")) => return cached(state, req, link, timeseries),
                    Some((link, "explain")) => return cached(state, req, link, explain),
                    _ => {}
                }
            }
            Response::error(404, "no such resource")
        }
    }
}

/// Run `render` through the epoch-keyed response cache, behind the render
/// circuit breaker. A cache hit bypasses the breaker (it costs a memcpy,
/// not a downsample); misses while the breaker is open are refused with
/// `503 + Retry-After` instead of queueing more slow work onto a backend
/// that is already drowning.
fn cached(
    state: &ServeState,
    req: &Request,
    link: &str,
    render: fn(&ServeState, &Request, &str) -> Response,
) -> Response {
    let epoch = state.hub.epoch();
    let cache_key = format!("{}?{}", req.path, req.raw_query);
    if let Some(hit) = state.cache.get(&cache_key, epoch) {
        return hit;
    }
    if !state.overload.breaker_admit() {
        crate::obs::metrics().breaker_rejected.inc();
        manic_obs::event!(
            manic_obs::DEBUG, "serve", "breaker_rejected", 0, path = req.path.as_str(),
        );
        return Response::unavailable("render breaker open");
    }
    let started = std::time::Instant::now();
    let resp = render(state, req, link);
    if resp.status == 200 {
        // Only successful renders carry a breaker signal: a fast 400 says
        // nothing about whether the downsample backend is healthy.
        state.overload.record_render(started.elapsed().as_secs_f64() * 1e3);
    }
    state.cache.put(&cache_key, epoch, resp.clone());
    resp
}

fn parse_agg(s: &str) -> Option<Aggregate> {
    match s {
        "min" => Some(Aggregate::Min),
        "max" => Some(Aggregate::Max),
        "mean" => Some(Aggregate::Mean),
        "sum" => Some(Aggregate::Sum),
        "count" => Some(Aggregate::Count),
        "last" => Some(Aggregate::Last),
        _ => None,
    }
}

fn timeseries(state: &ServeState, req: &Request, link: &str) -> Response {
    let bin = match req.param("bin").map(str::parse::<i64>).unwrap_or(Ok(300)) {
        Ok(b) if b > 0 => b,
        _ => return Response::error(400, "bin must be a positive integer of seconds"),
    };
    let Some(agg) = parse_agg(req.param("agg").unwrap_or("min")) else {
        return Response::error(400, "agg must be one of min|max|mean|sum|count|last");
    };
    let window = match req.param("window").map(str::parse::<i64>).unwrap_or(Ok(DEFAULT_WINDOW_SECS))
    {
        Ok(w) if w > 0 && w <= MAX_WINDOW_SECS => w,
        _ => return Response::error(400, "window must be a positive number of seconds"),
    };
    let snap = state.hub.current();
    let end = match req.param("end").map(str::parse::<i64>) {
        None => snap.sim_now + 1,
        Some(Ok(e)) => e,
        Some(Err(_)) => return Response::error(400, "end must be a sim-time integer"),
    };
    let Some(start) = end.checked_sub(window) else {
        return Response::error(400, "end out of range");
    };
    let format = req.param("format").unwrap_or("json");
    if format != "json" && format != "csv" {
        return Response::error(400, "format must be json or csv");
    }

    let filter = TagFilter::from_pairs([("link", link)]);
    let mut keys = state.store.find_series("tslp", &filter);
    if keys.is_empty() && !snap.link_ips.contains(link) {
        return Response::error(404, "unknown link");
    }
    keys.sort_by_key(|k| k.to_string());

    // Refuse oversized selections up front instead of rendering and then
    // throwing the work away: the downsampled point count is known from
    // the window, bin, and series count alone.
    let est_points = (keys.len() as i64).saturating_mul(window / bin + 1);
    if est_points > MAX_RENDER_POINTS {
        crate::obs::metrics().render_capped.inc();
        manic_obs::event!(
            manic_obs::DEBUG, "serve", "render_capped", 0,
            link = link, est_points = est_points,
        );
        return Response::error(400, "selection too large: narrow the window or coarsen the bin");
    }

    if format == "csv" {
        let mut out = String::from("series,t,v\n");
        for key in &keys {
            // Series keys contain commas (`tslp,link=...`), so the field
            // must be RFC 4180 quoted.
            let name = key.to_string().replace('"', "\"\"");
            for p in state.store.downsample(key, start, end, bin, agg) {
                out.push_str(&format!("\"{name}\",{},{}\n", p.t, p.v));
            }
            if out.len() > MAX_RESPONSE_BYTES {
                return render_overflow(link, out.len());
            }
        }
        return Response::new(200, "text/csv", out.into_bytes());
    }

    let mut w = JsonWriter::new();
    w.begin_object().key("link").str(link).key("epoch").int(snap.epoch);
    w.key("start").int(start).key("end").int(end).key("bin").int(bin);
    w.key("agg").str(req.param("agg").unwrap_or("min")).key("series").begin_array();
    for key in &keys {
        w.begin_object().key("key").str(key).key("points").begin_array();
        for p in state.store.downsample(key, start, end, bin, agg) {
            w.begin_array().int(p.t).f64(p.v).end_array();
        }
        w.end_array().end_object();
        let bytes = w.as_str().len();
        if bytes > MAX_RESPONSE_BYTES {
            return render_overflow(link, bytes);
        }
    }
    w.end_array().end_object();
    Response::json(200, w.finish())
}

/// A render blew through [`MAX_RESPONSE_BYTES`] despite the up-front point
/// cap: abandon it. This indicates the caps disagree (operator error), so
/// it is a 500, not a client error.
fn render_overflow(link: &str, bytes: usize) -> Response {
    crate::obs::metrics().render_truncated.inc();
    manic_obs::event!(
        manic_obs::WARN, "serve", "render_truncated", 0, link = link, bytes = bytes,
    );
    Response::error(500, "render exceeded the response byte cap")
}

fn explain(state: &ServeState, _req: &Request, link: &str) -> Response {
    let records = manic_obs::audit().explain(link);
    if records.is_empty() && !state.hub.current().link_ips.contains(link) {
        return Response::error(404, "unknown link");
    }
    let mut w = JsonWriter::new();
    w.begin_object().key("link").str(link).key("records").begin_array();
    for rec in &records {
        rec.write_json(&mut w);
    }
    w.end_array().end_object();
    Response::json(200, w.finish())
}
