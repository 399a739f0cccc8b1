//! Request routing: URL → response, reading only the published snapshot,
//! the audit trail, and the tsdb.
//!
//! This is also where admission control lives: `/api/health` and
//! `/metrics` ride a **priority lane** (never shed, never rate limited —
//! an operator must be able to see a melting server), every other request
//! passes the overload layer's shed gate, and the two expensive render
//! endpoints additionally sit behind a circuit breaker and hard caps on
//! selection size and response bytes.

use crate::http::{Request, Response};
use crate::overload::ShedReason;
use crate::server::ServeState;
use manic_tsdb::{Aggregate, TagFilter};

/// Default timeseries window when the client does not name one: 4 h of
/// five-minute TSLP rounds.
const DEFAULT_WINDOW_SECS: i64 = 4 * 3600;
/// Widest permitted window (a full 22-month study, rounded up) — bounds
/// the per-request work a client can demand.
const MAX_WINDOW_SECS: i64 = 700 * 86_400;

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
                state.cache.shrink_to_bytes(state.overload.config().cache_shed_bytes);
                Response::unavailable(
                    "overloaded, request shed",
                    state.overload.config().retry_after_secs,
                )
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
            // Splice live blocks into the pre-rendered snapshot body: pop
            // the trailing `}` and append fields.
            let snap = state.hub.current();
            let mut body = snap.health_json.as_ref().clone();
            if body.last() == Some(&b'}') {
                body.pop();
                body.extend_from_slice(b",\"overload\":");
                body.extend_from_slice(state.overload.to_json().as_bytes());
                if let Some(d) = &state.durability {
                    body.extend_from_slice(b",\"durability\":");
                    body.extend_from_slice(d.to_json().as_bytes());
                }
                body.push(b'}');
            }
            Response::new(200, "application/json", body)
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
        return Response::unavailable(
            "render breaker open",
            state.overload.config().retry_after_secs,
        );
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
    let ocfg = state.overload.config();
    let est_points = (keys.len() as i64).saturating_mul(window / bin + 1);
    if ocfg.max_render_points > 0 && est_points > ocfg.max_render_points as i64 {
        crate::obs::metrics().render_capped.inc();
        manic_obs::event!(
            manic_obs::DEBUG, "serve", "render_capped", 0,
            link = link, est_points = est_points,
        );
        return Response::error(400, "selection too large: narrow the window or coarsen the bin");
    }
    let byte_cap = ocfg.max_response_bytes;

    if format == "csv" {
        let mut out = String::from("series,t,v\n");
        for key in &keys {
            // Series keys contain commas (`tslp,link=...`), so the field
            // must be RFC 4180 quoted.
            let name = key.to_string().replace('"', "\"\"");
            for p in state.store.downsample(key, start, end, bin, agg) {
                out.push_str(&format!("\"{name}\",{},{}\n", p.t, p.v));
            }
            if byte_cap > 0 && out.len() > byte_cap {
                return render_overflow(link, out.len());
            }
        }
        return Response::new(200, "text/csv", out.into_bytes());
    }

    let mut out = format!(
        "{{\"link\":\"{}\",\"epoch\":{},\"start\":{start},\"end\":{end},\"bin\":{bin},\
         \"agg\":\"{}\",\"series\":[",
        manic_obs::json_escape(link),
        snap.epoch,
        req.param("agg").unwrap_or("min"),
    );
    for (i, key) in keys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"key\":\"{}\",\"points\":[",
            manic_obs::json_escape(&key.to_string())
        ));
        let pts = state.store.downsample(key, start, end, bin, agg);
        for (j, p) in pts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{}]", p.t, p.v));
        }
        out.push_str("]}");
        if byte_cap > 0 && out.len() > byte_cap {
            return render_overflow(link, out.len());
        }
    }
    out.push_str("]}");
    Response::json(200, out)
}

/// A render blew through `max_response_bytes` despite the up-front point
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
    let mut out = format!("{{\"link\":\"{}\",\"records\":[", manic_obs::json_escape(link));
    for (i, rec) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&rec.to_json());
    }
    out.push_str("]}");
    Response::json(200, out)
}
