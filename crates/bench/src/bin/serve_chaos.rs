//! Hostile-client chaos harness for the manic-serve overload controls.
//!
//! The benchmark's `serve_read` workload answers "how fast"; this binary
//! answers "does it survive". A seeded fleet of hostile clients —
//! slowloris header-dribblers, valid requests trickled a byte at a time,
//! mid-request aborts, pipelined garbage and body-carrying requests,
//! oversized URIs and header blocks, connection-flood bursts, and silent
//! idlers — attacks a live server while paced well-behaved clients and a
//! health prober check that legitimate traffic is still served, and the
//! measurement loop runs in the same process so store writes race the
//! server's reads throughout.
//!
//! Hard gates (any failure exits non-zero):
//!
//! * zero panics anywhere in the process (panic hook counts them);
//! * every hostile-client kind shows up in its rejection metric
//!   (header-timeout disconnects, idle reaps, 413/414/431/400 parser
//!   rejections) — abuse that is absorbed silently is a bug;
//! * the health prober sees `/api/health` answer 200 on every probe — the
//!   priority lane stays open no matter what;
//! * the well-behaved clients get answers (at least one 200);
//! * resident-set growth across the attack stays within 128 MB — no
//!   unbounded buffering;
//! * a second server with a hair-trigger circuit breaker opens it under
//!   slow renders, rejects with 503, and keeps `/api/health` serving.
//!
//! Fleet size and duration scale with `SERVE_CHAOS_PAIRS` and
//! `SERVE_CHAOS_ATTACK_SECS` so CI can run a reduced ~30 s smoke while
//! the full fleet runs on dedicated hardware. Writes a text report under
//! `results/`.
//!
//! ```text
//! cargo run --release -p manic-bench --bin serve_chaos
//! ```

use manic_core::{System, SystemConfig};
use manic_netsim::time::{date_to_sim, Date};
use manic_scenario::worlds::toy;
use manic_serve::{OverloadConfig, ServeConfig, ServeState, Server, SnapshotHub};
use manic_worldgen::rng::Rng;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic base seed for the fleet's RNG streams.
const SEED: u64 = 0xC4A0_5EED;
/// Resident-set growth the attack may cause, MB.
const RSS_BUDGET_MB: f64 = 128.0;
/// Requests per second the well-behaved clients offer between them.
const WELL_RPS: u64 = 200;
const WARMUP_SIM_HOURS: i64 = 6;

/// Panic counter fed by the process-wide panic hook: any panic on any
/// thread (server workers included — they share the process) fails the run.
static PANICS: AtomicU64 = AtomicU64::new(0);

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn t0() -> i64 {
    date_to_sim(Date::new(2017, 3, 1))
}

/// Resident set size from `/proc/self/status`, in KiB (0 if unreadable —
/// the RSS gate is skipped off-Linux rather than failed).
fn rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true).ok();
    s.set_read_timeout(Some(Duration::from_secs(5))).ok();
    s.set_write_timeout(Some(Duration::from_secs(5))).ok();
    Ok(s)
}

/// Consume one `Content-Length`-framed response; returns the status code.
fn read_response(r: &mut BufReader<TcpStream>, scratch: &mut Vec<u8>) -> std::io::Result<u16> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"));
    }
    let status = line.get(9..12).and_then(|s| s.parse().ok()).unwrap_or(0);
    let mut content_len = 0usize;
    loop {
        let mut h = String::new();
        if r.read_line(&mut h)? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
            content_len = v.trim().parse().unwrap_or(0);
        }
    }
    scratch.resize(content_len, 0);
    r.read_exact(scratch)?;
    Ok(status)
}

/// One round-trip on a fresh connection; returns the status (0 on error).
fn one_shot(addr: SocketAddr, path: &str) -> u16 {
    let Ok(s) = connect(addr) else { return 0 };
    let mut conn = BufReader::new(s);
    let req = format!("GET {path} HTTP/1.1\r\nHost: c\r\nConnection: close\r\n\r\n");
    if conn.get_mut().write_all(req.as_bytes()).is_err() {
        return 0;
    }
    let mut scratch = Vec::new();
    read_response(&mut conn, &mut scratch).unwrap_or(0)
}

/// Shared kill switch + per-kind activity counter for one hostile thread.
struct Hostile {
    stop: Arc<AtomicBool>,
    attempts: Arc<AtomicU64>,
}

impl Hostile {
    fn running(&self) -> bool {
        !self.stop.load(Ordering::Acquire)
    }
    fn tick(&self) {
        self.attempts.fetch_add(1, Ordering::Relaxed);
    }
    /// Sleep in small slices so shutdown stays prompt.
    fn nap(&self, total: Duration) {
        let deadline = Instant::now() + total;
        while self.running() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Slowloris: drip one header byte at a time, far slower than the header
/// deadline. The server must cut the connection; we reconnect and repeat.
fn slowloris(addr: SocketAddr, h: Hostile) {
    let head = b"GET /api/links HTTP/1.1\r\nHost: slow\r\nX-Drip: ";
    while h.running() {
        h.tick();
        let Ok(mut s) = connect(addr) else {
            h.nap(Duration::from_millis(50));
            continue;
        };
        for chunk in head.chunks(1) {
            if !h.running() || s.write_all(chunk).is_err() {
                break;
            }
            h.nap(Duration::from_millis(40));
        }
        // Keep dripping until the server hangs up on us.
        while h.running() && s.write_all(b"z").is_ok() {
            h.nap(Duration::from_millis(40));
        }
    }
}

/// Byte-dribbler: a valid request sent one byte per tick. Slow enough that
/// the header deadline fires mid-request; the bytes themselves are legal.
fn dribbler(addr: SocketAddr, h: Hostile) {
    let req = b"GET /api/health HTTP/1.1\r\nHost: dribble\r\nAccept: application/json\r\n\r\n";
    while h.running() {
        h.tick();
        let Ok(mut s) = connect(addr) else {
            h.nap(Duration::from_millis(50));
            continue;
        };
        let mut cut = false;
        for b in req.iter() {
            if !h.running() || s.write_all(std::slice::from_ref(b)).is_err() {
                cut = true;
                break;
            }
            h.nap(Duration::from_millis(25));
        }
        if !cut {
            // Made it under the deadline: drain the response politely.
            let mut conn = BufReader::new(s);
            let mut scratch = Vec::new();
            let _ = read_response(&mut conn, &mut scratch);
        }
    }
}

/// Mid-request aborts: write part of a request (sometimes all of it) and
/// slam the connection shut without reading anything.
fn aborter(addr: SocketAddr, h: Hostile, mut rng: Rng) {
    let req: &[u8] = b"GET /api/links HTTP/1.1\r\nHost: abort\r\n\r\n";
    while h.running() {
        h.tick();
        let Ok(mut s) = connect(addr) else {
            h.nap(Duration::from_millis(20));
            continue;
        };
        let cut = rng.below(req.len() + 1);
        let _ = s.write_all(&req[..cut]);
        drop(s); // RST or FIN mid-parse, server's choice how it lands
        h.nap(Duration::from_millis(5 + rng.below(10) as u64));
    }
}

/// Pipelined garbage: random byte soup, interleaved with body-carrying
/// requests the server must refuse with 413 rather than buffer.
fn garbage(addr: SocketAddr, h: Hostile, mut rng: Rng) {
    while h.running() {
        h.tick();
        let Ok(mut s) = connect(addr) else {
            h.nap(Duration::from_millis(20));
            continue;
        };
        let mut payload = Vec::with_capacity(512);
        match rng.below(3) {
            0 => {
                // Raw soup.
                for _ in 0..64 + rng.below(256) {
                    payload.push(rng.next_u64() as u8);
                }
            }
            1 => {
                // A POST with a body, pipelined ahead of a valid GET the
                // server will never reach (the 413 closes the stream).
                payload.extend_from_slice(
                    b"POST /api/links HTTP/1.1\r\nHost: g\r\nContent-Length: 64\r\n\r\n",
                );
                payload.extend(std::iter::repeat_n(b'x', 64));
                payload.extend_from_slice(b"GET /api/links HTTP/1.1\r\nHost: g\r\n\r\n");
            }
            _ => {
                // Valid request line, then header soup with no terminator.
                payload.extend_from_slice(b"GET /api/links HTTP/1.1\r\n");
                for _ in 0..rng.below(8) {
                    for _ in 0..rng.below(40) {
                        payload.push(rng.next_u64() as u8);
                    }
                    payload.extend_from_slice(b"\r\n");
                }
                payload.extend_from_slice(b"\x00\x01\xfe\xff\r\n\r\n");
            }
        }
        let _ = s.write_all(&payload);
        // Read whatever error response comes back (or EOF), then move on.
        let mut sink = [0u8; 1024];
        s.set_read_timeout(Some(Duration::from_millis(200))).ok();
        let _ = s.read(&mut sink);
        h.nap(Duration::from_millis(10));
    }
}

/// Oversized URIs and header blocks, alternating; expects 414/431.
fn oversize(addr: SocketAddr, h: Hostile, mut rng: Rng) {
    while h.running() {
        h.tick();
        let Ok(mut s) = connect(addr) else {
            h.nap(Duration::from_millis(20));
            continue;
        };
        let payload = if rng.below(2) == 0 {
            let mut p = b"GET /".to_vec();
            p.extend(std::iter::repeat_n(b'u', 64 * 1024));
            p.extend_from_slice(b" HTTP/1.1\r\n\r\n");
            p
        } else {
            let mut p = b"GET /api/links HTTP/1.1\r\nX-Pad: ".to_vec();
            p.extend(std::iter::repeat_n(b'h', 64 * 1024));
            p.extend_from_slice(b"\r\n\r\n");
            p
        };
        let _ = s.write_all(&payload);
        let mut sink = [0u8; 1024];
        s.set_read_timeout(Some(Duration::from_millis(200))).ok();
        let _ = s.read(&mut sink);
        h.nap(Duration::from_millis(20));
    }
}

/// Flood bursts: open a clutch of connections at once, fire one request
/// each, read the responses, drop them all, breathe, repeat.
fn flood(addr: SocketAddr, h: Hostile) {
    const CLUTCH: usize = 24;
    while h.running() {
        h.tick();
        let mut conns = Vec::with_capacity(CLUTCH);
        for _ in 0..CLUTCH {
            if let Ok(mut s) = connect(addr) {
                let _ = s.write_all(b"GET /api/links HTTP/1.1\r\nHost: f\r\n\r\n");
                conns.push(BufReader::new(s));
            }
        }
        let mut scratch = Vec::new();
        for conn in conns.iter_mut() {
            let _ = read_response(conn, &mut scratch);
        }
        drop(conns);
        h.nap(Duration::from_millis(100));
    }
}

/// Idler: connect, send nothing, hold the socket. The server must reap it
/// at the keep-alive timeout instead of letting budget leak away.
fn idler(addr: SocketAddr, h: Hostile) {
    while h.running() {
        h.tick();
        let Ok(mut s) = connect(addr) else {
            h.nap(Duration::from_millis(50));
            continue;
        };
        // Wait for the server to hang up (EOF) or for shutdown.
        s.set_read_timeout(Some(Duration::from_millis(250))).ok();
        let mut sink = [0u8; 64];
        while h.running() {
            match s.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => break,
            }
        }
    }
}

/// Well-behaved paced client: one request per interval on a keep-alive
/// connection; returns (200s, failures).
fn law_abiding(addr: SocketAddr, interval: Duration, stop: Arc<AtomicBool>) -> (u64, u64) {
    let (mut ok, mut bad) = (0u64, 0u64);
    let mut conn = None;
    let mut scratch = Vec::with_capacity(64 * 1024);
    let mut next = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if now < next {
            std::thread::sleep(next - now);
        } else if now > next + interval * 8 {
            next = now; // fell behind: re-anchor, don't burst
        }
        next += interval;
        if conn.is_none() {
            conn = connect(addr).ok().map(BufReader::new);
        }
        let Some(c) = conn.as_mut() else {
            bad += 1;
            continue;
        };
        let done = c
            .get_mut()
            .write_all(b"GET /api/links HTTP/1.1\r\nHost: good\r\n\r\n")
            .and_then(|_| read_response(c, &mut scratch));
        match done {
            Ok(200) => ok += 1,
            _ => {
                bad += 1;
                conn = None;
            }
        }
    }
    (ok, bad)
}

/// Run the measurement loop for `secs` wall seconds in half-hour sim
/// quanta, so store writes race the server's reads; returns the quanta
/// run. The 1 ms breather between quanta keeps the sim from starving every
/// other thread on small machines.
fn run_sim_for(sys: &mut System, t: &mut i64, secs: u64) -> usize {
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut quanta = 0;
    while Instant::now() < deadline {
        let next = *t + 1800;
        sys.run_packet_mode(*t, next);
        *t = next;
        quanta += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    quanta
}

struct Gate {
    name: &'static str,
    detail: String,
    pass: bool,
}

fn main() {
    manic_obs::journal().set_stderr_level(Some(manic_obs::Level::Warn));

    // Count every panic in the process, then let the default hook report it.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));

    let pairs = env_u64("SERVE_CHAOS_PAIRS", 3) as usize;
    let attack_secs = env_u64("SERVE_CHAOS_ATTACK_SECS", 8);

    // World + warmed-up measurement system.
    let mut sys = System::new(toy(42), SystemConfig::default());
    let hub = Arc::new(SnapshotHub::new());
    let store = Arc::clone(&sys.store);
    let from = t0();
    let mut t = from;
    sys.run_packet_mode(from, from + WARMUP_SIM_HOURS * 3600);
    t += WARMUP_SIM_HOURS * 3600;
    hub.publish_from(&sys, t, 6 * 3600);

    // Server under attack: loopback traffic shares one client IP, so the
    // per-IP limiter is off and overload control carries the whole load.
    // Short header deadline and keep-alive so slowloris cuts and idle reaps
    // both land well inside the attack window.
    // Slow clients legitimately pin a worker each until their deadline
    // fires, so the pool must be sized above the fleet's concurrency — an
    // 8-worker default against ~20 connection-holding attackers measures
    // pool exhaustion, not overload control.
    let cfg = ServeConfig {
        workers: 16 + pairs * 8,
        rate_limit_rps: 0,
        keep_alive_timeout: Duration::from_secs(1),
        overload: OverloadConfig {
            header_read_timeout: Duration::from_millis(400),
            ..OverloadConfig::default()
        },
        ..ServeConfig::default()
    };
    let state = Arc::new(ServeState::new(Arc::clone(&hub), store, &cfg));
    let server = Server::start("127.0.0.1:0", state, &cfg).expect("bind loopback");
    let addr = server.local_addr();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(// ALLOW_PRINT: bench output
        "serve_chaos: http://{addr}, {cores} core(s), {pairs} hostile pair(s), \
         {attack_secs}s attack"
    );

    let rss_before_kib = rss_kib();

    // Metric snapshot before the attack; gates check deltas.
    let r = manic_obs::registry();
    let m0: Vec<(&str, u64)> = METRIC_GATES
        .iter()
        .map(|(_, series)| (*series, r.counter_value(series)))
        .collect();

    // The fleet. Hostile threads per kind scale with `pairs`.
    let stop = Arc::new(AtomicBool::new(false));
    let mut hostile_handles = Vec::new();
    let mut kind_attempts: Vec<(&'static str, Arc<AtomicU64>)> = Vec::new();
    type Launch = (&'static str, fn(SocketAddr, Hostile, Rng));
    let kinds: &[Launch] = &[
        ("slowloris", |a, h, _| slowloris(a, h)),
        ("dribbler", |a, h, _| dribbler(a, h)),
        ("aborter", aborter),
        ("garbage", garbage),
        ("oversize", oversize),
        ("flood", |a, h, _| flood(a, h)),
        ("idler", |a, h, _| idler(a, h)),
    ];
    for (ki, (kind, launch)) in kinds.iter().enumerate() {
        let attempts = Arc::new(AtomicU64::new(0));
        kind_attempts.push((kind, Arc::clone(&attempts)));
        for pi in 0..pairs {
            let h = Hostile { stop: Arc::clone(&stop), attempts: Arc::clone(&attempts) };
            let rng = Rng::new(SEED, (ki as u64) << 32 | pi as u64);
            let launch = *launch;
            hostile_handles.push(
                std::thread::Builder::new()
                    .name(format!("chaos-{kind}-{pi}"))
                    .spawn(move || launch(addr, h, rng))
                    .expect("spawn hostile client"),
            );
        }
    }

    // Well-behaved clients: two paced threads sharing the offered rate.
    const WELL_CLIENTS: usize = 2;
    let interval = Duration::from_nanos(WELL_CLIENTS as u64 * 1_000_000_000 / WELL_RPS);
    let well_handles: Vec<_> = (0..WELL_CLIENTS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || law_abiding(addr, interval, stop))
        })
        .collect();

    // Health prober: fresh connection every 50 ms; every probe must be 200.
    let prober = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let (mut probes, mut ok) = (0u64, 0u64);
            while !stop.load(Ordering::Acquire) {
                probes += 1;
                if one_shot(addr, "/api/health") == 200 {
                    ok += 1;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            (probes, ok)
        })
    };

    // The measurement loop runs through the whole attack.
    let quanta = run_sim_for(&mut sys, &mut t, attack_secs);

    stop.store(true, Ordering::Release);
    let mut harness_panics = 0u64;
    for hh in hostile_handles {
        if hh.join().is_err() {
            harness_panics += 1;
        }
    }
    let (mut well_ok, mut well_bad) = (0u64, 0u64);
    for wh in well_handles {
        let (ok, bad) = wh.join().unwrap_or((0, 1));
        well_ok += ok;
        well_bad += bad;
    }
    let (probes, probes_ok) = prober.join().unwrap_or((1, 0));
    let rss_after_kib = rss_kib();

    // Breaker drill on a second server tuned so every cache-miss
    // render counts as slow. Distinct bins defeat the response cache.
    let drill_cfg = ServeConfig {
        rate_limit_rps: 0,
        overload: OverloadConfig {
            breaker_streak: 2,
            breaker_slow_ms: 0.0,
            breaker_cooldown: Duration::from_secs(60),
            ..OverloadConfig::default()
        },
        ..ServeConfig::default()
    };
    let drill_state = Arc::new(ServeState::new(
        Arc::clone(&hub),
        Arc::clone(&sys.store),
        &drill_cfg,
    ));
    let drill = Server::start("127.0.0.1:0", drill_state, &drill_cfg).expect("bind drill");
    let far = hub
        .current()
        .links
        .first()
        .map(|l| l.far_ip.to_string())
        .expect("toy world has links");
    let breaker_before = r.counter_value("manic_serve_breaker_rejected");
    let mut drill_503 = 0u64;
    for bin in 0..12u64 {
        let path = format!("/api/link/{far}/timeseries?bin={}&agg=min", 300 + bin * 60);
        if one_shot(drill.local_addr(), &path) == 503 {
            drill_503 += 1;
        }
    }
    let drill_health = one_shot(drill.local_addr(), "/api/health");
    let breaker_tripped = r.counter_value("manic_serve_breaker_rejected") - breaker_before;
    drill.shutdown();
    server.shutdown();

    // ---- Gates ----
    let rss_growth_mb = (rss_after_kib.saturating_sub(rss_before_kib)) as f64 / 1024.0;
    let panics = PANICS.load(Ordering::SeqCst) + harness_panics;

    let mut gates = vec![
        Gate {
            name: "no_panics",
            detail: format!("{panics} panic(s) observed"),
            pass: panics == 0,
        },
        Gate {
            name: "health_always_answers",
            detail: format!("{probes_ok}/{probes} probes returned 200"),
            pass: probes > 0 && probes_ok == probes,
        },
        Gate {
            name: "well_behaved_served",
            detail: format!("{well_ok} ok / {well_bad} failed"),
            pass: well_ok > 0,
        },
        Gate {
            name: "rss_bounded",
            detail: format!("grew {rss_growth_mb:.1} MB <= {RSS_BUDGET_MB} MB budget"),
            pass: rss_before_kib == 0 || rss_growth_mb <= RSS_BUDGET_MB,
        },
        Gate {
            name: "breaker_drill",
            detail: format!(
                "{drill_503} x 503, {breaker_tripped} breaker rejections, \
                 health {drill_health}"
            ),
            pass: drill_503 > 0 && breaker_tripped > 0 && drill_health == 200,
        },
    ];
    for ((label, series), (_, before)) in METRIC_GATES.iter().zip(&m0) {
        let delta = r.counter_value(series).saturating_sub(*before);
        gates.push(Gate {
            name: label,
            detail: format!("{series} +{delta}"),
            pass: delta > 0,
        });
    }

    // ---- Report ----
    let mut txt = String::new();
    let _ = writeln!(
        txt,
        "serve_chaos: {pairs} hostile pair(s) x {} kind(s), {attack_secs}s attack, \
         {cores} core(s)",
        kind_attempts.len()
    );
    for (kind, attempts) in &kind_attempts {
        let _ = writeln!(txt, "  {kind:<10} {:>8} attack cycles", attempts.load(Ordering::Relaxed));
    }
    let _ = writeln!(txt, "well-behaved: {well_ok} ok / {well_bad} failed");
    let _ = writeln!(txt, "health: {probes_ok}/{probes} probes ok");
    let _ = writeln!(txt, "sim: {quanta} half-hour quanta run during the attack");
    let _ = writeln!(
        txt,
        "rss: {:.1} MB pre-attack, {:.1} MB post-attack \
         ({rss_growth_mb:+.1} MB across the attack)",
        rss_before_kib as f64 / 1024.0,
        rss_after_kib as f64 / 1024.0
    );
    let mut all_pass = true;
    for g in &gates {
        all_pass &= g.pass;
        let _ = writeln!(
            txt,
            "gate {:<28} {}  ({})",
            g.name,
            if g.pass { "PASS" } else { "FAIL" },
            g.detail
        );
    }
    print!("{txt}"); // ALLOW_PRINT: bench output
    manic_bench::save_result("serve_chaos", &txt);

    if !all_pass {
        eprintln!("serve_chaos: GATE FAILURE"); // ALLOW_PRINT: bench output
        std::process::exit(1);
    }
}

/// Every hostile kind must leave a mark in its rejection metric — the
/// (gate label, metric series) pairs checked as deltas across the attack.
const METRIC_GATES: &[(&str, &str)] = &[
    ("slowloris_cut", "manic_serve_disconnects{kind=\"header_timeout\"}"),
    ("idlers_reaped", "manic_serve_disconnects{kind=\"idle_timeout\"}"),
    ("oversized_uri_rejected", "manic_serve_parse_rejected{reason=\"uri_too_long\"}"),
    ("oversized_headers_rejected", "manic_serve_parse_rejected{reason=\"headers_too_large\"}"),
    ("bodies_rejected", "manic_serve_parse_rejected{reason=\"body\"}"),
    ("garbage_rejected", "manic_serve_parse_rejected{reason=\"malformed\"}"),
];
