//! The TCP front end: a fixed worker pool over an accept thread.
//!
//! `std::net` only — one thread blocks in `accept`, pushes connections
//! onto an mpsc channel, and `workers` threads pull from it behind a
//! shared `Mutex<Receiver>`. Keep-alive connections are served until the
//! client closes, an idle read times out, or shutdown is requested.
//! Shutdown is graceful: the flag flips, the accept thread is woken by a
//! loopback self-connect, the channel drains, and every worker finishes
//! (writes the response for) the request it is on before exiting.
//!
//! The accept side enforces the overload layer's **connection budget**: a
//! slot is claimed *before* `accept(2)`, so when the budget is spent the
//! loop stalls and excess clients queue in the kernel backlog instead of
//! consuming file descriptors. `EMFILE`/`ENFILE` is survivable via a
//! reserve descriptor: drop it, accept-and-close one pending client (which
//! sees a clean close instead of hanging), re-arm. Each worker wraps its
//! stream in a [`DeadlineStream`] so a slowloris or byte-dribbling client
//! is disconnected `header_read_timeout` after its first request byte —
//! distinct from the keep-alive idle timeout, and without adding a single
//! syscall to the buffered fast path.

use crate::api;
use crate::cache::{ResponseCache, CACHE_ENTRIES, CACHE_MAX_BYTES};
use crate::http::{self, ParseError, Response};
use crate::overload::{ConnGuard, OverloadConfig, OverloadState};
use crate::ratelimit::RateLimiter;
use crate::snapshot::SnapshotHub;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Socket write timeout: a client that stops reading its responses is
/// disconnected instead of blocking a worker on `write(2)`.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Tuning for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Per-client request budget; 0 = unlimited. The default is far above
    /// any dashboard's needs but still bounds a hostile client.
    pub rate_limit_rps: u64,
    pub rate_limit_burst: u64,
    /// Idle keep-alive connections are closed after this long.
    pub keep_alive_timeout: Duration,
    /// Overload-control tuning (deadlines, budgets, shed gate, breaker).
    pub overload: OverloadConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 8,
            rate_limit_rps: 100_000,
            rate_limit_burst: 20_000,
            keep_alive_timeout: Duration::from_secs(5),
            overload: OverloadConfig::default(),
        }
    }
}

/// Everything the read path needs, shared across workers.
pub struct ServeState {
    pub hub: Arc<SnapshotHub>,
    pub store: Arc<manic_tsdb::Store>,
    pub cache: ResponseCache,
    pub limiter: RateLimiter,
    /// Shared overload-control state (budget, shed gate, breaker).
    pub overload: Arc<OverloadState>,
    /// Durability frontier when the process runs with a data dir; `None`
    /// keeps `/api/health` byte-identical to an in-memory deployment.
    pub durability: Option<Arc<crate::durability::DurabilityStatus>>,
}

impl ServeState {
    pub fn new(hub: Arc<SnapshotHub>, store: Arc<manic_tsdb::Store>, cfg: &ServeConfig) -> Self {
        ServeState {
            hub,
            store,
            cache: ResponseCache::with_limits(CACHE_ENTRIES, CACHE_MAX_BYTES),
            limiter: RateLimiter::new(cfg.rate_limit_rps, cfg.rate_limit_burst),
            overload: Arc::new(OverloadState::new(cfg.overload.clone())),
            durability: None,
        }
    }
}

/// A running server. Dropping without calling [`Server::shutdown`] leaks
/// the threads until process exit (they hold no state worth flushing).
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: thread::JoinHandle<()>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (port 0 picks a free port) and start serving.
    pub fn start(
        addr: &str,
        state: Arc<ServeState>,
        cfg: &ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<(TcpStream, ConnGuard)>();
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for i in 0..cfg.workers.max(1) {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            let keep_alive_timeout = cfg.keep_alive_timeout;
            workers.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || loop {
                        let conn = rx.lock().unwrap().recv();
                        match conn {
                            Ok((stream, guard)) => {
                                guard.dequeued();
                                serve_connection(
                                    stream,
                                    guard,
                                    &state,
                                    &shutdown,
                                    keep_alive_timeout,
                                );
                            }
                            // Sender dropped: accept thread exited, drain done.
                            Err(_) => break,
                        }
                    })?,
            );
        }

        let accept_shutdown = Arc::clone(&shutdown);
        let overload = Arc::clone(&state.overload);
        let accept_handle = thread::Builder::new().name("serve-accept".into()).spawn(move || {
            accept_loop(listener, tx, overload, accept_shutdown);
        })?;

        Ok(Server { addr: local, shutdown, accept_handle, workers })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful stop: no new connections, in-flight requests complete.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_handle.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// `EMFILE`/`ENFILE` from `accept(2)` (process/system fd table full).
/// Matched by raw errno — 24/23 on Linux — because this crate links no
/// libc bindings.
fn is_fd_exhausted(e: &std::io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23) | Some(24))
}

fn accept_loop(
    listener: TcpListener,
    tx: mpsc::Sender<(TcpStream, ConnGuard)>,
    overload: Arc<OverloadState>,
    shutdown: Arc<AtomicBool>,
) {
    let m = crate::obs::metrics();
    // One spare descriptor so fd exhaustion is survivable: when accept
    // fails with EMFILE, closing this frees exactly one slot to accept and
    // immediately close a pending client (a clean close beats letting it
    // hang in the backlog until its own timeout).
    let mut reserve_fd = std::fs::File::open("/dev/null").ok();
    'outer: loop {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        // Claim a budget slot *before* accepting: at the cap the loop
        // stalls and excess clients wait in the kernel backlog without
        // consuming our descriptors or worker memory.
        let guard = {
            let mut stalled = false;
            loop {
                match overload.try_acquire_conn() {
                    Some(g) => break g,
                    None => {
                        if !stalled {
                            stalled = true;
                            m.accept_backpressure.inc();
                            manic_obs::event!(
                                manic_obs::DEBUG, "serve", "accept_backpressure", 0,
                                open = overload.open_conns(),
                            );
                        }
                        thread::sleep(Duration::from_millis(2));
                        if shutdown.load(Ordering::Acquire) {
                            break 'outer;
                        }
                    }
                }
            }
        };
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
                guard.enqueued();
                // A send only fails once workers are gone, i.e. at
                // shutdown; dropping the connection then is correct.
                let _ = tx.send((stream, guard));
            }
            Err(e) => {
                drop(guard);
                if is_fd_exhausted(&e) {
                    m.conn_rejected_emfile.inc();
                    manic_obs::event!(manic_obs::WARN, "serve", "fd_exhausted", 0);
                    if reserve_fd.is_some() {
                        drop(reserve_fd.take());
                        if let Ok((doomed, _)) = listener.accept() {
                            drop(doomed);
                        }
                        reserve_fd = std::fs::File::open("/dev/null").ok();
                    }
                    thread::sleep(Duration::from_millis(10));
                } else if e.kind() != std::io::ErrorKind::ConnectionAborted {
                    // Transient accept errors (ECONNABORTED is routine);
                    // yield briefly rather than spinning on a hot error.
                    thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
    // `tx` drops here, unblocking every idle worker.
}

/// Which socket read timeout is currently programmed, so the fast path
/// never issues redundant `setsockopt` calls.
#[derive(PartialEq, Eq, Clone, Copy)]
enum SockTimeout {
    Idle,
    Header,
}

/// A `TcpStream` reader with two timing regimes: **idle** (between
/// requests — the keep-alive timeout applies) and **header** (a request
/// head is in flight — a hard deadline runs from its first byte, so a
/// client dribbling one byte per second cannot hold a worker for
/// `keep_alive_timeout` per header line).
///
/// The phase machine is arranged so a well-behaved client costs zero
/// additional syscalls: requests that arrive in one segment are consumed
/// from the `BufReader` without re-entering `read`, and the socket timeout
/// is only reprogrammed when a head actually spans multiple reads.
struct DeadlineStream {
    stream: TcpStream,
    idle_timeout: Duration,
    header_timeout: Duration,
    /// Hard deadline for the in-flight head; `None` between requests.
    deadline: Option<Instant>,
    programmed: SockTimeout,
    /// The last read failure was the header deadline (vs idle timeout).
    header_deadline_hit: bool,
    /// The last read failure was a timeout of either kind.
    timed_out: bool,
}

impl DeadlineStream {
    fn new(
        stream: TcpStream,
        idle_timeout: Duration,
        header_timeout: Duration,
    ) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(idle_timeout))?;
        Ok(DeadlineStream {
            stream,
            idle_timeout,
            header_timeout,
            deadline: None,
            programmed: SockTimeout::Idle,
            header_deadline_hit: false,
            timed_out: false,
        })
    }

    /// A full request head was parsed: the next bytes belong to the next
    /// request, timed under the keep-alive regime again. No syscall here —
    /// the socket timeout is corrected lazily on the next actual read.
    fn end_request(&mut self) {
        self.deadline = None;
    }

    fn into_stream(self) -> TcpStream {
        self.stream
    }

    fn is_timeout(e: &std::io::Error) -> bool {
        matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.deadline {
            None => {
                if self.programmed != SockTimeout::Idle {
                    self.stream.set_read_timeout(Some(self.idle_timeout))?;
                    self.programmed = SockTimeout::Idle;
                }
                match self.stream.read(buf) {
                    Ok(n) => {
                        if n > 0 {
                            // First byte of a head: the deadline starts.
                            self.deadline = Some(Instant::now() + self.header_timeout);
                        }
                        Ok(n)
                    }
                    Err(e) => {
                        self.timed_out = Self::is_timeout(&e);
                        Err(e)
                    }
                }
            }
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    self.header_deadline_hit = true;
                    self.timed_out = true;
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
                self.stream.set_read_timeout(Some(remaining))?;
                self.programmed = SockTimeout::Header;
                match self.stream.read(buf) {
                    Ok(n) => Ok(n),
                    Err(e) => {
                        if Self::is_timeout(&e) {
                            self.timed_out = true;
                            self.header_deadline_hit = true;
                        }
                        Err(e)
                    }
                }
            }
        }
    }
}

/// Bounded lingering close after a parse rejection: shut down the write
/// side, then drain (a little of) whatever the client is still sending so
/// the kernel does not convert unread receive-buffer bytes into a RST
/// that destroys the error response in flight.
fn lingering_close(stream: TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut stream = stream;
    let mut buf = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 16 * 1024 {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    _guard: ConnGuard,
    state: &ServeState,
    shutdown: &AtomicBool,
    keep_alive_timeout: Duration,
) {
    let m = crate::obs::metrics();
    let ocfg = state.overload.config();
    let peer_ip = stream.peer_addr().map(|a| a.ip()).ok();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let ds = match DeadlineStream::new(stream, keep_alive_timeout, ocfg.header_read_timeout) {
        Ok(ds) => ds,
        Err(_) => return,
    };
    let mut reader = BufReader::new(ds);
    // Pipelined responses coalesce here and flush in one write once the
    // client's buffered input drains (or the batch gets large) — for a
    // request-at-a-time client this degenerates to one write per response.
    let mut out: Vec<u8> = Vec::new();
    const FLUSH_BYTES: usize = 64 * 1024;
    loop {
        let req = match http::read_request(&mut reader) {
            Ok(req) => {
                reader.get_mut().end_request();
                req
            }
            Err(ParseError::Eof) => break,
            Err(ParseError::Io) => {
                let ds = reader.get_ref();
                if ds.header_deadline_hit {
                    m.disconnect_header_timeout.inc();
                    manic_obs::event!(
                        manic_obs::DEBUG, "serve", "disconnect", 0, kind = "header_timeout",
                    );
                } else if ds.timed_out {
                    m.disconnect_idle_timeout.inc();
                }
                break;
            }
            Err(ParseError::Reject(reason, msg)) => {
                m.parse_counter(reason).inc();
                let status = reason.status();
                manic_obs::event!(
                    manic_obs::DEBUG, "serve", "request_rejected", 0,
                    status = status as u64, msg = msg,
                );
                Response::error(status, msg).render_into(&mut out, false);
                let write_ok = writer.write_all(&out).is_ok();
                if write_ok {
                    lingering_close(reader.into_inner().into_stream());
                }
                return;
            }
        };
        // Priority-lane paths skip the rate limiter too: an operator must
        // be able to read health/metrics from a flooded host.
        let allowed = api::is_priority(&req.path)
            || peer_ip.map(|ip| state.limiter.allow(ip)).unwrap_or(true);
        let resp = if allowed {
            api::handle(state, &req)
        } else {
            Response::error(429, "rate limit exceeded")
        };
        let draining = shutdown.load(Ordering::Acquire);
        let keep_alive = req.keep_alive && !draining;
        resp.render_into(&mut out, keep_alive);
        if reader.buffer().is_empty() || out.len() >= FLUSH_BYTES {
            if let Err(e) = writer.write_all(&out) {
                if DeadlineStream::is_timeout(&e) {
                    m.disconnect_write_timeout.inc();
                } else {
                    m.disconnect_write_error.inc();
                }
                return;
            }
            out.clear();
        }
        if !keep_alive {
            break;
        }
    }
    if !out.is_empty() {
        if let Err(e) = writer.write_all(&out) {
            if DeadlineStream::is_timeout(&e) {
                m.disconnect_write_timeout.inc();
            } else {
                m.disconnect_write_error.inc();
            }
        }
    }
}
