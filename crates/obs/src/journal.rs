//! Structured event journal keyed to *sim time*.
//!
//! Every event carries the simulation timestamp at which it happened, not
//! the wall clock at which the simulator happened to execute it — a
//! fluid-mode run covers 22 months of sim time in seconds of wall time, and
//! the only timeline on which "the task quarantined, then the level shift
//! appeared" is meaningful is the simulated one. Events are key/value
//! structured (no format strings to parse back), ring-buffered in memory,
//! and optionally mirrored to a JSON-lines file sink and/or stderr.

use crate::JsonWriter;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Event severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Trace = 0,
    Debug = 1,
    Info = 2,
    Warn = 3,
    Error = 4,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    pub fn parse(s: &str) -> Option<Level> {
        Some(match s {
            "trace" => Level::Trace,
            "debug" => Level::Debug,
            "info" => Level::Info,
            "warn" | "warning" => Level::Warn,
            "error" => Level::Error,
            _ => return None,
        })
    }

    fn from_u8(v: u8) -> Option<Level> {
        Some(match v {
            0 => Level::Trace,
            1 => Level::Debug,
            2 => Level::Info,
            3 => Level::Warn,
            4 => Level::Error,
            _ => return None,
        })
    }
}

/// A structured field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    I64(i64),
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One journal entry.
#[derive(Debug, Clone)]
pub struct Event {
    /// Simulation time (seconds since the sim epoch), NOT wall time.
    pub t: i64,
    pub level: Level,
    /// Emitting subsystem (crate short name: "netsim", "probing", ...).
    pub target: &'static str,
    /// Event name within the target, snake_case.
    pub name: &'static str,
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// One JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("t").int(self.t).key("level").str(self.level.as_str());
        w.key("target").str(self.target).key("event").str(self.name);
        for (k, v) in &self.fields {
            w.key(k).value(v);
        }
        w.end_object();
        w.finish()
    }

    /// Field lookup.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn render_stderr(&self) -> String {
        let mut out = format!("[t={} {} {}/{}]", self.t, self.level.as_str(), self.target, self.name);
        for (k, v) in &self.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out
    }
}

/// Sentinel for "no stderr sink".
const STDERR_OFF: u8 = u8::MAX;

struct Inner {
    ring: VecDeque<Event>,
    cap: usize,
    /// Events evicted from the ring since the last clear.
    dropped: u64,
    file: Option<std::io::BufWriter<std::fs::File>>,
}

/// The event journal: fixed-capacity in-memory ring plus optional sinks.
pub struct Journal {
    /// Events below this level are discarded at the recording site.
    min_level: AtomicU8,
    /// Events at or above this level are echoed to stderr (OFF = never).
    stderr_level: AtomicU8,
    inner: Mutex<Inner>,
}

/// Default ring capacity: enough for a multi-month fluid run's cycle and
/// health events without unbounded growth under packet-mode chatter.
const DEFAULT_CAP: usize = 65_536;

impl Default for Journal {
    fn default() -> Self {
        Journal::with_capacity(DEFAULT_CAP)
    }
}

impl Journal {
    pub fn with_capacity(cap: usize) -> Self {
        Journal {
            min_level: AtomicU8::new(Level::Trace as u8),
            // Binaries that want live progress lines (the bench experiment
            // regenerators) get info events on stderr by default; the CLI
            // overrides this from --verbosity/--quiet.
            stderr_level: AtomicU8::new(Level::Info as u8),
            inner: Mutex::new(Inner {
                ring: VecDeque::with_capacity(cap.min(1024)),
                cap: cap.max(1),
                dropped: 0,
                file: None,
            }),
        }
    }

    /// Minimum level recorded at all.
    pub fn min_level(&self) -> Level {
        Level::from_u8(self.min_level.load(Ordering::Relaxed)).unwrap_or(Level::Trace)
    }

    pub fn set_min_level(&self, level: Level) {
        self.min_level.store(level as u8, Ordering::Relaxed);
    }

    /// Echo events at/above `level` to stderr; `None` silences the echo.
    pub fn set_stderr_level(&self, level: Option<Level>) {
        self.stderr_level
            .store(level.map(|l| l as u8).unwrap_or(STDERR_OFF), Ordering::Relaxed);
    }

    /// Mirror every recorded event to `path` as JSON lines (append mode).
    pub fn set_file_sink(&self, path: &std::path::Path) -> std::io::Result<()> {
        let f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        self.inner.lock().unwrap().file = Some(std::io::BufWriter::new(f));
        Ok(())
    }

    pub fn record(&self, ev: Event) {
        if !crate::enabled() || ev.level < self.min_level() {
            return;
        }
        let echo = match Level::from_u8(self.stderr_level.load(Ordering::Relaxed)) {
            Some(min) => ev.level >= min,
            None => false,
        };
        if echo {
            eprintln!("{}", ev.render_stderr()); // ALLOW_PRINT: the journal IS the stderr sink
        }
        let mut inner = self.inner.lock().unwrap();
        if let Some(f) = inner.file.as_mut() {
            let _ = writeln!(f, "{}", ev.to_json());
        }
        if inner.ring.len() >= inner.cap {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(ev);
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by ring wraparound since the last clear.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Copy of the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// Buffered events passing `keep`, oldest first.
    pub fn events_where(&self, keep: impl Fn(&Event) -> bool) -> Vec<Event> {
        self.inner.lock().unwrap().ring.iter().filter(|e| keep(e)).cloned().collect()
    }

    /// Flush the file sink (if any) and empty the ring.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(f) = inner.file.as_mut() {
            let _ = f.flush();
        }
        inner.ring.clear();
        inner.dropped = 0;
    }
}

/// Record a structured event on the global journal, keyed to sim time `t`.
///
/// ```ignore
/// manic_obs::event!(manic_obs::INFO, "core", "bdrmap_cycle", t,
///                   vp = name.as_str(), links = n);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr, $name:expr, $t:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        let lvl = $level;
        if $crate::enabled() && lvl >= $crate::journal().min_level() {
            $crate::journal().record($crate::journal::Event {
                t: $t,
                level: lvl,
                target: $target,
                name: $name,
                fields: vec![$((stringify!($k), $crate::journal::Value::from($v))),*],
            });
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: i64, level: Level, name: &'static str) -> Event {
        Event { t, level, target: "test", name, fields: vec![("k", Value::from(1u64))] }
    }

    fn quiet(cap: usize) -> Journal {
        let j = Journal::with_capacity(cap);
        j.set_stderr_level(None);
        j
    }

    #[test]
    fn ring_buffer_wraps_and_counts_drops() {
        let j = quiet(3);
        for i in 0..5 {
            j.record(ev(i, Level::Info, "e"));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        let ts: Vec<i64> = j.snapshot().iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![2, 3, 4], "oldest evicted first");
        j.clear();
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn min_level_filters_at_record_time() {
        let j = quiet(16);
        j.set_min_level(Level::Warn);
        j.record(ev(0, Level::Info, "dropped"));
        j.record(ev(1, Level::Error, "kept"));
        let names: Vec<&str> = j.snapshot().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["kept"]);
    }

    #[test]
    fn json_line_escapes_strings() {
        let e = Event {
            t: 42,
            level: Level::Warn,
            target: "core",
            name: "health_transition",
            fields: vec![
                ("vp", Value::from("a\"b\\c\nd")),
                ("rounds", Value::from(7u64)),
                ("ok", Value::from(false)),
                ("ms", Value::from(1.5f64)),
            ],
        };
        let json = e.to_json();
        assert_eq!(
            json,
            "{\"t\":42,\"level\":\"warn\",\"target\":\"core\",\"event\":\"health_transition\",\
             \"vp\":\"a\\\"b\\\\c\\nd\",\"rounds\":7,\"ok\":false,\"ms\":1.5}"
        );
        // Non-finite floats degrade to null rather than invalid JSON.
        let e2 = Event {
            t: 0,
            level: Level::Info,
            target: "t",
            name: "n",
            fields: vec![("x", Value::from(f64::NAN))],
        };
        assert!(e2.to_json().contains("\"x\":null"));
    }

    #[test]
    fn level_parsing_round_trips() {
        for l in [Level::Trace, Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("loud"), None);
        assert!(Level::Debug < Level::Error);
    }

    #[test]
    fn events_where_filters() {
        let j = quiet(16);
        j.record(ev(0, Level::Info, "a"));
        j.record(ev(1, Level::Warn, "b"));
        let warns = j.events_where(|e| e.level >= Level::Warn);
        assert_eq!(warns.len(), 1);
        assert_eq!(warns[0].name, "b");
        assert_eq!(warns[0].field("k"), Some(&Value::U64(1)));
    }
}
