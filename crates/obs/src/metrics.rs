//! Metrics registry: atomic counters, gauges, and log-bucketed histograms.
//!
//! Design goals, in order: (1) the hot path — a counter increment inside
//! `Network::send_probe` — must cost one relaxed atomic add plus one relaxed
//! flag load; (2) no allocation after handle creation, so instrumented code
//! creates its handles once (a `OnceLock`'d struct per subsystem) and clones
//! `Arc`s; (3) export to Prometheus text format and JSON without any
//! third-party dependency.
//!
//! Naming convention: `manic_<crate>_<name>`, with Prometheus-style labels
//! baked into the registry key (`manic_probing_probes_sent{vp="acme-nyc"}`).
//! The full labeled string is the identity; two handles for the same string
//! share the same cell.

use crate::JsonWriter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Monotone event counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// A counter not attached to any registry (tests, placeholders).
    pub fn detached() -> Self {
        Counter::new()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    fn new() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, d: i64) {
        if crate::enabled() {
            self.0.fetch_add(d, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of finite histogram buckets. Upper bounds are powers of two from
/// `2^-4` (62.5 µs) to `2^23` ms (~2.3 h), which covers everything from ICMP
/// generation delay to pathological simulated RTTs; values above the last
/// bound land in the implicit `+Inf` bucket.
pub const HIST_BUCKETS: usize = 28;

/// Upper bound (`le`) of finite bucket `i`.
pub fn bucket_bound(i: usize) -> f64 {
    debug_assert!(i < HIST_BUCKETS);
    (2.0f64).powi(i as i32 - 4)
}

/// Index of the finite bucket whose bound is the smallest `>= v`, or
/// `HIST_BUCKETS` for the overflow (`+Inf`) bucket. Exact powers of two land
/// on their own bound (`le` is inclusive, as in Prometheus).
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= bucket_bound(0) {
        // Zero, negative, and NaN observations all clamp into the first
        // bucket: the histogram records latencies, where those only arise
        // from upstream bugs, and dropping them would break count == sum of
        // buckets.
        return 0;
    }
    // floor(log2(v)) from the IEEE 754 exponent (v is normal here: it
    // exceeds 0.0625).
    let exp = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    let mut idx = exp + 4;
    if idx >= 0 && (idx as usize) < HIST_BUCKETS && v > bucket_bound(idx as usize) {
        idx += 1;
    }
    idx.clamp(0, HIST_BUCKETS as i32) as usize
}

struct HistogramCell {
    /// Per-bucket (non-cumulative) counts; index [`HIST_BUCKETS`] is `+Inf`.
    buckets: [AtomicU64; HIST_BUCKETS + 1],
    /// Sum of observations in microseconds (observations are milliseconds);
    /// integer micro-units keep the sum a single atomic add.
    sum_micros: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
        }
    }
}

/// Log-bucketed latency histogram (milliseconds).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    fn new() -> Self {
        Histogram(Arc::new(HistogramCell::new()))
    }

    /// A histogram not attached to any registry (tests).
    pub fn detached() -> Self {
        Histogram::new()
    }

    #[inline]
    pub fn observe(&self, v_ms: f64) {
        if !crate::enabled() {
            return;
        }
        let c = &self.0;
        c.buckets[bucket_index(v_ms)].fetch_add(1, Ordering::Relaxed);
        let micros = if v_ms.is_finite() && v_ms > 0.0 { (v_ms * 1_000.0) as u64 } else { 0 };
        c.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total observations — derived from the bucket counts at read time so
    /// the hot path pays one bucket add, not a second total add.
    pub fn count(&self) -> u64 {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    pub fn sum_ms(&self) -> f64 {
        self.0.sum_micros.load(Ordering::Relaxed) as f64 / 1_000.0
    }

    /// Non-cumulative bucket counts (`HIST_BUCKETS` finite + `+Inf` last).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Fold another histogram's observations into this one.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.0.buckets.iter().zip(other.0.buckets.iter()) {
            dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.0
            .sum_micros
            .fetch_add(other.0.sum_micros.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics. One global instance (see
/// [`crate::registry`]) serves the whole process; standalone instances exist
/// for tests.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

/// Render `name{k1="v1",k2="v2"}` with Prometheus label-value escaping.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&prom_escape(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Prometheus label-value escaping: backslash, double quote, newline.
pub fn prom_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Split a registry key into `(base_name, label_block)`;
/// `"a{b=\"c\"}"` -> `("a", "b=\"c\"")`, `"a"` -> `("a", "")`.
fn split_labels(full: &str) -> (&str, &str) {
    match full.find('{') {
        Some(i) => (&full[..i], full[i + 1..].trim_end_matches('}')),
        None => (full, ""),
    }
}

/// Join an existing label block with one more `k="v"` pair.
fn join_labels(block: &str, extra: &str) -> String {
    if block.is_empty() {
        extra.to_string()
    } else {
        format!("{block},{extra}")
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert<T: Clone>(
        &self,
        full_name: &str,
        extract: impl Fn(&Metric) -> Option<T>,
        make: impl Fn() -> Metric,
    ) -> T {
        if let Some(m) = self.metrics.read().unwrap().get(full_name) {
            if let Some(v) = extract(m) {
                return v;
            }
        }
        let mut w = self.metrics.write().unwrap();
        let m = w.entry(full_name.to_string()).or_insert_with(make);
        extract(m).unwrap_or_else(|| {
            panic!("metric {full_name} already registered with a different type")
        })
    }

    /// Get-or-create a counter under its full (possibly labeled) name.
    pub fn counter(&self, full_name: &str) -> Counter {
        self.get_or_insert(
            full_name,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || Metric::Counter(Counter::new()),
        )
    }

    /// Get-or-create a counter with labels.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter(&labeled(name, labels))
    }

    pub fn gauge(&self, full_name: &str) -> Gauge {
        self.get_or_insert(
            full_name,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || Metric::Gauge(Gauge::new()),
        )
    }

    pub fn histogram(&self, full_name: &str) -> Histogram {
        self.get_or_insert(
            full_name,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || Metric::Histogram(Histogram::new()),
        )
    }

    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram(&labeled(name, labels))
    }

    /// Current value of a counter, 0 when absent.
    pub fn counter_value(&self, full_name: &str) -> u64 {
        match self.metrics.read().unwrap().get(full_name) {
            Some(Metric::Counter(c)) => c.get(),
            _ => 0,
        }
    }

    /// Sum of every counter whose full name starts with `prefix` (the
    /// drop-reason conservation checks sum `..._dropped{reason=...}` series).
    pub fn sum_counters_with_prefix(&self, prefix: &str) -> u64 {
        self.metrics
            .read()
            .unwrap()
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(_, m)| match m {
                Metric::Counter(c) => Some(c.get()),
                _ => None,
            })
            .sum()
    }

    /// All `(full_name, value)` counter pairs, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.metrics
            .read()
            .unwrap()
            .iter()
            .filter_map(|(k, m)| match m {
                Metric::Counter(c) => Some((k.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Zero every metric *in place*. Registrations survive so that handles
    /// cached in instrumented crates (`OnceLock`'d per-subsystem structs)
    /// stay attached to the cells the exporters read.
    pub fn reset(&self) {
        for m in self.metrics.read().unwrap().values() {
            match m {
                Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.0.store(0, Ordering::Relaxed),
                Metric::Histogram(h) => {
                    for b in h.0.buckets.iter() {
                        b.store(0, Ordering::Relaxed);
                    }
                    h.0.sum_micros.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Render the whole registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.read().unwrap();
        // Group by base name so each gets exactly one # TYPE line even when
        // labeled and unlabeled variants interleave in sort order.
        let mut groups: BTreeMap<&str, Vec<(&String, &Metric)>> = BTreeMap::new();
        for (k, m) in metrics.iter() {
            groups.entry(split_labels(k).0).or_default().push((k, m));
        }
        let mut out = String::new();
        for (base, entries) in groups {
            let kind = match entries[0].1 {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# TYPE {base} {kind}\n"));
            for (full, m) in entries {
                let (_, labels) = split_labels(full);
                match m {
                    Metric::Counter(c) => out.push_str(&format!("{full} {}\n", c.get())),
                    Metric::Gauge(g) => out.push_str(&format!("{full} {}\n", g.get())),
                    Metric::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cum = 0u64;
                        for (i, n) in counts.iter().take(HIST_BUCKETS).enumerate() {
                            cum += n;
                            let lb = join_labels(labels, &format!("le=\"{}\"", bucket_bound(i)));
                            out.push_str(&format!("{base}_bucket{{{lb}}} {cum}\n"));
                        }
                        let lb = join_labels(labels, "le=\"+Inf\"");
                        out.push_str(&format!("{base}_bucket{{{lb}}} {}\n", h.count()));
                        let tail = if labels.is_empty() {
                            String::new()
                        } else {
                            format!("{{{labels}}}")
                        };
                        out.push_str(&format!("{base}_sum{tail} {}\n", h.sum_ms()));
                        out.push_str(&format!("{base}_count{tail} {}\n", h.count()));
                    }
                }
            }
        }
        out
    }

    /// Render the registry as one JSON object (the metrics sidecar format):
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn render_json(&self) -> String {
        let metrics = self.metrics.read().unwrap();
        let mut w = JsonWriter::new();
        w.begin_object().key("counters").begin_object();
        for (k, m) in metrics.iter() {
            if let Metric::Counter(c) = m {
                w.key(k).int(c.get());
            }
        }
        w.end_object().key("gauges").begin_object();
        for (k, m) in metrics.iter() {
            if let Metric::Gauge(g) = m {
                w.key(k).int(g.get());
            }
        }
        w.end_object().key("histograms").begin_object();
        for (k, m) in metrics.iter() {
            let Metric::Histogram(h) = m else { continue };
            w.key(k).begin_object().key("count").int(h.count()).key("sum_ms").f64(h.sum_ms());
            w.key("buckets").begin_array();
            for (i, &n) in h.bucket_counts().iter().enumerate().filter(|(_, n)| **n > 0) {
                w.begin_object().key("le");
                if i < HIST_BUCKETS {
                    w.f64(bucket_bound(i));
                } else {
                    w.str("+Inf");
                }
                w.key("n").int(n).end_object();
            }
            w.end_array().end_object();
        }
        w.end_object().end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundary_values() {
        // Exact bounds are inclusive: 2^k lands in the bucket bounded by 2^k.
        assert_eq!(bucket_index(bucket_bound(0)), 0, "0.0625 -> first bucket");
        assert_eq!(bucket_index(1.0), 4, "1.0 == bound of bucket 4");
        assert_eq!(bucket_index(2.0), 5);
        assert_eq!(bucket_index(2.0 + 1e-12), 6, "just above a bound moves up");
        assert_eq!(bucket_index(1.999), 5);
        // Below the first bound, zero, negative, NaN: clamp to bucket 0.
        assert_eq!(bucket_index(0.01), 0);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        // Above the last bound: overflow bucket.
        let top = bucket_bound(HIST_BUCKETS - 1);
        assert_eq!(bucket_index(top), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(top * 2.0), HIST_BUCKETS);
        assert_eq!(bucket_index(f64::INFINITY), HIST_BUCKETS);
        // Every bound maps to its own bucket.
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_bound(i)), i, "bound {i}");
        }
    }

    #[test]
    fn histogram_count_equals_bucket_sum() {
        let h = Histogram::detached();
        for v in [0.01, 0.5, 1.0, 7.3, 250.0, 1e9] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 6);
        assert!((h.sum_ms() - (0.01 + 0.5 + 1.0 + 7.3 + 250.0 + 1e9)).abs() / 1e9 < 1e-3);
    }

    #[test]
    fn histogram_merge_adds_everything() {
        let a = Histogram::detached();
        let b = Histogram::detached();
        a.observe(1.0);
        a.observe(100.0);
        b.observe(3.0);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket_counts().iter().sum::<u64>(), 3);
        assert!((a.sum_ms() - 104.0).abs() < 1e-6);
        // b unchanged.
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn registry_counters_and_prefix_sums() {
        let r = Registry::new();
        r.counter("manic_test_a").add(3);
        r.counter_labeled("manic_test_dropped", &[("reason", "x")]).add(2);
        r.counter_labeled("manic_test_dropped", &[("reason", "y")]).inc();
        assert_eq!(r.counter_value("manic_test_a"), 3);
        assert_eq!(r.sum_counters_with_prefix("manic_test_dropped"), 3);
        // Same full name -> same cell.
        r.counter("manic_test_a").inc();
        assert_eq!(r.counter_value("manic_test_a"), 4);
    }

    #[test]
    fn prometheus_rendering_and_escaping() {
        let r = Registry::new();
        r.counter_labeled("manic_t_c", &[("vp", "a\"b\\c\nd")]).inc();
        r.gauge("manic_t_g").set(-5);
        r.histogram("manic_t_h").observe(1.0);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE manic_t_c counter\n"));
        assert!(text.contains("manic_t_c{vp=\"a\\\"b\\\\c\\nd\"} 1\n"), "{text}");
        assert!(text.contains("# TYPE manic_t_g gauge\nmanic_t_g -5\n"));
        assert!(text.contains("# TYPE manic_t_h histogram\n"));
        assert!(text.contains("manic_t_h_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("manic_t_h_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("manic_t_h_sum 1\n"));
        assert!(text.contains("manic_t_h_count 1\n"));
        // Cumulative buckets are monotone.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("manic_t_h_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn one_type_line_per_base_even_with_interleaving_names() {
        let r = Registry::new();
        r.counter("manic_t_foo").inc();
        r.counter_labeled("manic_t_foo", &[("a", "b")]).inc();
        r.counter("manic_t_foobar").inc(); // sorts between the two above
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE manic_t_foo counter\n").count(), 1);
        assert_eq!(text.matches("# TYPE manic_t_foobar counter\n").count(), 1);
        assert_eq!(text.matches("# TYPE").count(), 2);
    }

    #[test]
    fn json_rendering_escapes_and_balances() {
        let r = Registry::new();
        r.counter_labeled("manic_t_c", &[("vp", "x\"y")]).add(7);
        r.histogram("manic_t_h").observe(0.5);
        let json = r.render_json();
        assert!(json.contains("\"manic_t_c{vp=\\\"x\\\\\\\"y\\\"}\":7"), "{json}");
        assert!(json.contains("\"count\":1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_attached() {
        let r = Registry::new();
        let h = r.counter("manic_t_x");
        h.add(9);
        r.histogram("manic_t_hh").observe(4.0);
        r.reset();
        assert_eq!(r.counter_value("manic_t_x"), 0);
        assert_eq!(r.histogram("manic_t_hh").count(), 0);
        // The pre-reset handle still feeds the registered cell.
        h.inc();
        assert_eq!(r.counter_value("manic_t_x"), 1);
    }
}
