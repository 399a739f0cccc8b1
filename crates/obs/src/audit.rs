//! Inference audit trail: why did the pipeline call this link congested?
//!
//! The paper's §4.2 workflow relies on *manual inspection* of asserted
//! links; the production MANIC system answers operator challenges by showing
//! the evidence. This module records, for every congested/uncongested
//! verdict the inference layer produces, the chain of evidence behind it —
//! which level-shift episodes, which autocorrelation windows, how many bins
//! were quality-masked, which quality flags were in force — so a
//! `LinkStatus` can be explained after the fact (`manic obs explain <link>`)
//! without re-deriving anything.

use crate::journal::Value;
use crate::JsonWriter;
use std::collections::VecDeque;
use std::sync::Mutex;

/// One piece of evidence contributing to a verdict.
#[derive(Debug, Clone)]
pub struct Evidence {
    /// Evidence kind: "level_shift", "masked_bins", "quality_flags",
    /// "autocorr_window", "autocorr_rejected", "elevation", ...
    pub kind: &'static str,
    pub fields: Vec<(&'static str, Value)>,
}

impl Evidence {
    pub fn new(kind: &'static str, fields: Vec<(&'static str, Value)>) -> Self {
        Evidence { kind, fields }
    }

    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// One verdict with its evidence chain.
#[derive(Debug, Clone)]
pub struct AuditRecord {
    /// Sim time at which the verdict was produced.
    pub t: i64,
    pub vp: String,
    /// Near-end interface of the link (host network border).
    pub near: String,
    /// Far-end interface — the paper's link label, and the key `manic obs
    /// explain` looks up.
    pub link: String,
    /// Which detector produced the verdict: "levelshift" (§4.1 reactive
    /// trigger), "autocorr" (§4.2 recurrence), "elevation" (live dashboard).
    pub detector: &'static str,
    pub congested: bool,
    pub evidence: Vec<Evidence>,
}

impl AuditRecord {
    /// One JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Write the record as one JSON object; each evidence item is an object
    /// of its `kind` and fields.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object().key("t").int(self.t).key("vp").str(&self.vp);
        w.key("near").str(&self.near).key("link").str(&self.link);
        w.key("detector").str(self.detector).key("congested").bool(self.congested);
        w.key("evidence").begin_array();
        for e in &self.evidence {
            w.begin_object().key("kind").str(e.kind);
            for (k, v) in &e.fields {
                w.key(k).value(v);
            }
            w.end_object();
        }
        w.end_array().end_object();
    }

    /// Multi-line human rendering for the CLI.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "t={} vp={} link {} -> {} [{}] verdict: {}\n",
            self.t,
            self.vp,
            self.near,
            self.link,
            self.detector,
            if self.congested { "CONGESTED" } else { "not congested" }
        );
        for e in &self.evidence {
            out.push_str(&format!("    - {}", e.kind));
            for (k, v) in &e.fields {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Bounded store of verdict records (oldest evicted first).
pub struct AuditTrail {
    inner: Mutex<(VecDeque<AuditRecord>, u64)>,
    cap: usize,
}

/// Default capacity: a 22-month US-world study produces tens of thousands of
/// per-window verdicts; keep them all with headroom, but stay bounded.
const DEFAULT_CAP: usize = 262_144;

impl Default for AuditTrail {
    fn default() -> Self {
        AuditTrail::with_capacity(DEFAULT_CAP)
    }
}

impl AuditTrail {
    pub fn with_capacity(cap: usize) -> Self {
        AuditTrail { inner: Mutex::new((VecDeque::new(), 0)), cap: cap.max(1) }
    }

    pub fn record(&self, rec: AuditRecord) {
        let mut inner = self.inner.lock().unwrap();
        if inner.0.len() >= self.cap {
            inner.0.pop_front();
            inner.1 += 1;
        }
        inner.0.push_back(rec);
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted since the last clear.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().1
    }

    /// All records for a link (matched on the far-IP label), oldest first.
    pub fn explain(&self, link: &str) -> Vec<AuditRecord> {
        self.inner
            .lock()
            .unwrap()
            .0
            .iter()
            .filter(|r| r.link == link)
            .cloned()
            .collect()
    }

    /// Visit every record in place, oldest first. The trail is locked for
    /// the duration, so `f` must not call back into it.
    pub fn for_each(&self, f: impl FnMut(&AuditRecord)) {
        self.inner.lock().unwrap().0.iter().for_each(f);
    }

    /// All records, oldest first (deep-cloned; prefer [`Self::for_each`]
    /// to read them once).
    pub fn all(&self) -> Vec<AuditRecord> {
        self.inner.lock().unwrap().0.iter().cloned().collect()
    }

    /// Distinct link labels with at least one record (for CLI suggestions).
    pub fn links(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        let mut links: Vec<String> = inner.0.iter().map(|r| r.link.clone()).collect();
        links.sort();
        links.dedup();
        links
    }

    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.0.clear();
        inner.1 = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: i64, link: &str, congested: bool) -> AuditRecord {
        AuditRecord {
            t,
            vp: "vp-a".into(),
            near: "10.0.0.1".into(),
            link: link.into(),
            detector: "levelshift",
            congested,
            evidence: vec![Evidence::new(
                "level_shift",
                vec![("baseline_ms", Value::from(20.0)), ("level_ms", Value::from(45.0))],
            )],
        }
    }

    #[test]
    fn explain_filters_by_link() {
        let a = AuditTrail::with_capacity(16);
        a.record(rec(0, "10.1.0.2", true));
        a.record(rec(300, "10.2.0.2", false));
        a.record(rec(600, "10.1.0.2", true));
        let hits = a.explain("10.1.0.2");
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|r| r.congested));
        assert_eq!(a.links(), vec!["10.1.0.2".to_string(), "10.2.0.2".to_string()]);
    }

    #[test]
    fn bounded_with_eviction() {
        let a = AuditTrail::with_capacity(2);
        for t in 0..5 {
            a.record(rec(t, "l", true));
        }
        assert_eq!(a.len(), 2);
        assert_eq!(a.dropped(), 3);
        assert_eq!(a.all()[0].t, 3);
        let mut seen = Vec::new();
        a.for_each(|r| seen.push(r.t));
        assert_eq!(seen, [3, 4], "in place, oldest first");
    }

    #[test]
    fn json_and_text_render() {
        let r = rec(42, "10.1.0.2", true);
        let json = r.to_json();
        assert!(json.contains("\"detector\":\"levelshift\""));
        assert!(json.contains("\"congested\":true"));
        assert!(json.contains("\"kind\":\"level_shift\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = r.render_text();
        assert!(text.contains("CONGESTED"));
        assert!(text.contains("baseline_ms=20"));
    }
}
