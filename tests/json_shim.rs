//! The vendored `serde_json` shim's string parser, checked from tier-1.
//!
//! Checkpoint metas are multi-megabyte documents made almost entirely of
//! strings, and `resume` parses one per generation, so `parse_string` must
//! stay linear in the document. These tests pin the language it accepts
//! (every escape, `\uXXXX`, multi-byte UTF-8 touching a `"` or a `\`), the
//! byte offsets its errors report, the `to_string` → `from_str` round trip,
//! and — as a wide-margin guard, not a benchmark — that a checkpoint-sized
//! document parses in seconds, not minutes.

use proptest::prelude::*;
use serde_json::{from_str, to_string, Value};

fn parsed(doc: &str) -> String {
    match from_str(doc) {
        Ok(Value::String(s)) => s,
        other => panic!("{doc:?} parsed to {other:?}"),
    }
}

fn error(doc: &str) -> String {
    from_str(doc).expect_err(doc).to_string()
}

#[test]
fn every_escape_decodes() {
    assert_eq!(parsed(r#""""#), "");
    assert_eq!(parsed(r#""\"\\\/\n\r\t\b\f""#), "\"\\/\n\r\t\u{8}\u{c}");
    assert_eq!(parsed(r#""a\"b\\c""#), "a\"b\\c");
    assert_eq!(parsed(r#""\u0041\u00e9\u20ac\u0001""#), "A\u{e9}\u{20ac}\u{1}");
    // A lone surrogate is not a scalar value: replaced, not rejected.
    assert_eq!(parsed(r#""x\ud83dy""#), "x\u{fffd}y");
    // Raw control characters inside a string are taken as they are.
    assert_eq!(parsed("\"a\tb\nc\""), "a\tb\nc");
}

#[test]
fn multibyte_runs_touch_quotes_and_backslashes() {
    // 2-, 3- and 4-byte characters first, last, and on both sides of an
    // escape: a run must end exactly at the `"` or `\` that follows it.
    for c in ["\u{e9}", "\u{20ac}", "\u{1f600}"] {
        assert_eq!(parsed(&format!("\"{c}\"")), c);
        assert_eq!(parsed(&format!("\"{c}\\\\{c}\"")), format!("{c}\\{c}"));
        assert_eq!(parsed(&format!("\"\\\"{c}\\\"\"")), format!("\"{c}\""));
        assert_eq!(parsed(&format!("\"a{c}\\n{c}b\"")), format!("a{c}\n{c}b"));
        assert_eq!(parsed(&format!("\"{c}\\u0041{c}\"")), format!("{c}A{c}"));
    }
    let doc = from_str("{\"k\u{e9}\":[\"\u{20ac}\",\"\"],\"\u{1f600}\":\"v\"}").unwrap();
    assert_eq!(doc["k\u{e9}"][0], "\u{20ac}");
    assert_eq!(doc["k\u{e9}"][1], "");
    assert_eq!(doc["\u{1f600}"], "v");
}

#[test]
fn malformed_strings_fail_at_the_same_byte() {
    assert_eq!(error("\"abc"), "json error: unterminated string at byte 4");
    assert_eq!(error("\""), "json error: unterminated string at byte 1");
    assert_eq!(error("\"\u{20ac}\u{e9}"), "json error: unterminated string at byte 6");
    assert_eq!(error("\"ab\\"), "json error: bad escape at byte 4");
    assert_eq!(error("\"ab\\x\""), "json error: bad escape at byte 4");
    assert_eq!(error("\"\u{e9}\\\u{e9}\""), "json error: bad escape at byte 4");
    assert_eq!(error("\"a\\u12"), "json error: truncated \\u escape at byte 3");
    assert_eq!(error("\"a\\u1234"), "json error: unterminated string at byte 8");
    assert_eq!(error("\"\\u12g4\""), "json error: bad \\u escape");
    assert_eq!(error("\"\\u00\u{e9}x\""), "json error: bad \\u escape");
    assert_eq!(error("[\"ok\", \"open]"), "json error: unterminated string at byte 13");
    assert_eq!(error("{\"k\":\"v\" \"x\"}"), "json error: expected ',' or '}' at byte 9");
}

/// Strings over an alphabet dense in the parser's special cases.
fn tricky_string() -> impl Strategy<Value = String> {
    const SPECIAL: [char; 12] =
        ['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', 'u', '\u{7f}'];
    prop::collection::vec(any::<u32>(), 0..48).prop_map(|codes| {
        codes
            .into_iter()
            .map(|x| match x % 4 {
                0 => SPECIAL[(x >> 2) as usize % SPECIAL.len()],
                1 => char::from(b' ' + ((x >> 2) % 95) as u8),
                _ => char::from_u32((x >> 2) % 0x11_0000).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_round_trip(s in tricky_string(), t in tricky_string()) {
        let text = to_string(&Value::String(s.clone())).unwrap();
        prop_assert_eq!(from_str(&text).unwrap(), Value::String(s.clone()));
        // As a key and inside containers, with another string right behind.
        let doc =
            Value::Object(vec![(s.clone(), Value::Array(vec![Value::String(t), Value::String(s)]))]);
        prop_assert_eq!(from_str(&to_string(&doc).unwrap()).unwrap(), doc);
    }
}

/// About `bytes` of JSON shaped like a checkpoint meta's audit trail: many
/// short strings, a few escapes and non-ASCII characters among them.
fn audit_shaped(bytes: usize) -> String {
    let mut doc = String::with_capacity(bytes + 512);
    doc.push_str("{\"version\":1,\"audit\":[");
    let mut i = 0u64;
    while doc.len() < bytes {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&format!(
            "{{\"t\":{},\"vp\":\"vp-{:03}-\u{e9}\",\"near\":\"10.{}.0.1\",\"link\":\"10.{}.{}.2\",\
             \"detector\":\"levelshift\",\"congested\":{},\"evidence\":[[\"level_shift\",\
             [[\"baseline_ms\",\"f\",\"{:016x}\"],[\"level_ms\",\"f\",\"{:016x}\"],\
             [\"note\",\"s\",\"a\\\"quoted\\\" \\\\ path\\n\"]]],[\"masked_bins\",\
             [[\"masked\",\"u\",\"{:x}\"],[\"total\",\"u\",\"120\"]]]]}}",
            i * 300,
            i % 200,
            i % 250,
            i % 250,
            (i / 250) % 250,
            i.is_multiple_of(3),
            (20.0 + i as f64).to_bits(),
            (45.5 + i as f64).to_bits(),
            i % 17,
        ));
        i += 1;
    }
    doc.push_str("]}");
    doc
}

#[test]
fn checkpoint_sized_document_parses_in_linear_time() {
    let doc = audit_shaped(4 << 20);
    let started = std::time::Instant::now();
    let parsed = from_str(&doc).expect("audit-shaped document parses");
    let secs = started.elapsed().as_secs_f64();
    let records = parsed["audit"].as_array().expect("audit array");
    assert!(records.len() > 8_000, "{} records", records.len());
    assert_eq!(records[7]["vp"], "vp-007-\u{e9}");
    assert_eq!(records[7]["evidence"][0][1][2][2], "a\"quoted\" \\ path\n");
    // Per-character re-validation of the remaining input made this ~200 s;
    // one pass is ~0.1 s. The bound sits an order of magnitude from both.
    assert!(secs < 2.0, "parsing {} bytes took {secs:.2} s", doc.len());
}
