//! A minimal line protocol, mirroring InfluxDB's textual ingest format:
//!
//! ```text
//! measurement[,tag=value...] value=<f64> <timestamp-seconds>
//! ```
//!
//! Only the single field `value` is supported — every measurement in the
//! pipeline is a scalar sample (an RTT, a loss indicator, a throughput).
//!
//! Names may contain the protocol's structural characters (space, comma,
//! `=`) — they are backslash-escaped on format and unescaped on parse, per
//! the Influx escaping rules (with the backslash itself also escaped so the
//! round trip is exact). Non-finite values and control characters are
//! rejected on both sides: the write-ahead log stores samples in this
//! format, so a line that formats must parse back to the same sample, and a
//! NaN must never round-trip silently into the store.

use crate::key::{SeriesKey, TagSet};
use crate::series::Point;
use std::fmt::{self, Write as _};

/// Parse failure for a protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineProtoError {
    /// The line does not have the three space-separated sections.
    MissingSection,
    /// A tag was not of the form `key=value`.
    BadTag(String),
    /// The field section was not `value=<finite f64>`.
    BadField(String),
    /// The timestamp was not an integer.
    BadTimestamp(String),
    /// Empty measurement name.
    EmptyMeasurement,
    /// The value is NaN or infinite — unrepresentable as a stored sample.
    NonFiniteValue,
    /// A name contains characters the protocol cannot carry (control
    /// characters) or is empty.
    Unencodable(String),
}

impl fmt::Display for LineProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineProtoError::MissingSection => write!(f, "expected 'key field timestamp' sections"),
            LineProtoError::BadTag(t) => write!(f, "malformed tag: {t}"),
            LineProtoError::BadField(x) => write!(f, "malformed field: {x}"),
            LineProtoError::BadTimestamp(x) => write!(f, "malformed timestamp: {x}"),
            LineProtoError::EmptyMeasurement => write!(f, "empty measurement name"),
            LineProtoError::NonFiniteValue => write!(f, "non-finite value"),
            LineProtoError::Unencodable(s) => write!(f, "unencodable name: {s:?}"),
        }
    }
}

impl std::error::Error for LineProtoError {}

/// A sample the protocol cannot carry is bad input to whatever was asked to
/// persist it (a WAL append, a checkpoint snapshot).
impl From<LineProtoError> for std::io::Error {
    fn from(e: LineProtoError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
    }
}

/// Append `s` to `out` with every structural character (`\`, `,`, ` `, `=`)
/// backslash-escaped.
fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        if matches!(c, '\\' | ',' | ' ' | '=') {
            out.push('\\');
        }
        out.push(c);
    }
}

/// Undo [`escape_into`]: `\x` becomes `x` for any `x`. A trailing lone
/// backslash is kept literally (the formatter never emits one).
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some(next) => out.push(next),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Split `s` at every *unescaped* occurrence of `sep` (a backslash escapes
/// the following character). Returns byte-slice tokens; escapes are left in
/// place for a later [`unescape`].
fn split_unescaped(s: &str, sep: char) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == sep {
            out.push(&s[start..i]);
            start = i + c.len_utf8();
        }
    }
    out.push(&s[start..]);
    out
}

/// Split a line into whitespace-separated sections, honouring escapes and
/// collapsing runs of unescaped spaces/tabs (like `split_whitespace`).
/// Shared with the WAL record codec, whose annotation records put an
/// escaped key token next to numeric fields.
pub(crate) fn split_sections(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        let is_sep = !escaped && (c == ' ' || c == '\t');
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        }
        if is_sep {
            if let Some(s) = start.take() {
                out.push(&line[s..i]);
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        out.push(&line[s..]);
    }
    out
}

/// Reject names the protocol cannot carry: empty strings and control
/// characters (which the whitespace tokenizer would mangle).
fn check_name(s: &str) -> Result<(), LineProtoError> {
    if s.is_empty() || s.chars().any(|c| c.is_control()) {
        return Err(LineProtoError::Unencodable(s.to_string()));
    }
    Ok(())
}

/// Format a series key as an escaped `measurement[,tag=value...]` token
/// (the first section of a line; also the key token of WAL annotation
/// records). Fails on empty or control-character names.
pub fn format_key(key: &SeriesKey) -> Result<String, LineProtoError> {
    if key.measurement.is_empty() {
        return Err(LineProtoError::EmptyMeasurement);
    }
    check_name(&key.measurement)?;
    let mut out = String::new();
    escape_into(&key.measurement, &mut out);
    for (k, v) in key.tags.iter() {
        check_name(k)?;
        check_name(v)?;
        out.push(',');
        escape_into(k, &mut out);
        out.push('=');
        escape_into(v, &mut out);
    }
    Ok(out)
}

/// Parse an escaped `measurement[,tag=value...]` token (inverse of
/// [`format_key`]).
pub fn parse_key(token: &str) -> Result<SeriesKey, LineProtoError> {
    let mut parts = split_unescaped(token, ',').into_iter();
    let measurement = unescape(parts.next().unwrap_or_default());
    if measurement.is_empty() {
        return Err(LineProtoError::EmptyMeasurement);
    }
    let mut tags = TagSet::new();
    for tag in parts {
        let mut kv = split_unescaped(tag, '=').into_iter();
        let (k, v) = match (kv.next(), kv.next(), kv.next()) {
            (Some(k), Some(v), None) => (unescape(k), unescape(v)),
            _ => return Err(LineProtoError::BadTag(tag.to_string())),
        };
        if k.is_empty() || v.is_empty() {
            return Err(LineProtoError::BadTag(tag.to_string()));
        }
        tags.insert(k, v);
    }
    Ok(SeriesKey::new(measurement, tags))
}

/// Parse one protocol line into a series key and a point.
pub fn parse_line(line: &str) -> Result<(SeriesKey, Point), LineProtoError> {
    let sections = split_sections(line);
    let [keypart, fieldpart, tspart] = sections.as_slice() else {
        return Err(LineProtoError::MissingSection);
    };

    let key = parse_key(keypart)?;

    let value = fieldpart
        .strip_prefix("value=")
        .ok_or_else(|| LineProtoError::BadField(fieldpart.to_string()))?
        .parse::<f64>()
        .map_err(|_| LineProtoError::BadField(fieldpart.to_string()))?;
    if !value.is_finite() {
        return Err(LineProtoError::BadField(fieldpart.to_string()));
    }

    let t = tspart
        .parse::<i64>()
        .map_err(|_| LineProtoError::BadTimestamp(tspart.to_string()))?;

    Ok((key, Point::new(t, value)))
}

/// Append the protocol line of `point` in the series whose escaped key token
/// ([`format_key`]) is `key_token`. The one place a line is spelled: callers
/// writing many points of one series format the token once and reuse `out`.
/// Fails on a non-finite value instead of emitting a line that cannot
/// round-trip.
pub(crate) fn write_line(
    out: &mut String,
    key_token: &str,
    point: Point,
) -> Result<(), LineProtoError> {
    if !point.v.is_finite() {
        return Err(LineProtoError::NonFiniteValue);
    }
    let _ = write!(out, "{key_token} value={} {}", point.v, point.t);
    Ok(())
}

/// Format a key + point as a protocol line (inverse of [`parse_line`]).
/// Fails on non-finite values and unencodable names instead of emitting a
/// line that cannot round-trip.
pub fn format_line(key: &SeriesKey, point: Point) -> Result<String, LineProtoError> {
    let mut out = String::new();
    write_line(&mut out, &format_key(key)?, point)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_line() {
        let (key, p) = parse_line("tslp,vp=ark1,link=L3,end=far value=42.5 1456790400").unwrap();
        assert_eq!(key.measurement, "tslp");
        assert_eq!(key.tags.get("vp"), Some("ark1"));
        assert_eq!(key.tags.get("end"), Some("far"));
        assert_eq!(p.t, 1456790400);
        assert_eq!(p.v, 42.5);
    }

    #[test]
    fn parse_without_tags() {
        let (key, p) = parse_line("loss value=0.01 5").unwrap();
        assert!(key.tags.is_empty());
        assert_eq!(p.v, 0.01);
    }

    #[test]
    fn roundtrip() {
        let key = SeriesKey::with_tags("tslp", &[("vp", "a"), ("link", "L1")]);
        let p = Point::new(123, 9.25);
        let line = format_line(&key, p).unwrap();
        let (k2, p2) = parse_line(&line).unwrap();
        assert_eq!(key, k2);
        assert_eq!(p, p2);
    }

    #[test]
    fn structural_characters_escape_and_roundtrip() {
        let key = SeriesKey::with_tags(
            "m,with space",
            &[("k=eq", "v,comma"), ("sp ace", "back\\slash"), ("plain", "a=b c,d")],
        );
        let line = format_line(&key, Point::new(7, 1.5)).unwrap();
        let (k2, p2) = parse_line(&line).unwrap();
        assert_eq!(key, k2, "escaped line: {line}");
        assert_eq!(p2, Point::new(7, 1.5));
        // The escaped form really does contain backslashes.
        assert!(line.contains("\\ ") || line.contains("\\,"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(parse_line("justonething"), Err(LineProtoError::MissingSection));
        assert!(matches!(parse_line("m,badtag value=1 0"), Err(LineProtoError::BadTag(_))));
        assert!(matches!(parse_line("m notvalue=1 0"), Err(LineProtoError::BadField(_))));
        assert!(matches!(parse_line("m value=abc 0"), Err(LineProtoError::BadField(_))));
        assert!(matches!(parse_line("m value=1 notatime"), Err(LineProtoError::BadTimestamp(_))));
        assert_eq!(parse_line(",x=1 value=1 0"), Err(LineProtoError::EmptyMeasurement));
        assert_eq!(parse_line("m value=1 0 extra"), Err(LineProtoError::MissingSection));
        // Tags with an escaped-but-extra '=' are malformed, not panics.
        assert!(matches!(parse_line("m,a=b=c value=1 0"), Err(LineProtoError::BadTag(_))));
    }

    #[test]
    fn non_finite_values_rejected_both_ways() {
        let key = SeriesKey::with_tags("m", &[("a", "b")]);
        assert_eq!(format_line(&key, Point::new(0, f64::NAN)), Err(LineProtoError::NonFiniteValue));
        assert_eq!(
            format_line(&key, Point::new(0, f64::INFINITY)),
            Err(LineProtoError::NonFiniteValue)
        );
        assert!(matches!(parse_line("m value=NaN 0"), Err(LineProtoError::BadField(_))));
        assert!(matches!(parse_line("m value=inf 0"), Err(LineProtoError::BadField(_))));
        assert!(matches!(parse_line("m value=-inf 0"), Err(LineProtoError::BadField(_))));
    }

    #[test]
    fn unencodable_names_rejected_at_format() {
        let key = SeriesKey::with_tags("m\n", &[("a", "b")]);
        assert!(matches!(format_line(&key, Point::new(0, 1.0)), Err(LineProtoError::Unencodable(_))));
        let key = SeriesKey::with_tags("m", &[("a", "b\tc")]);
        assert!(matches!(format_key(&key), Err(LineProtoError::Unencodable(_))));
        let key = SeriesKey::with_tags("m", &[("", "b")]);
        assert!(matches!(format_key(&key), Err(LineProtoError::Unencodable(_))));
    }

    #[test]
    fn key_token_roundtrip() {
        let key = SeriesKey::with_tags("a b", &[("c,d", "e=f"), ("g", "h i")]);
        let tok = format_key(&key).unwrap();
        assert_eq!(parse_key(&tok).unwrap(), key);
        assert!(!tok.contains(' ') || tok.contains("\\ "), "no raw spaces: {tok}");
    }
}
