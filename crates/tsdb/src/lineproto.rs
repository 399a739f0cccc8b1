//! Series keys as text: the escaped `measurement[,tag=value...]` token, the
//! first section of an InfluxDB protocol line. It is how a segment names a
//! series — the body of a WAL `K` frame, the first section of an `A` record.
//!
//! Names may contain the token's structural characters (space, comma, `=`) —
//! they are backslash-escaped on format and unescaped on parse, per the
//! Influx escaping rules (with the backslash itself also escaped so the
//! round trip is exact). Empty names and control characters are rejected at
//! format time: a token that formats must parse back to the same key.

use crate::key::{SeriesKey, TagSet};
use std::fmt;

/// What a key token — or the sample stored under it — cannot carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineProtoError {
    /// A tag was not of the form `key=value`.
    BadTag(String),
    /// Empty measurement name.
    EmptyMeasurement,
    /// The value is NaN or infinite — unrepresentable as a stored sample.
    NonFiniteValue,
    /// A name contains characters a token cannot carry (control characters)
    /// or is empty; or the record has no encoding at all.
    Unencodable(String),
}

impl fmt::Display for LineProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineProtoError::BadTag(t) => write!(f, "malformed tag: {t}"),
            LineProtoError::EmptyMeasurement => write!(f, "empty measurement name"),
            LineProtoError::NonFiniteValue => write!(f, "non-finite value"),
            LineProtoError::Unencodable(s) => write!(f, "unencodable: {s:?}"),
        }
    }
}

impl std::error::Error for LineProtoError {}

/// A key or sample a segment cannot carry is bad input to whatever was asked
/// to persist it (a WAL append, a checkpoint snapshot).
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

/// Split text into whitespace-separated sections, honouring escapes and
/// collapsing runs of unescaped spaces/tabs (like `split_whitespace`): the
/// WAL's annotation records put an escaped key token next to numeric fields.
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

/// Reject names a token cannot carry: empty strings and control characters
/// (which the whitespace tokenizer would mangle).
fn check_name(s: &str) -> Result<(), LineProtoError> {
    if s.is_empty() || s.chars().any(|c| c.is_control()) {
        return Err(LineProtoError::Unencodable(s.to_string()));
    }
    Ok(())
}

/// Format a series key as an escaped `measurement[,tag=value...]` token.
/// Fails on empty or control-character names.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_characters_escape_and_roundtrip() {
        let key = SeriesKey::with_tags(
            "m,with space",
            &[("k=eq", "v,comma"), ("sp ace", "back\\slash"), ("plain", "a=b c,d")],
        );
        let tok = format_key(&key).unwrap();
        assert_eq!(parse_key(&tok).unwrap(), key, "escaped token: {tok}");
        // The escaped form really does contain backslashes.
        assert!(tok.contains("\\ ") || tok.contains("\\,"));
        assert_eq!(split_sections(&format!("{tok} 0  7\t1")), vec![tok.as_str(), "0", "7", "1"]);
    }

    #[test]
    fn rejects_malformed_tokens() {
        assert!(matches!(parse_key("m,badtag"), Err(LineProtoError::BadTag(_))));
        assert_eq!(parse_key(",x=1"), Err(LineProtoError::EmptyMeasurement));
        // Tags with an escaped-but-extra '=' are malformed, not panics.
        assert!(matches!(parse_key("m,a=b=c"), Err(LineProtoError::BadTag(_))));
        assert!(matches!(parse_key("m,a="), Err(LineProtoError::BadTag(_))));
    }

    #[test]
    fn unencodable_names_rejected_at_format() {
        let key = SeriesKey::with_tags("m\n", &[("a", "b")]);
        assert!(matches!(format_key(&key), Err(LineProtoError::Unencodable(_))));
        let key = SeriesKey::with_tags("m", &[("a", "b\tc")]);
        assert!(matches!(format_key(&key), Err(LineProtoError::Unencodable(_))));
        let key = SeriesKey::with_tags("m", &[("", "b")]);
        assert!(matches!(format_key(&key), Err(LineProtoError::Unencodable(_))));
        let key = SeriesKey::with_tags("", &[("a", "b")]);
        assert_eq!(format_key(&key), Err(LineProtoError::EmptyMeasurement));
    }

    #[test]
    fn key_token_roundtrip() {
        let key = SeriesKey::with_tags("a b", &[("c,d", "e=f"), ("g", "h i")]);
        let tok = format_key(&key).unwrap();
        assert_eq!(parse_key(&tok).unwrap(), key);
        assert!(!tok.contains(' ') || tok.contains("\\ "), "no raw spaces: {tok}");
    }
}
