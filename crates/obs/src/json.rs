//! The one JSON writer behind every document built outside `serde_json`:
//! served bodies, journal lines, metrics JSON, checkpoint metas. It owns
//! escaping (the vendored `serde_json`'s set: `"`, `\`, `\n`, `\r`, `\t`,
//! other C0 controls as `\u00XX`), commas and nesting, `null` for every
//! non-finite `f64`, and fixed-precision floats. Finite floats print with
//! `Display` (`20`, not `serde_json`'s `20.0`). DESIGN.md §5d has the why.

use crate::journal::Value;
use std::fmt::{self, Write};

/// Streaming JSON writer. Calls chain: `w.begin_object().key("t").int(t)`.
/// A key is followed by exactly one value (a scalar or a whole container).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// The next key or value is not the first in its container.
    comma: bool,
}

/// The primitive integer types; floats go through [`JsonWriter::f64`].
pub trait JsonInt: fmt::Display {}

macro_rules! json_int {
    ($($t:ty),*) => { $(impl JsonInt for $t {})* };
}
json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// `fmt::Write` adapter that escapes what passes through it into the inner
/// string, copying runs that need no escape in one piece.
struct Escaped<'a>(&'a mut String);

impl Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            // `b` is ASCII, so `i` is a char boundary.
            self.0.push_str(&s[run..i]);
            run = i + 1;
            match b {
                b'"' => self.0.push_str("\\\""),
                b'\\' => self.0.push_str("\\\\"),
                b'\n' => self.0.push_str("\\n"),
                b'\r' => self.0.push_str("\\r"),
                b'\t' => self.0.push_str("\\t"),
                _ => write!(self.0, "\\u{b:04x}")?,
            }
        }
        self.0.push_str(&s[run..]);
        Ok(())
    }
}

impl JsonWriter {
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Continue a finished object document: members written next land
    /// inside it, and [`Self::end_object`] closes it again.
    pub fn reopen_object(doc: &str) -> Self {
        let body = doc.strip_suffix('}').expect("reopen_object: not a JSON object");
        let mut out = String::with_capacity(doc.len() + 512);
        out.push_str(body);
        JsonWriter { comma: !body.ends_with('{'), out }
    }

    /// Everything written so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    pub fn finish(self) -> String {
        self.out
    }

    /// Comma before anything but the first item of a container.
    fn item(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.item().push('{');
        self.comma = false;
        self
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.item().push('[');
        self.comma = false;
        self
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// An object member's key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.str(k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A string: `s`'s `Display` output, escaped. `format_args!` renders
    /// straight into the document.
    pub fn str(&mut self, s: impl fmt::Display) -> &mut Self {
        let out = self.item();
        out.push('"');
        let _ = write!(Escaped(&mut *out), "{s}");
        out.push('"');
        self
    }

    pub fn int(&mut self, v: impl JsonInt) -> &mut Self {
        let _ = write!(self.item(), "{v}");
        self
    }

    /// A float in shortest round-trip form; `null` unless finite.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        let _ = write!(self.item(), "{v}");
        self
    }

    /// A float with exactly `decimals` digits after the point; `null`
    /// unless finite.
    pub fn f64_fixed(&mut self, v: f64, decimals: usize) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        let _ = write!(self.item(), "{v:.decimals$}");
        self
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.item().push_str(if v { "true" } else { "false" });
        self
    }

    pub fn null(&mut self) -> &mut Self {
        self.item().push_str("null");
        self
    }

    /// `Some(v)` through `write`, `None` as `null`.
    pub fn opt<T>(
        &mut self,
        v: Option<T>,
        write: impl FnOnce(&mut Self, T) -> &mut Self,
    ) -> &mut Self {
        match v {
            Some(v) => write(self, v),
            None => self.null(),
        }
    }

    /// A journal/audit field value.
    pub(crate) fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::I64(x) => self.int(*x),
            Value::U64(x) => self.int(*x),
            Value::F64(x) => self.f64(*x),
            Value::Bool(x) => self.bool(*x),
            Value::Str(s) => self.str(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separators_and_nesting() {
        let mut w = JsonWriter::new();
        w.begin_object().key("a").begin_array().int(1u8).begin_array().end_array();
        w.begin_object().end_object().null().end_array().key("b").bool(false).end_object();
        assert_eq!(w.finish(), r#"{"a":[1,[],{},null],"b":false}"#);
    }

    #[test]
    fn escapes_like_the_shim() {
        let mut w = JsonWriter::new();
        w.str("a\"b\\c\nd\re\tf\u{1}\u{1f}\u{7f}é€😀");
        assert_eq!(w.as_str(), r#""a\"b\\c\nd\re\tf\u0001\u001f"#.to_owned() + "\u{7f}é€😀\"");
        let mut w = JsonWriter::new();
        w.begin_object().key("k\"").str(format_args!("{:04x}", 171)).end_object();
        assert_eq!(w.finish(), r#"{"k\"":"00ab"}"#);
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut w = JsonWriter::new();
        w.begin_array().f64(f64::NAN).f64(f64::INFINITY).f64_fixed(f64::NEG_INFINITY, 3);
        w.f64(20.0).f64(-0.0).f64(1e21).f64_fixed(2.68754, 3).f64_fixed(0.0, 3).end_array();
        assert_eq!(w.finish(), "[null,null,null,20,-0,1000000000000000000000,2.688,0.000]");
    }

    #[test]
    fn reopened_objects_take_more_members() {
        for (doc, want) in [("{}", r#"{"x":1}"#), (r#"{"a":[]}"#, r#"{"a":[],"x":1}"#)] {
            let mut w = JsonWriter::reopen_object(doc);
            w.key("x").int(1i64).end_object();
            assert_eq!(w.finish(), want);
        }
    }

    #[test]
    fn options_and_values() {
        let mut w = JsonWriter::new();
        w.begin_array().opt(Some(2.5), JsonWriter::f64).opt(None::<bool>, JsonWriter::bool);
        for v in [Value::I64(-1), Value::U64(u64::MAX), Value::F64(f64::NAN), Value::from("q\"")] {
            w.value(&v);
        }
        w.end_array();
        assert_eq!(w.finish(), r#"[2.5,null,-1,18446744073709551615,null,"q\""]"#);
    }
}
