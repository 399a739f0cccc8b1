//! Minimal HTTP/1.1 framing over `std::io` streams.
//!
//! The serving layer speaks exactly the slice of HTTP its API needs: `GET`
//! requests with headers and no meaningful body, keep-alive by default,
//! `Content-Length`-delimited responses. Parsing is deliberately strict —
//! anything outside that slice becomes a 4xx, never UB or a panic — because
//! the socket is the one interface of the system exposed to arbitrary
//! remote input. Every byte is counted *while it is read*: the request
//! line, each header line, the header total, and the header count are all
//! capped before they are buffered, so a hostile client cannot balloon
//! worker memory by streaming one enormous line.

use std::io::BufRead;
use std::sync::Arc;

/// Hard cap on the request line (method + URI + version); beyond it → 414.
pub const MAX_REQUEST_LINE_BYTES: usize = 4 * 1024;
/// Hard cap on request-line + header bytes; anything longer → 431.
/// Generous for curl/Grafana-style clients, small enough that a hostile
/// client cannot balloon worker memory.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on the number of header lines; beyond it → 431.
pub const MAX_HEADER_COUNT: usize = 64;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// Percent-decoded path, query string stripped.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Raw query string as received (cache key material: two encodings of
    /// the same logical query may cache separately, which is only a miss).
    pub raw_query: String,
    pub keep_alive: bool,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request was refused by the parser's caps. Carries the HTTP status
/// the connection loop answers with and the metric reason it counts under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Request line over [`MAX_REQUEST_LINE_BYTES`] → 414.
    UriTooLong,
    /// Head over [`MAX_HEAD_BYTES`] (or one header line alone) → 431.
    HeadersTooLarge,
    /// More than [`MAX_HEADER_COUNT`] header lines → 431.
    TooManyHeaders,
    /// A body on this GET-only API → 413 (never silently drained).
    Body,
    /// Anything else syntactically unacceptable → 400.
    Malformed,
}

impl RejectReason {
    pub fn status(self) -> u16 {
        match self {
            RejectReason::UriTooLong => 414,
            RejectReason::HeadersTooLarge | RejectReason::TooManyHeaders => 431,
            RejectReason::Body => 413,
            RejectReason::Malformed => 400,
        }
    }
}

/// Why a request could not be parsed.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Clean EOF before any request byte: the client closed a keep-alive
    /// connection. Not an error worth a response.
    Eof,
    /// Read error / timeout mid-request.
    Io,
    /// Unacceptable request — answer `reason.status()` and close.
    Reject(RejectReason, &'static str),
}

impl ParseError {
    fn malformed(msg: &'static str) -> ParseError {
        ParseError::Reject(RejectReason::Malformed, msg)
    }
}

/// Read one `\n`-terminated line into `out`, never buffering more than
/// `limit` bytes. Returns `Ok(true)` on a complete line, `Ok(false)` on
/// EOF with nothing read, `Err(true)` when the line exceeded `limit`
/// *without consuming the rest of it* (the connection is being dropped
/// anyway), and `Err(false)` on EOF mid-line.
fn read_line_capped<R: BufRead>(
    r: &mut R,
    out: &mut Vec<u8>,
    limit: usize,
) -> std::io::Result<Result<bool, bool>> {
    let mut n = 0usize;
    loop {
        let buf = match r.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(if n == 0 { Ok(false) } else { Err(false) });
        }
        let (take, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (buf.len(), false),
        };
        if n + take > limit {
            return Ok(Err(true));
        }
        out.extend_from_slice(&buf[..take]);
        r.consume(take);
        n += take;
        if done {
            return Ok(Ok(true));
        }
    }
}

/// Strip one trailing `\r\n` / `\n` and interpret as UTF-8.
fn line_str(line: &[u8]) -> Option<&str> {
    let line = match line {
        [head @ .., b'\r', b'\n'] | [head @ .., b'\n'] => head,
        other => other,
    };
    std::str::from_utf8(line).ok()
}

/// Read one request head from `r`. Any request body is not consumed —
/// a body-carrying request is rejected with 413 here (the API is GET-only)
/// and the connection closed rather than silently drained.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, ParseError> {
    let mut line = Vec::with_capacity(128);
    let mut total = 0usize;
    match read_line_capped(r, &mut line, MAX_REQUEST_LINE_BYTES) {
        Ok(Ok(true)) => total += line.len(),
        Ok(Ok(false)) => return Err(ParseError::Eof),
        Ok(Err(true)) => {
            return Err(ParseError::Reject(RejectReason::UriTooLong, "request line too long"))
        }
        Ok(Err(false)) => return Err(ParseError::malformed("truncated request line")),
        Err(_) => return Err(ParseError::Io),
    }
    let first = line_str(&line).ok_or(ParseError::malformed("request line not UTF-8"))?;
    let mut parts = first.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(ParseError::malformed("bad request line"));
    }
    // HTTP/1.0 defaults to close, 1.1 to keep-alive.
    let mut keep_alive = version != "HTTP/1.0";
    let mut has_body = false;
    let mut headers = 0usize;
    loop {
        line.clear();
        let remaining = MAX_HEAD_BYTES.saturating_sub(total);
        match read_line_capped(r, &mut line, remaining) {
            Ok(Ok(true)) => total += line.len(),
            Ok(Ok(false)) | Ok(Err(false)) => {
                return Err(ParseError::malformed("truncated headers"))
            }
            Ok(Err(true)) => {
                return Err(ParseError::Reject(
                    RejectReason::HeadersTooLarge,
                    "headers too large",
                ))
            }
            Err(_) => return Err(ParseError::Io),
        }
        let h = line_str(&line).ok_or(ParseError::malformed("header not UTF-8"))?;
        if h.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADER_COUNT {
            return Err(ParseError::Reject(RejectReason::TooManyHeaders, "too many headers"));
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(ParseError::malformed("bad header"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            "content-length" if value.parse::<u64>().map(|n| n > 0).unwrap_or(true) => {
                has_body = true;
            }
            "transfer-encoding" => has_body = true,
            _ => {}
        }
    }
    if has_body {
        return Err(ParseError::Reject(RejectReason::Body, "request bodies not accepted"));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q.to_string()),
        None => (target.as_str(), String::new()),
    };
    let path =
        percent_decode(raw_path).ok_or(ParseError::malformed("bad escape in path"))?;
    let mut query = Vec::new();
    for pair in raw_query.split('&').filter(|s| !s.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let k = percent_decode(k).ok_or(ParseError::malformed("bad escape in query"))?;
        let v = percent_decode(v).ok_or(ParseError::malformed("bad escape in query"))?;
        query.push((k, v));
    }
    Ok(Request { method, path, query, raw_query, keep_alive })
}

/// Decode `%XX` escapes and `+` (as space, query convention). `None` on a
/// truncated or non-hex escape or invalid UTF-8.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex_val(*bytes.get(i + 1)?)?;
                let lo = hex_val(*bytes.get(i + 2)?)?;
                out.push(hi << 4 | lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// `Retry-After` seconds advertised on every 503 (shed and breaker).
const RETRY_AFTER_SECS: u32 = 1;

/// One response. Bodies are `Arc`d so cached responses are shared, not
/// copied, across the worker pool.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Arc<Vec<u8>>,
}

impl Response {
    pub fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        Response { status, content_type, body: Arc::new(body) }
    }

    pub fn json(status: u16, body: String) -> Self {
        Response::new(status, "application/json", body.into_bytes())
    }

    /// Uniform JSON error envelope.
    pub fn error(status: u16, message: &str) -> Self {
        let mut w = manic_obs::JsonWriter::new();
        w.begin_object().key("error").begin_object().key("status").int(status);
        w.key("message").str(message).end_object().end_object();
        Response::json(status, w.finish())
    }

    /// A `503` shed/breaker response; rendering adds `Retry-After`.
    pub fn unavailable(message: &str) -> Self {
        Response::error(503, message)
    }

    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            411 => "Length Required",
            413 => "Content Too Large",
            414 => "URI Too Long",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Append the serialized head + body to `out`. Rendering into a caller
    /// buffer lets the connection loop coalesce pipelined responses into a
    /// single `write(2)` instead of paying syscalls per response.
    pub fn render_into(&self, out: &mut Vec<u8>, keep_alive: bool) {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            Self::reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        if self.status == 503 {
            head.push_str(&format!("Retry-After: {RETRY_AFTER_SECS}\r\n"));
        }
        head.push_str("\r\n");
        out.reserve(head.len() + self.body.len());
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(&self.body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    fn reject_status(raw: &str) -> u16 {
        match parse(raw) {
            Err(ParseError::Reject(reason, _)) => reason.status(),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_with_query() {
        let r = parse("GET /api/link/10.1.0.2/timeseries?bin=300&agg=min HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/api/link/10.1.0.2/timeseries");
        assert_eq!(r.param("bin"), Some("300"));
        assert_eq!(r.param("agg"), Some("min"));
        assert!(r.keep_alive);
    }

    #[test]
    fn connection_close_and_http10() {
        let r = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
    }

    #[test]
    fn rejects_garbage_and_bodies() {
        assert_eq!(reject_status("NONSENSE\r\n\r\n"), 400);
        assert_eq!(reject_status("GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"), 413);
        assert_eq!(reject_status("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"), 413);
        assert!(matches!(parse(""), Err(ParseError::Eof)));
    }

    #[test]
    fn caps_request_line_at_414() {
        let huge_uri = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE_BYTES));
        assert_eq!(reject_status(&huge_uri), 414);
        // Just under the cap parses fine.
        let ok_uri = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(1024));
        assert!(parse(&ok_uri).is_ok());
    }

    #[test]
    fn caps_header_bytes_at_431() {
        let huge = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(20_000));
        assert_eq!(reject_status(&huge), 431);
        // Many medium headers crossing the total cap are also 431.
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..40 {
            many.push_str(&format!("X-{i}: {}\r\n", "b".repeat(500)));
        }
        many.push_str("\r\n");
        assert_eq!(reject_status(&many), 431);
    }

    #[test]
    fn caps_header_count_at_431() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADER_COUNT + 1) {
            raw.push_str(&format!("X-{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        match parse(&raw) {
            Err(ParseError::Reject(RejectReason::TooManyHeaders, _)) => {}
            other => panic!("expected TooManyHeaders, got {other:?}"),
        }
    }

    #[test]
    fn oversized_line_is_rejected_without_buffering_it() {
        // The parser must refuse before buffering the hostile line, not
        // after: feed a 100 MB virtual line through a reader that panics
        // if more than MAX_HEAD_BYTES + slack is ever consumed.
        struct Metered<'a> {
            chunk: &'a [u8],
            served: usize,
            cap: usize,
        }
        impl std::io::Read for Metered<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.chunk.len());
                buf[..n].copy_from_slice(&self.chunk[..n]);
                self.served += n;
                assert!(self.served <= self.cap, "parser kept reading an oversized line");
                Ok(n)
            }
        }
        let chunk = [b'a'; 512];
        let mut r = BufReader::new(Metered {
            chunk: &chunk,
            served: 0,
            cap: MAX_HEAD_BYTES + 16 * 1024,
        });
        match read_request(&mut r) {
            Err(ParseError::Reject(RejectReason::UriTooLong, _)) => {}
            other => panic!("expected UriTooLong, got {other:?}"),
        }
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c").as_deref(), Some("a b c"));
        assert_eq!(percent_decode("%2Fx").as_deref(), Some("/x"));
        assert_eq!(percent_decode("%zz"), None);
        assert_eq!(percent_decode("%2"), None);
    }

    #[test]
    fn response_wire_format() {
        let mut buf = Vec::new();
        Response::json(200, "{\"ok\":true}".into()).render_into(&mut buf, true);
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 11\r\n"));
        assert!(s.contains("Connection: keep-alive\r\n"));
        assert!(s.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn retry_after_header_renders() {
        let mut buf = Vec::new();
        Response::unavailable("shed").render_into(&mut buf, false);
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{s}");
        assert!(s.contains("Retry-After: 1\r\n"), "{s}");
        assert!(s.contains("Connection: close\r\n"));
    }
}
