//! Minimal HTTP/1.x framing over `std::net`.
//!
//! Hand-rolled like the `third_party/` dependency stand-ins: request
//! parsing (request line, headers, `Content-Length` bodies) and
//! response writing, with persistent connections per HTTP/1.1 defaults
//! (HTTP/1.0 closes unless the client sent `Connection: keep-alive`).
//! No chunked encoding (a chunked request body is rejected with 501 at
//! the first request), no TLS — the service binds loopback or sits
//! behind a real proxy.
//!
//! The parser, [`parse_request`], is *incremental*: it consumes a byte
//! slice and either produces one complete request plus the number of
//! bytes it spans, or reports that more bytes are needed. The
//! non-blocking event loop (`crate::event`) feeds it straight from its
//! per-connection read buffers and queues the bytes of
//! [`render_response`] on their write side.

use std::io::Write;

/// Hard caps keeping a misbehaving client from ballooning memory.
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum number of request headers.
const MAX_HEADERS: usize = 64;
/// Maximum request-body size in bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// A framing-level failure: the HTTP status the server should answer
/// before closing the connection, plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Response status (400 for malformed framing, 501 for
    /// unimplemented transfer codings).
    pub status: u16,
    /// Error message (becomes the JSON `error` field).
    pub msg: String,
}

impl HttpError {
    fn bad(msg: impl Into<String>) -> HttpError {
        HttpError {
            status: 400,
            msg: msg.into(),
        }
    }

    fn not_implemented(msg: impl Into<String>) -> HttpError {
        HttpError {
            status: 501,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.msg)
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// The path component of the request target (query string stripped).
    pub path: String,
    /// The query string (text after `?`, empty when absent).
    pub query: String,
    /// Minor HTTP version: `0` for `HTTP/1.0`, `1` for `HTTP/1.1`.
    pub minor: u8,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of `name`, matched case-insensitively.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The value of query parameter `name` (`""` for a bare `?name`),
    /// or `None` when absent. No percent-decoding — the service's
    /// parameters are plain tokens.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }

    /// Whether the connection should close after this exchange.
    ///
    /// `Connection` is a comma-separated option list (RFC 7230 §6.1):
    /// every value of every `Connection` header is split on commas and
    /// the tokens matched case-insensitively after trimming, so
    /// `Connection: keep-alive, Close` closes. A `close` token always
    /// wins; otherwise HTTP/1.0 requests default to closing unless the
    /// client sent a `keep-alive` token (HTTP/1.1 defaults to
    /// persistent).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        let mut close = false;
        let mut keep_alive = false;
        for (name, value) in &self.headers {
            if !name.eq_ignore_ascii_case("connection") {
                continue;
            }
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
        close || (self.minor == 0 && !keep_alive)
    }
}

/// One response to write.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content-Type header value.
    pub content_type: &'static str,
    /// Extra headers appended after the standard three (name must be
    /// lowercase; used for `retry-after` on backpressure 503s).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// The backpressure response: `503` with a `retry-after` header,
    /// answered immediately when the request queue (or the connection
    /// table) is full.
    #[must_use]
    pub fn overloaded(reason: &str, retry_after_secs: u32) -> Self {
        let mut resp = Response::json(
            503,
            crate::json::Json::obj(vec![
                (
                    "error",
                    crate::json::Json::str(format!("overloaded: {reason}")),
                ),
                (
                    "retry_after_secs",
                    crate::json::Json::U64(u64::from(retry_after_secs)),
                ),
            ])
            .render(),
        );
        resp.extra_headers
            .push(("retry-after", retry_after_secs.to_string()));
        resp
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Outcome of one [`parse_request`] call.
#[derive(Debug)]
pub enum Parse {
    /// The buffer does not yet hold one complete request; read more.
    Partial,
    /// One complete request spanning the first `usize` bytes of the
    /// buffer (including any leading blank lines it skipped).
    Complete(Request, usize),
}

/// Locates the next LF in `buf[start..]` and returns the line (CR/LF
/// trimmed) plus the index one past the LF, or `None` if no full line
/// is buffered yet.
fn next_line(buf: &[u8], start: usize) -> Result<Option<(&[u8], usize)>, HttpError> {
    match buf[start..].iter().position(|&b| b == b'\n') {
        Some(rel) => {
            if rel > MAX_HEADER_LINE {
                return Err(HttpError::bad("header line too long"));
            }
            let mut line = &buf[start..start + rel];
            while let [rest @ .., b'\r'] = line {
                line = rest;
            }
            Ok(Some((line, start + rel + 1)))
        }
        None => {
            if buf.len() - start > MAX_HEADER_LINE {
                return Err(HttpError::bad("header line too long"));
            }
            Ok(None)
        }
    }
}

/// Tries to parse one complete request from the front of `buf`.
///
/// Leading blank lines (stray CRLFs between pipelined requests) are
/// skipped per RFC 7230 §3.5. Returns [`Parse::Partial`] when the
/// buffer ends mid-request — the caller reads more bytes and retries
/// with the grown buffer.
///
/// # Errors
///
/// Malformed framing yields an [`HttpError`] carrying the status the
/// server should answer before closing: 400 for bad request lines,
/// header overflows and oversized bodies, 501 for `Transfer-Encoding`
/// request bodies (chunked framing is not implemented; silently
/// skipping the body would misparse the chunk stream as the next
/// request line).
pub fn parse_request(buf: &[u8]) -> Result<Parse, HttpError> {
    // Skip leading empty lines between requests.
    let mut pos = 0;
    let request_line = loop {
        match next_line(buf, pos)? {
            None => return Ok(Parse::Partial),
            Some(([], next)) => pos = next,
            Some((line, next)) => {
                pos = next;
                break line;
            }
        }
    };
    let request_line = std::str::from_utf8(request_line)
        .map_err(|_| HttpError::bad("request line is not utf-8"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing HTTP version"))?;
    let minor = match version {
        "HTTP/1.0" => 0,
        "HTTP/1.1" => 1,
        v if v.starts_with("HTTP/1.") => 1,
        _ => return Err(HttpError::bad("unsupported HTTP version")),
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let Some((line, next)) = next_line(buf, pos)? else {
            return Ok(Parse::Partial);
        };
        pos = next;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::bad("too many headers"));
        }
        let line = std::str::from_utf8(line).map_err(|_| HttpError::bad("header is not utf-8"))?;
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::bad("malformed header"))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let mut request = Request {
        method,
        path,
        query,
        minor,
        headers,
        body: Vec::new(),
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.trim().is_empty())
    {
        // Without chunked decoding the body bytes would be misparsed
        // as the next request line, surfacing as a confusing 400 on a
        // later read; reject explicitly up front instead.
        return Err(HttpError::not_implemented(
            "transfer-encoding request bodies are not supported",
        ));
    }
    if let Some(len) = request.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::bad("bad content-length"))?;
        if len > MAX_BODY {
            return Err(HttpError::bad("body too large"));
        }
        if buf.len() - pos < len {
            return Ok(Parse::Partial);
        }
        request.body = buf[pos..pos + len].to_vec();
        pos += len;
    }
    Ok(Parse::Complete(request, pos))
}

/// Renders the full wire bytes of `response`; `close` controls the
/// `Connection` header. The event loop queues these bytes on the
/// connection's write buffer.
#[must_use]
pub fn render_response(response: &Response, close: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(response.body.len() + 160);
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" }
    );
    for (name, value) in &response.extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&response.body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses the one complete request `raw` holds, which must span all
    /// of it.
    fn parse_one(raw: &[u8]) -> Request {
        match parse_request(raw) {
            Ok(Parse::Complete(req, used)) => {
                assert_eq!(used, raw.len(), "request must span the buffer");
                req
            }
            other => panic!("expected one complete request, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let req = parse_one(b"GET /fig6?x=1 HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/fig6");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.minor, 1);
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("y"), None);
        assert_eq!(req.header("host"), Some("a"));
        assert!(req.wants_close());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_and_next_request() {
        let raw =
            b"POST /matrix HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"GET /healthz HTTP/1.1\r\n\r\n";
        let Ok(Parse::Complete(first, used)) = parse_request(raw) else {
            panic!("first request incomplete");
        };
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, b"{\"a\"");
        assert!(!first.wants_close());
        // Only the bytes the first request spans are consumed; the rest
        // is the pipelined second request.
        let second = parse_one(&raw[used..]);
        assert_eq!(second.path, "/healthz");
        // Blank lines alone are not a request.
        assert!(matches!(parse_request(b"\r\n\r\n"), Ok(Parse::Partial)));
    }

    #[test]
    fn rejects_malformed_framing() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            &b"GET / SPDY/3\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nbadheader\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nContent-Length: wat\r\n\r\n"[..],
        ] {
            let err = parse_request(raw).unwrap_err();
            assert_eq!(err.status, 400, "{raw:?}");
        }
    }

    #[test]
    fn rejects_oversized_bodies() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse_request(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.msg, "body too large");
    }

    #[test]
    fn http_1_0_defaults_to_close() {
        // A 1.0 client without `Connection: keep-alive` must be closed
        // after the exchange — answering `keep-alive` left it hanging
        // until the idle reap.
        let req = parse_one(b"GET / HTTP/1.0\r\nHost: a\r\n\r\n");
        assert_eq!(req.minor, 0);
        assert!(req.wants_close());

        let req = parse_one(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
        assert!(!req.wants_close(), "explicit 1.0 keep-alive persists");

        // HTTP/1.1 still defaults to persistent.
        let req = parse_one(b"GET / HTTP/1.1\r\n\r\n");
        assert!(!req.wants_close());
    }

    #[test]
    fn connection_header_is_a_comma_separated_list() {
        for (value, close) in [
            ("close", true),
            ("Close", true),
            ("keep-alive, close", true),
            ("Keep-Alive ,  CLOSE", true),
            ("te, close", true),
            ("keep-alive", false),
            ("te, keep-alive", false),
            ("closed", false), // not the `close` token
        ] {
            let raw = format!("GET / HTTP/1.1\r\nConnection: {value}\r\n\r\n");
            let req = parse_one(raw.as_bytes());
            assert_eq!(req.wants_close(), close, "Connection: {value:?}");
        }
    }

    #[test]
    fn chunked_bodies_are_rejected_with_501() {
        let raw =
            b"POST /matrix HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwat!\r\n0\r\n\r\n";
        let err = parse_request(&raw[..]).unwrap_err();
        assert_eq!(err.status, 501);
        // Ordinary requests with a TE header and no body are equally
        // rejected — the header itself signals unsupported framing.
        let raw = b"GET / HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n";
        assert_eq!(parse_request(&raw[..]).unwrap_err().status, 501);
    }

    #[test]
    fn incremental_parse_reports_partial_until_complete() {
        let full = b"POST /matrix HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..full.len() {
            assert!(
                matches!(parse_request(&full[..cut]), Ok(Parse::Partial)),
                "cut at {cut}"
            );
        }
        match parse_request(full) {
            Ok(Parse::Complete(req, used)) => {
                assert_eq!(used, full.len());
                assert_eq!(req.body, b"body");
            }
            other => panic!("expected complete parse, got {other:?}"),
        }
        // Leading stray CRLFs between pipelined requests are skipped
        // and counted into the consumed span.
        let padded = [&b"\r\n\r\n"[..], &full[..]].concat();
        match parse_request(&padded) {
            Ok(Parse::Complete(req, used)) => {
                assert_eq!(used, padded.len());
                assert_eq!(req.path, "/matrix");
            }
            other => panic!("expected complete parse, got {other:?}"),
        }
    }

    #[test]
    fn oversized_header_lines_fail_even_unterminated() {
        let mut raw = b"GET / HTTP/1.1\r\nx: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_LINE + 2));
        let err = parse_request(&raw).unwrap_err();
        assert_eq!(err.status, 400, "unterminated overlong line");
        raw.extend_from_slice(b"\r\n\r\n");
        let err = parse_request(&raw).unwrap_err();
        assert_eq!(err.status, 400, "terminated overlong line");
    }

    #[test]
    fn response_wire_format() {
        let out = render_response(&Response::json(200, "{}".to_string()), true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn overloaded_response_carries_retry_after() {
        let resp = Response::overloaded("request queue full", 1);
        let text = String::from_utf8(render_response(&resp, false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("request queue full"));
    }
}
