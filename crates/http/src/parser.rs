//! Incremental HTTP parsers for streamed (and pipelined) input.
//!
//! Both parsers follow the same push model: [`RequestParser::feed`] bytes as
//! they arrive from the socket, then drain complete messages with `next()`.
//! Pipelined messages in a single read are returned one by one; partial
//! messages stay buffered until completed by a later feed. This is exactly
//! what the prototype's back-end needs to support HTTP/1.1 request
//! pipelining ("fully supported by the handoff protocol", paper §7.2).
//!
//! A request is validated once, by one routine that borrows its fields
//! from the parser's buffer ([`RequestHead`]); [`RequestParser::next`]
//! copies that view into an owned [`Request`], while
//! [`RequestParser::next_with`] hands the view itself to a caller that
//! needs no copy.

use bytes::{Buf, Bytes, BytesMut};

use crate::message::{connection_keeps_alive, Headers, Request, Response, Version};

/// Why parsing failed. The connection should be dropped on any of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The start line was not of the expected shape.
    BadStartLine(String),
    /// A header line had no colon.
    BadHeader(String),
    /// The version token was not HTTP/1.x.
    BadVersion(String),
    /// `Content-Length` was present but unparseable.
    BadContentLength(String),
    /// Message head exceeded the size bound.
    HeadTooLarge,
    /// Advertised `Content-Length` exceeded [`MAX_BODY`].
    BodyTooLarge(usize),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadStartLine(l) => write!(f, "malformed start line: {l:?}"),
            ParseError::BadHeader(l) => write!(f, "malformed header line: {l:?}"),
            ParseError::BadVersion(v) => write!(f, "unsupported HTTP version: {v:?}"),
            ParseError::BadContentLength(v) => write!(f, "bad Content-Length: {v:?}"),
            ParseError::HeadTooLarge => write!(f, "message head exceeds limit"),
            ParseError::BodyTooLarge(n) => {
                write!(f, "advertised body of {n} bytes exceeds limit")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Upper bound on head (start line + headers) size; DoS guard.
const MAX_HEAD: usize = 16 * 1024;

/// Upper bound on an advertised message body. Without it, a peer
/// declaring an absurd `Content-Length` makes the parser buffer
/// everything it sends while reporting "incomplete" forever — unbounded
/// memory pinned per connection. 64 MiB is far above the largest corpus
/// document (the synthetic trace clamps sizes to single-digit MiB) and
/// far below anything a hostile client should get to pin.
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// The complete head at the front of `buf` — start line and header
/// block, without the blank line — plus the offset just past that
/// blank line. `Ok(None)` while the head is incomplete.
fn split_head(buf: &[u8]) -> Result<Option<(usize, &str, &str)>, ParseError> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
    if head_end.unwrap_or(buf.len()) > MAX_HEAD {
        return Err(ParseError::HeadTooLarge);
    }
    let Some(head_end) = head_end else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end - 4])
        .map_err(|_| ParseError::BadStartLine("non-utf8 head".into()))?;
    let (start, block) = head.split_once("\r\n").unwrap_or((head, ""));
    Ok(Some((head_end, start, block)))
}

fn parse_version(token: &str) -> Result<Version, ParseError> {
    Version::parse(token).ok_or_else(|| ParseError::BadVersion(token.into()))
}

/// The non-empty lines of a header block as trimmed `(name, value)`
/// pairs; a line without a colon is an error.
fn header_lines(block: &str) -> impl Iterator<Item = Result<(&str, &str), ParseError>> {
    block.split("\r\n").filter(|l| !l.is_empty()).map(|line| {
        line.split_once(':')
            .map(|(name, value)| (name.trim(), value.trim()))
            .ok_or_else(|| ParseError::BadHeader(line.to_owned()))
    })
}

/// The header list of a block [`scan_headers`] accepted.
fn collect_headers(block: &str) -> Headers {
    let mut headers = Headers::new();
    for (name, value) in header_lines(block).flatten() {
        headers.push(name, value);
    }
    headers
}

/// What framing and persistence need from a header block, read in
/// place. Like [`Headers::get`], the first `Content-Length` and the
/// first `Connection` count.
struct HeaderFields<'a> {
    body_len: usize,
    connection: Option<&'a str>,
}

/// Validates every header line and reads the framing fields, copying
/// nothing.
fn scan_headers(block: &str) -> Result<HeaderFields<'_>, ParseError> {
    let mut length = None;
    let mut connection = None;
    for line in header_lines(block) {
        let (name, value) = line?;
        if length.is_none() && name.eq_ignore_ascii_case("Content-Length") {
            length = Some(value);
        } else if connection.is_none() && name.eq_ignore_ascii_case("Connection") {
            connection = Some(value);
        }
    }
    let body_len = match length {
        None => 0,
        Some(v) => {
            // RFC 9110 §8.6: Content-Length is 1*DIGIT. `usize::parse`
            // alone is laxer than that (it accepts a leading `+`), so
            // reject anything that is not pure ASCII digits before
            // parsing; parse() then only fails on overflow.
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseError::BadContentLength(v.to_owned()));
            }
            let n: usize = v
                .parse()
                .map_err(|_| ParseError::BadContentLength(v.to_owned()))?;
            if n > MAX_BODY {
                return Err(ParseError::BodyTooLarge(n));
            }
            n
        }
    };
    Ok(HeaderFields {
        body_len,
        connection,
    })
}

/// A complete request, validated and borrowed from the parser's buffer
/// (see [`RequestParser::next_with`]): everything a server needs to
/// route and frame it, with nothing copied.
#[derive(Debug, Clone, Copy)]
pub struct RequestHead<'a> {
    /// Request method.
    pub method: &'a str,
    /// Request-URI.
    pub uri: &'a str,
    /// Protocol version.
    pub version: Version,
    /// Whether the connection persists after this request (the rule
    /// of [`keep_alive`](crate::keep_alive)).
    pub keep_alive: bool,
    /// The header block, every line already validated.
    headers: &'a str,
    /// The body, complete.
    body: &'a [u8],
    /// Wire length of the whole request, head and body.
    len: usize,
}

impl RequestHead<'_> {
    /// Declared (and fully buffered) body length.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// The owned copy [`RequestParser::next`] returns.
    fn to_request(self) -> Request {
        Request {
            method: self.method.to_owned(),
            uri: self.uri.to_owned(),
            version: self.version,
            headers: collect_headers(self.headers),
            body: Bytes::copy_from_slice(self.body),
        }
    }
}

/// The request validator: the first complete request in `buf`, or
/// `Ok(None)` while its head or body is still incomplete. Every
/// request check lives here.
fn parse_request(buf: &[u8]) -> Result<Option<RequestHead<'_>>, ParseError> {
    let Some((head_end, start, block)) = split_head(buf)? else {
        return Ok(None);
    };
    let bad_start = || ParseError::BadStartLine(start.to_owned());
    let mut parts = start.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(bad_start)?;
    let uri = parts.next().ok_or_else(bad_start)?;
    let version_tok = parts.next().unwrap_or("HTTP/1.0");
    if parts.next().is_some() {
        return Err(bad_start());
    }
    let version = parse_version(version_tok)?;
    let fields = scan_headers(block)?;
    let len = head_end + fields.body_len;
    if buf.len() < len {
        return Ok(None); // body incomplete
    }
    Ok(Some(RequestHead {
        method,
        uri,
        version,
        keep_alive: connection_keeps_alive(version, fields.connection),
        headers: block,
        body: &buf[head_end..len],
        len,
    }))
}

/// Incremental request parser.
///
/// # Examples
///
/// ```
/// use phttp_http::RequestParser;
///
/// let mut p = RequestParser::new();
/// // Two pipelined requests arriving in one segment, plus a partial third.
/// p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HT");
/// assert_eq!(p.next().unwrap().unwrap().uri, "/a");
/// // The borrowing form: the closure sees the request in place.
/// assert_eq!(p.next_with(|h| h.uri == "/b").unwrap(), Some(true));
/// assert!(p.next().unwrap().is_none()); // /c is incomplete
/// p.feed(b"TP/1.1\r\n\r\n");
/// assert_eq!(p.next().unwrap().unwrap().uri, "/c");
/// ```
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: BytesMut,
}

impl RequestParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw socket bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to extract the next complete request.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    // Named like `Iterator::next` on purpose: same pull semantics, but
    // fallible and non-blocking, so the trait does not fit.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Request>, ParseError> {
        self.next_with(|head| head.to_request())
    }

    /// [`next`](Self::next) without the copy: validates the next
    /// complete request, passes its borrowed [`RequestHead`] to `f`,
    /// then consumes the request. Returns `f`'s result, `Ok(None)` when
    /// more bytes are needed, or the same error `next` would return
    /// (nothing is consumed then).
    pub fn next_with<T>(
        &mut self,
        f: impl FnOnce(RequestHead<'_>) -> T,
    ) -> Result<Option<T>, ParseError> {
        let Some(head) = parse_request(&self.buf)? else {
            return Ok(None);
        };
        let len = head.len;
        let out = f(head);
        self.buf.advance(len);
        Ok(Some(out))
    }
}

/// A parsed response head whose body may still be in flight — the
/// streaming consumption mode ([`ResponseParser::next_head`] +
/// [`ResponseParser::take_body`]) used when the consumer forwards body
/// bytes as they arrive instead of waiting for the full message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseHead {
    /// HTTP version from the status line.
    pub version: Version,
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Response headers.
    pub headers: Headers,
    /// Declared body length (`Content-Length`, 0 when absent).
    pub body_len: usize,
}

impl ResponseHead {
    /// Whether the sender intends to keep the connection open (same
    /// rule as [`Response::keep_alive`](crate::Response::keep_alive)).
    pub fn keep_alive(&self) -> bool {
        crate::message::keep_alive(self.version, &self.headers)
    }
}

/// The first response head in `buf` and the offset just past it, or
/// `Ok(None)` while the head is incomplete. Every response check lives
/// here.
fn parse_response_head(buf: &[u8]) -> Result<Option<(usize, ResponseHead)>, ParseError> {
    let Some((head_end, start, block)) = split_head(buf)? else {
        return Ok(None);
    };
    let mut parts = start.splitn(3, ' ');
    let version = parse_version(parts.next().unwrap_or(""))?;
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ParseError::BadStartLine(start.to_owned()))?;
    let reason = parts.next().unwrap_or("").to_owned();
    let body_len = scan_headers(block)?.body_len;
    Ok(Some((
        head_end,
        ResponseHead {
            version,
            status,
            reason,
            headers: collect_headers(block),
            body_len,
        },
    )))
}

/// Incremental response parser (client side).
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: BytesMut,
}

impl ResponseParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw socket bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to extract the next complete response.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    // See `RequestParser::next` for the naming rationale.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Response>, ParseError> {
        let Some((head_end, head)) = parse_response_head(&self.buf)? else {
            return Ok(None);
        };
        if self.buf.len() < head_end + head.body_len {
            return Ok(None);
        }
        self.buf.advance(head_end);
        let body = self.buf.split_to(head.body_len).freeze();
        Ok(Some(Response {
            version: head.version,
            status: head.status,
            reason: head.reason,
            headers: head.headers,
            body,
        }))
    }

    /// Attempts to parse — and *consume* — the next response head without
    /// waiting for its body: the streaming mode. On `Some`, the head is
    /// gone from the buffer and the caller owns draining exactly
    /// [`body_len`](ResponseHead::body_len) body bytes via
    /// [`take_body`](Self::take_body) before parsing another head.
    /// Returns `Ok(None)` when the head is still incomplete.
    #[allow(clippy::should_implement_trait)]
    pub fn next_head(&mut self) -> Result<Option<ResponseHead>, ParseError> {
        let Some((head_end, head)) = parse_response_head(&self.buf)? else {
            return Ok(None);
        };
        self.buf.advance(head_end);
        Ok(Some(head))
    }

    /// Removes and returns up to `max` buffered bytes — the body-chunk
    /// reader paired with [`next_head`](Self::next_head). The caller is
    /// responsible for capping `max` at the head's remaining body length
    /// so pipelined next-response bytes are not consumed as body.
    pub fn take_body(&mut self, max: usize) -> Bytes {
        let n = max.min(self.buf.len());
        self.buf.split_to(n).freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_get() {
        let mut p = RequestParser::new();
        p.feed(b"GET /x.html HTTP/1.0\r\nHost: h\r\n\r\n");
        let r = p.next().unwrap().unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.uri, "/x.html");
        assert_eq!(r.version, Version::Http10);
        assert_eq!(r.headers.get("host"), Some("h"));
        assert!(p.next().unwrap().is_none());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn byte_by_byte_feeding() {
        let wire = b"GET /slow HTTP/1.1\r\nA: b\r\n\r\n";
        let mut p = RequestParser::new();
        for (i, &b) in wire.iter().enumerate() {
            p.feed(&[b]);
            let r = p.next().unwrap();
            if i + 1 < wire.len() {
                assert!(r.is_none(), "complete too early at byte {i}");
            } else {
                assert_eq!(r.unwrap().uri, "/slow");
            }
        }
    }

    #[test]
    fn pipelined_requests_drain_in_order() {
        let mut p = RequestParser::new();
        p.feed(b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\nGET /3 HTTP/1.1\r\n\r\n");
        let mut uris = Vec::new();
        while let Some(r) = p.next().unwrap() {
            uris.push(r.uri);
        }
        assert_eq!(uris, vec!["/1", "/2", "/3"]);
    }

    #[test]
    fn request_with_body() {
        let mut p = RequestParser::new();
        p.feed(b"POST /f HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel");
        assert!(p.next().unwrap().is_none()); // body incomplete
        p.feed(b"lo");
        let r = p.next().unwrap().unwrap();
        assert_eq!(&r.body[..], b"hello");
    }

    #[test]
    fn malformed_inputs_error() {
        let mut p = RequestParser::new();
        p.feed(b"NONSENSE\r\n\r\n");
        assert!(matches!(p.next(), Err(ParseError::BadStartLine(_))));

        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/9.9\r\n\r\n");
        assert!(matches!(p.next(), Err(ParseError::BadVersion(_))));

        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n");
        assert!(matches!(p.next(), Err(ParseError::BadHeader(_))));

        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n");
        assert!(matches!(p.next(), Err(ParseError::BadContentLength(_))));
    }

    #[test]
    fn non_rfc_content_length_forms_are_rejected() {
        // `"+5".parse::<usize>()` succeeds, but RFC 9110 says 1*DIGIT:
        // a sign, embedded spaces, or an empty value must all fail.
        for v in ["+5", "-5", "5 5", "0x10", ""] {
            let mut p = RequestParser::new();
            p.feed(format!("POST /f HTTP/1.1\r\nContent-Length: {v}\r\n\r\n").as_bytes());
            assert!(
                matches!(p.next(), Err(ParseError::BadContentLength(_))),
                "Content-Length {v:?} must be rejected"
            );
        }
        // Overflowing digit strings are bad lengths, not panics.
        let mut p = RequestParser::new();
        p.feed(b"POST /f HTTP/1.1\r\nContent-Length: 99999999999999999999999999\r\n\r\n");
        assert!(matches!(p.next(), Err(ParseError::BadContentLength(_))));
    }

    #[test]
    fn huge_advertised_body_is_rejected_up_front() {
        let mut p = RequestParser::new();
        let decl = MAX_BODY + 1;
        p.feed(format!("POST /f HTTP/1.1\r\nContent-Length: {decl}\r\n\r\n").as_bytes());
        // The error fires as soon as the head is parsed — the parser must
        // not wait (and buffer) for a body that will never finish.
        assert_eq!(p.next(), Err(ParseError::BodyTooLarge(decl)));

        // Same guard on the response side.
        let mut p = ResponseParser::new();
        p.feed(format!("HTTP/1.1 200 OK\r\nContent-Length: {decl}\r\n\r\n").as_bytes());
        assert_eq!(p.next(), Err(ParseError::BodyTooLarge(decl)));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\n");
        let filler = format!("X-Pad: {}\r\n", "a".repeat(1024));
        for _ in 0..20 {
            p.feed(filler.as_bytes());
        }
        assert!(matches!(p.next(), Err(ParseError::HeadTooLarge)));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok(Version::Http11, Bytes::from(vec![7u8; 2048]));
        let wire = resp.to_bytes();
        let mut p = ResponseParser::new();
        // Split the wire bytes into three chunks.
        p.feed(&wire[..10]);
        assert!(p.next().unwrap().is_none());
        p.feed(&wire[10..500]);
        assert!(p.next().unwrap().is_none());
        p.feed(&wire[500..]);
        let parsed = p.next().unwrap().unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body.len(), 2048);
        assert_eq!(parsed, resp);
    }

    #[test]
    fn streaming_head_then_body_chunks() {
        let body: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let resp = Response::ok(Version::Http11, Bytes::from(body.clone()));
        let wire = resp.to_bytes();
        let split = wire.len() - 4000;
        let mut p = ResponseParser::new();
        p.feed(&wire[..20]);
        assert!(p.next_head().unwrap().is_none(), "head incomplete");
        p.feed(&wire[20..split]);
        let head = p.next_head().unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.body_len, 5000);
        assert!(head.keep_alive());
        // Drain body bytes as they arrive, capped at the declared length.
        let mut got = Vec::new();
        let mut remaining = head.body_len;
        let c = p.take_body(remaining);
        remaining -= c.len();
        got.extend_from_slice(&c);
        assert!(remaining > 0, "first window held only part of the body");
        // The tail arrives with a pipelined second response behind it.
        p.feed(&wire[split..]);
        p.feed(&Response::not_found(Version::Http11).to_bytes());
        while remaining > 0 {
            let c = p.take_body(remaining);
            assert!(!c.is_empty());
            remaining -= c.len();
            got.extend_from_slice(&c);
        }
        assert_eq!(got, body, "chunks reassemble the exact body");
        // The cap protected the pipelined response; it parses intact.
        assert_eq!(p.next().unwrap().unwrap().status, 404);
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn pipelined_responses() {
        let a = Response::ok(Version::Http11, Bytes::from_static(b"aaaa"));
        let b = Response::not_found(Version::Http11);
        let mut wire = BytesMut::new();
        a.encode(&mut wire);
        b.encode(&mut wire);
        let mut p = ResponseParser::new();
        p.feed(&wire);
        assert_eq!(p.next().unwrap().unwrap().status, 200);
        assert_eq!(p.next().unwrap().unwrap().status, 404);
        assert!(p.next().unwrap().is_none());
    }
}
