//! HTTP message types: requests, responses, versions, headers.
//!
//! Scope follows the paper: HTTP/1.0 and HTTP/1.1 with persistent
//! connections and pipelining for static content. Header storage preserves
//! order and case (lookups are case-insensitive per RFC 2616); bodies are
//! framed by `Content-Length` only — the workload is static files, so
//! chunked transfer encoding is out of scope (documented in DESIGN.md).

use bytes::{BufMut, Bytes, BytesMut};

/// HTTP protocol version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// HTTP/1.0: one request per connection unless `Connection: keep-alive`.
    Http10,
    /// HTTP/1.1: persistent by default unless `Connection: close`.
    Http11,
}

impl Version {
    /// Wire form, e.g. `HTTP/1.1`.
    pub fn as_str(self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }

    /// Parses the wire form.
    pub fn parse(s: &str) -> Option<Version> {
        match s {
            "HTTP/1.0" | "HTTP/0.9" => Some(Version::Http10),
            "HTTP/1.1" => Some(Version::Http11),
            _ => None,
        }
    }
}

/// Ordered, case-preserving header list with case-insensitive lookup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers(Vec<(String, String)>);

impl Headers {
    /// Creates an empty header list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the first value of `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Appends a header (does not replace existing ones of the same name).
    pub fn push(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.0.push((name.into(), value.into()));
    }

    /// Replaces all headers of `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.0.retain(|(k, _)| !k.eq_ignore_ascii_case(name));
        self.0.push((name.to_owned(), value.into()));
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if there are no headers.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn encode(&self, buf: &mut BytesMut) {
        for (k, v) in &self.0 {
            buf.put_slice(k.as_bytes());
            buf.put_slice(b": ");
            buf.put_slice(v.as_bytes());
            buf.put_slice(b"\r\n");
        }
    }
}

/// Whether a connection persists after a message with these properties.
pub fn keep_alive(version: Version, headers: &Headers) -> bool {
    connection_keeps_alive(version, headers.get("Connection"))
}

/// [`keep_alive`]'s rule over the first `Connection` value alone (the
/// borrowing request parser has no [`Headers`] to look it up in).
pub(crate) fn connection_keeps_alive(version: Version, connection: Option<&str>) -> bool {
    match connection {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => version == Version::Http11,
    }
}

/// `n` in decimal, written right-aligned into `buf` (20 digits hold
/// any `u64`); returns the written digits.
fn decimal(mut n: usize, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[i..];
        }
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET` for the paper's workload).
    pub method: String,
    /// Request-URI (path plus optional query).
    pub uri: String,
    /// Protocol version.
    pub version: Version,
    /// Header list.
    pub headers: Headers,
    /// Request body (empty for GET).
    pub body: Bytes,
}

impl Request {
    /// Builds a GET request.
    pub fn get(uri: impl Into<String>, version: Version) -> Self {
        Request {
            method: "GET".to_owned(),
            uri: uri.into(),
            version,
            headers: Headers::new(),
            body: Bytes::new(),
        }
    }

    /// Returns `true` if the connection persists after this request.
    pub fn keep_alive(&self) -> bool {
        keep_alive(self.version, &self.headers)
    }

    /// Prefixes the URI path with `/segment` — the paper's §7.3 *tagging*:
    /// the dispatcher rewrites `GET /foo` into `GET /be_2/foo` to make the
    /// connection-handling node fetch the target from back-end 2.
    ///
    /// # Examples
    ///
    /// ```
    /// use phttp_http::{Request, Version};
    ///
    /// let mut r = Request::get("/foo.gif", Version::Http11);
    /// r.tag("be_2");
    /// assert_eq!(r.uri, "/be_2/foo.gif");
    /// ```
    pub fn tag(&mut self, segment: &str) {
        let rest = self.uri.strip_prefix('/').unwrap_or(&self.uri);
        self.uri = format!("/{segment}/{rest}");
    }

    /// Splits a tagged URI into `(segment, rest)` if it has the
    /// `/segment/...` shape: the inverse of [`Request::tag`].
    pub fn untag(uri: &str) -> Option<(&str, &str)> {
        let rest = uri.strip_prefix('/')?;
        let slash = rest.find('/')?;
        Some((&rest[..slash], &rest[slash..]))
    }

    /// Serializes the request onto `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(self.method.as_bytes());
        buf.put_u8(b' ');
        buf.put_slice(self.uri.as_bytes());
        buf.put_u8(b' ');
        buf.put_slice(self.version.as_str().as_bytes());
        buf.put_slice(b"\r\n");
        self.headers.encode(buf);
        if !self.body.is_empty() {
            let mut h = Headers::new();
            if self.headers.get("Content-Length").is_none() {
                h.push("Content-Length", self.body.len().to_string());
                h.encode(buf);
            }
        }
        buf.put_slice(b"\r\n");
        buf.put_slice(&self.body);
    }

    /// Serializes into a fresh buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Protocol version.
    pub version: Version,
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Header list.
    pub headers: Headers,
    /// Response body.
    pub body: Bytes,
}

impl Response {
    /// Builds a `200 OK` with the given body; sets `Content-Length`.
    pub fn ok(version: Version, body: Bytes) -> Self {
        let mut headers = Headers::new();
        headers.set("Content-Length", body.len().to_string());
        Response {
            version,
            status: 200,
            reason: "OK".to_owned(),
            headers,
            body,
        }
    }

    /// The serialized head of a `200 OK` whose body is `len` bytes long,
    /// without materializing the body: byte-identical to
    /// `Response::ok(version, body).head_bytes()` for any `body` of that
    /// length, assembled on the stack and copied once into an
    /// exact-size buffer (no header list, no `String`s).
    pub fn ok_head(version: Version, len: usize) -> Bytes {
        const PREFIX: &[u8] = b" 200 OK\r\nContent-Length: ";
        // Version (8) + prefix + up to 20 digits of a u64 + blank line.
        let mut head = [0u8; 8 + PREFIX.len() + 20 + 4];
        let mut digits = [0u8; 20];
        let mut at = 0;
        for part in [
            version.as_str().as_bytes(),
            PREFIX,
            decimal(len, &mut digits),
            b"\r\n\r\n",
        ] {
            head[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        Bytes::copy_from_slice(&head[..at])
    }

    /// Builds an error response with a short text body.
    pub fn error(version: Version, status: u16, reason: &str) -> Self {
        let body = Bytes::from(format!("{status} {reason}\n"));
        let mut headers = Headers::new();
        headers.set("Content-Length", body.len().to_string());
        Response {
            version,
            status,
            reason: reason.to_owned(),
            headers,
            body,
        }
    }

    /// Builds a `404 Not Found`.
    pub fn not_found(version: Version) -> Self {
        Self::error(version, 404, "Not Found")
    }

    /// Returns `true` if the connection persists after this response.
    pub fn keep_alive(&self) -> bool {
        keep_alive(self.version, &self.headers)
    }

    /// Serializes the head only — status line, headers, and the blank
    /// line — onto `buf`. The zero-copy write path serializes the head
    /// once and pairs it with a shared body slice instead of copying
    /// the body into a contiguous wire buffer; [`encode`](Self::encode)
    /// is defined in terms of this, so the two can never diverge.
    pub fn encode_head(&self, buf: &mut BytesMut) {
        buf.put_slice(self.version.as_str().as_bytes());
        buf.put_u8(b' ');
        buf.put_slice(self.status.to_string().as_bytes());
        buf.put_u8(b' ');
        buf.put_slice(self.reason.as_bytes());
        buf.put_slice(b"\r\n");
        self.headers.encode(buf);
        buf.put_slice(b"\r\n");
    }

    /// The serialized head as its own buffer (see
    /// [`encode_head`](Self::encode_head)).
    pub fn head_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_head(&mut buf);
        buf.freeze()
    }

    /// Serializes the response onto `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        self.encode_head(buf);
        buf.put_slice(&self.body);
    }

    /// Serializes into a fresh buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn header_lookup_is_case_insensitive() {
        let mut h = Headers::new();
        h.push("Content-Length", "42");
        assert_eq!(h.get("content-length"), Some("42"));
        assert_eq!(h.get("CONTENT-LENGTH"), Some("42"));
        assert_eq!(h.get("missing"), None);
    }

    #[test]
    fn header_set_replaces_all() {
        let mut h = Headers::new();
        h.push("X-A", "1");
        h.push("x-a", "2");
        h.set("X-A", "3");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("x-a"), Some("3"));
    }

    #[test]
    fn keep_alive_defaults_by_version() {
        assert!(keep_alive(Version::Http11, &Headers::new()));
        assert!(!keep_alive(Version::Http10, &Headers::new()));
        let mut close = Headers::new();
        close.push("Connection", "close");
        assert!(!keep_alive(Version::Http11, &close));
        let mut ka = Headers::new();
        ka.push("Connection", "Keep-Alive");
        assert!(keep_alive(Version::Http10, &ka));
    }

    #[test]
    fn request_encoding_is_canonical() {
        let mut r = Request::get("/a/b.html", Version::Http11);
        r.headers.push("Host", "example.org");
        let bytes = r.to_bytes();
        assert_eq!(
            &bytes[..],
            b"GET /a/b.html HTTP/1.1\r\nHost: example.org\r\n\r\n".as_slice()
        );
    }

    #[test]
    fn tagging_roundtrip() {
        let mut r = Request::get("/dir/foo.gif", Version::Http11);
        r.tag("be_3");
        assert_eq!(r.uri, "/be_3/dir/foo.gif");
        let (seg, rest) = Request::untag(&r.uri).unwrap();
        assert_eq!(seg, "be_3");
        assert_eq!(rest, "/dir/foo.gif");
        // Untagging a plain root path yields nothing.
        assert_eq!(Request::untag("/foo.gif"), None);
        assert_eq!(Request::untag("noslash"), None);
    }

    #[test]
    fn response_ok_sets_content_length() {
        let r = Response::ok(Version::Http11, Bytes::from_static(b"hello"));
        assert_eq!(r.headers.get("Content-Length"), Some("5"));
        let wire = r.to_bytes();
        assert!(wire.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(wire.ends_with(b"\r\n\r\nhello"));
    }

    #[test]
    fn head_plus_body_is_exactly_to_bytes() {
        let r = Response::ok(Version::Http11, Bytes::from_static(b"payload"));
        let head = r.head_bytes();
        assert!(head.ends_with(b"\r\n\r\n"));
        let mut glued = head.to_vec();
        glued.extend_from_slice(&r.body);
        assert_eq!(&glued[..], &r.to_bytes()[..], "head ‖ body == wire form");
    }

    fn arb_head_len() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..70_000, 0usize..=1 << 40]
    }

    proptest! {
        /// The stack-assembled head is byte-identical to the general
        /// encoder's: built from a zero-filled body where one is cheap,
        /// and from the spelled-out `Content-Length` head (what
        /// `Response::ok` sets) for lengths no test could allocate.
        #[test]
        fn ok_head_matches_full_response_head(http11 in any::<bool>(), len in arb_head_len()) {
            let version = if http11 { Version::Http11 } else { Version::Http10 };
            let full = if len <= 1 << 16 {
                Response::ok(version, Bytes::from(vec![0u8; len])).head_bytes()
            } else {
                let mut headers = Headers::new();
                headers.set("Content-Length", len.to_string());
                Response {
                    version,
                    status: 200,
                    reason: "OK".to_owned(),
                    headers,
                    body: Bytes::new(),
                }
                .head_bytes()
            };
            prop_assert_eq!(&Response::ok_head(version, len)[..], &full[..]);
        }
    }

    #[test]
    fn error_responses() {
        let r = Response::not_found(Version::Http10);
        assert_eq!(r.status, 404);
        assert!(!r.keep_alive());
        let wire = r.to_bytes();
        assert!(wire.starts_with(b"HTTP/1.0 404 Not Found\r\n"));
    }

    #[test]
    fn version_parse() {
        assert_eq!(Version::parse("HTTP/1.1"), Some(Version::Http11));
        assert_eq!(Version::parse("HTTP/1.0"), Some(Version::Http10));
        assert_eq!(Version::parse("HTTP/2"), None);
    }
}
