//! Property-based tests: encode/parse round-trips under arbitrary
//! fragmentation — the invariant the prototype's socket loops rely on —
//! and the borrowing request parse against the owned one.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

use phttp_http::{ParseError, Request, RequestParser, Response, ResponseParser, Version};

fn arb_uri() -> impl Strategy<Value = String> {
    proptest::string::string_regex("/[a-z0-9_./-]{0,40}").unwrap()
}

fn arb_version() -> impl Strategy<Value = Version> {
    prop_oneof![Just(Version::Http10), Just(Version::Http11)]
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        arb_uri(),
        arb_version(),
        proptest::collection::vec(("[A-Za-z-]{1,12}", "[ -~&&[^:]]{0,24}"), 0..5),
    )
        .prop_map(|(uri, version, headers)| {
            let mut r = Request::get(uri, version);
            for (k, v) in headers {
                r.headers.push(k, v.trim().to_owned());
            }
            r
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        arb_version(),
        proptest::collection::vec(any::<u8>(), 0..2048),
    )
        .prop_map(|(version, body)| Response::ok(version, Bytes::from(body)))
}

proptest! {
    /// Any encoded request parses back to itself, regardless of how the
    /// bytes are fragmented on the wire.
    #[test]
    fn request_roundtrip_under_fragmentation(req in arb_request(), cuts in proptest::collection::vec(1usize..64, 0..8)) {
        let wire = req.to_bytes();
        let mut p = RequestParser::new();
        let mut offset = 0;
        for cut in cuts {
            let end = (offset + cut).min(wire.len());
            p.feed(&wire[offset..end]);
            offset = end;
        }
        p.feed(&wire[offset..]);
        let parsed = p.next().unwrap().expect("complete request must parse");
        prop_assert_eq!(parsed.method, req.method);
        prop_assert_eq!(parsed.uri, req.uri);
        prop_assert_eq!(parsed.version, req.version);
        // Compare the ordered header lists: per-name lookup is ambiguous
        // when the generator produces duplicate header names.
        let got: Vec<(&str, &str)> = parsed.headers.iter().collect();
        let want: Vec<(&str, &str)> = req.headers.iter().collect();
        prop_assert_eq!(got, want);
        prop_assert!(p.next().unwrap().is_none());
        prop_assert_eq!(p.buffered(), 0);
    }

    /// Pipelines of requests come back in order and complete.
    #[test]
    fn pipelined_requests_roundtrip(reqs in proptest::collection::vec(arb_request(), 1..8)) {
        let mut wire = BytesMut::new();
        for r in &reqs {
            r.encode(&mut wire);
        }
        let mut p = RequestParser::new();
        p.feed(&wire);
        let mut parsed = Vec::new();
        while let Some(r) = p.next().unwrap() {
            parsed.push(r);
        }
        prop_assert_eq!(parsed.len(), reqs.len());
        for (a, b) in parsed.iter().zip(&reqs) {
            prop_assert_eq!(&a.uri, &b.uri);
        }
    }

    /// Responses round-trip including arbitrary binary bodies.
    #[test]
    fn response_roundtrip(resp in arb_response(), split in 0usize..64) {
        let wire = resp.to_bytes();
        let cut = split.min(wire.len());
        let mut p = ResponseParser::new();
        p.feed(&wire[..cut]);
        p.feed(&wire[cut..]);
        let parsed = p.next().unwrap().expect("complete response must parse");
        prop_assert_eq!(parsed, resp);
    }

    /// Tag then untag recovers the original URI for any path-shaped input.
    #[test]
    fn tag_untag_inverse(uri in arb_uri(), node in 0usize..16) {
        prop_assume!(uri.starts_with('/'));
        let mut r = Request::get(uri.clone(), Version::Http11);
        let seg = format!("be_{node}");
        r.tag(&seg);
        let (parsed_seg, rest) = Request::untag(&r.uri).expect("tagged uri must untag");
        prop_assert_eq!(parsed_seg, seg.as_str());
        prop_assert_eq!(rest, uri.as_str());
    }

    /// The parser never panics on arbitrary garbage — it errors or waits.
    #[test]
    fn parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut p = RequestParser::new();
        p.feed(&data);
        let _ = p.next();
        let mut rp = ResponseParser::new();
        rp.feed(&data);
        let _ = rp.next();
    }
}

/// One request's wire bytes from a soup of valid and malformed pieces:
/// bad methods, versions and extra tokens, headers without a colon,
/// non-digit and oversized lengths, `Connection` in either case, and a
/// body exactly when the first `Content-Length` asks for one.
fn arb_wire_request() -> impl Strategy<Value = Vec<u8>> {
    (
        prop_oneof![Just("GET"), Just("POST"), Just("")],
        arb_uri(),
        prop_oneof![
            Just(" HTTP/1.1"),
            Just(" HTTP/1.0"),
            Just(""),
            Just(" HTTP/9.9"),
            Just(" HTTP/1.1 extra"),
        ],
        proptest::collection::vec(
            prop_oneof![
                Just("Host: h"),
                Just("Connection: close"),
                Just("connection:  Keep-Alive "),
                Just("Content-Length: 3"),
                Just("Content-Length: +5"),
                Just("Content-Length: 99999999999"),
                Just("NoColonHere"),
            ],
            0..4,
        ),
    )
        .prop_map(|(method, uri, version, headers)| {
            let mut wire = format!("{method} {uri}{version}\r\n");
            for h in &headers {
                wire.push_str(h);
                wire.push_str("\r\n");
            }
            wire.push_str("\r\n");
            let mut wire = wire.into_bytes();
            let first_length = headers.iter().find(|h| h.starts_with("Content-Length"));
            if first_length == Some(&"Content-Length: 3") {
                wire.extend_from_slice(b"abc");
            }
            wire
        })
}

/// What one parse step produced, in the fields both forms expose.
#[derive(Debug, PartialEq)]
enum Step {
    Request {
        method: String,
        uri: String,
        version: Version,
        keep_alive: bool,
        body_len: usize,
    },
    Error(ParseError),
}

/// Feeds `wire` in the fragments `cuts` describes and records every
/// step `parse` takes, stopping at the first error (the parser keeps
/// returning it; nothing is consumed).
fn steps(
    wire: &[u8],
    cuts: &[usize],
    mut parse: impl FnMut(&mut RequestParser) -> Result<Option<Step>, ParseError>,
) -> Vec<Step> {
    let mut p = RequestParser::new();
    let mut out = Vec::new();
    let mut offset = 0;
    for end in cuts.iter().map(|&c| c.min(wire.len())).chain([wire.len()]) {
        p.feed(&wire[offset..end.max(offset)]);
        offset = end.max(offset);
        loop {
            match parse(&mut p) {
                Ok(Some(step)) => out.push(step),
                Ok(None) => break,
                Err(e) => {
                    out.push(Step::Error(e));
                    return out;
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The borrowed head view and `next()` come from one validator: on
    /// pipelines of valid and malformed requests, with bytes
    /// overwritten and the wire re-fragmented, both yield the same
    /// requests and the same `ParseError` at the same point.
    #[test]
    fn borrowed_view_and_next_agree(
        reqs in proptest::collection::vec(arb_wire_request(), 1..5),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..3),
        cuts in proptest::collection::vec(0usize..200, 0..8),
    ) {
        let mut wire: Vec<u8> = reqs.concat();
        for (at, byte) in flips {
            let n = wire.len();
            wire[at % n] = byte;
        }
        let mut cuts = cuts;
        cuts.sort_unstable();
        let owned = steps(&wire, &cuts, |p| {
            Ok(p.next()?.map(|r| Step::Request {
                keep_alive: r.keep_alive(),
                body_len: r.body.len(),
                method: r.method,
                uri: r.uri,
                version: r.version,
            }))
        });
        let borrowed = steps(&wire, &cuts, |p| {
            p.next_with(|h| Step::Request {
                method: h.method.to_owned(),
                uri: h.uri.to_owned(),
                version: h.version,
                keep_alive: h.keep_alive,
                body_len: h.body_len(),
            })
        });
        prop_assert_eq!(owned, borrowed);
    }
}
