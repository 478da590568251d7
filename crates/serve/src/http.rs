//! A hand-rolled, deliberately minimal HTTP/1.1 layer.
//!
//! The build environment has no crate registry, so — in the `compat/` shim
//! spirit — this module implements exactly the protocol subset the daemon
//! needs and documents the contract:
//!
//! * one request per connection, answered with `Connection: close`;
//! * the request line and each header line hold at most
//!   [`MAX_LINE_BYTES`] (8 KiB, line ending included), and a request carries
//!   at most [`MAX_HEADERS`] (100) headers; a longer line or more headers is
//!   `malformed`, so no client can make the reader buffer more than that;
//! * request bodies are `Content-Length`-delimited (no chunked encoding);
//! * response bodies are either `Content-Length`-delimited or, for the
//!   progress stream, delimited by connection close (legal in HTTP/1.1 for
//!   responses, and what lets the daemon stream NDJSON lines of unknown
//!   total length).
//!
//! Keeping the parser tiny is also what makes the protocol-level tests
//! meaningful: every error path (`malformed`, `truncated`, `oversized`) is
//! a few lines away from the test that exercises it.

use std::fmt;
use std::io::{self, BufRead, Read, Write};

/// The longest request line or header line the reader accepts, its line
/// ending included. A longer line is [`HttpError::Malformed`] after at most
/// one byte more has been read.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// The most header lines a request may carry; one more is
/// [`HttpError::Malformed`].
pub const MAX_HEADERS: usize = 100;

/// One parsed request: method, target path (query string split off), and
/// the raw body bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// The path component of the request target (no query string).
    pub path: String,
    /// The raw body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

/// Why a request could not be read off the wire.
#[derive(Debug)]
pub enum HttpError {
    /// The request line or a header was not parseable HTTP/1.1.
    Malformed(String),
    /// The declared `Content-Length` exceeds the server's limit.
    TooLarge {
        /// The declared body length.
        declared: usize,
        /// The server's limit.
        limit: usize,
    },
    /// The peer disconnected (or timed out) before the full request
    /// arrived — e.g. a truncated body. There is nobody left to answer, so
    /// handlers drop the connection without a response.
    Disconnected,
    /// A transport-level read error other than a clean disconnect.
    Io(io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::TooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::Disconnected => write!(f, "peer disconnected mid-request"),
            HttpError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Reads one line of at most [`MAX_LINE_BYTES`], reading at most one byte
/// past the bound, and strips its line ending.
fn read_line(reader: &mut dyn BufRead) -> Result<String, HttpError> {
    let mut bytes = Vec::new();
    match reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut bytes)
    {
        Ok(0) => Err(HttpError::Disconnected),
        Ok(n) if n > MAX_LINE_BYTES => Err(HttpError::Malformed(format!(
            "line longer than {MAX_LINE_BYTES} bytes"
        ))),
        Ok(_) => {
            let mut line = String::from_utf8(bytes)
                .map_err(|_| HttpError::Malformed("request is not UTF-8".to_owned()))?;
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            Ok(line)
        }
        Err(e)
            if e.kind() == io::ErrorKind::UnexpectedEof
                || e.kind() == io::ErrorKind::ConnectionReset =>
        {
            Err(HttpError::Disconnected)
        }
        Err(e) => Err(HttpError::Io(e)),
    }
}

/// Reads one request off `reader`, enforcing `max_body` against the
/// declared `Content-Length` *before* reading the body (an oversized
/// declaration is rejected without buffering a byte of it).
///
/// # Errors
///
/// [`HttpError::Malformed`] for an unparseable request line or header, a
/// line longer than [`MAX_LINE_BYTES`] or more than [`MAX_HEADERS`] headers,
/// [`HttpError::TooLarge`] for an over-limit body declaration,
/// [`HttpError::Disconnected`] when the peer hangs up mid-request (the
/// truncated-body case), and [`HttpError::Io`] for other transport errors.
pub fn read_request(reader: &mut dyn BufRead, max_body: usize) -> Result<Request, HttpError> {
    let request_line = read_line(reader)?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version {version:?}")));
    }

    let mut content_length = 0usize;
    for headers in 0.. {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if headers == MAX_HEADERS {
            return Err(HttpError::Malformed(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header {line:?}")));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length {value:?}")))?;
        }
    }
    if content_length > max_body {
        return Err(HttpError::TooLarge {
            declared: content_length,
            limit: max_body,
        });
    }

    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        match reader.read_exact(&mut body) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(HttpError::Disconnected)
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }

    let path = target.split(['?', '#']).next().unwrap_or("").to_owned();
    Ok(Request {
        method: method.to_owned(),
        path,
        body,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete `Content-Length`-delimited response and flushes.
///
/// # Errors
///
/// Propagates transport write errors (a disconnected peer surfaces here;
/// handlers treat that as the client abandoning the request).
pub fn write_response(
    writer: &mut dyn Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    writer.write_all(body)?;
    writer.flush()
}

/// Writes the head of a close-delimited streaming response (no
/// `Content-Length`); the caller then writes body chunks directly and the
/// body ends when the connection closes.
///
/// # Errors
///
/// Propagates transport write errors.
pub fn write_streaming_head(
    writer: &mut dyn Write,
    status: u16,
    content_type: &str,
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n",
        reason(status),
    )?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::io::BufReader;

    fn parse(bytes: &[u8], max_body: usize) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(bytes), max_body)
    }

    #[test]
    fn parses_a_post_with_body_and_strips_the_query_string() {
        let req = parse(
            b"POST /v1/sweeps?wait=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
            64,
        )
        .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sweeps");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn get_without_content_length_has_an_empty_body() {
        let req = parse(b"GET /v1/status HTTP/1.1\r\n\r\n", 64).expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, b"");
    }

    #[test]
    fn rejects_garbage_and_bad_headers_as_malformed() {
        assert!(matches!(
            parse(b"not http at all\r\n\r\n", 64),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n", 64),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n", 64),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x SPDY/9\r\n\r\n", 64),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_declarations_before_reading_the_body() {
        // The body bytes are absent entirely: the limit check must fire on
        // the declaration alone.
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 64).unwrap_err();
        match err {
            HttpError::TooLarge { declared, limit } => {
                assert_eq!(declared, 999);
                assert_eq!(limit, 64);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_a_disconnect() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 64).unwrap_err();
        assert!(matches!(err, HttpError::Disconnected));
        // As is a peer that hangs up before sending anything.
        assert!(matches!(parse(b"", 64), Err(HttpError::Disconnected)));
    }

    #[test]
    fn a_line_of_exactly_the_bound_parses() {
        // A request line and a header line of exactly the bound, each with
        // its `\r\n`.
        let mut wire = b"GET /".to_vec();
        wire.resize(MAX_LINE_BYTES - " HTTP/1.1\r\n".len(), b'a');
        wire.extend_from_slice(b" HTTP/1.1\r\nX-Pad: ");
        wire.resize(2 * MAX_LINE_BYTES - 2, b'b');
        wire.extend_from_slice(b"\r\n\r\n");
        let req = parse(&wire, 64).expect("lines of exactly the bound");
        assert_eq!(req.path.len(), MAX_LINE_BYTES - "GET  HTTP/1.1\r\n".len());
    }

    #[test]
    fn a_longer_line_is_malformed_without_reading_past_the_bound() {
        // One byte over the bound and no newline: the reader must give up
        // rather than wait for one, having read at most that one byte more.
        let mut wire = b"GET /".to_vec();
        wire.resize(MAX_LINE_BYTES + 1, b'a');
        wire.extend_from_slice(&[b'a'; 4096]);
        let mut cursor = io::Cursor::new(&wire[..]);
        let err = read_request(&mut cursor, 64).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err:?}");
        assert!(cursor.position() <= MAX_LINE_BYTES as u64 + 1);
        // A header line over the bound is refused the same way.
        let mut wire = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        wire.resize(wire.len() + MAX_LINE_BYTES, b'b');
        assert!(matches!(parse(&wire, 64), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn more_than_the_header_bound_is_malformed() {
        let headers = |n: usize| {
            let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
            for i in 0..n {
                wire.extend_from_slice(format!("X-{i}: v\r\n").as_bytes());
            }
            wire.extend_from_slice(b"\r\n");
            wire
        };
        assert!(parse(&headers(MAX_HEADERS), 64).is_ok());
        assert!(matches!(
            parse(&headers(MAX_HEADERS + 1), 64),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn response_writer_emits_content_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut head = Vec::new();
        write_streaming_head(&mut head, 200, "application/x-ndjson").unwrap();
        let head = String::from_utf8(head).unwrap();
        assert!(
            !head.contains("Content-Length"),
            "stream is close-delimited"
        );
    }

    /// The body limit the reader properties run with: small, so that
    /// random declarations land on both sides of it.
    const MAX_BODY: usize = 64;

    /// Pieces of requests and of broken ones.
    const TOKENS: &[&str] = &[
        "GET",
        "POST",
        " ",
        "/",
        "/v1/sweeps",
        "?",
        "#",
        "=",
        "HTTP/1.1",
        "HTTP/1.0",
        "HTTP/2",
        "\r\n",
        "\n",
        "\r",
        ":",
        "Content-Length",
        "content-length",
        "Host",
        "0",
        "4",
        "64",
        "65",
        "-1",
        "18446744073709551615",
        "18446744073709551616",
        "{}",
        "é",
    ];

    /// Up to 40 tokens or raw bytes, a quarter of them raw.
    fn arbitrary_bytes(rng: &mut SmallRng) -> Vec<u8> {
        let mut bytes = Vec::new();
        for _ in 0..rng.gen_range(0..40usize) {
            if rng.gen_range(0..4u8) == 0 {
                bytes.push(rng.next_u64() as u8);
            } else {
                bytes.extend_from_slice(TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes());
            }
        }
        bytes
    }

    /// `bytes` with one to five bytes replaced, deleted or inserted, or the
    /// rest cut off.
    fn mutate(mut bytes: Vec<u8>, rng: &mut SmallRng) -> Vec<u8> {
        const STRUCTURE: &[u8] = b" \r\n:?#/0-9";
        for _ in 0..rng.gen_range(1..=5u8) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0..8u8) {
                0..=2 if at < bytes.len() => bytes[at] = rng.next_u64() as u8,
                3 | 4 if at < bytes.len() => {
                    bytes.remove(at);
                }
                7 => bytes.truncate(at),
                _ => bytes.insert(at, STRUCTURE[rng.gen_range(0..STRUCTURE.len())]),
            }
        }
        bytes
    }

    /// Up to `max` characters drawn from `chars`.
    fn random_text(rng: &mut SmallRng, chars: &[char], max: usize) -> String {
        (0..rng.gen_range(0..=max))
            .map(|_| chars[rng.gen_range(0..chars.len())])
            .collect()
    }

    /// A valid request: its method, path and body, and its bytes on the
    /// wire with a query or fragment, other headers, either line ending and
    /// any spelling of `Content-Length`.
    fn valid_request(rng: &mut SmallRng) -> (Request, Vec<u8>) {
        const METHODS: &[&str] = &["GET", "POST", "PUT", "DELETE", "HEAD", "PATCH"];
        const PATH: &[char] = &['a', 'Z', '0', '/', '.', '-', '_', '%', 'é', '€'];
        const VALUE: &[char] = &['a', '0', ' ', ':', '/', ';', '=', '"', 'é'];
        let method = METHODS[rng.gen_range(0..METHODS.len())].to_owned();
        let path = format!("/{}", random_text(rng, PATH, 16));
        let body: Vec<u8> = (0..rng.gen_range(0..=MAX_BODY))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let eol = if rng.gen_bool(0.5) { "\r\n" } else { "\n" };
        let suffix = match rng.gen_range(0..3u8) {
            0 => String::new(),
            1 => format!("?{}", random_text(rng, VALUE, 8).replace(' ', "+")),
            _ => format!("#{}", random_text(rng, PATH, 8)),
        };
        let version = ["HTTP/1.1", "HTTP/1.0"][rng.gen_range(0..2usize)];
        let mut wire = format!("{method} {path}{suffix} {version}{eol}");
        let length_name =
            ["Content-Length", "content-length", "CONTENT-LENGTH"][rng.gen_range(0..3usize)];
        let length_at = rng.gen_range(0..4usize);
        for i in 0..4 {
            if i == length_at && (!body.is_empty() || rng.gen_bool(0.5)) {
                wire.push_str(&format!("{length_name}: {}  {eol}", body.len()));
            } else if rng.gen_bool(0.5) {
                let value = random_text(rng, VALUE, 12);
                wire.push_str(&format!("X-Header-{i}:{value}{eol}"));
            }
        }
        wire.push_str(eol);
        let mut wire = wire.into_bytes();
        wire.extend_from_slice(&body);
        let request = Request { method, path, body };
        (request, wire)
    }

    /// Reads `bytes` as a request: a request within the body limit or a
    /// typed error, never a panic. An in-memory reader has no transport, so
    /// an I/O error would be a misread.
    fn assert_reads_cleanly(bytes: &[u8]) {
        match parse(bytes, MAX_BODY) {
            Ok(request) => {
                assert!(request.body.len() <= MAX_BODY);
                assert!(!request.method.is_empty());
                assert!(!request.path.contains(['?', '#']), "{:?}", request.path);
            }
            Err(HttpError::Io(e)) => panic!("transport error from memory: {e}"),
            Err(e) => assert!(!e.to_string().is_empty()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        #[test]
        fn arbitrary_bytes_read_as_a_request_or_a_typed_error(seed in 0..u64::MAX) {
            assert_reads_cleanly(&arbitrary_bytes(&mut SmallRng::seed_from_u64(seed)));
        }

        #[test]
        fn mutated_requests_read_as_a_request_or_a_typed_error(seed in 0..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (_, wire) = valid_request(&mut rng);
            assert_reads_cleanly(&mutate(wire, &mut rng));
        }

        #[test]
        fn valid_requests_read_back_as_written(seed in 0..u64::MAX) {
            let (request, wire) = valid_request(&mut SmallRng::seed_from_u64(seed));
            prop_assert_eq!(parse(&wire, MAX_BODY).expect("a valid request"), request);
        }
    }
}
