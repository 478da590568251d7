//! Protocol-level tests: every malformed thing a client can throw at the
//! daemon returns a typed error — and none of it ever reaches the
//! scheduler (no job registered, no claim taken, queue idle).

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use common::*;
use serde::{json, Value};
use shift_serve::http::MAX_LINE_BYTES;
use shift_serve::Server;

fn assert_scheduler_idle(addr: std::net::SocketAddr, expected_jobs: u64) {
    let status = request(addr, "GET", "/v1/status", None);
    assert_eq!(status.status, 200);
    let doc = json::parse(&status.body).expect("status parses");
    assert_eq!(doc.get("jobs").and_then(Value::as_u64), Some(expected_jobs));
    assert_eq!(doc.get("queued").and_then(Value::as_u64), Some(0));
}

#[test]
fn bad_submissions_return_typed_errors_and_schedule_nothing() {
    let root = temp_root("protocol");
    let server = Server::start(test_config(&root), "127.0.0.1:0").expect("server starts");
    let addr = server.addr();

    // Malformed JSON body.
    let r = request(addr, "POST", "/v1/sweeps", Some("{\"cores\": 4, nope"));
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r.body), "bad_json");

    // Valid JSON, wrong shape.
    let r = request(addr, "POST", "/v1/sweeps", Some("[1, 2, 3]"));
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r.body), "bad_json");

    // Parseable plan that cannot be resolved: unknown workload.
    let mut spec = test_spec(&["No Such Workload"]);
    let r = request(addr, "POST", "/v1/sweeps", Some(&spec_body(&spec)));
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r.body), "bad_plan");

    // ...and too few cores.
    spec = test_spec(&["Tiny"]);
    spec.cores = 1;
    let r = request(addr, "POST", "/v1/sweeps", Some(&spec_body(&spec)));
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r.body), "bad_plan");

    // ...and too many: each run would size its LLC and NoC tables for them.
    spec.cores = 65;
    let r = request(addr, "POST", "/v1/sweeps", Some(&spec_body(&spec)));
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r.body), "bad_plan");
    assert!(
        r.body
            .contains("plan may simulate at most 64 cores, got 65"),
        "{}",
        r.body
    );
    assert_scheduler_idle(addr, 0);

    // Unknown endpoints and ids.
    let r = request(addr, "GET", "/v2/everything", None);
    assert_eq!(r.status, 404);
    assert_eq!(error_code(&r.body), "not_found");
    let r = request(addr, "GET", "/v1/sweeps/0123456789abcdef", None);
    assert_eq!(r.status, 404);
    let r = request(addr, "GET", "/v1/sweeps/0123456789abcdef/nonsense", None);
    assert_eq!(r.status, 404);

    // Wrong methods on real endpoints.
    let r = request(addr, "DELETE", "/v1/sweeps", None);
    assert_eq!(r.status, 405);
    assert_eq!(error_code(&r.body), "method_not_allowed");
    let r = request(addr, "POST", "/v1/status", Some("{}"));
    assert_eq!(r.status, 405);

    // Oversized body: rejected on the Content-Length declaration alone.
    let limit = server.daemon().config().max_body;
    let huge = format!(
        "POST /v1/sweeps HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        limit + 1
    );
    let r = raw_request(addr, huge.as_bytes());
    assert_eq!(r.status, 413);
    assert_eq!(error_code(&r.body), "payload_too_large");

    // Not HTTP at all.
    let r = raw_request(addr, b"EHLO mail.example.com\r\n\r\n");
    assert_eq!(r.status, 400);
    assert_eq!(error_code(&r.body), "bad_request");

    // Truncated body: the peer hangs up mid-request; the daemon just drops
    // the connection (nothing to answer) and stays healthy.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"cores\"")
            .expect("send truncated request");
        drop(stream); // disconnect before the declared 500 bytes arrive
    }

    // After all of that: zero jobs ever registered, queue empty, and the
    // daemon still answers.
    assert_scheduler_idle(addr, 0);
    assert_no_locks(&root);

    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// A client that streams a request line past the line bound, with no
/// newline, and keeps the connection open gets 400 at once: the daemon
/// stops reading at the bound instead of buffering until a newline or its
/// read timeout.
#[test]
fn an_endless_request_line_is_refused_at_the_bound() {
    use std::io::Read;
    use std::time::Duration;

    let root = temp_root("protocol-long-line");
    let server = Server::start(test_config(&root), "127.0.0.1:0").expect("server starts");
    let addr = server.addr();

    // Exactly one byte past the bound: no more than the daemon reads, so
    // closing its side leaves no unread bytes to turn into a reset.
    let mut line = b"GET /".to_vec();
    line.resize(MAX_LINE_BYTES + 1, b'a');
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.write_all(&line).expect("send the long line");
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("a response before the client's 5 s timeout");
    let response = parse_response(&raw);
    assert_eq!(response.status, 400);
    assert_eq!(error_code(&response.body), "bad_request");
    drop(stream);

    assert_scheduler_idle(addr, 0);
    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}

/// The unix-socket listener speaks the same protocol as the TCP one.
#[cfg(unix)]
#[test]
fn unix_socket_listener_answers_the_same_api() {
    use std::io::Read;

    let root = temp_root("protocol-unix");
    let socket = std::env::temp_dir().join("shift-serve-test-protocol.sock");
    let server = shift_serve::Server::start_with_unix(
        test_config(&root),
        "127.0.0.1:0",
        Some(socket.clone()),
    )
    .expect("server starts");

    let mut stream = std::os::unix::net::UnixStream::connect(&socket).expect("unix connect");
    stream
        .write_all(b"GET /v1/status HTTP/1.1\r\nHost: local\r\n\r\n")
        .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let response = parse_response(&raw);
    assert_eq!(response.status, 200);
    let doc = json::parse(&response.body).expect("status parses");
    assert_eq!(doc.get("jobs").and_then(Value::as_u64), Some(0));

    server.shutdown();
    let _ = std::fs::remove_file(&socket);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn mid_stream_disconnect_abandons_only_that_reply() {
    let root = temp_root("protocol-disconnect");
    let server = Server::start(test_config(&root), "127.0.0.1:0").expect("server starts");
    let addr = server.addr();
    let spec = test_spec(&["Tiny"]);
    let id = plan_of(&spec).matrix().fingerprint().to_string();

    // Submit on a background thread (the POST blocks until completion).
    let submit = {
        let body = spec_body(&spec);
        std::thread::spawn(move || request(addr, "POST", "/v1/sweeps", Some(&body)))
    };

    // Subscribe to the progress stream, read a couple of lines, then hang
    // up mid-stream while the sweep is still running.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "GET /v1/sweeps/{id}/events HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .expect("send");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        // Headers, then at least one NDJSON event.
        let mut seen_event = false;
        for _ in 0..64 {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            if line.starts_with('{') {
                seen_event = true;
                break;
            }
        }
        assert!(seen_event, "no event line before the disconnect");
        // reader (and its stream) dropped here: mid-stream disconnect.
    }

    // The sweep completes normally for the client that stayed.
    let response = submit.join().expect("submit thread");
    assert_eq!(response.status, 200, "body: {}", response.body);
    assert_eq!(
        summary_u64(&response.body, "executed"),
        summary_u64(&response.body, "planned")
    );

    // And the scheduler is idle with no orphaned claims: the disconnect
    // cost the daemon nothing but the one reply.
    assert_scheduler_idle(addr, 1);
    assert_no_locks(&root);

    // A late subscriber replays the full event log of the finished job.
    let events = request(addr, "GET", &format!("/v1/sweeps/{id}/events"), None);
    assert_eq!(events.status, 200);
    assert!(events.body.lines().any(|l| l.contains("\"complete\"")));

    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}
