//! Shared helpers for the serve integration tests: a tiny blocking HTTP
//! client, plan builders, and wire-bundle byte-identity assertions.
//!
//! Each integration test binary compiles its own copy, so not every helper
//! is used from every binary.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

use serde::{json, Value};
use shift_bench::reproduce::{PaperPlan, PaperReport, PlanSpec};
use shift_serve::ServeConfig;
use shift_trace::Scale;
use std::time::Duration;

/// How long a client waits for a reply before the test fails, so a hung
/// daemon fails the test instead of hanging it: several times the slowest
/// reply a test waits for in a debug build.
const REPLY_TIMEOUT: Duration = Duration::from_secs(300);

/// A parsed response: status code plus the full body.
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Sends one request and reads the close-delimited response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Response {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\n");
    if let Some(body) = body {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    if let Some(body) = body {
        bytes.extend_from_slice(body.as_bytes());
    }
    raw_request(addr, &bytes)
}

/// Sends raw bytes (possibly malformed HTTP) and reads the response.
pub fn raw_request(addr: SocketAddr, bytes: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set the read timeout");
    stream.write_all(bytes).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    parse_response(&raw)
}

/// Splits a raw HTTP/1.1 response into status and body.
pub fn parse_response(raw: &str) -> Response {
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .unwrap_or_default();
    Response { status, body }
}

/// The `error.code` field of an error body.
pub fn error_code(body: &str) -> String {
    let doc = json::parse(body).expect("error body parses");
    doc.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no error code in {body}"))
        .to_owned()
}

/// A fresh scratch root for one test.
pub fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shift-serve-test-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A daemon config tuned for tests: 2 drain threads.
pub fn test_config(root: impl Into<PathBuf>) -> ServeConfig {
    let mut config = ServeConfig::new(root);
    config.threads = 2;
    config
}

/// A test-scale plan over the named catalog workloads.
pub fn test_spec(workloads: &[&str]) -> PlanSpec {
    PlanSpec {
        cores: 2,
        scale: Scale::Test,
        seed: 7,
        workloads: workloads.iter().map(|&w| w.to_owned()).collect(),
    }
}

/// The spec as a submission body.
pub fn spec_body(spec: &PlanSpec) -> String {
    json::to_string(spec)
}

/// Plans the spec locally (the single-process reference path).
pub fn plan_of(spec: &PlanSpec) -> PaperPlan {
    PaperPlan::plan(spec.resolve().expect("spec resolves"))
}

/// A summary field from a submission response.
pub fn summary_u64(body: &str, field: &str) -> u64 {
    let doc = json::parse(body).expect("summary parses");
    doc.get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no {field} in {body}"))
}

/// The `cached` flag of a submission response.
pub fn summary_cached(body: &str) -> bool {
    let doc = json::parse(body).expect("summary parses");
    match doc.get("cached") {
        Some(Value::Bool(b)) => *b,
        other => panic!("no cached flag, got {other:?}"),
    }
}

/// Asserts the served wire bundle is byte-identical to a locally computed
/// [`PaperReport`]: same artifact order, and the embedded `json` / `csv` /
/// `markdown` strings match the local renderings exactly.
pub fn assert_bundle_matches(bundle_body: &str, reference: &PaperReport) {
    let doc = json::parse(bundle_body).expect("bundle parses");
    assert_eq!(
        doc.get("scoreboard").and_then(Value::as_str),
        Some(reference.scoreboard().as_str()),
        "scoreboard differs from the single-process reference"
    );
    let served = match doc.get("artifacts") {
        Some(Value::Seq(items)) => items,
        other => panic!("no artifact list, got {other:?}"),
    };
    assert_eq!(served.len(), reference.artifacts().len());
    for (wire, local) in served.iter().zip(reference.artifacts()) {
        let name = wire.get("name").and_then(Value::as_str).unwrap_or("?");
        assert_eq!(name, local.name(), "artifact order differs");
        assert_eq!(
            wire.get("json").and_then(Value::as_str),
            Some(local.to_json().as_str()),
            "{name}: served JSON differs from local bytes"
        );
        assert_eq!(
            wire.get("csv").and_then(Value::as_str),
            Some(local.table().to_csv().as_str()),
            "{name}: served CSV differs from local bytes"
        );
        assert_eq!(
            wire.get("markdown").and_then(Value::as_str),
            Some(local.to_markdown().as_str()),
            "{name}: served markdown differs from local bytes"
        );
    }
}

/// Outcome files currently in a sweep directory (claim locks and tmp junk
/// excluded), sorted.
pub fn outcome_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with("run-") && n.ends_with(".json"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// Asserts no claim locks or reclaim/tmp debris anywhere under the root.
pub fn assert_no_locks(root: &std::path::Path) {
    let sweeps = root.join("sweeps");
    let Ok(entries) = std::fs::read_dir(&sweeps) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let Ok(files) = std::fs::read_dir(entry.path()) else {
            continue;
        };
        for file in files.filter_map(|e| e.ok()) {
            let name = file.file_name().to_string_lossy().into_owned();
            assert!(
                !name.starts_with("claim-") && !name.starts_with(".reclaim-"),
                "leftover claim debris {name} under {:?}",
                entry.path()
            );
        }
    }
}
