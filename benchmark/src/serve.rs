//! `serve_mixed`: the resident sweep service, driven the way its client in
//! this repository drives it.
//!
//! The only workload through queue claims, durable outcome writes,
//! cross-sweep reuse and HTTP with cached replies. No measurement of how
//! clients use the daemon exists, so the client session copies the one
//! client the repository has, the `serve-smoke` job of
//! `.github/workflows/ci.yml`: wait for `/v1/status`, submit a plan and wait
//! for its sweep, resubmit it (answered from the cache), fetch its
//! scoreboard. One closed-loop client runs that sequence for three
//! overlapping plans in order — {Tiny}, {Tiny, Media Streaming}, {Media
//! Streaming} — so the second reuses the first's runs and the third is
//! served entirely from the store.

use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::{json, Value};
use shift_bench::reproduce::{PaperPlan, PlanSpec};
use shift_report::wire_bundle_json;
use shift_serve::{ServeConfig, Server};
use shift_sim::{CmpConfig, PrefetcherConfig, RunStore, SimOptions};
use shift_trace::{presets, Scale};

use crate::digest::{self, Digests};
use crate::replay::ReplaySpec;
use crate::span::{SpanId, Tracer};
use crate::sweep::{outcome_digests, simulated_fetches};
use crate::{Bench, Ctx, Metric, Record, Size};

/// A client gives up on a reply after this long.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

pub(crate) struct ServeMixed {
    specs: Vec<PlanSpec>,
    replay_batches: usize,
}

struct Reply {
    status: u16,
    body: String,
}

/// One blocking request on a fresh connection; the daemon closes every
/// connection after its reply.
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    // One write for head and body, so no small segment waits on an ACK.
    let mut message = format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\n");
    if let Some(body) = body {
        message.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    } else {
        message.push_str("\r\n");
    }
    stream.write_all(message.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .unwrap_or_default();
    Ok(Reply { status, body })
}

/// The client of one unit: its requests are the session's time.
struct Client<'a> {
    addr: SocketAddr,
    tracer: &'a Tracer,
    parent: Option<SpanId>,
    index: u64,
    session_s: f64,
}

impl Client<'_> {
    /// One timed request under a span named `span`; records its time in
    /// milliseconds as series `series` and returns the body of a 200 reply.
    /// Any other outcome fails a check.
    fn call(
        &mut self,
        span: &'static str,
        series: &'static str,
        (method, path, body): (&str, &str, Option<&str>),
        rec: &mut Record,
    ) -> Option<String> {
        let start = Instant::now();
        let reply = self.tracer.span(span, self.parent, self.index, |_| {
            request(self.addr, method, path, body)
        });
        let s = start.elapsed().as_secs_f64();
        self.session_s += s;
        rec.push(series, s * 1e3);
        match reply {
            Ok(reply) if reply.status == 200 => Some(reply.body),
            Ok(reply) => {
                rec.check(false, || {
                    format!("{method} {path}: HTTP {}: {}", reply.status, reply.body)
                });
                None
            }
            Err(e) => {
                rec.check(false, || format!("{method} {path}: {e}"));
                None
            }
        }
    }
}

fn start_server(ctx: &Ctx, root: &Path) -> io::Result<Server> {
    let mut config = ServeConfig::new(root);
    config.threads = ctx.threads;
    Server::start(config, "127.0.0.1:0")
}

impl ServeMixed {
    pub(crate) fn new(ctx: &Ctx) -> Self {
        let spec = |workloads: &[&str]| PlanSpec {
            cores: 2,
            scale: Scale::Test,
            seed: ctx.seed,
            workloads: workloads.iter().map(|&w| w.to_owned()).collect(),
        };
        match ctx.size {
            Size::Full => ServeMixed {
                specs: vec![
                    spec(&["Tiny"]),
                    spec(&["Tiny", "Media Streaming"]),
                    spec(&["Media Streaming"]),
                ],
                replay_batches: 8,
            },
            Size::Smoke => ServeMixed {
                specs: vec![spec(&["Tiny"])],
                replay_batches: 2,
            },
        }
    }

    /// Re-derives every served plan locally from the daemon's outcome
    /// store: each planned run must be in the store, and the bundle and
    /// scoreboard collected from it are the reference the served bytes
    /// are checked against. Returns `(bundle, scoreboard)` digests per plan
    /// and the fetches the distinct runs simulate.
    fn verify(
        &self,
        dirs: &[PathBuf],
        executed: usize,
        tracer: &Tracer,
        parent: Option<SpanId>,
        index: u64,
        rec: &mut Record,
    ) -> (Vec<(String, String)>, f64) {
        let mut distinct = BTreeSet::new();
        let mut fetches = 0.0;
        let mut references = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            let settings = match spec.resolve() {
                Ok(settings) => settings,
                Err(e) => {
                    rec.check(false, || format!("plan {i} does not resolve: {e}"));
                    references.push(Default::default());
                    continue;
                }
            };
            let t = Instant::now();
            let plan = tracer.span("bench.plan", parent, index, |_| PaperPlan::plan(settings));
            rec.push("plan_ms", t.elapsed().as_secs_f64() * 1e3);
            let matrix = plan.matrix();
            for (key, id) in matrix.keys().iter().zip(matrix.key_ids()) {
                if distinct.insert(*id) {
                    fetches += simulated_fetches(key);
                }
            }

            let t = Instant::now();
            let probe = tracer.span("sim.store_probe", parent, index, |_| {
                RunStore::new(dirs).load_partial(plan.matrix())
            });
            rec.push("store_probe_ms", t.elapsed().as_secs_f64() * 1e3);
            rec.check(
                probe.as_ref().is_ok_and(|p| p.reused == plan.run_count()),
                || format!("plan {i}: the store does not hold every planned run"),
            );
            let t = Instant::now();
            let outcomes = tracer.span("sim.store_load", parent, index, |_| {
                RunStore::new([&dirs[i]]).load(plan.matrix())
            });
            rec.push("store_load_ms", t.elapsed().as_secs_f64() * 1e3);
            let outcomes = match outcomes {
                Ok(outcomes) => outcomes,
                Err(e) => {
                    rec.check(false, || format!("plan {i}: loading its sweep failed: {e}"));
                    references.push(Default::default());
                    continue;
                }
            };
            let t = Instant::now();
            let report = tracer.span("bench.collect", parent, index, |_| plan.collect(&outcomes));
            rec.push("collect_ms", t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let bundle = tracer.span("report.bundle", parent, index, |_| {
                wire_bundle_json(report.artifacts())
            });
            rec.push("bundle_ms", t.elapsed().as_secs_f64() * 1e3);
            references.push((
                digest::of_bytes(bundle.as_bytes()),
                digest::of_bytes(report.scoreboard().as_bytes()),
            ));
        }
        rec.check(executed == distinct.len(), || {
            format!(
                "{executed} runs executed for {} distinct planned runs",
                distinct.len()
            )
        });
        (references, fetches)
    }
}

impl Bench for ServeMixed {
    fn set_up(&self, ctx: &Ctx) -> f64 {
        let root = ctx.dir.join("setup");
        let _ = std::fs::remove_dir_all(&root);
        let start = Instant::now();
        let server = start_server(ctx, &root).expect("the daemon starts on a local port");
        while !request(server.addr(), "GET", "/v1/status", None).is_ok_and(|r| r.status == 200) {
            assert!(
                start.elapsed() < REPLY_TIMEOUT,
                "the daemon never answered /v1/status"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = start.elapsed().as_secs_f64();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
        s
    }

    /// Takes no set-up samples between its plans: there the session's
    /// daemon is still winding down a sweep, and set-ups ran up to 2.5 times
    /// slower than between units, by an amount that varied from run to run.
    fn unit(
        &mut self,
        ctx: &Ctx,
        tracer: &Tracer,
        parent: Option<SpanId>,
        index: u64,
        rec: &mut Record,
    ) -> Digests {
        let root = ctx.dir.join(format!("serve-{index}"));
        let _ = std::fs::remove_dir_all(&root);
        let mut digests = Digests::new();
        let server = match start_server(ctx, &root) {
            Ok(server) => server,
            Err(e) => {
                rec.check(false, || format!("the daemon did not start: {e}"));
                return digests;
            }
        };
        let mut client = Client {
            addr: server.addr(),
            tracer,
            parent,
            index,
            session_s: 0.0,
        };

        let mut ids = Vec::new();
        let mut served_boards = Vec::new();
        let (mut executed, mut reused) = (0usize, 0usize);
        for (i, spec) in self.specs.iter().enumerate() {
            let body = json::to_string(spec);
            let submit = ("POST", "/v1/sweeps", Some(body.as_str()));
            let Some(cold) = client.call("serve.submit", "submit_ms", submit, rec) else {
                break;
            };
            let doc = json::parse(&cold).unwrap_or(Value::Null);
            let get = |f: &str| doc.get(f).and_then(Value::as_u64).unwrap_or(0) as usize;
            let (planned, ran, hit) = (get("planned"), get("executed"), get("reused"));
            rec.check(
                doc.get("cached") == Some(&Value::Bool(false)) && ran + hit == planned,
                || format!("plan {i}: unexpected cold summary {cold}"),
            );
            executed += ran;
            reused += hit;
            digests.insert(format!("plan{i}/executed_reused"), format!("{ran}/{hit}"));
            let id = doc
                .get("id")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned();

            if let Some(again) = client.call("serve.resubmit", "resubmit_ms", submit, rec) {
                let doc = json::parse(&again).unwrap_or(Value::Null);
                rec.check(
                    doc.get("cached") == Some(&Value::Bool(true))
                        && doc.get("id").and_then(Value::as_str) == Some(id.as_str()),
                    || format!("plan {i}: the resubmission was not answered from the cache"),
                );
            }
            let path = format!("/v1/sweeps/{id}/scoreboard");
            let board = client.call(
                "serve.scoreboard",
                "scoreboard_ms",
                ("GET", &path, None),
                rec,
            );
            served_boards.push(board.map(|b| digest::of_bytes(b.as_bytes())));
            ids.push(id);
        }
        let session_s = client.session_s;
        server.shutdown();
        if ids.len() != self.specs.len() {
            return digests;
        }
        rec.push("unit_s", session_s);

        let dirs: Vec<PathBuf> = ids.iter().map(|id| root.join("sweeps").join(id)).collect();
        let (references, fetches) = self.verify(&dirs, executed, tracer, parent, index, rec);
        for (i, ((bundle, board), served)) in references.iter().zip(&served_boards).enumerate() {
            if let Some(served) = served {
                rec.check(served == board, || {
                    format!("plan {i}: the served scoreboard differs from the stored sweep's")
                });
            }
            digests.insert(format!("plan{i}/bundle"), bundle.clone());
            digests.insert(format!("plan{i}/scoreboard"), board.clone());
        }
        for dir in &dirs {
            outcome_digests(dir, rec, &mut digests);
        }
        let _ = std::fs::remove_dir_all(&root);
        rec.push("fetches_per_s", fetches / session_s);
        rec.push("runs_executed", executed as f64);
        rec.push("runs_reused", reused as f64);
        digests
    }

    fn sim_fetches_per_s(&self, rec: &Record) -> Metric {
        Metric::defined(
            "sim.fetches_per_s",
            rec.median("fetches_per_s"),
            rec.series("fetches_per_s").len(),
        )
    }

    fn layers(&self, rec: &Record) -> Vec<Metric> {
        let m = |name: &str, series: &str, unit| {
            Metric::new(name, rec.median(series), unit, rec.series(series).len())
        };
        vec![
            m("serve.submit_ms_p50", "submit_ms", "ms"),
            m("serve.resubmit_ms_p50", "resubmit_ms", "ms"),
            m("serve.scoreboard_ms_p50", "scoreboard_ms", "ms"),
            m("serve.runs_executed", "runs_executed", "count"),
            m("serve.runs_reused", "runs_reused", "count"),
            m("sim.store_probe_ms", "store_probe_ms", "ms"),
            m("sim.store_load_ms", "store_load_ms", "ms"),
            m("bench.plan_ms", "plan_ms", "ms"),
            m("bench.collect_ms", "collect_ms", "ms"),
            m("report.bundle_ms", "bundle_ms", "ms"),
        ]
    }

    fn replay_spec(&self) -> ReplaySpec {
        // The session's SHIFT run of Media Streaming.
        let spec = &self.specs[self.specs.len() - 1];
        let scale = spec.scale;
        let workload = if spec.workloads.iter().any(|w| w == "Media Streaming") {
            presets::media_streaming()
        } else {
            presets::tiny()
        };
        ReplaySpec {
            config: CmpConfig::micro13(spec.cores, PrefetcherConfig::shift_virtualized()),
            workload,
            options: SimOptions::new(scale, spec.seed),
            warmup_rounds: scale.warmup_fetches_per_core(),
            batches: self.replay_batches,
            batch_rounds: 2_500,
        }
    }
}
