//! One benchmark for the SHIFT reproduction.
//!
//! Four named workloads cover the three ways the repository is used — a
//! long single simulation, a whole-paper sweep, and the resident sweep
//! service — and a traced run attributes each workload's host time to the
//! layers (crates) it passes through. See `README.md` next to this crate for
//! the workloads, the metrics, how to run it and how to read the trace.
//!
//! | workload | what one unit of work is |
//! |---|---|
//! | `oltp_shift` | 16-core OLTP Oracle with virtualized SHIFT, Demo scale, 100 measured batches |
//! | `oltp_baseline` | the same trace and CMP without a prefetcher |
//! | `paper_sweep` | the whole-paper plan at Test scale, 4 cores, two workloads, executed and collected |
//! | `serve_mixed` | an in-process daemon: submit, resubmit and fetch the scoreboard of three overlapping plans |
//!
//! A run measures units back to back for `--seconds` (at least one), takes
//! set-up samples between their steps, checks every output against
//! committed digests ([`digest`]), and reports the end-to-end metrics of
//! [`metrics::END_TO_END`]. A traced run
//! (`--trace 1`) instead measures one untraced and one traced unit, replays
//! a run of the workload layer by layer ([`replay`]), and reports
//! [`metrics::PER_LAYER`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod digest;
pub mod host;
pub mod metrics;
mod oltp;
pub mod replay;
mod serve;
pub mod span;
pub mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use serde::{json, Value};

use crate::digest::Digests;
use crate::replay::ReplaySpec;
use crate::span::{Span, SpanId, Tracer};

/// Seconds a run measures unless told otherwise: `run_seconds` of
/// `BENCHMARK.json`, which the schema test keeps equal to this.
pub const DEFAULT_SECONDS: u64 = 20;

/// Share of an untraced run's time given to set-up samples. The samples are
/// taken a few at a time between the steps of the run's units, not in one
/// burst: the shared hosts this runs on alternate between fast phases and
/// phases about half as fast, each lasting 0.1–3 s, and every set-up of a
/// burst lands in the same phase, so the median of a burst moved by half
/// between runs while the median of samples spread over the run does not.
const SETUP_SHARE: f64 = 0.02;

/// Set-up samples an untraced run takes at least, however short it is.
pub const MIN_SETUPS: usize = 11;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 16-core OLTP Oracle with virtualized SHIFT.
    OltpShift,
    /// The same trace and CMP with no prefetcher.
    OltpBaseline,
    /// The whole-paper sweep, planned, executed and collected in-process.
    PaperSweep,
    /// The resident sweep service, driven by its repository client's sequence.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 4] = [
        Workload::OltpShift,
        Workload::OltpBaseline,
        Workload::PaperSweep,
        Workload::ServeMixed,
    ];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpShift => "oltp_shift",
            Workload::OltpBaseline => "oltp_baseline",
            Workload::PaperSweep => "paper_sweep",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one unit does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark is defined at.
    Full,
    /// A few percent of the work, for the smoke test.
    Smoke,
}

/// Settings of one run of one workload.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measure units back to back until this much time has passed.
    pub seconds: f64,
    /// Run the traced per-layer measurement instead of the end-to-end one.
    pub trace: bool,
    /// Unit size.
    pub size: Size,
    /// Scratch directory for outcome stores (created and removed).
    pub work_dir: PathBuf,
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Number of samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }

    /// A metric of [`metrics::END_TO_END`] or [`metrics::PER_LAYER`], with
    /// the unit the table gives it.
    fn defined(name: &'static str, value: f64, samples: usize) -> Self {
        let def = metrics::find(name).unwrap_or_else(|| panic!("undefined metric {name}"));
        Metric::new(name, value, def.unit, samples)
    }
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct RunOutput {
    /// The workload.
    pub workload: Workload,
    /// The metrics of the mode that ran, in table order.
    pub metrics: Vec<Metric>,
    /// Printed but unbounded metrics: the layer metrics only this workload
    /// exercises, and in an untraced run the median unit time.
    pub extras: Vec<Metric>,
    /// Checked operations.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Digests of every checked output.
    pub digests: Digests,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

impl RunOutput {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Map(vec![
                        ("value".to_owned(), Value::Float(m.value)),
                        ("unit".to_owned(), Value::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect();
        json::to_string(&Value::Map(vec![
            ("correct".to_owned(), Value::Bool(self.correct())),
            ("attempted".to_owned(), Value::UInt(self.attempted.max(1))),
            ("failed".to_owned(), Value::UInt(self.failures.len() as u64)),
            ("metrics".to_owned(), Value::Map(metrics)),
        ]))
    }
}

/// Samples and checks a workload accumulates over its units.
#[derive(Debug, Default)]
pub(crate) struct Record {
    series: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failures: Vec<String>,
    /// When the run started and how many seconds its set-up samples have
    /// taken, once the run loop allows set-up samples.
    setup_clock: Option<(Instant, f64)>,
}

impl Record {
    /// Between two steps of a unit: takes set-up samples (series
    /// `setup_s`) while they have used less than [`SETUP_SHARE`] of the
    /// run so far. Does nothing until the run loop starts the clock.
    pub(crate) fn set_ups(&mut self, mut set_up: impl FnMut() -> f64) {
        let Some((start, spent)) = &mut self.setup_clock else {
            return;
        };
        while *spent < SETUP_SHARE * start.elapsed().as_secs_f64() {
            let t = Instant::now();
            let s = set_up();
            *spent += t.elapsed().as_secs_f64();
            self.series.entry("setup_s").or_default().push(s);
        }
    }

    pub(crate) fn push(&mut self, series: &'static str, value: f64) {
        self.series.entry(series).or_default().push(value);
    }

    pub(crate) fn series(&self, series: &str) -> &[f64] {
        self.series.get(series).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn total(&self, series: &str) -> f64 {
        self.series(series).iter().sum()
    }

    /// Median of a series, or 0 for an empty one.
    pub(crate) fn median(&self, series: &str) -> f64 {
        let s = self.series(series);
        if s.is_empty() {
            0.0
        } else {
            stats::median(s)
        }
    }

    /// Counts one checked operation, failing it unless `ok`.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn absorb(&mut self, other: Record) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// What every workload shares with the run loop.
#[derive(Debug)]
pub(crate) struct Ctx {
    pub(crate) seed: u64,
    pub(crate) size: Size,
    /// Worker threads for every internal pool (`SHIFT_THREADS`).
    pub(crate) threads: usize,
    /// This run's scratch directory.
    pub(crate) dir: PathBuf,
}

/// One workload, as [`run`] drives it.
pub(crate) trait Bench {
    /// One set-up, as a user of the workload pays it, in seconds.
    fn set_up(&self, ctx: &Ctx) -> f64;

    /// One unit of work, recording its samples (at least `unit_s`) and
    /// checks into `rec`; returns the digests of its outputs. Between
    /// steps, outside any timed span, a unit may call [`Record::set_ups`];
    /// the run loop calls it between units.
    fn unit(
        &mut self,
        ctx: &Ctx,
        tracer: &Tracer,
        parent: Option<SpanId>,
        index: u64,
        rec: &mut Record,
    ) -> Digests;

    /// `sim.fetches_per_s` from the recorded units.
    fn sim_fetches_per_s(&self, rec: &Record) -> Metric;

    /// Layer metrics only this workload exercises; series the run did not
    /// record are dropped before printing.
    fn layers(&self, rec: &Record) -> Vec<Metric>;

    /// The run of this workload the fetch-path replay reproduces.
    fn replay_spec(&self) -> ReplaySpec;
}

/// Runs `workload` once: end-to-end metrics, or per-layer metrics when
/// `config.trace` is set.
///
/// # Errors
///
/// Propagates filesystem errors creating the scratch directory or writing
/// blessed digests.
pub fn run(workload: Workload, config: &RunConfig) -> io::Result<RunOutput> {
    let dir = config
        .work_dir
        .join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let ctx = Ctx {
        seed: config.seed,
        size: config.size,
        threads: shift_sim::matrix::default_threads(),
        dir,
    };
    let mut bench: Box<dyn Bench> = match workload {
        Workload::OltpShift => Box::new(oltp::Oltp::new(true, &ctx)),
        Workload::OltpBaseline => Box::new(oltp::Oltp::new(false, &ctx)),
        Workload::PaperSweep => Box::new(sweep::PaperSweep::new(&ctx)),
        Workload::ServeMixed => Box::new(serve::ServeMixed::new(&ctx)),
    };
    let mut out = if config.trace {
        traced(workload, bench.as_mut(), &ctx)
    } else {
        untraced(workload, bench.as_mut(), &ctx, config.seconds)
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    check_digests(&mut out, config)?;
    Ok(out)
}

fn recorded_layers(bench: &dyn Bench, rec: &Record) -> Vec<Metric> {
    bench
        .layers(rec)
        .into_iter()
        .filter(|m| m.samples > 0)
        .collect()
}

fn untraced(workload: Workload, bench: &mut dyn Bench, ctx: &Ctx, seconds: f64) -> RunOutput {
    let off = Tracer::new(false);
    let mut rec = Record::default();
    let mut digests: Option<Digests> = None;
    // Peak memory through the first unit, which takes no set-up samples:
    // later units reuse freed memory only partly, so a peak taken at the
    // end would depend on how many units the host's speed allowed.
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    let mut index = 0;
    // Units run back to back; another starts only if it would end closer
    // to `seconds` than stopping now would, and none after a failed check.
    while index == 0
        || (rec.failures.is_empty()
            && start.elapsed().as_secs_f64() + rec.median("unit_s") / 2.0 < seconds)
    {
        let unit = bench.unit(ctx, &off, None, index, &mut rec);
        match &digests {
            None => {
                digests = Some(unit);
                peak_rss_mb = host::peak_rss_mb();
                rec.setup_clock = Some((start, 0.0));
            }
            Some(first) => rec.check(unit == *first, || {
                format!("unit {index} produced different outputs than unit 0")
            }),
        }
        rec.set_ups(|| bench.set_up(ctx));
        index += 1;
    }
    while rec.series("setup_s").len() < MIN_SETUPS {
        rec.push("setup_s", bench.set_up(ctx));
    }
    let setups = rec.series("setup_s");
    let metrics = vec![
        Metric::defined("setup_s", stats::median(setups), setups.len()),
        Metric::defined("peak_rss_mb", peak_rss_mb, 1),
    ];
    let units = rec.series("unit_s").len();
    let mut extras = vec![
        bench.sim_fetches_per_s(&rec),
        Metric::new("makespan_s", rec.median("unit_s"), "s", units),
    ];
    if let Some(tail) = stats::tail_percentile(setups.len()) {
        extras.push(Metric::new(
            format!("setup_s_p{tail}"),
            stats::percentile(setups, tail),
            "s",
            setups.len(),
        ));
    }
    extras.extend(recorded_layers(bench, &rec));
    RunOutput {
        workload,
        metrics,
        extras,
        attempted: rec.attempted,
        failures: rec.failures,
        digests: digests.unwrap_or_default(),
        spans: Vec::new(),
    }
}

fn traced(workload: Workload, bench: &mut dyn Bench, ctx: &Ctx) -> RunOutput {
    let mut plain = Record::default();
    let first = bench.unit(ctx, &Tracer::new(false), None, 0, &mut plain);
    let tracer = Tracer::new(true);
    let mut rec = Record::default();
    let second = tracer.span("harness.unit", None, 1, |unit| {
        bench.unit(ctx, &tracer, unit, 1, &mut rec)
    });
    rec.check(first == second, || {
        "the traced unit produced different outputs than the untraced one".to_owned()
    });
    let replay = tracer.span("harness.replay", None, 2, |parent| {
        replay::run(&bench.replay_spec(), &tracer, parent)
    });
    rec.check(replay.mismatches.is_empty(), || {
        format!(
            "the replay's shadow engine diverged from the engine: {}",
            replay.mismatches.join(", ")
        )
    });
    let overhead = rec.median("unit_s") / plain.median("unit_s") - 1.0;
    let mut metrics = vec![bench.sim_fetches_per_s(&plain)];
    metrics.extend(
        replay
            .metrics
            .iter()
            .map(|&(name, value)| Metric::defined(name, value, 1)),
    );
    metrics.push(Metric::defined("harness.trace_overhead", overhead, 2));
    let extras = recorded_layers(bench, &rec);
    rec.absorb(plain);
    RunOutput {
        workload,
        metrics,
        extras,
        attempted: rec.attempted,
        failures: rec.failures,
        digests: second,
        spans: tracer.spans(),
    }
}

/// For the blessed seed at full size: compares every digest with the
/// committed one (each comparison one checked operation), or re-records
/// them under `SHIFT_BLESS=1`.
fn check_digests(out: &mut RunOutput, config: &RunConfig) -> io::Result<()> {
    if config.seed != digest::BLESSED_SEED || config.size != Size::Full {
        return Ok(());
    }
    let name = out.workload.name();
    if digest::bless_requested() {
        let path = digest::bless(name, &out.digests)?;
        eprintln!(
            "blessed {} digests of {name} into {}",
            out.digests.len(),
            path.display()
        );
        return Ok(());
    }
    match digest::expected(name) {
        None => out.failures.push(format!(
            "no committed digests for {name}; record them with SHIFT_BLESS=1"
        )),
        Some(expected) => {
            out.attempted += expected.len().max(out.digests.len()) as u64;
            for key in digest::mismatches(&expected, &out.digests) {
                out.failures
                    .push(format!("digest of {key} differs from the committed one"));
            }
        }
    }
    Ok(())
}

/// The artifact directory: `SHIFT_ARTIFACTS`, else `artifacts/` under
/// `CARGO_TARGET_DIR`, else `target/artifacts`.
pub fn artifact_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("SHIFT_ARTIFACTS") {
        return PathBuf::from(dir);
    }
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("artifacts")
}
