//! `paper_sweep`: the whole-paper plan executed and collected in-process.
//!
//! The engine runs many short runs across every prefetcher configuration
//! the paper and the hybrid lab compare (PIF, next-line, SHIFT, hybrids,
//! throttled and consolidated designs), each paying its own engine set-up.
//! A change that speeds up SHIFT but slows PIF or a hybrid shows here.
//!
//! The matrix executes on the repository's worker pool with outcomes
//! persisted to a scratch directory (`Execution::dir`), because the
//! persisted outcome files are the only public view of each run's result
//! keyed by its `RunKeyId`, which the output check digests.

use std::path::Path;
use std::time::Instant;

use shift_bench::reproduce::{PaperPlan, ReproduceSettings};
use shift_report::{wire_bundle_json, Verdict};
use shift_sim::store::read_outcome;
use shift_sim::{CmpConfig, Execution, PrefetcherConfig, RunKey, SimOptions};
use shift_trace::{presets, Scale};

use crate::digest::{self, Digests};
use crate::replay::ReplaySpec;
use crate::span::{SpanId, Tracer};
use crate::{Bench, Ctx, Metric, Record, Size};

pub(crate) struct PaperSweep {
    settings: ReproduceSettings,
    replay_batches: usize,
    batch_rounds: usize,
}

impl PaperSweep {
    pub(crate) fn new(ctx: &Ctx) -> Self {
        let (settings, replay_batches, batch_rounds) = match ctx.size {
            Size::Full => (
                ReproduceSettings::new(
                    4,
                    Scale::Test,
                    ctx.seed,
                    vec![presets::web_frontend(), presets::media_streaming()],
                ),
                8,
                2_500,
            ),
            Size::Smoke => (
                ReproduceSettings::new(2, Scale::Test, ctx.seed, vec![presets::tiny()]),
                2,
                1_000,
            ),
        };
        PaperSweep {
            settings,
            replay_batches,
            batch_rounds,
        }
    }
}

/// Fetches one planned run simulates, warm-up included.
pub(crate) fn simulated_fetches(key: &RunKey) -> f64 {
    let scale = key.options().scale;
    ((scale.warmup_fetches_per_core() + scale.fetches_per_core()) * key.config().cores as usize)
        as f64
}

/// Digests of every outcome file in `dir`, keyed `run/<RunKeyId>`; a file
/// that does not parse fails a check.
pub(crate) fn outcome_digests(dir: &Path, rec: &mut Record, digests: &mut Digests) -> usize {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("run-") && n.ends_with(".json"))
                })
                .collect()
        })
        .unwrap_or_default();
    paths.sort();
    for path in &paths {
        match read_outcome(path) {
            Ok(record) => {
                let key = format!("run/{}", record.key_id);
                let value = digest::of_json(&record.result);
                if let Some(previous) = digests.insert(key.clone(), value.clone()) {
                    rec.check(previous == value, || {
                        format!("{key} differs between sweeps")
                    });
                }
            }
            Err(e) => rec.check(false, || format!("outcome {}: {e}", path.display())),
        }
    }
    paths.len()
}

impl Bench for PaperSweep {
    fn set_up(&self, _ctx: &Ctx) -> f64 {
        let start = Instant::now();
        let plan = PaperPlan::plan(self.settings.clone());
        let s = start.elapsed().as_secs_f64();
        drop(plan);
        s
    }

    fn unit(
        &mut self,
        ctx: &Ctx,
        tracer: &Tracer,
        parent: Option<SpanId>,
        index: u64,
        rec: &mut Record,
    ) -> Digests {
        let dir = ctx.dir.join(format!("sweep-{index}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut digests = Digests::new();

        let start = Instant::now();
        let plan = tracer.span("bench.plan", parent, index, |_| {
            PaperPlan::plan(self.settings.clone())
        });
        let plan_s = start.elapsed().as_secs_f64();
        let planned = plan.run_count();
        let fetches: f64 = plan.matrix().keys().iter().map(simulated_fetches).sum();
        rec.push("runs_planned", planned as f64);
        rec.push("runs_saved_by_dedup", plan.saved_by_dedup() as f64);

        let execute = Instant::now();
        let output = tracer.span("sim.execute", parent, index, |_| {
            Execution::new(plan.matrix())
                .dir(&dir)
                .threads(ctx.threads)
                .run()
        });
        let execute_s = execute.elapsed().as_secs_f64();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                rec.check(false, || format!("sweep execution failed: {e}"));
                return digests;
            }
        };
        let report = *output.report();
        rec.check(
            report.complete && report.sources.executed == planned,
            || {
                format!(
                    "executed {} of {planned} planned runs",
                    report.sources.executed
                )
            },
        );
        let outcomes = output.into_outcomes();

        let collect = Instant::now();
        let paper = tracer.span("bench.collect", parent, index, |_| plan.collect(&outcomes));
        let collect_s = collect.elapsed().as_secs_f64();
        let render = Instant::now();
        let bundle = tracer.span("report.bundle", parent, index, |_| {
            wire_bundle_json(paper.artifacts())
        });
        let bundle_s = render.elapsed().as_secs_f64();
        let render = Instant::now();
        let board = tracer.span("report.scoreboard", parent, index, |_| paper.scoreboard());
        let board_s = render.elapsed().as_secs_f64();
        rec.push("unit_s", start.elapsed().as_secs_f64());

        let passed = paper
            .artifacts()
            .iter()
            .flat_map(|a| a.references())
            .filter(|r| r.verdict() == Verdict::Pass)
            .count();
        rec.check(passed > 0, || "no reference check passed".to_owned());
        digests.insert("bundle".to_owned(), digest::of_bytes(bundle.as_bytes()));
        digests.insert("scoreboard".to_owned(), digest::of_bytes(board.as_bytes()));
        digests.insert("ref_checks_passed".to_owned(), passed.to_string());
        let files = outcome_digests(&dir, rec, &mut digests);
        rec.check(files == planned, || {
            format!("{files} outcome files for {planned} planned runs")
        });
        let _ = std::fs::remove_dir_all(&dir);
        if tracer.enabled() {
            // The Figure 3 study runs inside `collect`; timed alone here,
            // outside the unit, so it does not count as tracing overhead.
            let s = &self.settings;
            let study = Instant::now();
            tracer.span("sim.commonality", parent, index, |_| {
                shift_sim::experiments::commonality(&s.workloads, s.cores, s.scale, s.seed)
            });
            rec.push("commonality_ms", study.elapsed().as_secs_f64() * 1e3);
        }

        rec.push("fetches_per_s", fetches / execute_s);
        rec.push("execute_s", execute_s);
        rec.push("plan_ms", plan_s * 1e3);
        rec.push("collect_ms", collect_s * 1e3);
        rec.push("bundle_ms", bundle_s * 1e3);
        rec.push("scoreboard_ms", board_s * 1e3);
        rec.push("bundle_bytes", bundle.len() as f64);
        rec.push("ref_checks_passed", passed as f64);
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
        let units = rec.series("unit_s").len();
        let m = |name: &str, series: &str, unit| {
            Metric::new(name, rec.median(series), unit, rec.series(series).len())
        };
        vec![
            m("bench.plan_ms", "plan_ms", "ms"),
            m("sim.execute_s", "execute_s", "s"),
            Metric::new(
                "sim.runs_per_s",
                rec.total("runs_planned") / rec.total("execute_s"),
                "1/s",
                units,
            ),
            m("sim.runs_planned", "runs_planned", "count"),
            m("sim.runs_saved_by_dedup", "runs_saved_by_dedup", "count"),
            m("bench.collect_ms", "collect_ms", "ms"),
            m("sim.commonality_ms", "commonality_ms", "ms"),
            m("report.bundle_ms", "bundle_ms", "ms"),
            m("report.scoreboard_ms", "scoreboard_ms", "ms"),
            m("report.bundle_bytes", "bundle_bytes", "bytes"),
            m("report.ref_checks_passed", "ref_checks_passed", "count"),
        ]
    }

    fn replay_spec(&self) -> ReplaySpec {
        // The sweep's SHIFT run of its first workload.
        let scale = self.settings.scale;
        ReplaySpec {
            config: CmpConfig::micro13(self.settings.cores, PrefetcherConfig::shift_virtualized()),
            workload: self.settings.workloads[0].clone(),
            options: SimOptions::new(scale, self.settings.seed),
            warmup_rounds: scale.warmup_fetches_per_core(),
            batches: self.replay_batches,
            batch_rounds: self.batch_rounds,
        }
    }
}
