//! `oltp_shift` and `oltp_baseline`: one long 16-core simulation.
//!
//! OLTP Oracle has the largest instruction footprint of the suite, so with
//! SHIFT its history reads, index lookups and prefetch fills do the most
//! work here. The baseline steps the same trace through the same CMP with
//! the prefetcher hooks compiled away: a change to the prefetcher alone
//! should leave it flat.

use std::time::Instant;

use shift_sim::{CmpConfig, PrefetcherConfig, RunMatrix, RunResult, SimOptions, Simulation};
use shift_trace::{presets, Scale};

use crate::digest::{self, Digests};
use crate::replay::ReplaySpec;
use crate::span::{SpanId, Tracer};
use crate::{stats, Bench, Ctx, Metric, Record, Size};

pub(crate) struct Oltp {
    sim: Simulation,
    key: String,
    warmup_rounds: usize,
    batches: usize,
    batch_rounds: usize,
    replay_batches: usize,
}

impl Oltp {
    pub(crate) fn new(shift: bool, ctx: &Ctx) -> Self {
        let prefetcher = if shift {
            PrefetcherConfig::shift_virtualized()
        } else {
            PrefetcherConfig::None
        };
        // Demo scale: 80 k warm-up and 250 k measured fetches per core,
        // stepped as 100 batches of 2,500 rounds.
        let (cores, scale, batch_rounds, replay_batches) = match ctx.size {
            Size::Full => (16, Scale::Demo, 2_500, 8),
            Size::Smoke => (2, Scale::Test, 4_000, 2),
        };
        let sim = Simulation::standalone(
            CmpConfig::micro13(cores, prefetcher),
            presets::oltp_oracle(),
            SimOptions::new(scale, ctx.seed),
        );
        let mut matrix = RunMatrix::new();
        matrix.plan(sim.clone());
        Oltp {
            key: format!("run/{}", matrix.key_ids()[0]),
            sim,
            warmup_rounds: scale.warmup_fetches_per_core(),
            batches: scale.fetches_per_core() / batch_rounds,
            batch_rounds,
            replay_batches,
        }
    }

    fn fetches_per_batch(&self) -> f64 {
        (self.batch_rounds * self.sim.config().cores as usize) as f64
    }

    fn check(&self, result: &RunResult, rec: &mut Record) {
        let measured = (self.batches * self.batch_rounds) as u64;
        rec.check(
            result.per_core.iter().all(|c| c.fetches == measured),
            || format!("per-core fetches differ from the {measured} measured rounds"),
        );
        // Every L1-I miss is an uncovered miss (no miss-elimination lottery
        // runs here), and the baseline covers nothing.
        let misses: u64 = result.per_core.iter().map(|c| c.l1i.misses).sum();
        rec.check(result.coverage.uncovered == misses, || {
            format!(
                "uncovered misses {} != L1-I misses {misses}",
                result.coverage.uncovered
            )
        });
        let prefetching = self.sim.config().prefetcher != PrefetcherConfig::None;
        rec.check(prefetching || result.coverage.covered == 0, || {
            "the baseline covered a miss".to_owned()
        });
    }
}

impl Bench for Oltp {
    fn set_up(&self, _ctx: &Ctx) -> f64 {
        let start = Instant::now();
        let engine = self.sim.engine();
        let s = start.elapsed().as_secs_f64();
        drop(engine);
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
        let start = Instant::now();
        let mut engine = tracer.span("sim.engine_new", parent, index, |_| self.sim.engine());
        tracer.span("sim.step_rounds", parent, index, |_| {
            engine.step_rounds(self.warmup_rounds)
        });
        engine.begin_measurement();
        let mut unit_s = start.elapsed().as_secs_f64();
        for _ in 0..self.batches {
            let batch = Instant::now();
            tracer.span("sim.step_rounds", parent, index, |_| {
                engine.step_rounds(self.batch_rounds)
            });
            let batch_s = batch.elapsed().as_secs_f64();
            rec.push("batch_s", batch_s);
            unit_s += batch_s;
            rec.set_ups(|| self.set_up(ctx));
        }
        let finish = Instant::now();
        let result = tracer.span("sim.finish", parent, index, |_| engine.finish());
        rec.push("unit_s", unit_s + finish.elapsed().as_secs_f64());
        self.check(&result, rec);
        Digests::from([(self.key.clone(), digest::of_json(&result))])
    }

    fn sim_fetches_per_s(&self, rec: &Record) -> Metric {
        let batches = rec.series("batch_s");
        Metric::defined(
            "sim.fetches_per_s",
            stats::fast_decile_rate(self.fetches_per_batch(), batches),
            batches.len(),
        )
    }

    fn layers(&self, rec: &Record) -> Vec<Metric> {
        let batches = rec.series("batch_s");
        vec![Metric::new(
            "sim.unit_batch_fetches_per_s_p50",
            self.fetches_per_batch() / stats::median(batches),
            "1/s",
            batches.len(),
        )]
    }

    fn replay_spec(&self) -> ReplaySpec {
        ReplaySpec {
            config: *self.sim.config(),
            workload: self.sim.consolidation().workloads()[0].clone(),
            options: *self.sim.options(),
            warmup_rounds: self.warmup_rounds,
            batches: self.replay_batches,
            batch_rounds: self.batch_rounds,
        }
    }
}
