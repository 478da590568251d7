//! Staged replay: where a simulated fetch spends its host time, layer by
//! layer, measured on a workload's own stream.
//!
//! Timing every call into the trace generator, the caches, the mesh and the
//! prefetcher would cost more than the calls themselves (two clock reads of
//! ~20 ns against an L1 lookup of a few ns). The replay instead separates
//! the layers in time:
//!
//! 1. The **reference engine** steps the run the workload would step —
//!    warm-up, then a window of batches through [`Engine::step_rounds`] —
//!    and its batch times give the whole-engine cost per fetch.
//! 2. A **shadow engine**, written here against the layers' public
//!    functions only, simulates the same warm-up and window and logs every
//!    call it makes into each layer during the window. Its window
//!    statistics are compared with the reference engine's `RunResult`; they
//!    must match exactly, or the replay is not measuring the engine's work.
//! 3. Each layer's logged calls are **replayed alone**, from a copy of that
//!    layer's state at the window start, under one clock read per stage.
//!
//! The L1 caches and the mesh replay exactly the calls the engine made. The
//! LLC replay misses the history and index accesses SHIFT makes inside its
//! own hooks (they happen behind `&mut NucaLlc`), and the prefetcher replay
//! runs against an LLC that does not see the window's demand fills; both
//! are exact for the baseline, which makes no such accesses. What the
//! replayed layers do not account for is the engine's own glue: stepping,
//! timing-model updates and result bookkeeping.
//!
//! [`Engine::step_rounds`]: shift_sim::Engine::step_rounds

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use shift_cache::{NucaLlc, SetAssocCache};
use shift_core::{InstructionPrefetcher, NullPrefetcher, PrefetchCandidate, Shift, ShiftConfig};
use shift_noc::{Mesh, RoundTripTable};
use shift_sim::{CmpConfig, CoverageStats, PrefetcherConfig, RunResult, SimOptions, Simulation};
use shift_trace::workload::WorkloadProgram;
use shift_trace::{CoreTraceGenerator, TraceEvent, WorkloadSpec};
use shift_types::{AccessClass, BlockAddr, CoreId};

use crate::span::{SpanId, Tracer};
use crate::stats;

/// The run a replay reproduces and the window it times.
#[derive(Clone, Debug)]
pub struct ReplaySpec {
    /// The simulated CMP; its prefetcher must be the baseline or SHIFT.
    pub config: CmpConfig,
    /// The workload every core runs.
    pub workload: WorkloadSpec,
    /// Scale and seed of the run.
    pub options: SimOptions,
    /// Rounds stepped before the window (caches and history warm up).
    pub warmup_rounds: usize,
    /// Batches in the timed window.
    pub batches: usize,
    /// Rounds per batch.
    pub batch_rounds: usize,
}

/// What one replay measured, as per-layer metrics, plus the mismatches
/// between the shadow engine and the reference engine (empty when exact).
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// `(metric, value)` pairs, named as in `BENCHMARK.json`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Statistics in which the shadow engine diverged from the engine.
    pub mismatches: Vec<String>,
}

#[derive(Clone, Copy)]
enum CacheOp {
    Access {
        core: u16,
        block: BlockAddr,
    },
    Fill {
        core: u16,
        block: BlockAddr,
        prefetched: bool,
    },
    Probe {
        core: u16,
        block: BlockAddr,
    },
}

#[derive(Clone, Copy)]
enum LlcOp {
    Access(BlockAddr, AccessClass),
    Discard,
}

#[derive(Clone, Copy)]
struct NocOp {
    from: u16,
    to: u16,
    class: AccessClass,
}

#[derive(Clone, Copy)]
struct HookOp {
    core: u16,
    block: BlockAddr,
    hit: bool,
}

/// Every call the shadow engine made into each layer during the window.
#[derive(Default)]
struct Log {
    events: u64,
    candidates: u64,
    l1i: Vec<CacheOp>,
    l1d: Vec<CacheOp>,
    llc: Vec<LlcOp>,
    noc: Vec<NocOp>,
    hooks: Vec<HookOp>,
}

/// The engine's fetch path rebuilt from the layers' public functions.
/// Timing-model state is left out: it never feeds back into which calls
/// the layers receive.
struct Shadow<P> {
    generators: Vec<CoreTraceGenerator>,
    /// L1-I metadata: "installed by a prefetch and not yet used".
    l1i: Vec<SetAssocCache<bool>>,
    l1d: Vec<SetAssocCache<()>>,
    llc: NucaLlc,
    mesh: Mesh,
    table: RoundTripTable,
    core_tile: Vec<usize>,
    bank_tile: Vec<usize>,
    pf: P,
    coverage: CoverageStats,
    events: Vec<TraceEvent>,
    candidates: Vec<PrefetchCandidate>,
    log: Option<Log>,
}

fn generators(spec: &ReplaySpec) -> Vec<CoreTraceGenerator> {
    let program = WorkloadProgram::build(&spec.workload);
    (0..spec.config.cores)
        .map(|c| {
            CoreTraceGenerator::with_program(
                Arc::clone(&program),
                CoreId::new(c),
                spec.options.seed,
            )
        })
        .collect()
}

impl<P: InstructionPrefetcher> Shadow<P> {
    fn new(spec: &ReplaySpec, build_pf: impl FnOnce(&mut NucaLlc, &Mesh) -> P) -> Self {
        let config = &spec.config;
        let mut llc = NucaLlc::new(config.llc);
        let mesh = Mesh::new(config.mesh);
        let tiles = mesh.config().tiles();
        let table = RoundTripTable::new(mesh.config(), 8, 64);
        let pf = build_pf(&mut llc, &mesh);
        Shadow {
            generators: generators(spec),
            l1i: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l1i))
                .collect(),
            l1d: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l1d))
                .collect(),
            core_tile: (0..config.cores as usize).map(|c| c % tiles).collect(),
            bank_tile: (0..llc.config().banks).map(|b| b % tiles).collect(),
            llc,
            mesh,
            table,
            pf,
            coverage: CoverageStats::default(),
            events: Vec::new(),
            candidates: Vec::new(),
            log: None,
        }
    }

    fn step_rounds(&mut self, rounds: usize) {
        for _ in 0..rounds {
            for core in 0..self.generators.len() {
                self.step(core);
            }
        }
    }

    fn reset_stats(&mut self) {
        self.l1i.iter_mut().for_each(SetAssocCache::reset_stats);
        self.l1d.iter_mut().for_each(SetAssocCache::reset_stats);
        self.llc.reset_stats();
        self.mesh.reset_stats();
        self.coverage = CoverageStats::default();
    }

    fn round_trip(&mut self, core: usize, block: BlockAddr, class: AccessClass) {
        let outcome = self.llc.access(block, class);
        let (from, to) = (self.core_tile[core], self.bank_tile[outcome.bank]);
        self.mesh.record_round_trip(&self.table, from, to, class);
        if let Some(log) = &mut self.log {
            log.llc.push(LlcOp::Access(block, class));
            log.noc.push(NocOp {
                from: from as u16,
                to: to as u16,
                class,
            });
        }
    }

    fn fill_l1i(&mut self, core: usize, block: BlockAddr, prefetched: bool) {
        if let Some(log) = &mut self.log {
            log.l1i.push(CacheOp::Fill {
                core: core as u16,
                block,
                prefetched,
            });
        }
        if let Some(evicted) = self.l1i[core].fill(block, prefetched) {
            if evicted.meta {
                self.coverage.overpredicted += 1;
                self.llc.record_traffic(AccessClass::Discard, 64);
                if let Some(log) = &mut self.log {
                    log.llc.push(LlcOp::Discard);
                }
            }
        }
    }

    fn step(&mut self, core: usize) {
        let mut events = std::mem::take(&mut self.events);
        self.generators[core].next_events_into(&mut events);
        if let Some(log) = &mut self.log {
            log.events += events.len() as u64;
        }
        for &event in &events {
            match event {
                TraceEvent::Data(d) => self.data(core, d.block),
                TraceEvent::Fetch(f) => self.fetch(core, f.block),
            }
        }
        self.events = events;
    }

    fn data(&mut self, core: usize, block: BlockAddr) {
        if let Some(log) = &mut self.log {
            log.l1d.push(CacheOp::Access {
                core: core as u16,
                block,
            });
        }
        if self.l1d[core].access(block).is_hit() {
            return;
        }
        self.round_trip(core, block, AccessClass::Demand);
        if let Some(log) = &mut self.log {
            log.l1d.push(CacheOp::Fill {
                core: core as u16,
                block,
                prefetched: false,
            });
        }
        self.l1d[core].fill(block, ());
    }

    fn fetch(&mut self, core: usize, block: BlockAddr) {
        if let Some(log) = &mut self.log {
            log.l1i.push(CacheOp::Access {
                core: core as u16,
                block,
            });
        }
        let (access, meta) = self.l1i[core].access_meta(block);
        let hit = access.is_hit();
        if hit {
            if let Some(unused) = meta {
                if *unused {
                    *unused = false;
                    self.coverage.covered += 1;
                }
            }
        } else {
            self.coverage.uncovered += 1;
            self.round_trip(core, block, AccessClass::Demand);
            self.fill_l1i(core, block, false);
        }

        let id = CoreId::new(core as u16);
        self.candidates.clear();
        self.pf
            .on_access(id, block, hit, &mut self.llc, &mut self.candidates);
        self.pf
            .on_retire(id, block, &mut self.llc, &mut self.candidates);
        if let Some(log) = &mut self.log {
            log.hooks.push(HookOp {
                core: core as u16,
                block,
                hit,
            });
            log.candidates += self.candidates.len() as u64;
        }

        for i in 0..self.candidates.len() {
            let candidate = self.candidates[i].block;
            if let Some(log) = &mut self.log {
                log.l1i.push(CacheOp::Probe {
                    core: core as u16,
                    block: candidate,
                });
            }
            if self.l1i[core].probe(candidate) {
                continue;
            }
            self.round_trip(core, candidate, AccessClass::PrefetchUseful);
            self.fill_l1i(core, candidate, true);
        }
    }

    /// Where the shadow's window statistics differ from the engine's.
    fn mismatches(&self, reference: &RunResult) -> Vec<String> {
        let mut out = Vec::new();
        for (core, result) in reference.per_core.iter().enumerate() {
            if *self.l1i[core].stats() != result.l1i {
                out.push(format!("core {core} L1-I statistics"));
            }
            if *self.l1d[core].stats() != result.l1d {
                out.push(format!("core {core} L1-D statistics"));
            }
        }
        if self.llc.stats() != reference.llc {
            out.push("LLC statistics".to_owned());
        }
        if *self.llc.traffic() != reference.llc_traffic {
            out.push("LLC traffic by class".to_owned());
        }
        let coverage = (
            self.coverage.covered,
            self.coverage.uncovered,
            self.coverage.overpredicted,
        );
        let expected = (
            reference.coverage.covered,
            reference.coverage.uncovered,
            reference.coverage.overpredicted,
        );
        if coverage != expected {
            out.push(format!("coverage {coverage:?} != engine {expected:?}"));
        }
        out
    }
}

/// A deep copy through the serde data model, for prefetchers that do not
/// implement `Clone`.
fn snapshot<T: Serialize + Deserialize>(value: &T) -> T {
    T::from_value(&value.to_value()).expect("a serialized prefetcher deserializes")
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Replays `spec`, recording its stages as spans under `parent`.
///
/// # Panics
///
/// Panics if the spec's prefetcher is neither the baseline nor SHIFT.
pub fn run(spec: &ReplaySpec, tracer: &Tracer, parent: Option<SpanId>) -> ReplayReport {
    match spec.config.prefetcher {
        PrefetcherConfig::None => replay(spec, tracer, parent, |_, _| NullPrefetcher::new()),
        PrefetcherConfig::Shift {
            history_records,
            mode,
        } => replay(spec, tracer, parent, |llc, mesh| {
            // A copy of `build_shift_units` in crates/sim/src/engine.rs for
            // one standalone workload; that function is the source of truth
            // and this copy must change with it, or every traced run fails
            // its shadow check.
            let mut cfg =
                ShiftConfig::virtualized_micro13(CoreId::new(0), BlockAddr::new(0x7000_0000));
            cfg.history_records = history_records;
            cfg.index_entries = history_records.max(16);
            cfg.mode = mode;
            cfg.noc_round_trip = mesh.average_round_trip_latency(0).round() as u64;
            cfg.llc_capacity_blocks = spec.config.llc.capacity_blocks();
            let mut shift = Shift::new(cfg, spec.config.cores);
            shift.install(llc);
            shift
        }),
        other => panic!(
            "the replay models the baseline and SHIFT, not {}",
            other.label()
        ),
    }
}

fn replay<P: InstructionPrefetcher + Serialize + Deserialize>(
    spec: &ReplaySpec,
    tracer: &Tracer,
    parent: Option<SpanId>,
    build_pf: impl FnOnce(&mut NucaLlc, &Mesh) -> P,
) -> ReplayReport {
    let cores = spec.config.cores as usize;
    let window_rounds = spec.batches * spec.batch_rounds;
    let fetches = (window_rounds * cores) as f64;
    let batch_fetches = (spec.batch_rounds * cores) as f64;

    // 1. The reference engine.
    let sim = Simulation::standalone(spec.config, spec.workload.clone(), spec.options);
    let (mut engine, new_s) = timed(|| tracer.span("sim.engine_new", parent, 0, |_| sim.engine()));
    tracer.span("sim.step_rounds", parent, 0, |_| {
        engine.step_rounds(spec.warmup_rounds)
    });
    engine.begin_measurement();
    let mut batch_s = Vec::with_capacity(spec.batches);
    for _ in 0..spec.batches {
        let ((), s) = timed(|| {
            tracer.span("sim.step_rounds", parent, 0, |_| {
                engine.step_rounds(spec.batch_rounds)
            })
        });
        batch_s.push(s);
    }
    let (reference, finish_s) = timed(|| tracer.span("sim.finish", parent, 0, |_| engine.finish()));

    // 2. The shadow engine: warm up, copy every layer's state, log the window.
    let mut shadow = Shadow::new(spec, build_pf);
    let ((l1i0, l1d0, llc0, mesh0, pf0), log, mismatches) =
        tracer.span("harness.shadow_engine", parent, 0, |_| {
            shadow.step_rounds(spec.warmup_rounds);
            shadow.reset_stats();
            let copies = (
                shadow.l1i.clone(),
                shadow.l1d.clone(),
                shadow.llc.clone(),
                shadow.mesh.clone(),
                snapshot(&shadow.pf),
            );
            shadow.log = Some(Log::default());
            shadow.step_rounds(window_rounds);
            let mismatches = shadow.mismatches(&reference);
            let log = shadow.log.take().expect("the window was logged");
            (copies, log, mismatches)
        });
    let table = shadow.table.clone();
    drop(shadow);

    // 3. Each layer's calls alone, from its window-start state.
    let mut fresh = generators(spec);
    let mut events = Vec::new();
    for generator in &mut fresh {
        for _ in 0..spec.warmup_rounds {
            generator.next_events_into(&mut events);
        }
    }
    let ((), trace_s) = timed(|| {
        tracer.span("trace.next_events_into", parent, 0, |_| {
            for _ in 0..window_rounds {
                for generator in &mut fresh {
                    generator.next_events_into(&mut events);
                    black_box(&events);
                }
            }
        })
    });
    let l1i_s = replay_cache(
        tracer,
        parent,
        "cache.l1i",
        l1i0,
        &log.l1i,
        |cache, block| {
            if let (_, Some(unused)) = cache.access_meta(block) {
                *unused = false;
            }
        },
        |prefetched| prefetched,
    );
    let l1d_s = replay_cache(
        tracer,
        parent,
        "cache.l1d",
        l1d0,
        &log.l1d,
        |cache, block| {
            black_box(cache.access(block));
        },
        |_| (),
    );
    let mut core_llc = llc0.clone();
    let ((), llc_s) = timed(|| {
        let mut llc = llc0;
        tracer.span("cache.llc", parent, 0, |_| {
            for &op in &log.llc {
                match op {
                    LlcOp::Access(block, class) => {
                        black_box(llc.access(block, class));
                    }
                    LlcOp::Discard => llc.record_traffic(AccessClass::Discard, 64),
                }
            }
        })
    });
    let ((), noc_s) = timed(|| {
        let mut mesh = mesh0;
        tracer.span("noc.record_round_trip", parent, 0, |_| {
            for op in &log.noc {
                black_box(mesh.record_round_trip(&table, op.from.into(), op.to.into(), op.class));
            }
        })
    });
    let ((), core_s) = timed(|| {
        let mut pf = pf0;
        let mut candidates = Vec::new();
        tracer.span("core.hooks", parent, 0, |_| {
            for op in &log.hooks {
                let id = CoreId::new(op.core);
                candidates.clear();
                pf.on_access(id, op.block, op.hit, &mut core_llc, &mut candidates);
                pf.on_retire(id, op.block, &mut core_llc, &mut candidates);
                black_box(&candidates);
            }
        })
    });

    let count = |ops: &[CacheOp]| {
        ops.iter()
            .filter(|op| matches!(op, CacheOp::Access { .. }))
            .count() as f64
    };
    let llc_accesses = log
        .llc
        .iter()
        .filter(|op| matches!(op, LlcOp::Access(..)))
        .count() as f64;
    let step_s: f64 = batch_s.iter().sum();
    let ns = |s: f64| s * 1e9 / fetches;
    let layers_s = trace_s + l1i_s + l1d_s + llc_s + noc_s + core_s;
    let per_kfetch = |n: u64| n as f64 * 1_000.0 / fetches;
    let instructions = reference.total_instructions() as f64;
    let sum = |f: &dyn Fn(&shift_sim::results::CoreResult) -> u64| {
        reference.per_core.iter().map(f).sum::<u64>() as f64
    };
    let covered = reference.coverage.covered as f64;
    let useful = covered + reference.coverage.overpredicted as f64;

    ReplayReport {
        metrics: vec![
            ("trace.ns_per_fetch", ns(trace_s)),
            ("trace.events_per_fetch", log.events as f64 / fetches),
            ("cache.l1i_ns_per_access", l1i_s * 1e9 / count(&log.l1i)),
            (
                "cache.l1d_ns_per_access",
                l1d_s * 1e9 / count(&log.l1d).max(1.0),
            ),
            (
                "cache.llc_ns_per_access",
                llc_s * 1e9 / llc_accesses.max(1.0),
            ),
            ("cache.l1i_mpki", reference.l1i_mpki()),
            (
                "cache.l1d_misses_per_fetch",
                sum(&|c| c.l1d.misses) / fetches,
            ),
            (
                "cache.llc_accesses_per_fetch",
                reference.llc.accesses as f64 / fetches,
            ),
            ("cache.llc_miss_ratio", reference.llc.miss_ratio()),
            (
                "noc.ns_per_round_trip",
                noc_s * 1e9 / (log.noc.len() as f64).max(1.0),
            ),
            (
                "noc.overhead_flit_hops_per_kfetch",
                per_kfetch(reference.overhead_flit_hops),
            ),
            ("core.ns_per_fetch", ns(core_s)),
            ("core.candidates_per_fetch", log.candidates as f64 / fetches),
            (
                "core.history_accesses_per_kfetch",
                per_kfetch(reference.history_block_accesses),
            ),
            (
                "core.index_accesses_per_kfetch",
                per_kfetch(reference.index_accesses),
            ),
            (
                "core.prefetches_per_kfetch",
                per_kfetch(reference.llc_traffic.count(AccessClass::PrefetchUseful)),
            ),
            (
                "core.useful_ratio",
                if useful == 0.0 { 0.0 } else { covered / useful },
            ),
            ("core.l1i_coverage", reference.coverage.coverage()),
            ("cpu.ipc", reference.throughput() / cores as f64),
            (
                "cpu.raw_fetch_stall_cpi",
                sum(&|c| c.raw_fetch_stall_cycles) / instructions,
            ),
            (
                "cpu.raw_data_stall_cpi",
                sum(&|c| c.raw_data_stall_cycles) / instructions,
            ),
            ("sim.engine_new_ms", new_s * 1e3),
            ("sim.step_ns_per_fetch", ns(step_s)),
            (
                "sim.step_fetches_per_s_p50",
                batch_fetches / stats::median(&batch_s),
            ),
            ("sim.glue_ns_per_fetch", ns(step_s - layers_s)),
            ("sim.finish_ms", finish_s * 1e3),
        ],
        mismatches,
    }
}

/// Replays one private cache level's logged calls; `meta` rebuilds a fill's
/// metadata from the logged "prefetched" flag.
fn replay_cache<M>(
    tracer: &Tracer,
    parent: Option<SpanId>,
    name: &'static str,
    mut caches: Vec<SetAssocCache<M>>,
    ops: &[CacheOp],
    access: impl Fn(&mut SetAssocCache<M>, BlockAddr),
    meta: impl Fn(bool) -> M,
) -> f64 {
    let ((), s) = timed(|| {
        tracer.span(name, parent, 0, |_| {
            for &op in ops {
                match op {
                    CacheOp::Access { core, block } => access(&mut caches[core as usize], block),
                    CacheOp::Fill {
                        core,
                        block,
                        prefetched,
                    } => {
                        black_box(caches[core as usize].fill(block, meta(prefetched)));
                    }
                    CacheOp::Probe { core, block } => {
                        black_box(caches[core as usize].probe(block));
                    }
                }
            }
        })
    });
    s
}
