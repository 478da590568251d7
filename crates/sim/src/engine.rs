//! The simulation engine behind [`RunKey::run`](crate::RunKey::run).
//!
//! A [`RunKey`](crate::RunKey) describes one run;
//! [`RunKey::engine`](crate::RunKey::engine) assembles it from the pieces in
//! this module:
//!
//! * `MemorySystem` (private) — the shared banked LLC and the mesh
//!   interconnect, bundled so that an LLC round trip (request hop, bank
//!   access, response hop) is one call instead of threading `NucaLlc` and
//!   `Mesh` through every function.
//! * `Core` (private) — one core's state (trace generator, private L1
//!   caches, timing accumulator, coverage accounting), with the fetch/data
//!   handling and prefetch-issue logic as its methods. One fetch touches all
//!   of one core's state, so the engine keeps one plain struct per core.
//! * `Stepper` (private) — the run's prefetcher units and the core → unit
//!   routing table, with the one round-robin stepping loop. SHIFT and its
//!   hybrids keep one unit per workload; every other design is one unit that
//!   all cores route to.
//! * [`Engine`] — the round-robin interleaving of all cores over warm-up and
//!   measurement phases, plus result assembly. Public so harnesses can drive
//!   stepping in batches ([`Engine::step_rounds`]) and measure steady-state
//!   throughput. The prefetcher is dispatched once per batch: the engine
//!   holds its stepper as a trait object, and each stepper's loop is
//!   monomorphized for its unit type, so every per-fetch hook is a static
//!   call.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use shift_cache::{NucaLlc, SetAssocCache};
use shift_core::{
    AdaptivePrefetcher, ConfidenceGatedPrefetcher, FallbackPrefetcher, InstructionPrefetcher,
    NextLinePrefetcher, NullPrefetcher, Pif, PrefetchCandidate, Shift, ShiftConfig, ShiftMode,
    ThrottledPrefetcher,
};
use shift_cpu::{CoreTiming, TimingAccumulator};
use shift_noc::{Mesh, RoundTripTable};
use shift_trace::workload::WorkloadProgram;
use shift_trace::{ConsolidationSpec, CoreTraceGenerator, TraceEvent};
use shift_types::{AccessClass, BlockAddr, CoreId};

use crate::config::{shift_config, CmpConfig, PrefetcherConfig, SimOptions};
use crate::results::{CoreResult, CoverageStats, RunResult};

/// Per-L1-I-line bookkeeping used to classify covered misses and discards.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct L1iMeta {
    /// The line was installed by a prefetch and has not been referenced yet.
    prefetched_unused: bool,
    /// Local cycle at which the prefetched data actually arrives.
    ready_at: f64,
}

/// The shared memory system: the banked NUCA LLC and the 2D-mesh NoC.
///
/// Every LLC access from a core travels the mesh to the home bank and back;
/// [`MemorySystem::round_trip`] performs the access and both transfers and
/// returns the total raw latency.
#[derive(Debug)]
pub(crate) struct MemorySystem {
    llc: NucaLlc,
    mesh: Mesh,
    /// Tabulated 8-byte-request / 64-byte-response round trips: per tile
    /// pair, latency and flit-hops as one table load instead of coordinate
    /// arithmetic and `div_ceil` per access.
    llc_round_trips: RoundTripTable,
    /// Core index → home tile, precomputed so the per-access path performs
    /// no modulo.
    core_tile: Vec<usize>,
    /// LLC bank → home tile, same precomputation on the response side.
    bank_tile: Vec<usize>,
    /// Worst-case demand-miss cost for the CMP's L1-I, precomputed because it
    /// caps every late-prefetch charge (one per covered miss).
    miss_penalty_cap: f64,
}

impl MemorySystem {
    pub(crate) fn new(config: &CmpConfig) -> Self {
        let llc = NucaLlc::new(config.llc);
        let mesh = Mesh::new(config.mesh);
        let tiles = mesh.config().tiles();
        // An LLC access is an 8-byte request out and a 64-byte block back.
        let llc_round_trips = RoundTripTable::new(mesh.config(), 8, 64);
        let core_tile = (0..config.cores as usize).map(|c| c % tiles).collect();
        let bank_tile = (0..llc.config().banks).map(|b| b % tiles).collect();
        // Worst-case cost of a demand miss: a late prefetch can never cost
        // more than re-fetching the block on demand would.
        let miss_penalty_cap = (config.l1i.hit_latency
            + llc.config().hit_latency
            + llc.config().memory_latency
            + mesh.round_trip_latency(0, tiles - 1)) as f64;
        MemorySystem {
            llc,
            mesh,
            llc_round_trips,
            core_tile,
            bank_tile,
            miss_penalty_cap,
        }
    }

    pub(crate) fn llc_mut(&mut self) -> &mut NucaLlc {
        &mut self.llc
    }

    pub(crate) fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Performs an LLC access on behalf of `core`, including the mesh round
    /// trip, and returns the total raw latency (request + bank + response).
    #[inline]
    pub(crate) fn round_trip(&mut self, core: CoreId, block: BlockAddr, class: AccessClass) -> u64 {
        let outcome = self.llc.access(block, class);
        let core_tile = self.core_tile[core.index()];
        let bank_tile = self.bank_tile[outcome.bank];
        outcome.latency
            + self
                .mesh
                .record_round_trip(&self.llc_round_trips, core_tile, bank_tile, class)
    }

    #[inline]
    fn miss_penalty_cap(&self) -> f64 {
        self.miss_penalty_cap
    }

    fn reset_stats(&mut self) {
        self.llc.reset_stats();
        self.mesh.reset_stats();
    }
}

/// Read-mostly state shared by every core step: the analytical timing model,
/// the run options, the miss-elimination lottery RNG, and the reusable
/// scratch buffers — prefetch candidates and the per-fetch trace-event batch
/// — so the per-fetch path never allocates in steady state.
pub(crate) struct StepEnv {
    pub(crate) timing: CoreTiming,
    pub(crate) options: SimOptions,
    pub(crate) rng: SmallRng,
    pub(crate) candidates: Vec<PrefetchCandidate>,
    pub(crate) events: Vec<TraceEvent>,
}

/// One core's simulation state: its trace generator, private L1 caches,
/// timing accumulator, local clock, fetch count and coverage accounting.
struct Core {
    id: CoreId,
    generator: CoreTraceGenerator,
    l1i: SetAssocCache<L1iMeta>,
    l1d: SetAssocCache<()>,
    timing: TimingAccumulator,
    local_cycle: f64,
    fetches: u64,
    coverage: CoverageStats,
}

impl Core {
    fn new(id: CoreId, generator: CoreTraceGenerator, config: &CmpConfig) -> Self {
        Core {
            id,
            generator,
            l1i: SetAssocCache::new(config.l1i),
            l1d: SetAssocCache::new(config.l1d),
            timing: TimingAccumulator::new(),
            local_cycle: 0.0,
            fetches: 0,
            coverage: CoverageStats::default(),
        }
    }

    fn reset_measurement(&mut self) {
        // Prefetches issued during warm-up have long since arrived; clear
        // their arrival timestamps so they are not charged as late.
        self.l1i.for_each_meta_mut(|m| m.ready_at = 0.0);
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.timing = TimingAccumulator::new();
        self.local_cycle = 0.0;
        self.fetches = 0;
        self.coverage = CoverageStats::default();
    }

    /// Advances this core by exactly one instruction-block fetch (plus any
    /// data references that precede it in the trace).
    ///
    /// Generic over the prefetcher type so each stepper monomorphizes its
    /// own copy with the hooks statically dispatched (and, for the no-op
    /// baseline, inlined away entirely).
    #[inline]
    fn step_one_fetch<P: InstructionPrefetcher>(
        &mut self,
        pf: &mut P,
        memory: &mut MemorySystem,
        env: &mut StepEnv,
    ) {
        // The whole batch up to and including the next fetch in one slice
        // copy; the buffer is scratch owned by the step environment.
        let mut events = std::mem::take(&mut env.events);
        self.generator.next_events_into(&mut events);
        for &event in &events {
            match event {
                TraceEvent::Data(d) => self.handle_data(memory, env, d.block),
                TraceEvent::Fetch(f) => self.handle_fetch(pf, memory, env, f.block, f.instructions),
            }
        }
        env.events = events;
    }

    #[inline]
    fn handle_data(&mut self, memory: &mut MemorySystem, env: &StepEnv, block: BlockAddr) {
        if self.l1d.access(block).is_hit() {
            return;
        }
        let raw =
            self.l1d.config().hit_latency + memory.round_trip(self.id, block, AccessClass::Demand);
        self.timing.data_stall(raw);
        self.local_cycle += raw as f64 * env.timing.params().exposed_data_fraction();
        self.l1d.fill(block, ());
    }

    fn handle_fetch<P: InstructionPrefetcher>(
        &mut self,
        pf: &mut P,
        memory: &mut MemorySystem,
        env: &mut StepEnv,
        block: BlockAddr,
        instructions: u8,
    ) {
        self.fetches += 1;
        let (access, meta) = self.l1i.access_meta(block);
        let hit = access.is_hit();

        if hit {
            // First use of a prefetched line: this was a miss in the baseline
            // that the prefetcher eliminated. If the prefetch was late, part
            // of its latency is still exposed.
            let miss_penalty_cap = memory.miss_penalty_cap();
            if let Some(meta) = meta {
                if meta.prefetched_unused {
                    meta.prefetched_unused = false;
                    // The decoupled front end runs ahead of retirement; only
                    // the part of the prefetch latency that exceeds that
                    // run-ahead window is exposed as a stall, and never more
                    // than a full demand miss would have cost.
                    let lateness = (meta.ready_at
                        - self.local_cycle
                        - env.timing.params().fetch_runahead_cycles as f64)
                        .clamp(0.0, miss_penalty_cap);
                    self.coverage.covered += 1;
                    if lateness > 0.0 {
                        self.timing.fetch_stall(lateness as u64);
                        self.local_cycle += lateness * env.timing.params().exposed_fetch_fraction();
                    }
                }
            }
        } else {
            // Prediction-only mode (Figure 6): ask whether the prefetcher
            // would have predicted this miss before its state reacts to it.
            if env.options.prediction_only && pf.covers(self.id, block) {
                self.coverage.predicted += 1;
            }
            let eliminated = env
                .options
                .miss_elimination_probability
                .map(|p| p > 0.0 && env.rng.gen_bool(p))
                .unwrap_or(false);
            if eliminated {
                self.coverage.covered += 1;
                self.fill_l1i(block, L1iMeta::default(), memory);
            } else {
                self.coverage.uncovered += 1;
                let raw = self.l1i.config().hit_latency
                    + memory.round_trip(self.id, block, AccessClass::Demand);
                self.timing.fetch_stall(raw);
                self.local_cycle += raw as f64 * env.timing.params().exposed_fetch_fraction();
                self.fill_l1i(block, L1iMeta::default(), memory);
            }
        }

        // Prefetcher hooks: access outcome first, then the retire-order
        // stream. The candidate list lives in the step environment so the
        // per-fetch hooks append into a reused buffer instead of allocating.
        env.candidates.clear();
        pf.on_access(self.id, block, hit, memory.llc_mut(), &mut env.candidates);

        self.timing.retire_instructions(instructions as u64);
        self.local_cycle += instructions as f64 * env.timing.params().base_cpi;

        pf.on_retire(self.id, block, memory.llc_mut(), &mut env.candidates);

        if !env.options.prediction_only {
            self.issue_prefetches(memory, &env.candidates);
        }
    }

    #[inline]
    fn fill_l1i(&mut self, block: BlockAddr, meta: L1iMeta, memory: &mut MemorySystem) {
        if let Some(evicted) = self.l1i.fill(block, meta) {
            if evicted.meta.prefetched_unused {
                // A prefetched block left the cache without ever being used:
                // an overprediction, and a useless LLC read (a "discard").
                self.coverage.overpredicted += 1;
                memory.llc_mut().record_traffic(AccessClass::Discard, 64);
            }
        }
    }

    fn issue_prefetches(&mut self, memory: &mut MemorySystem, candidates: &[PrefetchCandidate]) {
        for cand in candidates {
            if self.l1i.probe(cand.block) {
                continue;
            }
            let latency = memory.round_trip(self.id, cand.block, AccessClass::PrefetchUseful);
            let ready_at = self.local_cycle + (cand.ready_delay + latency) as f64;
            self.fill_l1i(
                cand.block,
                L1iMeta {
                    prefetched_unused: true,
                    ready_at,
                },
                memory,
            );
        }
    }
}

/// A batch of round-robin stepping: every core advances `rounds` fetches.
/// [`Engine`] holds its stepper behind this trait, so the one virtual call
/// is per batch of `rounds × cores` fetches, never per fetch.
trait StepBatch {
    fn step_rounds(
        &mut self,
        cores: &mut [Core],
        memory: &mut MemorySystem,
        env: &mut StepEnv,
        rounds: usize,
    );
}

/// The prefetcher units of a run and the routing of cores to them.
///
/// SHIFT keeps one shared history per workload, so SHIFT and every hybrid
/// that wraps it hold one unit per workload (consolidation gives each
/// workload its own); every other design is one unit serving all cores.
struct Stepper<P> {
    units: Vec<P>,
    /// Core index → index into `units`.
    pf_of_core: Vec<usize>,
}

impl<P> Stepper<P> {
    /// One unit that every one of the CMP's `cores` routes to.
    fn shared(unit: P, cores: u16) -> Self {
        Stepper {
            units: vec![unit],
            pf_of_core: vec![0; cores as usize],
        }
    }

    /// Wraps every unit in `f`, keeping the routing.
    fn map<Q>(self, f: impl FnMut(P) -> Q) -> Stepper<Q> {
        Stepper {
            units: self.units.into_iter().map(f).collect(),
            pf_of_core: self.pf_of_core,
        }
    }
}

impl<P: InstructionPrefetcher> StepBatch for Stepper<P> {
    fn step_rounds(
        &mut self,
        cores: &mut [Core],
        memory: &mut MemorySystem,
        env: &mut StepEnv,
        rounds: usize,
    ) {
        for _ in 0..rounds {
            for (core, &unit) in cores.iter_mut().zip(&self.pf_of_core) {
                core.step_one_fetch(&mut self.units[unit], memory, env);
            }
        }
    }
}

/// The assembled simulation engine: all cores, the prefetchers, the shared
/// memory system, and the per-step environment.
///
/// Most callers go through [`RunKey::run`](crate::RunKey::run), which
/// drives a complete warm-up + measurement schedule. The engine is also
/// usable directly for *batched stepping*: [`Engine::step_rounds`] advances
/// every core by a block of fetches in one call, which is what the perf
/// harness uses to measure steady-state simulated-fetches/sec without paying
/// result-assembly costs per sample, and what `RunKey::run` itself is built
/// on. Any partition of the same total rounds into batches yields
/// bit-identical results — stepping is deterministic and carries no
/// per-batch state.
pub struct Engine {
    memory: MemorySystem,
    cores: Vec<Core>,
    stepper: Box<dyn StepBatch + Send>,
    env: StepEnv,
    prefetcher_label: String,
    workloads: Vec<String>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cores", &self.cores.len())
            .field("prefetcher", &self.prefetcher_label)
            .field("workloads", &self.workloads)
            .finish()
    }
}

impl Engine {
    /// Builds the full engine for one run: per-core generators and caches,
    /// the shared memory system, and the configured prefetcher(s).
    pub fn new(config: &CmpConfig, options: SimOptions, consolidation: &ConsolidationSpec) -> Self {
        let mut memory = MemorySystem::new(config);

        // Compile one program per workload and build per-core generators.
        let programs: Vec<Arc<WorkloadProgram>> = consolidation
            .workloads()
            .iter()
            .map(WorkloadProgram::build)
            .collect();
        // Assignments come in core-id order, so a core's position in `cores`
        // is its index.
        let cores = consolidation
            .assignments()
            .iter()
            .map(|a| {
                let program = Arc::clone(&programs[a.workload.index()]);
                let generator = CoreTraceGenerator::with_program(program, a.core, options.seed);
                Core::new(a.core, generator, config)
            })
            .collect();

        let stepper = build_prefetchers(config, consolidation, &mut memory);

        Engine {
            memory,
            cores,
            stepper,
            env: StepEnv {
                timing: CoreTiming::new(config.core_kind),
                options,
                rng: SmallRng::seed_from_u64(options.seed ^ 0xF1E2_D3C4_B5A6_9788),
                candidates: Vec::new(),
                events: Vec::new(),
            },
            prefetcher_label: config.prefetcher.label(),
            workloads: consolidation
                .workloads()
                .iter()
                .map(|w| w.name.clone())
                .collect(),
        }
    }

    /// Number of simulated cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Warm-up rounds (fetches per core) the run's scale prescribes.
    pub fn warmup_rounds(&self) -> usize {
        self.env.options.scale.warmup_fetches_per_core()
    }

    /// Measured rounds (fetches per core) the run's scale prescribes.
    pub fn measured_rounds(&self) -> usize {
        self.env.options.scale.fetches_per_core()
    }

    /// Advances every core by `rounds` instruction-block fetches in the
    /// round-robin interleaving, as one batched call.
    ///
    /// This is the batched stepping entry point: one dispatch amortizes over
    /// `rounds × cores` fetches, and splitting the same total across several
    /// calls is bit-identical to a single call (locked by the `runner`
    /// integration tests). The stepper is called once per batch, not once
    /// per fetch: its loop is monomorphized for the concrete prefetcher
    /// type, with all hooks statically dispatched.
    pub fn step_rounds(&mut self, rounds: usize) {
        self.stepper
            .step_rounds(&mut self.cores, &mut self.memory, &mut self.env, rounds);
    }

    /// Ends warm-up: clears all statistics so the measured interval starts
    /// from a warmed but unaccounted state (the paper's warmed-checkpoint
    /// methodology).
    pub fn begin_measurement(&mut self) {
        for core in &mut self.cores {
            core.reset_measurement();
        }
        self.memory.reset_stats();
    }

    /// Assembles the aggregate results of the fetches stepped since
    /// [`begin_measurement`](Self::begin_measurement), consuming the engine.
    pub fn finish(self) -> RunResult {
        self.assemble_results()
    }

    /// Runs warm-up then measurement, and assembles the aggregate results.
    pub fn run(mut self) -> RunResult {
        self.step_rounds(self.warmup_rounds());
        self.begin_measurement();
        self.step_rounds(self.measured_rounds());
        self.finish()
    }

    fn assemble_results(self) -> RunResult {
        let Engine {
            memory,
            cores,
            env,
            prefetcher_label,
            workloads,
            ..
        } = self;
        let timing = &env.timing;

        let mut coverage = CoverageStats::default();
        let per_core: Vec<CoreResult> = cores
            .iter()
            .map(|core| {
                let core_timing = &core.timing;
                coverage.merge(&core.coverage);
                CoreResult {
                    instructions: core_timing.instructions,
                    fetches: core.fetches,
                    cycles: timing.total_cycles(core_timing),
                    ipc: timing.ipc(core_timing),
                    raw_fetch_stall_cycles: core_timing.raw_fetch_stall_cycles,
                    raw_data_stall_cycles: core_timing.raw_data_stall_cycles,
                    l1i: *core.l1i.stats(),
                    l1d: *core.l1d.stats(),
                    coverage: core.coverage,
                }
            })
            .collect();

        let MemorySystem { llc, mesh, .. } = memory;
        let traffic = llc.traffic().clone();
        let history_block_accesses =
            traffic.count(AccessClass::HistoryRead) + traffic.count(AccessClass::HistoryWrite);
        let index_accesses = traffic.count(AccessClass::IndexUpdate);
        // History and index traffic travels over the mesh between the
        // requesting tile and the home bank; estimate its flit-hop cost with
        // the mesh's average hop distance (block transfers are 4 data flits +
        // 1 header; index updates are a single flit).
        let avg_hops =
            mesh.average_round_trip_latency(0) / (2.0 * mesh.config().hop_latency as f64);
        let overhead_flit_hops =
            ((history_block_accesses + traffic.count(AccessClass::Discard)) as f64 * 5.0 * avg_hops
                + index_accesses as f64 * avg_hops) as u64;

        RunResult {
            prefetcher: prefetcher_label,
            workloads,
            per_core,
            coverage,
            llc_traffic: traffic,
            llc: llc.stats(),
            overhead_flit_hops,
            history_block_accesses,
            index_accesses,
        }
    }
}

/// Builds the stepper for the configured prefetcher: one instance for the
/// whole CMP, except for SHIFT and the hybrids that wrap it, which get one
/// shared history and generator core per workload. This is the one place a
/// prefetcher kind is wired into the engine.
fn build_prefetchers(
    config: &CmpConfig,
    consolidation: &ConsolidationSpec,
    memory: &mut MemorySystem,
) -> Box<dyn StepBatch + Send> {
    let cores = config.cores;
    let mut shift_units = |history_records: usize, mode: ShiftMode| {
        build_shift_units(config, consolidation, memory, history_records, mode)
    };
    match &config.prefetcher {
        PrefetcherConfig::None => Box::new(Stepper::shared(NullPrefetcher::new(), cores)),
        PrefetcherConfig::NextLine { degree } => Box::new(Stepper::shared(
            NextLinePrefetcher::new(*degree, cores),
            cores,
        )),
        PrefetcherConfig::Pif(cfg) => Box::new(Stepper::shared(Pif::new(*cfg, cores), cores)),
        PrefetcherConfig::Shift {
            history_records,
            mode,
        } => Box::new(shift_units(*history_records, *mode)),
        // Each workload's SHIFT gets its own next-line fallback; the fallback
        // is sized for the full CMP since any of the workload's cores may
        // fetch through it.
        PrefetcherConfig::ShiftNextLine {
            history_records,
            mode,
            degree,
        } => Box::new(
            shift_units(*history_records, *mode)
                .map(|s| FallbackPrefetcher::new(s, NextLinePrefetcher::new(*degree, cores))),
        ),
        PrefetcherConfig::GatedPif { config: cfg, gate } => Box::new(Stepper::shared(
            ConfidenceGatedPrefetcher::new(Pif::new(*cfg, cores), *gate, cores),
            cores,
        )),
        PrefetcherConfig::AdaptiveNlShift {
            history_records,
            mode,
            adapt,
        } => {
            Box::new(shift_units(*history_records, *mode).map(|s| {
                AdaptivePrefetcher::new(NextLinePrefetcher::new(1, cores), s, *adapt, cores)
            }))
        }
        PrefetcherConfig::ThrottledShift {
            history_records,
            mode,
            port,
        } => Box::new(
            shift_units(*history_records, *mode).map(|s| ThrottledPrefetcher::new(s, *port)),
        ),
    }
}

/// Builds the per-workload SHIFT units: one shared history per workload,
/// generated by the first core of that workload, embedded at a distinct LLC
/// window. Shared by standalone SHIFT and every hybrid that wraps SHIFT, so
/// the wrapped units are bit-identical to the standalone ones.
fn build_shift_units(
    config: &CmpConfig,
    consolidation: &ConsolidationSpec,
    memory: &mut MemorySystem,
    history_records: usize,
    mode: ShiftMode,
) -> Stepper<Shift> {
    let cores = config.cores;
    let n_workloads = consolidation.workloads().len();
    let mut units: Vec<Shift> = Vec::with_capacity(n_workloads);
    let mut pf_of_core = vec![0usize; cores as usize];
    for w in 0..n_workloads {
        let workload_cores = consolidation.cores_of(shift_types::WorkloadId::new(w as u8));
        let cfg = ShiftConfig {
            generator_core: workload_cores[0],
            history_base: shift_history_base(w),
            noc_round_trip: memory.mesh().average_round_trip_latency(0).round() as u64,
            ..shift_config(history_records, mode, config.llc.capacity_blocks())
        };
        let mut shift = Shift::new(cfg, cores);
        shift.install(memory.llc_mut());
        for c in workload_cores {
            pf_of_core[c.index()] = units.len();
        }
        units.push(shift);
    }
    Stepper { units, pf_of_core }
}

/// First LLC block of workload `w`'s SHIFT history window.
fn shift_history_base(w: usize) -> BlockAddr {
    BlockAddr::new(0x7000_0000 + (w as u64) * 0x1_0000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_core::SpatialRegion;
    use shift_trace::presets;

    /// Every block a run can touch lies below 2^40, the smallest tag range
    /// the simulator configures: a cache of `sets` sets holds blocks below
    /// `sets · 2^32`, which is 2^40 for the 256-set L1s and 2^45 for a
    /// 16-bank LLC. The highest blocks come from the last consolidation
    /// slot (a workload id is a `u8`): its data region at
    /// `with_region_index(255)`, and workload 255's SHIFT history window
    /// at the largest history a `HistoryBuffer` holds (`u32::MAX` records).
    /// A history record's trigger field holds 40 bits, so a record built at
    /// the highest of those blocks must read its trigger back.
    #[test]
    fn every_block_a_run_can_touch_fits_every_tag_range() {
        let tag_range = |sets: usize, banks: usize| ((sets * banks) as u64) << 32;
        let mut smallest_range = u64::MAX;
        for cores in 1..=64 {
            let config = CmpConfig::micro13(cores, PrefetcherConfig::None);
            smallest_range = smallest_range
                .min(tag_range(config.l1i.sets(), 1))
                .min(tag_range(config.l1d.sets(), 1))
                .min(tag_range(config.llc.bank_config().sets(), config.llc.banks));
        }
        assert_eq!(smallest_range, 1 << 40);
        let llc16 = CmpConfig::micro13(16, PrefetcherConfig::None).llc;
        assert_eq!(tag_range(llc16.bank_config().sets(), llc16.banks), 1 << 45);

        let last = usize::from(u8::MAX);
        let mut highest = 0;
        for spec in presets::paper_suite().into_iter().chain([presets::tiny()]) {
            let spec = spec.with_region_index(last);
            let program = WorkloadProgram::build(&spec);
            let layout = program.layout();
            for region in [layout.code_region(), layout.os_region(), spec.data_region()] {
                highest = highest.max(region.end().get() - 1);
            }
        }
        let largest = shift_config(u32::MAX as usize, ShiftMode::Virtualized, 1 << 17);
        let history_end = shift_history_base(last).offset(largest.history_llc_blocks());
        highest = highest.max(history_end.get() - 1);
        assert!(
            highest < smallest_range,
            "block {highest:#x} lies beyond the smallest tag range, {smallest_range:#x} blocks"
        );
        let record = SpatialRegion::new(BlockAddr::new(highest), 8);
        assert_eq!(record.trigger().get(), highest);
    }
}
