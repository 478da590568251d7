//! The per-core trace generator.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use shift_types::{AccessKind, BlockAddr, CoreId};

use crate::event::{DataEvent, FetchEvent, TraceEvent};
use crate::layout::Function;
use crate::request::pick_request_with_total;
use crate::workload::{WorkloadProgram, WorkloadSpec};

/// Generates the retire-order instruction and data reference stream of one
/// core running a server workload.
///
/// All cores running the same workload share one [`WorkloadProgram`] (the code
/// layout and request mix); each core draws its own request interleaving and
/// its own data-dependent control-flow decisions from a per-core RNG. This is
/// exactly the structure the paper exploits: the streams of different cores
/// are highly similar (same code, same request types) but not identical.
///
/// The generator streams: it keeps the current request and the index of its
/// next call step, and each refill of its event buffer expands one executed
/// step — the called function and, if drawn, an OS handler — so the buffer
/// holds one step's events rather than a whole request's. A new request is
/// drawn only once the current one is exhausted.
///
/// The generator is an infinite [`Iterator`] over [`TraceEvent`]s; callers
/// bound it with [`Iterator::take`] or by counting fetch events.
///
/// # Examples
///
/// ```
/// use shift_trace::{presets, CoreTraceGenerator};
/// use shift_types::CoreId;
///
/// let spec = presets::tiny();
/// let mut gen = CoreTraceGenerator::new(&spec, CoreId::new(0), 7);
/// let events: Vec<_> = gen.by_ref().take(100).collect();
/// assert_eq!(events.len(), 100);
/// ```
#[derive(Debug)]
pub struct CoreTraceGenerator {
    program: Arc<WorkloadProgram>,
    core: CoreId,
    state: StepState,
}

/// Everything a refill reads or changes apart from the program, so a refill
/// borrows the program while it writes here.
#[derive(Debug)]
struct StepState {
    core_bias: u64,
    rng: SmallRng,
    /// Index of the current request type in the program's mix.
    request: usize,
    /// Index of the current request's next call step; equal to its step
    /// count once the request is exhausted.
    next_step: usize,
    /// Events of the current call step, consumed through `cursor`: a flat
    /// buffer instead of a ring, so batch reads are contiguous slice copies.
    pending: Vec<TraceEvent>,
    /// Next unconsumed index into `pending`.
    cursor: usize,
    scratch_blocks: Vec<BlockAddr>,
    data_ref_carry: f64,
    // Spans of the uniform draws, fixed for the generator's lifetime. A draw
    // is `next_u64() % span`, the compat `rand` `gen_range` reduction.
    instr_span: u64,
    hot_data_span: u64,
    cold_data_span: u64,
    os_fn_span: u64,
}

impl CoreTraceGenerator {
    /// Creates a generator for `core`, compiling the workload program from
    /// `spec`. When several generators share a workload, prefer
    /// [`CoreTraceGenerator::with_program`] to compile the program once.
    pub fn new(spec: &WorkloadSpec, core: CoreId, seed: u64) -> Self {
        Self::with_program(WorkloadProgram::build(spec), core, seed)
    }

    /// Creates a generator for `core` over an already-compiled program.
    pub fn with_program(program: Arc<WorkloadProgram>, core: CoreId, seed: u64) -> Self {
        let spec_seed = program.spec().structure_seed;
        // Mix the workload structure seed, the experiment seed, and the core
        // id so that (a) different cores see different interleavings and
        // (b) the same core is reproducible across runs.
        let mixed = spec_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seed)
            .wrapping_add((core.index() as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        // Pre-size both buffers to their worst case so the `next_event` hot
        // path never grows an allocation mid-trace: the pending queue holds
        // at most one call step's events (`generate_step` drains it to empty
        // before refilling), and the scratch holds at most one function
        // execution's blocks.
        let max_step_events = program.max_step_events();
        let max_function_blocks = program.max_function_blocks();
        let spec = program.spec();
        let instr_span = (spec
            .instructions_per_block_max
            .max(spec.instructions_per_block_min)
            - spec.instructions_per_block_min) as u64
            + 1;
        // No request is under way: the first refill draws one.
        let next_step = program.request_types()[0].steps().len();
        let state = StepState {
            // Per-core sticky-branch bias: depends on the core identity and the
            // workload structure, but *not* on the experiment seed, so the same
            // core diverges the same way in every run.
            core_bias: spec_seed ^ ((core.index() as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
            rng: SmallRng::seed_from_u64(mixed),
            request: 0,
            next_step,
            pending: Vec::with_capacity(max_step_events),
            cursor: 0,
            scratch_blocks: Vec::with_capacity(max_function_blocks),
            data_ref_carry: 0.0,
            instr_span,
            hot_data_span: spec.hot_data_blocks.max(1),
            cold_data_span: spec.data_region_blocks.max(1),
            os_fn_span: program.layout().os_functions().len().max(1) as u64,
        };
        CoreTraceGenerator {
            program,
            core,
            state,
        }
    }

    /// The core this generator models.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The compiled workload program driving this generator.
    pub fn program(&self) -> &Arc<WorkloadProgram> {
        &self.program
    }

    /// Produces the next event, generating the next call step when the
    /// current one is exhausted. Never returns `None`; the trace is
    /// conceptually infinite.
    #[inline]
    pub fn next_event(&mut self) -> TraceEvent {
        let state = &mut self.state;
        loop {
            if let Some(&event) = state.pending.get(state.cursor) {
                state.cursor += 1;
                return event;
            }
            state.generate_step(&self.program);
        }
    }

    /// Fills `out` (cleared first) with every event up to and *including* the
    /// next fetch event — the batch the simulation engine consumes per
    /// stepped fetch: the data references that precede an instruction-block
    /// fetch in retire order, then the fetch itself (always the last event).
    ///
    /// Exactly equivalent to calling [`next_event`](Self::next_event) until
    /// it returns a [`TraceEvent::Fetch`], but copies each run of pending
    /// events as one contiguous slice instead of popping through a queue.
    #[inline]
    pub fn next_events_into(&mut self, out: &mut Vec<TraceEvent>) {
        out.clear();
        let state = &mut self.state;
        loop {
            let rest = &state.pending[state.cursor..];
            if let Some(pos) = rest.iter().position(|e| matches!(e, TraceEvent::Fetch(_))) {
                out.extend_from_slice(&rest[..=pos]);
                state.cursor += pos + 1;
                return;
            }
            out.extend_from_slice(rest);
            state.cursor = state.pending.len();
            state.generate_step(&self.program);
        }
    }

    /// Produces the next *fetch* event, discarding interleaved data events.
    /// Useful for prefetcher-only studies that do not model the data path.
    pub fn next_fetch(&mut self) -> FetchEvent {
        loop {
            if let TraceEvent::Fetch(f) = self.next_event() {
                return f;
            }
        }
    }
}

impl StepState {
    /// Deterministic per-core decision for a conditional call step.
    ///
    /// Conditional calls model data-dependent paths that are *sticky per
    /// core* (e.g. a core always serving the same client mix or NUMA
    /// partition): a given core either takes a conditional call on every
    /// request of that type or never does, but different cores decide
    /// differently. This is the source of cross-core control-flow divergence
    /// that separates a shared history (SHIFT) from per-core histories (PIF).
    fn core_takes_conditional(&self, request: usize, step: usize, probability: f64) -> bool {
        let mut h = self
            .core_bias
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((request as u64) << 32 | step as u64);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        (h as f64 / u64::MAX as f64) < probability
    }

    /// Refills the pending queue with the next executed call step of the
    /// current request, drawing a new request first if it is exhausted.
    /// Steps this core does not take are skipped; the refill emits the
    /// called function and, if drawn, one OS handler.
    fn generate_step(&mut self, program: &WorkloadProgram) {
        // Only called once the current buffer is fully consumed, so clearing
        // never discards events and the buffer never outgrows one step.
        debug_assert_eq!(self.cursor, self.pending.len());
        self.pending.clear();
        self.cursor = 0;
        let spec = program.spec();
        let types = program.request_types();
        loop {
            let steps = types[self.request].steps();
            let Some(&step) = steps.get(self.next_step) else {
                self.request =
                    pick_request_with_total(&mut self.rng, types, program.total_request_weight());
                self.next_step = 0;
                continue;
            };
            let step_idx = self.next_step;
            self.next_step += 1;
            if step.execute_probability < 1.0
                && !self.core_takes_conditional(self.request, step_idx, step.execute_probability)
            {
                continue;
            }
            self.emit_function(program.layout().function(step.function), spec);

            // Spontaneous OS activity (scheduler tick, TLB fill, interrupt)
            // fragments the application's temporal streams, as §6.1 discusses.
            if spec.os_invocation_probability > 0.0
                && self.rng.gen_bool(spec.os_invocation_probability)
            {
                let os_idx = (self.rng.next_u64() % self.os_fn_span) as usize;
                self.emit_function(program.layout().os_function(os_idx), spec);
            }
            return;
        }
    }

    fn emit_function(&mut self, function: Function<'_>, spec: &WorkloadSpec) {
        self.scratch_blocks.clear();
        function.execute(&mut self.rng, &mut self.scratch_blocks);
        let blocks = std::mem::take(&mut self.scratch_blocks);
        for &block in &blocks {
            let instructions =
                spec.instructions_per_block_min + (self.rng.next_u64() % self.instr_span) as u8;
            self.pending
                .push(TraceEvent::Fetch(FetchEvent::new(block, instructions)));
            self.emit_data_refs(instructions, spec);
        }
        self.scratch_blocks = blocks;
    }

    fn emit_data_refs(&mut self, instructions: u8, spec: &WorkloadSpec) {
        // Expected number of data references for this block visit; carry the
        // fractional part so the long-run ratio matches the spec exactly.
        let expected = instructions as f64 * spec.data_refs_per_instruction + self.data_ref_carry;
        let count = expected.floor() as usize;
        self.data_ref_carry = expected - count as f64;
        for _ in 0..count {
            let block = if self.rng.gen_bool(spec.hot_data_fraction.clamp(0.0, 1.0)) {
                spec.data_base
                    .offset(self.rng.next_u64() % self.hot_data_span)
            } else {
                spec.data_base
                    .offset(self.rng.next_u64() % self.cold_data_span)
            };
            let kind = if self.rng.gen_bool(spec.store_fraction.clamp(0.0, 1.0)) {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            self.pending
                .push(TraceEvent::Data(DataEvent::new(kind, block)));
        }
    }
}

impl Iterator for CoreTraceGenerator {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        Some(self.next_event())
    }
}

/// Builds one generator per core over a shared compiled program.
///
/// # Examples
///
/// ```
/// use shift_trace::{presets, generator::per_core_generators};
///
/// let gens = per_core_generators(&presets::tiny(), 4, 99);
/// assert_eq!(gens.len(), 4);
/// ```
pub fn per_core_generators(spec: &WorkloadSpec, cores: u16, seed: u64) -> Vec<CoreTraceGenerator> {
    let program = WorkloadProgram::build(spec);
    CoreId::range(cores)
        .map(|core| CoreTraceGenerator::with_program(Arc::clone(&program), core, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use std::collections::HashSet;

    #[test]
    fn generator_is_deterministic_for_same_seed() {
        let spec = presets::tiny();
        let a: Vec<_> = CoreTraceGenerator::new(&spec, CoreId::new(0), 1)
            .take(5_000)
            .collect();
        let b: Vec<_> = CoreTraceGenerator::new(&spec, CoreId::new(0), 1)
            .take(5_000)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_cores_produce_different_interleavings() {
        let spec = presets::tiny();
        let gens = per_core_generators(&spec, 2, 7);
        let [mut g0, mut g1]: [CoreTraceGenerator; 2] = gens.try_into().unwrap();
        let a: Vec<_> = g0.by_ref().take(2_000).collect();
        let b: Vec<_> = g1.by_ref().take(2_000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn fetches_stay_within_code_and_os_regions() {
        let spec = presets::tiny();
        let mut gen = CoreTraceGenerator::new(&spec, CoreId::new(0), 3);
        let code = gen.program().layout().code_region();
        let os = gen.program().layout().os_region();
        for event in gen.by_ref().take(20_000) {
            if let TraceEvent::Fetch(f) = event {
                assert!(
                    code.contains(f.block) || os.contains(f.block),
                    "fetch outside code regions: {}",
                    f.block
                );
                assert!(f.instructions >= 1);
            }
        }
    }

    #[test]
    fn data_refs_stay_within_data_region() {
        let spec = presets::tiny();
        let mut gen = CoreTraceGenerator::new(&spec, CoreId::new(1), 3);
        let data = spec.data_region();
        let mut saw_data = false;
        for event in gen.by_ref().take(20_000) {
            if let TraceEvent::Data(d) = event {
                saw_data = true;
                assert!(data.contains(d.block), "data ref outside region");
            }
        }
        assert!(saw_data, "expected at least one data reference");
    }

    #[test]
    fn data_ref_ratio_tracks_spec() {
        let spec = presets::tiny();
        let mut gen = CoreTraceGenerator::new(&spec, CoreId::new(0), 5);
        let mut instructions = 0u64;
        let mut data_refs = 0u64;
        for event in gen.by_ref().take(60_000) {
            match event {
                TraceEvent::Fetch(f) => instructions += f.instructions as u64,
                TraceEvent::Data(_) => data_refs += 1,
            }
        }
        let ratio = data_refs as f64 / instructions as f64;
        assert!(
            (ratio - spec.data_refs_per_instruction).abs() < 0.03,
            "data ref ratio {ratio} too far from {}",
            spec.data_refs_per_instruction
        );
    }

    #[test]
    fn bursty_requests_never_grow_the_pending_queue() {
        // The pending queue is pre-sized to the largest call step
        // (`WorkloadProgram::max_step_events`), so generating any number of
        // steps must never reallocate it — that was the last allocation
        // site on the trace hot path.
        let spec = presets::tiny();
        let mut gen = CoreTraceGenerator::new(&spec, CoreId::new(0), 13);
        let pending_capacity = gen.state.pending.capacity();
        let scratch_capacity = gen.state.scratch_blocks.capacity();
        assert_eq!(pending_capacity, gen.program().max_step_events());
        let mut max_pending = 0usize;
        // Each call step refills the buffer, after which the first event
        // read leaves the cursor at 1.
        let mut steps = 0;
        while steps < 10_000 {
            let _ = gen.next_event();
            steps += usize::from(gen.state.cursor == 1);
            max_pending = max_pending.max(gen.state.pending.len() - gen.state.cursor);
        }
        assert!(max_pending > 0, "bursts must actually fill the queue");
        assert_eq!(
            gen.state.pending.capacity(),
            pending_capacity,
            "pending queue reallocated (a step exceeded the pre-sized bound)"
        );
        assert_eq!(
            gen.state.scratch_blocks.capacity(),
            scratch_capacity,
            "scratch block buffer reallocated"
        );
    }

    #[test]
    fn batched_events_match_event_by_event_consumption() {
        // `next_events_into` must be an exact restatement of "call
        // `next_event` until it returns a fetch": same events, same order,
        // same buffered step and position — the property the engine's
        // batched stepping path (and the golden tests behind it) relies on.
        let spec = presets::tiny();
        let mut batched = CoreTraceGenerator::new(&spec, CoreId::new(0), 21);
        let mut serial = CoreTraceGenerator::new(&spec, CoreId::new(0), 21);
        let mut batch = Vec::new();
        for _ in 0..5_000 {
            batched.next_events_into(&mut batch);
            assert!(matches!(batch.last(), Some(TraceEvent::Fetch(_))));
            for &event in &batch {
                assert_eq!(event, serial.next_event());
            }
        }
        assert_eq!(batched.state.pending, serial.state.pending);
        assert_eq!(batched.state.cursor, serial.state.cursor);
    }

    #[test]
    fn stream_revisits_blocks_across_requests() {
        // Requests of the same type recur, so the set of unique blocks grows
        // much more slowly than the trace length: the signature of temporal
        // streams that the prefetchers exploit.
        let spec = presets::tiny();
        let mut gen = CoreTraceGenerator::new(&spec, CoreId::new(0), 9);
        let mut unique = HashSet::new();
        let mut fetches = 0u64;
        while fetches < 30_000 {
            let f = gen.next_fetch();
            unique.insert(f.block);
            fetches += 1;
        }
        assert!(
            (unique.len() as u64) < fetches / 10,
            "trace should revisit blocks heavily: {} unique of {}",
            unique.len(),
            fetches
        );
    }

    #[test]
    fn cores_share_instruction_footprint() {
        let spec = presets::tiny();
        let mut gens = per_core_generators(&spec, 2, 11);
        let mut sets: Vec<HashSet<_>> = Vec::new();
        for gen in gens.iter_mut() {
            let mut set = HashSet::new();
            for _ in 0..20_000 {
                set.insert(gen.next_fetch().block);
            }
            sets.push(set);
        }
        let inter = sets[0].intersection(&sets[1]).count();
        let union = sets[0].union(&sets[1]).count();
        let jaccard = inter as f64 / union as f64;
        assert!(
            jaccard > 0.75,
            "cores running the same workload must share most of their footprint (jaccard {jaccard})"
        );
    }
}
