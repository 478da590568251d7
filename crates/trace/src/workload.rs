//! Workload specification and the compiled per-workload program.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use shift_types::BlockAddr;

use crate::layout::{AddressRegion, CodeLayout, LayoutParams};
use crate::request::RequestType;

/// Experiment scale: how much trace each core executes.
///
/// The paper's traces contain two billion instructions per core; driving this
/// reproduction at that length is unnecessary to recover the result shapes,
/// so experiments pick a [`Scale`]:
///
/// * [`Scale::Test`] — a few tens of thousands of fetches, for unit tests.
/// * [`Scale::Demo`] — a few hundred thousand fetches, for quick examples.
/// * [`Scale::Paper`] — millions of fetches per core, for the figure harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Tiny traces for unit tests.
    Test,
    /// Medium traces for interactive examples.
    Demo,
    /// Full-length traces for the benchmark harness.
    Paper,
}

impl Scale {
    /// Number of instruction-block fetches each core executes after warm-up.
    pub fn fetches_per_core(self) -> usize {
        match self {
            Scale::Test => 40_000,
            Scale::Demo => 250_000,
            Scale::Paper => 1_500_000,
        }
    }

    /// Number of fetches used to warm caches and history before measurement.
    pub fn warmup_fetches_per_core(self) -> usize {
        match self {
            Scale::Test => 10_000,
            Scale::Demo => 80_000,
            Scale::Paper => 500_000,
        }
    }
}

/// Full parameter set describing one synthetic server workload.
///
/// A `WorkloadSpec` is pure data; [`WorkloadProgram::build`] compiles it into
/// the concrete code layout and request types shared by all cores that run
/// the workload. Two specs with the same parameters and `structure_seed`
/// compile to identical programs, which is what gives different cores (and
/// different prefetcher configurations under test) a common instruction
/// stream structure.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable workload name (e.g. `"OLTP Oracle"`).
    pub name: String,
    /// Code layout synthesis parameters.
    pub layout: LayoutParams,
    /// Number of distinct request types in the mix.
    pub request_types: usize,
    /// Number of function calls in a request's call path.
    pub calls_per_request: usize,
    /// Number of "hot" shared utility functions (the first N functions).
    pub hot_functions: usize,
    /// Fraction of calls that target hot functions.
    pub hot_call_fraction: f64,
    /// Fraction of call steps that are conditional (data dependent).
    pub conditional_call_fraction: f64,
    /// Zipf-like skew of the request mix: weight of type `i` is
    /// `1 / (i + 1)^request_skew`.
    pub request_skew: f64,
    /// Probability that an OS handler (trap, interrupt, scheduler) runs after
    /// a call step, fragmenting the stream.
    pub os_invocation_probability: f64,
    /// Minimum instructions retired per block visit.
    pub instructions_per_block_min: u8,
    /// Maximum instructions retired per block visit.
    pub instructions_per_block_max: u8,
    /// Average data references (loads + stores) per instruction.
    pub data_refs_per_instruction: f64,
    /// Size of the workload's data footprint in blocks.
    pub data_region_blocks: u64,
    /// Size of the hot (frequently reused) portion of the data footprint.
    pub hot_data_blocks: u64,
    /// Fraction of data references that go to the hot region.
    pub hot_data_fraction: f64,
    /// Fraction of data references that are stores.
    pub store_fraction: f64,
    /// First block of the workload's code region.
    pub code_base: BlockAddr,
    /// First block of the workload's OS-code region.
    pub os_base: BlockAddr,
    /// First block of the workload's data region.
    pub data_base: BlockAddr,
    /// Seed from which the layout and request types are derived.
    pub structure_seed: u64,
}

impl WorkloadSpec {
    /// Returns the code region the compiled program will occupy (approximate
    /// upper bound; the exact region is available from [`WorkloadProgram`]).
    pub fn code_region(&self) -> AddressRegion {
        let blocks = (self.layout.functions as f64 * self.layout.mean_function_blocks * 1.6)
            .ceil()
            .max(1.0) as u64;
        AddressRegion::new(self.code_base, blocks)
    }

    /// Returns the data region referenced by the workload.
    pub fn data_region(&self) -> AddressRegion {
        AddressRegion::new(self.data_base, self.data_region_blocks.max(1))
    }

    /// Scales the instruction footprint (functions and OS handlers) by
    /// `factor`, clamping to at least a handful of functions. Useful for unit
    /// tests that need the workload's structure without its full size.
    #[must_use]
    pub fn scaled_footprint(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.layout.functions = ((self.layout.functions as f64 * factor).round() as usize).max(8);
        self.layout.os_functions =
            ((self.layout.os_functions as f64 * factor).round() as usize).max(2);
        self.hot_functions = self.hot_functions.clamp(1, self.layout.functions);
        self.data_region_blocks = ((self.data_region_blocks as f64 * factor) as u64).max(64);
        self.hot_data_blocks = self.hot_data_blocks.min(self.data_region_blocks);
        self
    }

    /// Re-bases the workload's code, OS, and data regions for consolidation:
    /// workload `index` gets disjoint address regions.
    #[must_use]
    pub fn with_region_index(mut self, index: usize) -> Self {
        // 1 GiB of block address space (2^24 blocks) per workload slot keeps
        // regions disjoint for any realistic footprint.
        let stride = 1u64 << 24;
        let base = (index as u64 + 1) * stride * 4;
        self.code_base = BlockAddr::new(base);
        self.os_base = BlockAddr::new(base + stride);
        self.data_base = BlockAddr::new(base + 2 * stride);
        self
    }

    /// Expected instruction footprint in blocks (application + OS).
    pub fn expected_footprint_blocks(&self) -> f64 {
        self.layout.functions as f64 * self.layout.mean_function_blocks
            + self.layout.os_functions as f64 * self.layout.mean_os_function_blocks
    }
}

/// A compiled workload: the concrete code layout and request mix that every
/// core running the workload shares.
///
/// The layout keeps all fragments of all functions in one array, each
/// function's in its execution order, so compiling allocates per layout
/// rather than per function. The program also carries the bounds the per-core
/// generators pre-size their buffers to: the blocks of one function
/// execution and the events of one call step.
#[derive(Clone, Debug)]
pub struct WorkloadProgram {
    spec: WorkloadSpec,
    layout: CodeLayout,
    request_types: Vec<RequestType>,
    /// Sum of all request-type weights, precomputed so every request draw on
    /// the trace-generation hot path skips the per-call summation.
    total_request_weight: f64,
    /// [`WorkloadProgram::max_function_blocks`], walked once at build time
    /// rather than once per core generator.
    max_function_blocks: usize,
    /// [`WorkloadProgram::max_step_events`], likewise.
    max_step_events: usize,
}

impl WorkloadProgram {
    /// Compiles `spec` into a program. Deterministic in
    /// `spec.structure_seed` and the other parameters.
    pub fn build(spec: &WorkloadSpec) -> Arc<Self> {
        let mut rng = SmallRng::seed_from_u64(spec.structure_seed);
        let layout = CodeLayout::generate(&mut rng, &spec.layout, spec.code_base, spec.os_base);
        let total_functions = layout.functions().len();
        let mut request_types = Vec::with_capacity(spec.request_types);
        for i in 0..spec.request_types.max(1) {
            let weight = 1.0 / ((i + 1) as f64).powf(spec.request_skew);
            request_types.push(RequestType::generate(
                &mut rng,
                format!("{}-req{}", spec.name, i),
                total_functions,
                spec.hot_functions,
                spec.calls_per_request,
                spec.hot_call_fraction,
                spec.conditional_call_fraction,
                weight,
            ));
        }
        // Summed in declaration order — the identical order `pick_request`
        // used to sum in, so the RNG draw bounds (and therefore every seeded
        // trace) are bit-identical.
        let total_request_weight = request_types.iter().map(|t| t.weight()).sum();
        Arc::new(WorkloadProgram {
            max_function_blocks: walk_max_function_blocks(&layout),
            max_step_events: walk_max_step_events(spec, &layout),
            spec: spec.clone(),
            layout,
            request_types,
            total_request_weight,
        })
    }

    /// Sum of all request-type weights (the denominator of the request mix).
    pub fn total_request_weight(&self) -> f64 {
        self.total_request_weight
    }

    /// The specification this program was compiled from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The compiled code layout.
    pub fn layout(&self) -> &CodeLayout {
        &self.layout
    }

    /// The request mix.
    pub fn request_types(&self) -> &[RequestType] {
        &self.request_types
    }

    /// Upper bound on the blocks any single function execution (application
    /// or OS handler) can emit. The per-core generator pre-sizes its block
    /// scratch buffer to this.
    pub fn max_function_blocks(&self) -> usize {
        self.max_function_blocks
    }

    /// Upper bound on the trace events one call step can emit: the largest
    /// application function followed by the largest OS handler, every
    /// fragment taken, every block at the maximum instruction count and
    /// data-reference rate. The per-core generator refills its pending queue
    /// one call step at a time and pre-sizes it to this, so refills never
    /// reallocate on the hot path.
    pub fn max_step_events(&self) -> usize {
        self.max_step_events
    }
}

/// Walks every function of the layout (application and OS) for
/// [`WorkloadProgram::max_function_blocks`].
fn walk_max_function_blocks(layout: &CodeLayout) -> usize {
    layout
        .functions()
        .chain(layout.os_functions())
        .map(|f| f.max_blocks_per_execution() as usize)
        .max()
        .unwrap_or(0)
}

/// Walks every function of the layout for
/// [`WorkloadProgram::max_step_events`].
fn walk_max_step_events(spec: &WorkloadSpec, layout: &CodeLayout) -> usize {
    let max_app_blocks = layout
        .functions()
        .map(|f| f.max_blocks_per_execution())
        .max()
        .unwrap_or(0) as usize;
    let max_os_blocks = layout
        .os_functions()
        .map(|f| f.max_blocks_per_execution())
        .max()
        .unwrap_or(0) as usize;
    // Per block: one fetch event plus the data references it can spawn
    // (expected count rounded up, plus one for the fractional carry).
    let max_data_refs_per_block =
        (spec.instructions_per_block_max as f64 * spec.data_refs_per_instruction).ceil() as usize
            + 1;
    let events_per_block = 1 + max_data_refs_per_block;
    (max_app_blocks + max_os_blocks) * events_per_block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn scale_lengths_are_ordered() {
        assert!(Scale::Test.fetches_per_core() < Scale::Demo.fetches_per_core());
        assert!(Scale::Demo.fetches_per_core() < Scale::Paper.fetches_per_core());
        assert!(Scale::Test.warmup_fetches_per_core() < Scale::Test.fetches_per_core());
    }

    #[test]
    fn program_build_is_deterministic() {
        let spec = presets::web_search().scaled_footprint(0.05);
        let a = WorkloadProgram::build(&spec);
        let b = WorkloadProgram::build(&spec);
        assert_eq!(a.layout().footprint_blocks(), b.layout().footprint_blocks());
        assert_eq!(a.request_types().len(), b.request_types().len());
        for (x, y) in a.request_types().iter().zip(b.request_types()) {
            assert_eq!(x.steps(), y.steps());
        }
    }

    #[test]
    fn scaled_footprint_shrinks_layout() {
        let full = presets::oltp_oracle();
        let small = full.clone().scaled_footprint(0.1);
        assert!(small.layout.functions < full.layout.functions);
        assert!(small.expected_footprint_blocks() < full.expected_footprint_blocks());
    }

    #[test]
    fn region_index_keeps_regions_disjoint() {
        let a = presets::oltp_db2().with_region_index(0);
        let b = presets::web_frontend().with_region_index(1);
        assert!(!a.code_region().overlaps(&b.code_region()));
        assert!(!a.data_region().overlaps(&b.data_region()));
        assert!(!a.code_region().overlaps(&b.data_region()));
    }

    #[test]
    fn stored_trace_bounds_equal_a_fresh_walk() {
        let mut specs = presets::paper_suite();
        specs.push(presets::tiny());
        for spec in specs {
            let program = WorkloadProgram::build(&spec);
            assert_eq!(
                program.max_function_blocks(),
                walk_max_function_blocks(program.layout()),
                "{}",
                spec.name
            );
            assert_eq!(
                program.max_step_events(),
                walk_max_step_events(&spec, program.layout()),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn request_weights_are_skewed() {
        let spec = presets::oltp_db2().scaled_footprint(0.05);
        let program = WorkloadProgram::build(&spec);
        let types = program.request_types();
        assert!(types[0].weight() > types[types.len() - 1].weight());
    }
}
