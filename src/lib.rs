//! SHIFT: Shared History Instruction Fetch for lean-core server processors.
//!
//! This is the umbrella crate of the SHIFT reproduction (Kaynak, Grot,
//! Falsafi — MICRO-46, 2013). It re-exports the individual crates of the
//! workspace under stable module names so that applications, the examples in
//! `examples/`, and the integration tests in `tests/` can depend on a single
//! crate:
//!
//! * [`types`] — addresses, identifiers, cycles.
//! * [`trace`] — synthetic server-workload trace generation (Table I suite).
//! * [`cache`] — LRU L1 caches and the banked NUCA LLC with the
//!   virtualized-history extensions.
//! * [`noc`] — the 2D-mesh interconnect model.
//! * [`cpu`] — core parameters and the front-end stall timing model.
//! * [`prefetch`] — the paper's contribution: spatial regions, the shared
//!   history buffer, stream address buffers, and the next-line / PIF / SHIFT
//!   prefetchers.
//! * [`metrics`] — area, power, and performance-density models.
//! * [`report`] — machine-readable artifacts: tables, paper-reference
//!   checks, and JSON/CSV/markdown writers.
//! * [`sim`] — the full trace-driven CMP simulator, the parallel sweep
//!   engine ([`sim::RunMatrix`]), and the per-figure experiment drivers.
//!
//! # Quick start
//!
//! ```
//! use shift::sim::{CmpConfig, PrefetcherConfig, SimOptions, Simulation};
//! use shift::trace::{presets, Scale};
//!
//! // A 4-core CMP running the tiny test workload, with and without SHIFT.
//! let options = SimOptions::new(Scale::Test, 42);
//! let baseline = Simulation::standalone(
//!     CmpConfig::micro13(4, PrefetcherConfig::None),
//!     presets::tiny(),
//!     options,
//! )
//! .run();
//! let shift = Simulation::standalone(
//!     CmpConfig::micro13(4, PrefetcherConfig::shift_virtualized()),
//!     presets::tiny(),
//!     options,
//! )
//! .run();
//! assert!(shift.coverage.coverage() > 0.5);
//! assert!(shift.speedup_over(&baseline) > 1.0);
//! ```
//!
//! # Sweeps
//!
//! Multi-run studies — every experiment driver, and anything comparing
//! configurations — declare their runs as a [`sim::RunMatrix`]: duplicate
//! runs (shared baselines above all) are simulated once, and the whole
//! matrix executes in parallel across the host's cores with results
//! bit-identical to a serial sweep:
//!
//! ```
//! use shift::sim::{PrefetcherConfig, RunMatrix};
//! use shift::trace::{presets, Scale};
//!
//! let mut matrix = RunMatrix::new();
//! let workload = presets::tiny();
//! let baseline = matrix.standalone(&workload, PrefetcherConfig::None, 4, Scale::Test, 42);
//! let shift = matrix.standalone(
//!     &workload,
//!     PrefetcherConfig::shift_virtualized(),
//!     4,
//!     Scale::Test,
//!     42,
//! );
//! let outcomes = matrix.execute();
//! assert!(outcomes[shift].speedup_over(&outcomes[baseline]) > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use shift_cache as cache;
pub use shift_core as prefetch;
pub use shift_cpu as cpu;
pub use shift_metrics as metrics;
pub use shift_noc as noc;
pub use shift_report as report;
pub use shift_sim as sim;
pub use shift_trace as trace;
pub use shift_types as types;

/// The paper this repository reproduces.
pub const PAPER: &str =
    "Kaynak, Grot, Falsafi: SHIFT — Shared History Instruction Fetch for Lean-Core Server \
     Processors, MICRO-46 (2013)";

#[cfg(test)]
mod tests {
    #[test]
    fn paper_constant_names_the_paper() {
        assert!(super::PAPER.contains("SHIFT"));
        assert!(super::PAPER.contains("MICRO-46"));
    }
}
