//! Trace-driven 16-core CMP simulator and experiment drivers.
//!
//! This crate assembles the substrates (synthetic traces, caches, NoC, core
//! timing, prefetchers) into the full system the paper evaluates and provides
//! one driver per figure/table of the evaluation section:
//!
//! | Paper result | Driver |
//! |---|---|
//! | Fig. 1 — speedup vs. fraction of I-misses eliminated | [`experiments::EliminationPlan`] |
//! | Fig. 2 / §5.6 — performance density | [`experiments::PerformanceDensityPlan`] |
//! | Fig. 3 — instruction stream commonality across cores | [`experiments::commonality`](fn@experiments::commonality) |
//! | Fig. 6 — miss coverage vs. aggregate history size | [`experiments::HistorySweepPlan`] |
//! | Fig. 7 — covered / overpredicted breakdown | [`experiments::CoverageBreakdownPlan`] |
//! | Fig. 8 — speedup comparison | [`experiments::SpeedupComparisonPlan`] |
//! | Fig. 9 — LLC traffic overhead | [`experiments::LlcTrafficPlan`] |
//! | Fig. 10 — workload consolidation | [`experiments::ConsolidationPlan`] |
//! | §5.7 — power overhead | [`experiments::PowerOverheadPlan`] |
//! | §5.1 — storage cost table | [`experiments::storage_table`](fn@experiments::storage_table) |
//! | beyond the paper — hybrid/adaptive designs + throttled history port | [`experiments::HybridShootoutPlan`] |
//!
//! # Quick start
//!
//! One run is one [`RunKey`] — `(config, options, consolidation)` — which
//! single-run code calls by its alias [`Simulation`].
//! [`RunKey::engine`] builds the [`Engine`] ([`engine`]) and
//! [`RunKey::run`] drives it through warm-up and measurement; the engine
//! dispatches to the prefetcher once per batch of fetches, not per fetch.
//!
//! ```
//! use shift_sim::{CmpConfig, PrefetcherConfig, SimOptions, Simulation};
//! use shift_trace::{presets, Scale};
//!
//! let workload = presets::tiny();
//! let config = CmpConfig::micro13(4, PrefetcherConfig::shift_virtualized());
//! let options = SimOptions::new(Scale::Test, 42);
//! let result = Simulation::standalone(config, workload, options).run();
//! assert!(result.coverage.covered + result.coverage.uncovered > 0);
//! ```
//!
//! # Sweeps: the run matrix
//!
//! Single runs compose into sweeps through [`RunMatrix`], the planner and
//! parallel executor every experiment driver sits on. Runs are planned by
//! key (workload, prefetcher, cores, scale, seed, options); identical keys
//! deduplicate to one simulation — so the shared no-prefetch baseline of a
//! five-way comparison is simulated once, not five times — and the whole
//! matrix executes across all available cores with results that are
//! bit-identical to a serial sweep:
//!
//! ```
//! use shift_sim::{PrefetcherConfig, RunMatrix};
//! use shift_trace::{presets, Scale};
//!
//! let mut matrix = RunMatrix::new();
//! let workload = presets::tiny();
//! let baseline = matrix.standalone(&workload, PrefetcherConfig::None, 4, Scale::Test, 42);
//! let handles: Vec<_> = PrefetcherConfig::figure8_suite()
//!     .into_iter()
//!     .map(|p| matrix.standalone(&workload, p, 4, Scale::Test, 42))
//!     .collect();
//!
//! let outcomes = matrix.execute(); // parallel across cores
//! for handle in handles {
//!     assert!(outcomes[handle].speedup_over(&outcomes[baseline]) > 0.9);
//! }
//! ```
//!
//! Sweeps that exceed one host split into a three-stage pipeline over the
//! same matrix: **plan** ([`matrix`]), **execute** either a deterministic
//! `K/N` slice or an elastic work-queue claim of the next unowned run, with
//! durable per-run outcomes either way ([`shard`]), and **merge** the
//! outcome directories back into bit-identical [`RunOutcomes`] ([`store`]).
//! Outcome directories double as a cross-sweep simulation cache:
//! [`RunStore::load_partial`] reuses any outcome whose key still exists in a
//! changed plan and `Execution::new(&matrix).reuse(partial)` runs only the
//! rest. All of these modes are one drain loop behind the [`Execution`]
//! builder ([`execution`]). Its mode is a type, and its one scheduling knob
//! is [`policy`](Execution::policy): [`SchedulePolicy::CostOrdered`] claims
//! biggest-first by [`RunCost::of`] ([`schedule`]), in an order computed
//! from the plan alone. See `docs/SWEEP.md` and
//! `docs/OPERATIONS.md` in the repository for the operational guides.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod execution;
pub mod experiments;
pub mod matrix;
pub mod results;
pub mod schedule;
pub mod shard;
pub mod store;

pub use config::{CmpConfig, PrefetcherConfig, SimOptions};
pub use engine::Engine;
pub use execution::{
    Durable, Execution, ExecutionOutput, ExecutionReport, InMemory, OutcomeSources, Queued, Sharded,
};
pub use matrix::{MatrixFingerprint, RunHandle, RunKey, RunKeyId, RunMatrix, Simulation};
pub use results::{CoverageStats, RunResult, RESULTS_VERSION};
pub use schedule::{RunCost, SchedulePolicy};
pub use shard::{CancelToken, LockHeartbeat, QueueConfig, RunEvent, RunObserver, ShardSpec};
pub use store::{PartialLoad, RunOutcomes, RunStore, StoreError};
