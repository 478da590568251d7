//! Experiment drivers: one module per figure/table of the paper's evaluation.
//!
//! Every driver takes the workload list, a [`shift_trace::Scale`], and
//! a seed, runs the required simulations, and returns a serializable result
//! type whose `Display` implementation prints the same rows/series the paper
//! reports. The harness (`shift-bench`) plans every driver into the one
//! matrix of its `reproduce` binary and turns each result into an artifact.
//!
//! Every simulation-backed driver is split into two phases around one
//! [`RunMatrix`](crate::matrix::RunMatrix):
//!
//! * **plan** — the driver's `*Plan::plan(&mut matrix, …)` declares every
//!   run the figure needs and keeps the returned handles. Because planning
//!   goes through the matrix's key-deduplication, runs shared *within* a
//!   figure (the no-prefetch baseline above all) and *across* figures (when
//!   several plans share one matrix, as the `reproduce` driver does)
//!   simulate exactly once.
//! * **collect** — after `matrix.execute()`, `plan.collect(&outcomes)`
//!   resolves the handles and derives the figure's serializable summary
//!   type.
//!
//! The plain `fn figure(…) -> Result` entry points wrap both phases around a
//! private matrix for callers that reproduce a single figure. The
//! commonality opportunity study — heavy per-workload work that is not
//! `Simulation` runs — fans out through
//! [`matrix::parallel_map`](crate::matrix::parallel_map) instead, and the
//! storage table (pure arithmetic) stays inline.

pub mod commonality;
pub mod consolidation;
pub mod coverage_breakdown;
pub mod coverage_vs_history;
pub mod hybrid_shootout;
pub mod llc_traffic;
pub mod performance_density;
pub mod power_overhead;
pub mod probabilistic_elimination;
pub mod speedup_comparison;
pub mod storage_table;

pub use commonality::{commonality, CommonalityResult};
pub use consolidation::{consolidation, ConsolidationPlan, ConsolidationResult};
pub use coverage_breakdown::{coverage_breakdown, CoverageBreakdownPlan, CoverageBreakdownResult};
pub use coverage_vs_history::{coverage_vs_history, HistorySweepPlan, HistorySweepResult};
pub use hybrid_shootout::{
    hybrid_shootout, DegradationPoint, HybridRow, HybridShootoutPlan, HybridShootoutResult,
};
pub use llc_traffic::{llc_traffic, LlcTrafficPlan, LlcTrafficResult};
pub use performance_density::{
    performance_density, PerformanceDensityPlan, PerformanceDensityResult,
};
pub use power_overhead::{power_overhead, PowerOverheadPlan, PowerOverheadResult};
pub use probabilistic_elimination::{
    probabilistic_elimination, EliminationPlan, EliminationResult,
};
pub use speedup_comparison::{
    speedup_comparison, speedup_comparison_with, SpeedupComparisonPlan, SpeedupComparisonResult,
};
pub use storage_table::{storage_table, StorageTableResult};

/// Formats a fraction as a percentage with one decimal.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}
