//! Experiment drivers: one module per figure/table of the paper's evaluation.
//!
//! Every simulation-backed driver is a `*Plan` split into two phases around
//! one [`RunMatrix`](crate::matrix::RunMatrix):
//!
//! * **plan** — `*Plan::plan(&mut matrix, …)` declares every run the figure
//!   needs (from the workload list, a [`shift_trace::Scale`] and a seed) and
//!   keeps the returned handles. Because planning goes through the matrix's
//!   key-deduplication, runs shared *within* a figure (the no-prefetch
//!   baseline above all) and *across* figures (when several plans share one
//!   matrix, as the `reproduce` driver does) simulate exactly once.
//! * **collect** — after `matrix.execute()`, `plan.collect(&outcomes)`
//!   resolves the handles and derives the figure's serializable result type.
//!
//! The commonality opportunity study — heavy per-workload work that is not
//! `Simulation` runs — is the plain function [`commonality()`], which fans out
//! through [`matrix::parallel_map`](crate::matrix::parallel_map), and the
//! storage table (pure arithmetic) is the plain function [`storage_table()`].
//! The harness (`shift-bench`) turns every result into an artifact.

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
pub use consolidation::{ConsolidationPlan, ConsolidationResult};
pub use coverage_breakdown::{CoverageBreakdownPlan, CoverageBreakdownResult};
pub use coverage_vs_history::{HistorySweepPlan, HistorySweepResult};
pub use hybrid_shootout::{DegradationPoint, HybridRow, HybridShootoutPlan, HybridShootoutResult};
pub use llc_traffic::{LlcTrafficPlan, LlcTrafficResult};
pub use performance_density::{PerformanceDensityPlan, PerformanceDensityResult};
pub use power_overhead::{PowerOverheadPlan, PowerOverheadResult};
pub use probabilistic_elimination::{EliminationPlan, EliminationResult};
pub use speedup_comparison::{SpeedupComparisonPlan, SpeedupComparisonResult};
pub use storage_table::{storage_table, StorageTableResult};
