//! Figure 6: instruction miss coverage as a function of aggregate history
//! size, SHIFT vs. PIF.
//!
//! The x-axis is the *aggregate* history capacity in spatial region records:
//! for PIF the capacity is split evenly across the cores' private histories;
//! for SHIFT it is the size of the single shared history. Predictions are
//! tracked without prefetching into (or perturbing) the instruction cache.

use serde::{Deserialize, Serialize};
use shift_core::{PifConfig, ShiftMode};
use shift_trace::{Scale, WorkloadSpec};

use crate::config::{CmpConfig, PrefetcherConfig, SimOptions};
use crate::matrix::{RunHandle, RunMatrix};
use crate::store::RunOutcomes;

/// Coverage at one aggregate history size.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HistorySweepPoint {
    /// Aggregate history capacity in records (`None` = unbounded).
    pub aggregate_records: Option<usize>,
    /// Fraction of baseline misses predicted by SHIFT.
    pub shift_coverage: f64,
    /// Fraction of baseline misses predicted by PIF.
    pub pif_coverage: f64,
}

/// The Figure 6 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HistorySweepResult {
    /// Sweep points, in increasing aggregate-size order.
    pub points: Vec<HistorySweepPoint>,
}

/// The planned Figure 6 sweep: per aggregate size and workload, one SHIFT
/// and one PIF prediction-only run.
#[derive(Clone, Debug)]
pub struct HistorySweepPlan {
    aggregate_sizes: Vec<Option<usize>>,
    grid: Vec<Vec<(RunHandle, RunHandle)>>,
}

impl HistorySweepPlan {
    /// Plans the (size × workload × {SHIFT, PIF}) grid into `matrix`.
    /// `aggregate_sizes` entries of `None` model an unbounded ("inf")
    /// history; [`collect`](Self::collect) averages coverage (miss-weighted)
    /// across the workloads.
    ///
    /// Deduplication helps twice here: `None` aliases the largest bounded
    /// size if both are requested, and small aggregate sizes whose per-core
    /// PIF history clamps to the same floor share one PIF run.
    pub fn plan(
        matrix: &mut RunMatrix,
        workloads: &[WorkloadSpec],
        aggregate_sizes: &[Option<usize>],
        cores: u16,
        scale: Scale,
        seed: u64,
    ) -> Self {
        assert!(!workloads.is_empty() && !aggregate_sizes.is_empty());
        let unbounded_records = 4 * 1024 * 1024;
        let options = SimOptions::new(scale, seed).prediction_only();

        let grid = aggregate_sizes
            .iter()
            .map(|&aggregate| {
                let aggregate_records = aggregate.unwrap_or(unbounded_records);
                let per_core_records = (aggregate_records / cores as usize).max(16);
                workloads
                    .iter()
                    .map(|workload| {
                        let shift_cfg = PrefetcherConfig::Shift {
                            history_records: aggregate_records,
                            mode: ShiftMode::Dedicated { zero_latency: true },
                        };
                        let pif_cfg = PrefetcherConfig::Pif(PifConfig::with_history_records(
                            per_core_records,
                        ));
                        (
                            matrix.standalone_with(
                                CmpConfig::micro13(cores, shift_cfg),
                                workload,
                                options,
                            ),
                            matrix.standalone_with(
                                CmpConfig::micro13(cores, pif_cfg),
                                workload,
                                options,
                            ),
                        )
                    })
                    .collect()
            })
            .collect();
        HistorySweepPlan {
            aggregate_sizes: aggregate_sizes.to_vec(),
            grid,
        }
    }

    /// Derives the Figure 6 result (miss-weighted coverage averages) from the
    /// executed matrix.
    pub fn collect(&self, outcomes: &RunOutcomes) -> HistorySweepResult {
        let points = self
            .aggregate_sizes
            .iter()
            .zip(&self.grid)
            .map(|(&aggregate, handles)| {
                let mut shift_pred = 0u64;
                let mut shift_misses = 0u64;
                let mut pif_pred = 0u64;
                let mut pif_misses = 0u64;
                for &(shift_handle, pif_handle) in handles {
                    let shift_run = &outcomes[shift_handle];
                    shift_pred += shift_run.coverage.predicted;
                    shift_misses += shift_run.coverage.baseline_misses();
                    let pif_run = &outcomes[pif_handle];
                    pif_pred += pif_run.coverage.predicted;
                    pif_misses += pif_run.coverage.baseline_misses();
                }
                HistorySweepPoint {
                    aggregate_records: aggregate,
                    shift_coverage: ratio(shift_pred, shift_misses),
                    pif_coverage: ratio(pif_pred, pif_misses),
                }
            })
            .collect();
        HistorySweepResult { points }
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_trace::presets;

    #[test]
    fn coverage_grows_with_history_size_and_shift_beats_pif() {
        let workloads = vec![presets::tiny()];
        let mut matrix = RunMatrix::new();
        let plan = HistorySweepPlan::plan(
            &mut matrix,
            &workloads,
            &[Some(64), Some(4096)],
            4,
            Scale::Test,
            3,
        );
        let result = plan.collect(&matrix.execute());
        assert_eq!(result.points.len(), 2);
        let small = &result.points[0];
        let large = &result.points[1];
        assert!(
            large.shift_coverage >= small.shift_coverage,
            "SHIFT coverage must not shrink with more history"
        );
        // With equal aggregate capacity, the shared history covers at least as
        // much as the partitioned per-core histories.
        assert!(small.shift_coverage >= small.pif_coverage * 0.95);
    }
}
