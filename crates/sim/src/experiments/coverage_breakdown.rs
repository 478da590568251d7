//! Figure 7: instruction misses covered, uncovered, and overpredicted, per
//! workload, for PIF_2K, PIF_32K, and SHIFT.
//!
//! The paper's claim: the equal-storage PIF_2K collapses to ≈53 % average
//! coverage because 2 K records cannot hold a server instruction working
//! set, while PIF_32K reaches ≈92 % and SHIFT — one shared 32 K-record
//! history for all 16 cores — keeps ≈81 % at a fraction of the storage.
//! Coverage fractions are normalized against each run's baseline miss count
//! (covered + uncovered), as in the figure.

use serde::{Deserialize, Serialize};
use shift_trace::{Scale, WorkloadSpec};

use crate::config::PrefetcherConfig;
use crate::matrix::{RunHandle, RunMatrix};
use crate::results::CoverageStats;
use crate::store::RunOutcomes;

/// Coverage breakdown of one (workload, prefetcher) pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoverageCell {
    /// Prefetcher label.
    pub prefetcher: String,
    /// Coverage accounting, normalized via [`CoverageStats`] accessors.
    pub coverage: CoverageStats,
}

/// One workload's row of Figure 7.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoverageRow {
    /// Workload name.
    pub workload: String,
    /// One cell per prefetcher configuration, in the order given to
    /// [`CoverageBreakdownPlan::plan`].
    pub cells: Vec<CoverageCell>,
}

/// The Figure 7 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoverageBreakdownResult {
    /// One row per workload.
    pub rows: Vec<CoverageRow>,
}

impl CoverageBreakdownResult {
    /// Average coverage fraction of the given prefetcher label across
    /// workloads.
    pub fn average_coverage(&self, prefetcher: &str) -> f64 {
        let values: Vec<f64> = self
            .rows
            .iter()
            .flat_map(|r| r.cells.iter())
            .filter(|c| c.prefetcher == prefetcher)
            .map(|c| c.coverage.coverage())
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Average overprediction fraction of the given prefetcher label.
    pub fn average_overprediction(&self, prefetcher: &str) -> f64 {
        let values: Vec<f64> = self
            .rows
            .iter()
            .flat_map(|r| r.cells.iter())
            .filter(|c| c.prefetcher == prefetcher)
            .map(|c| c.coverage.overprediction())
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }
}

/// The planned Figure 7 grid: one run per (workload, prefetcher) cell.
#[derive(Clone, Debug)]
pub struct CoverageBreakdownPlan {
    workloads: Vec<String>,
    labels: Vec<String>,
    grid: Vec<Vec<RunHandle>>,
}

impl CoverageBreakdownPlan {
    /// Plans the (workload × prefetcher) grid into `matrix`; the paper's
    /// Figure 7 uses PIF_2K, PIF_32K and SHIFT. Duplicate cells (and cells
    /// shared with other figures) collapse to a single run.
    pub fn plan(
        matrix: &mut RunMatrix,
        workloads: &[WorkloadSpec],
        prefetchers: &[PrefetcherConfig],
        cores: u16,
        scale: Scale,
        seed: u64,
    ) -> Self {
        let grid = workloads
            .iter()
            .map(|w| {
                prefetchers
                    .iter()
                    .map(|&p| matrix.standalone(w, p, cores, scale, seed))
                    .collect()
            })
            .collect();
        CoverageBreakdownPlan {
            workloads: workloads.iter().map(|w| w.name.clone()).collect(),
            labels: prefetchers.iter().map(PrefetcherConfig::label).collect(),
            grid,
        }
    }

    /// Derives the Figure 7 result from the executed matrix.
    pub fn collect(&self, outcomes: &RunOutcomes) -> CoverageBreakdownResult {
        let rows = self
            .workloads
            .iter()
            .zip(&self.grid)
            .map(|(workload, handles)| CoverageRow {
                workload: workload.clone(),
                cells: self
                    .labels
                    .iter()
                    .zip(handles)
                    .map(|(label, &handle)| CoverageCell {
                        prefetcher: label.clone(),
                        coverage: outcomes[handle].coverage,
                    })
                    .collect(),
            })
            .collect();
        CoverageBreakdownResult { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_trace::presets;

    #[test]
    fn shift_and_pif32k_beat_pif2k_on_tiny_workload() {
        // The tiny workload's footprint is small, so use proportionally tiny
        // history budgets to exercise the capacity effect quickly.
        let mut matrix = RunMatrix::new();
        let plan = CoverageBreakdownPlan::plan(
            &mut matrix,
            &[presets::tiny()],
            &[
                PrefetcherConfig::Pif(shift_core::PifConfig::with_history_records(64)),
                PrefetcherConfig::pif_32k(),
                PrefetcherConfig::shift_virtualized(),
            ],
            4,
            Scale::Test,
            9,
        );
        let result = plan.collect(&matrix.execute());
        let cells = &result.rows[0].cells;
        let pif_small = cells[0].coverage.coverage();
        let pif_large = cells[1].coverage.coverage();
        let shift = cells[2].coverage.coverage();
        assert!(
            pif_large > pif_small,
            "large history must cover more ({pif_large} vs {pif_small})"
        );
        assert!(
            shift > pif_small,
            "SHIFT must beat the small per-core history"
        );
        assert!(result.average_coverage("PIF_32K") > 0.0);
        assert!(result.average_overprediction("SHIFT") < 1.0);
    }
}
