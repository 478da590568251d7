//! Figure 8: speedup of NextLine, PIF_2K, PIF_32K, ZeroLat-SHIFT, and SHIFT
//! over the no-prefetching baseline, per workload.
//!
//! The paper's claim: SHIFT delivers a 1.19 geometric-mean speedup —
//! matching the idealized ZeroLat-SHIFT (1.20) and retaining most of
//! PIF_32K's benefit (1.21) — while NextLine reaches only 1.09 and the
//! equal-storage PIF_2K ≈1.10. Each [`SpeedupRow`] holds one workload's
//! `(label, speedup)` pairs in configuration order; the `geomean` column is
//! the figure's summary bar.

use serde::{Deserialize, Serialize};
use shift_trace::{Scale, WorkloadSpec};

use crate::config::PrefetcherConfig;
use crate::matrix::{RunHandle, RunMatrix};
use crate::results::geometric_mean;
use crate::store::RunOutcomes;

/// One workload's speedups.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpeedupRow {
    /// Workload name.
    pub workload: String,
    /// `(prefetcher label, speedup over baseline)` in configuration order.
    pub speedups: Vec<(String, f64)>,
}

/// The Figure 8 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpeedupComparisonResult {
    /// One row per workload.
    pub rows: Vec<SpeedupRow>,
    /// Geometric-mean speedup per configuration, in configuration order.
    pub geomean: Vec<(String, f64)>,
}

impl SpeedupComparisonResult {
    /// Geometric-mean speedup of the configuration with the given label.
    pub fn geomean_of(&self, label: &str) -> Option<f64> {
        self.geomean
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, s)| *s)
    }
}

/// The planned Figure 8 sweep: per workload, one baseline handle plus one
/// handle per prefetcher configuration.
#[derive(Clone, Debug)]
pub struct SpeedupComparisonPlan {
    workloads: Vec<String>,
    labels: Vec<String>,
    rows: Vec<(RunHandle, Vec<RunHandle>)>,
}

impl SpeedupComparisonPlan {
    /// Plans the (workload × {baseline ∪ prefetchers}) sweep into `matrix`;
    /// the paper's Figure 8 uses [`PrefetcherConfig::figure8_suite`].
    ///
    /// The no-prefetch baseline each speedup is normalized against is planned
    /// by key, so it is simulated exactly once per (workload, cores, scale,
    /// seed) — even if [`PrefetcherConfig::None`] also appears in
    /// `prefetchers`, and even if other figures plan the same baseline into
    /// the same matrix.
    pub fn plan(
        matrix: &mut RunMatrix,
        workloads: &[WorkloadSpec],
        prefetchers: &[PrefetcherConfig],
        cores: u16,
        scale: Scale,
        seed: u64,
    ) -> Self {
        assert!(!workloads.is_empty() && !prefetchers.is_empty());
        let rows = workloads
            .iter()
            .map(|workload| {
                let baseline =
                    matrix.standalone(workload, PrefetcherConfig::None, cores, scale, seed);
                let runs = prefetchers
                    .iter()
                    .map(|&p| matrix.standalone(workload, p, cores, scale, seed))
                    .collect();
                (baseline, runs)
            })
            .collect();
        SpeedupComparisonPlan {
            workloads: workloads.iter().map(|w| w.name.clone()).collect(),
            labels: prefetchers.iter().map(PrefetcherConfig::label).collect(),
            rows,
        }
    }

    /// Per-workload `(baseline, prefetcher runs)` handles, in plan order.
    pub fn rows(&self) -> &[(RunHandle, Vec<RunHandle>)] {
        &self.rows
    }

    /// Derives the Figure 8 result from the executed matrix.
    pub fn collect(&self, outcomes: &RunOutcomes) -> SpeedupComparisonResult {
        let rows: Vec<SpeedupRow> = self
            .workloads
            .iter()
            .zip(&self.rows)
            .map(|(workload, (baseline, runs))| SpeedupRow {
                workload: workload.clone(),
                speedups: self
                    .labels
                    .iter()
                    .zip(runs)
                    .map(|(label, &run)| {
                        (
                            label.clone(),
                            outcomes[run].speedup_over(&outcomes[*baseline]),
                        )
                    })
                    .collect(),
            })
            .collect();
        let geomean = self
            .labels
            .iter()
            .enumerate()
            .map(|(i, label)| {
                let values: Vec<f64> = rows.iter().map(|r| r.speedups[i].1).collect();
                (label.clone(), geometric_mean(&values))
            })
            .collect();
        SpeedupComparisonResult { rows, geomean }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_trace::presets;

    #[test]
    fn stream_prefetchers_outperform_baseline_and_next_line() {
        let mut matrix = RunMatrix::new();
        let plan = SpeedupComparisonPlan::plan(
            &mut matrix,
            &[presets::tiny()],
            &[
                PrefetcherConfig::next_line(),
                PrefetcherConfig::pif_32k(),
                PrefetcherConfig::shift_virtualized(),
            ],
            4,
            Scale::Test,
            21,
        );
        let result = plan.collect(&matrix.execute());
        let nl = result.geomean_of("NextLine").unwrap();
        let pif = result.geomean_of("PIF_32K").unwrap();
        let shift = result.geomean_of("SHIFT").unwrap();
        assert!(nl > 1.0);
        assert!(pif > nl, "PIF_32K ({pif}) must beat next-line ({nl})");
        assert!(shift > nl, "SHIFT ({shift}) must beat next-line ({nl})");
    }

    #[test]
    fn baseline_is_planned_exactly_once_per_workload() {
        let workloads = vec![
            presets::tiny().with_region_index(0),
            presets::tiny().with_region_index(1),
        ];
        // The explicit `None` entry must collapse onto the baseline run that
        // the speedups are normalized against: 2 workloads × (1 baseline + 2
        // distinct prefetchers), not 2 × 4.
        let prefetchers = [
            PrefetcherConfig::None,
            PrefetcherConfig::next_line(),
            PrefetcherConfig::shift_virtualized(),
        ];
        let mut matrix = RunMatrix::new();
        let plan =
            SpeedupComparisonPlan::plan(&mut matrix, &workloads, &prefetchers, 4, Scale::Test, 21);
        assert_eq!(matrix.len(), 2 * 3);
        for (baseline, runs) in plan.rows() {
            assert_eq!(runs[0], *baseline, "None entry must reuse the baseline run");
        }

        // And the derived figure reports a speedup of exactly 1 for `None`.
        let result = plan.collect(&matrix.execute());
        let none = result.geomean_of("Baseline").unwrap();
        assert!((none - 1.0).abs() < 1e-12, "baseline speedup {none}");
    }
}
