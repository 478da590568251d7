//! Figure 1: speedup as a function of the fraction of instruction cache
//! misses eliminated.
//!
//! Each instruction cache miss is converted into a hit with a configurable
//! probability; 100 % elimination corresponds to a perfect L1-I. The paper
//! finds a linear relationship reaching ≈31 % average speedup at 100 %.

use serde::{Deserialize, Serialize};
use shift_trace::{Scale, WorkloadSpec};

use crate::config::{CmpConfig, PrefetcherConfig, SimOptions};
use crate::matrix::{RunHandle, RunMatrix};
use crate::results::geometric_mean;
use crate::store::RunOutcomes;

/// One workload's speedup series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EliminationSeries {
    /// Workload name.
    pub workload: String,
    /// `(fraction eliminated, speedup)` points.
    pub points: Vec<(f64, f64)>,
}

/// The Figure 1 result: one series per workload plus the geometric mean.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EliminationResult {
    /// Per-workload series.
    pub series: Vec<EliminationSeries>,
    /// Geometric-mean series across workloads.
    pub geomean: Vec<(f64, f64)>,
}

impl EliminationResult {
    /// Speedup of the geometric-mean series at full (100 %) elimination.
    pub fn perfect_cache_speedup(&self) -> f64 {
        self.geomean
            .iter()
            .rev()
            .find(|(f, _)| (*f - 1.0).abs() < 1e-9)
            .map(|(_, s)| *s)
            .unwrap_or(1.0)
    }
}

/// The planned (but not yet executed) Figure 1 sweep: the handles of every
/// run the figure needs, resolvable against any [`RunOutcomes`] produced by
/// the matrix the plan was declared into.
#[derive(Clone, Debug)]
pub struct EliminationPlan {
    workloads: Vec<String>,
    fractions: Vec<f64>,
    /// Per workload: the no-prefetch baseline handle plus one handle per
    /// nonzero fraction (`None` for the 0.0 point, which reuses the baseline).
    rows: Vec<(RunHandle, Vec<Option<RunHandle>>)>,
}

impl EliminationPlan {
    /// Plans the (workload × fraction) sweep into `matrix`.
    ///
    /// Each workload's baseline is planned once; the `0.0` fraction reuses it
    /// directly (speedup 1 by definition). Planning into a shared matrix lets
    /// other figures deduplicate against the same baselines.
    pub fn plan(
        matrix: &mut RunMatrix,
        workloads: &[WorkloadSpec],
        fractions: &[f64],
        cores: u16,
        scale: Scale,
        seed: u64,
    ) -> Self {
        assert!(!workloads.is_empty(), "need at least one workload");
        assert!(!fractions.is_empty(), "need at least one elimination point");
        let config = CmpConfig::micro13(cores, PrefetcherConfig::None);
        let rows = workloads
            .iter()
            .map(|workload| {
                let baseline =
                    matrix.standalone_with(config, workload, SimOptions::new(scale, seed));
                let runs: Vec<_> = fractions
                    .iter()
                    .map(|&frac| {
                        (frac > 0.0).then(|| {
                            matrix.standalone_with(
                                config,
                                workload,
                                SimOptions::new(scale, seed).with_miss_elimination(frac),
                            )
                        })
                    })
                    .collect();
                (baseline, runs)
            })
            .collect();
        EliminationPlan {
            workloads: workloads.iter().map(|w| w.name.clone()).collect(),
            fractions: fractions.to_vec(),
            rows,
        }
    }

    /// Derives the Figure 1 result from the executed matrix.
    pub fn collect(&self, outcomes: &RunOutcomes) -> EliminationResult {
        let series: Vec<EliminationSeries> = self
            .workloads
            .iter()
            .zip(&self.rows)
            .map(|(workload, (baseline, runs))| EliminationSeries {
                workload: workload.clone(),
                points: self
                    .fractions
                    .iter()
                    .zip(runs)
                    .map(|(&frac, run)| {
                        let speedup = match run {
                            Some(handle) => outcomes[*handle].speedup_over(&outcomes[*baseline]),
                            None => 1.0,
                        };
                        (frac, speedup)
                    })
                    .collect(),
            })
            .collect();
        let geomean = self
            .fractions
            .iter()
            .enumerate()
            .map(|(i, &frac)| {
                let speedups: Vec<f64> = series.iter().map(|s| s.points[i].1).collect();
                (frac, geometric_mean(&speedups))
            })
            .collect();
        EliminationResult { series, geomean }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_trace::presets;

    #[test]
    fn speedup_grows_with_elimination_fraction() {
        let workloads = vec![presets::tiny()];
        let mut matrix = RunMatrix::new();
        let plan = EliminationPlan::plan(
            &mut matrix,
            &workloads,
            &[0.0, 0.5, 1.0],
            2,
            Scale::Test,
            11,
        );
        let result = plan.collect(&matrix.execute());
        let points = &result.series[0].points;
        assert_eq!(points.len(), 3);
        assert!((points[0].1 - 1.0).abs() < 1e-9);
        assert!(points[1].1 > 1.0, "half elimination must speed up");
        assert!(points[2].1 > points[1].1, "full elimination fastest");
        assert!(result.perfect_cache_speedup() > 1.0);
    }
}
