//! Figure 2 and §5.6: performance-density analysis across core types.
//!
//! For each core microarchitecture (Fat-OoO, Lean-OoO, Lean-IO) the study
//! compares prefetcher designs in the relative-performance / relative-area
//! plane: a design improves performance density only if its relative
//! performance exceeds its relative area. PIF's 0.9 mm²-per-core storage is
//! a bargain next to a 25 mm² Xeon but prohibitive next to a 1.3 mm² A8;
//! SHIFT's ≈1 mm² *total* cost improves density for every core type.

use serde::{Deserialize, Serialize};
use shift_core::StorageCost;
use shift_cpu::CoreKind;
use shift_metrics::{AreaModel, PdComparison};
use shift_trace::{Scale, WorkloadSpec};

use crate::config::{CmpConfig, PrefetcherConfig, SimOptions};
use crate::matrix::{RunHandle, RunMatrix};
use crate::results::geometric_mean;
use crate::store::RunOutcomes;

/// One (core type, prefetcher) point in the Figure 2 plane.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PdPoint {
    /// Core microarchitecture.
    pub core_kind: CoreKind,
    /// Prefetcher label.
    pub prefetcher: String,
    /// Geometric-mean speedup over the no-prefetch baseline on the same core.
    pub speedup: f64,
    /// Area relative to the baseline CMP (cores only + prefetcher storage).
    pub relative_area: f64,
}

impl PdPoint {
    /// Performance-density ratio relative to the baseline (> 1 is a gain).
    pub fn pd_ratio(&self) -> f64 {
        PdComparison {
            relative_performance: self.speedup,
            relative_area: self.relative_area,
        }
        .pd_ratio()
    }
}

/// The Figure 2 / §5.6 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerformanceDensityResult {
    /// All evaluated points.
    pub points: Vec<PdPoint>,
}

impl PerformanceDensityResult {
    /// Finds a point by core kind and prefetcher label.
    pub fn point(&self, kind: CoreKind, prefetcher: &str) -> Option<&PdPoint> {
        self.points
            .iter()
            .find(|p| p.core_kind == kind && p.prefetcher == prefetcher)
    }

    /// Performance-density improvement of `a` over `b` for a core kind.
    pub fn pd_improvement(&self, kind: CoreKind, a: &str, b: &str) -> Option<f64> {
        let pa = self.point(kind, a)?;
        let pb = self.point(kind, b)?;
        Some(pa.pd_ratio() / pb.pd_ratio())
    }
}

/// The planned Figure 2 / §5.6 sweep: per core type, the per-workload
/// baselines plus one run per (prefetcher, workload) pair.
#[derive(Clone, Debug)]
pub struct PerformanceDensityPlan {
    prefetchers: Vec<PrefetcherConfig>,
    cores: u16,
    grid: Vec<(CoreKind, Vec<RunHandle>, Vec<Vec<RunHandle>>)>,
}

impl PerformanceDensityPlan {
    /// Plans the (core type × workload × {baseline ∪ prefetchers}) sweep into
    /// `matrix`; each core type's per-workload baseline is planned once no
    /// matter how many prefetchers it is compared against.
    pub fn plan(
        matrix: &mut RunMatrix,
        workloads: &[WorkloadSpec],
        prefetchers: &[PrefetcherConfig],
        cores: u16,
        scale: Scale,
        seed: u64,
    ) -> Self {
        assert!(!workloads.is_empty() && !prefetchers.is_empty());
        let options = SimOptions::new(scale, seed);
        let grid = CoreKind::ALL
            .into_iter()
            .map(|kind| {
                let baselines: Vec<_> = workloads
                    .iter()
                    .map(|w| {
                        matrix.standalone_with(
                            CmpConfig::micro13(cores, PrefetcherConfig::None).with_core_kind(kind),
                            w,
                            options,
                        )
                    })
                    .collect();
                let runs: Vec<Vec<_>> = prefetchers
                    .iter()
                    .map(|&prefetcher| {
                        workloads
                            .iter()
                            .map(|w| {
                                matrix.standalone_with(
                                    CmpConfig::micro13(cores, prefetcher).with_core_kind(kind),
                                    w,
                                    options,
                                )
                            })
                            .collect()
                    })
                    .collect();
                (kind, baselines, runs)
            })
            .collect();
        PerformanceDensityPlan {
            prefetchers: prefetchers.to_vec(),
            cores,
            grid,
        }
    }

    /// Derives the Figure 2 / §5.6 result (speedups from the executed matrix,
    /// areas from the [`AreaModel`]).
    pub fn collect(&self, outcomes: &RunOutcomes) -> PerformanceDensityResult {
        let area_model = AreaModel::nm40();
        let cores = self.cores;
        let mut points = Vec::new();
        for (kind, baselines, runs) in &self.grid {
            let baseline_area = area_model.cmp_core_area_mm2(*kind, cores, &StorageCost::none());
            for (prefetcher, handles) in self.prefetchers.iter().zip(runs) {
                let speedups: Vec<f64> = handles
                    .iter()
                    .zip(baselines)
                    .map(|(&run, &baseline)| outcomes[run].speedup_over(&outcomes[baseline]))
                    .collect();
                let llc_blocks = CmpConfig::micro13(cores, *prefetcher).llc.capacity_blocks();
                let storage = prefetcher.storage(llc_blocks);
                let area = area_model.cmp_core_area_mm2(*kind, cores, &storage);
                points.push(PdPoint {
                    core_kind: *kind,
                    prefetcher: prefetcher.label(),
                    speedup: geometric_mean(&speedups),
                    relative_area: area / baseline_area,
                });
            }
        }
        PerformanceDensityResult { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_trace::presets;

    #[test]
    fn shift_area_overhead_is_far_smaller_than_pif() {
        let mut matrix = RunMatrix::new();
        let plan = PerformanceDensityPlan::plan(
            &mut matrix,
            &[presets::tiny()],
            &[
                PrefetcherConfig::pif_32k(),
                PrefetcherConfig::shift_virtualized(),
            ],
            4,
            Scale::Test,
            31,
        );
        let result = plan.collect(&matrix.execute());
        for kind in CoreKind::ALL {
            let pif = result.point(kind, "PIF_32K").unwrap();
            let shift = result.point(kind, "SHIFT").unwrap();
            assert!(
                shift.relative_area < pif.relative_area,
                "{kind}: SHIFT area {} must be below PIF {}",
                shift.relative_area,
                pif.relative_area
            );
            assert!(shift.speedup > 1.0);
        }
        // The leaner the core, the larger PIF's relative area penalty.
        let pif_fat = result
            .point(CoreKind::FatOoO, "PIF_32K")
            .unwrap()
            .relative_area;
        let pif_io = result
            .point(CoreKind::LeanIO, "PIF_32K")
            .unwrap()
            .relative_area;
        assert!(pif_io > pif_fat);
        assert!(
            result
                .pd_improvement(CoreKind::LeanIO, "SHIFT", "PIF_32K")
                .unwrap()
                > 1.0
        );
    }
}
