//! Beyond the paper: the hybrid-prefetcher shootout.
//!
//! The paper evaluates SHIFT, PIF, and next-line standalone; this driver
//! runs the composed designs of [`shift_core::hybrid`] through the same
//! machinery and reports them *next to* the paper's designs with the same
//! three columns the paper uses — miss coverage, overprediction/discard
//! traffic, and added storage — plus the speedup over the no-prefetch
//! baseline. A second scenario throttles SHIFT's history-port bandwidth and
//! records the coverage degradation under contention.
//!
//! Two properties are asserted downstream (bench references and CI):
//!
//! * at least one hybrid beats standalone SHIFT on coverage at
//!   equal-or-lower added storage, and
//! * throttling history bandwidth degrades coverage monotonically.

use serde::{Deserialize, Serialize};
use shift_trace::{Scale, WorkloadSpec};
use shift_types::AccessClass;

use crate::config::{CmpConfig, PrefetcherConfig};
use crate::matrix::{RunHandle, RunMatrix};
use crate::results::geometric_mean;
use crate::store::RunOutcomes;

/// One design's row of the shootout table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HybridRow {
    /// Design label (e.g. `"SHIFT+NL"`).
    pub label: String,
    /// `true` for the composed designs, `false` for the paper's standalone
    /// suite.
    pub hybrid: bool,
    /// Mean miss coverage across workloads.
    pub coverage: f64,
    /// Mean overprediction (discarded prefetches / baseline misses).
    pub overprediction: f64,
    /// Mean discarded-prefetch LLC traffic as a fraction of demand traffic.
    pub discard_ratio: f64,
    /// Geometric-mean speedup over the no-prefetch baseline.
    pub speedup: f64,
    /// New SRAM the design adds to the chip, in KiB.
    pub storage_kib: f64,
}

/// One point of the degradation-under-contention sweep.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DegradationPoint {
    /// History-port bandwidth: prefetch candidates per 64-access window.
    pub candidates_per_window: u32,
    /// Mean miss coverage across workloads at this bandwidth.
    pub coverage: f64,
}

/// The hybrid-shootout result: the comparison table plus the degradation
/// sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HybridShootoutResult {
    /// One row per design — the paper's standalone suite first, then the
    /// composed designs.
    pub rows: Vec<HybridRow>,
    /// Coverage under a throttled history port, in *descending* bandwidth
    /// order (the leftmost point is the least contended).
    pub degradation: Vec<DegradationPoint>,
}

impl HybridShootoutResult {
    /// The row with the given label.
    pub fn row(&self, label: &str) -> Option<&HybridRow> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// The hybrid rows only.
    pub fn hybrid_rows(&self) -> impl Iterator<Item = &HybridRow> {
        self.rows.iter().filter(|r| r.hybrid)
    }

    /// The best coverage win of any hybrid over standalone SHIFT *at
    /// equal-or-lower added storage* (positive when some hybrid wins both
    /// axes at once; the shootout's headline check).
    pub fn best_hybrid_coverage_win(&self) -> f64 {
        let Some(shift) = self.row("SHIFT") else {
            return f64::NEG_INFINITY;
        };
        self.hybrid_rows()
            .filter(|r| r.storage_kib <= shift.storage_kib + 1e-9)
            .map(|r| r.coverage - shift.coverage)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Number of adjacent degradation-sweep pairs where *lowering* the
    /// bandwidth *raised* coverage (beyond float noise) — zero when the
    /// coverage loss is monotone in contention.
    pub fn degradation_monotonicity_violations(&self) -> usize {
        self.degradation
            .windows(2)
            .filter(|w| w[1].coverage > w[0].coverage + 1e-9)
            .count()
    }

    /// Coverage lost between the widest and narrowest history port.
    pub fn degradation_span(&self) -> f64 {
        match (self.degradation.first(), self.degradation.last()) {
            (Some(first), Some(last)) => first.coverage - last.coverage,
            _ => 0.0,
        }
    }
}

/// The planned shootout: per workload, one baseline plus one run per design
/// and per throttled-bandwidth point.
#[derive(Clone, Debug)]
pub struct HybridShootoutPlan {
    designs: Vec<PrefetcherConfig>,
    bandwidths: Vec<u32>,
    cores: u16,
    /// Per workload: (baseline, per-design runs, per-bandwidth runs).
    rows: Vec<(RunHandle, Vec<RunHandle>, Vec<RunHandle>)>,
}

impl HybridShootoutPlan {
    /// The history-port bandwidths of the degradation sweep, in descending
    /// order (candidates per 64-access window).
    pub const BANDWIDTHS: [u32; 5] = [16, 8, 4, 2, 1];

    /// Plans the full shootout into `matrix`: the paper's standalone suite
    /// (next-line, PIF_32K, SHIFT), the hybrid suite, and the throttled-SHIFT
    /// sweep, sharing the per-workload baselines (and any runs other figures
    /// already planned) through the matrix's key deduplication.
    pub fn plan(
        matrix: &mut RunMatrix,
        workloads: &[WorkloadSpec],
        cores: u16,
        scale: Scale,
        seed: u64,
    ) -> Self {
        assert!(!workloads.is_empty());
        let mut designs = vec![
            PrefetcherConfig::next_line(),
            PrefetcherConfig::pif_32k(),
            PrefetcherConfig::shift_virtualized(),
        ];
        designs.extend(PrefetcherConfig::hybrid_suite());
        let bandwidths = Self::BANDWIDTHS.to_vec();
        let rows = workloads
            .iter()
            .map(|workload| {
                let baseline =
                    matrix.standalone(workload, PrefetcherConfig::None, cores, scale, seed);
                let runs = designs
                    .iter()
                    .map(|&p| matrix.standalone(workload, p, cores, scale, seed))
                    .collect();
                let throttled = bandwidths
                    .iter()
                    .map(|&bw| {
                        matrix.standalone(
                            workload,
                            PrefetcherConfig::shift_throttled(bw),
                            cores,
                            scale,
                            seed,
                        )
                    })
                    .collect();
                (baseline, runs, throttled)
            })
            .collect();
        HybridShootoutPlan {
            designs,
            bandwidths,
            cores,
            rows,
        }
    }

    /// Derives the shootout result from the executed matrix.
    pub fn collect(&self, outcomes: &RunOutcomes) -> HybridShootoutResult {
        let llc_blocks = CmpConfig::micro13(self.cores, PrefetcherConfig::None)
            .llc
            .capacity_blocks();
        let rows = self
            .designs
            .iter()
            .enumerate()
            .map(|(i, design)| {
                let mut coverage = Vec::new();
                let mut overprediction = Vec::new();
                let mut discard = Vec::new();
                let mut speedups = Vec::new();
                for (baseline, runs, _) in &self.rows {
                    let run = &outcomes[runs[i]];
                    coverage.push(run.coverage.coverage());
                    overprediction.push(run.coverage.overprediction());
                    discard.push(run.llc_overhead_ratio(AccessClass::Discard));
                    speedups.push(run.speedup_over(&outcomes[*baseline]));
                }
                let n = coverage.len() as f64;
                HybridRow {
                    label: design.label(),
                    hybrid: matches!(
                        design,
                        PrefetcherConfig::ShiftNextLine { .. }
                            | PrefetcherConfig::GatedPif { .. }
                            | PrefetcherConfig::AdaptiveNlShift { .. }
                            | PrefetcherConfig::ThrottledShift { .. }
                    ),
                    coverage: coverage.iter().sum::<f64>() / n,
                    overprediction: overprediction.iter().sum::<f64>() / n,
                    discard_ratio: discard.iter().sum::<f64>() / n,
                    speedup: geometric_mean(&speedups),
                    storage_kib: design.storage(llc_blocks).added_sram_kib(self.cores),
                }
            })
            .collect();
        let degradation = self
            .bandwidths
            .iter()
            .enumerate()
            .map(|(j, &bw)| {
                let coverages: Vec<f64> = self
                    .rows
                    .iter()
                    .map(|(_, _, throttled)| outcomes[throttled[j]].coverage.coverage())
                    .collect();
                DegradationPoint {
                    candidates_per_window: bw,
                    coverage: coverages.iter().sum::<f64>() / coverages.len() as f64,
                }
            })
            .collect();
        HybridShootoutResult { rows, degradation }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_trace::presets;

    fn shootout() -> HybridShootoutResult {
        let mut matrix = RunMatrix::new();
        let plan = HybridShootoutPlan::plan(
            &mut matrix,
            &[presets::tiny(), presets::web_frontend()],
            4,
            Scale::Test,
            0x60_1DEA,
        );
        plan.collect(&matrix.execute())
    }

    #[test]
    fn some_hybrid_beats_shift_coverage_at_equal_or_lower_storage() {
        let result = shootout();
        assert!(result.rows.len() >= 6);
        assert!(result.hybrid_rows().count() >= 3);
        let win = result.best_hybrid_coverage_win();
        assert!(
            win >= 0.0,
            "no hybrid beat standalone SHIFT at equal-or-lower storage (best win {win:.4})"
        );
    }

    #[test]
    fn throttling_history_bandwidth_degrades_coverage_monotonically() {
        let result = shootout();
        assert_eq!(
            result.degradation.len(),
            HybridShootoutPlan::BANDWIDTHS.len()
        );
        assert_eq!(
            result.degradation_monotonicity_violations(),
            0,
            "coverage rose as the port narrowed: {:?}",
            result.degradation
        );
        assert!(
            result.degradation_span() > 0.0,
            "narrowing the port to 1 candidate/window must lose coverage: {:?}",
            result.degradation
        );
    }

    #[test]
    fn shootout_shares_baselines_and_shift_runs_with_other_figures() {
        // Planning the shootout after a figure that already planned the
        // baseline and SHIFT runs must add only the shootout-specific keys.
        let workloads = [presets::tiny()];
        let mut matrix = RunMatrix::new();
        for w in &workloads {
            matrix.standalone(w, PrefetcherConfig::None, 4, Scale::Test, 7);
            matrix.standalone(w, PrefetcherConfig::shift_virtualized(), 4, Scale::Test, 7);
        }
        let before = matrix.len();
        HybridShootoutPlan::plan(&mut matrix, &workloads, 4, Scale::Test, 7);
        // 6 designs + 5 bandwidths + 1 baseline per workload, minus the 2
        // keys already planned.
        assert_eq!(matrix.len(), before + 6 + 5 + 1 - 2);
    }
}
