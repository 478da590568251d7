//! §5.7: power overhead of SHIFT's history and index activity.
//!
//! The paper's claim: the extra LLC data-array accesses (history log),
//! tag-array accesses (index updates), and NoC flit-hops together cost under
//! ≈150 mW on the 16-core CMP — negligible against tens of watts of cores.
//! Each [`PowerRow`] holds the per-workload [`PowerBreakdown`] (LLC data,
//! LLC tag, NoC, all in milliwatts) produced by [`PowerModel::nm40`].

use serde::{Deserialize, Serialize};
use shift_metrics::{PowerBreakdown, PowerModel};
use shift_trace::{Scale, WorkloadSpec};

use crate::config::PrefetcherConfig;
use crate::matrix::{RunHandle, RunMatrix};
use crate::store::RunOutcomes;

/// One workload's power overhead.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PowerRow {
    /// LLC + NoC power overhead breakdown.
    pub breakdown: PowerBreakdown,
}

/// The §5.7 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PowerOverheadResult {
    /// `(workload, power breakdown)` rows.
    pub rows: Vec<(String, PowerRow)>,
}

impl PowerOverheadResult {
    /// Worst-case (maximum) total overhead across workloads, in milliwatts.
    pub fn max_total_mw(&self) -> f64 {
        self.rows
            .iter()
            .map(|(_, r)| r.breakdown.total_mw())
            .fold(0.0, f64::max)
    }

    /// Average total overhead across workloads, in milliwatts.
    pub fn mean_total_mw(&self) -> f64 {
        if self.rows.is_empty() {
            0.0
        } else {
            self.rows
                .iter()
                .map(|(_, r)| r.breakdown.total_mw())
                .sum::<f64>()
                / self.rows.len() as f64
        }
    }
}

/// The planned §5.7 sweep: one virtualized-SHIFT run per workload (the same
/// runs Figures 8 and 9 use, so planning into a shared matrix costs nothing
/// extra).
#[derive(Clone, Debug)]
pub struct PowerOverheadPlan {
    workloads: Vec<String>,
    handles: Vec<RunHandle>,
}

impl PowerOverheadPlan {
    /// Plans the per-workload virtualized-SHIFT runs into `matrix`.
    pub fn plan(
        matrix: &mut RunMatrix,
        workloads: &[WorkloadSpec],
        cores: u16,
        scale: Scale,
        seed: u64,
    ) -> Self {
        let handles = workloads
            .iter()
            .map(|w| {
                matrix.standalone(w, PrefetcherConfig::shift_virtualized(), cores, scale, seed)
            })
            .collect();
        PowerOverheadPlan {
            workloads: workloads.iter().map(|w| w.name.clone()).collect(),
            handles,
        }
    }

    /// Converts the executed runs' history/index/NoC activity to power via
    /// [`PowerModel::nm40`].
    pub fn collect(&self, outcomes: &RunOutcomes) -> PowerOverheadResult {
        let model = PowerModel::nm40();
        let rows = self
            .workloads
            .iter()
            .zip(&self.handles)
            .map(|(workload, &handle)| {
                let run = &outcomes[handle];
                let cycles = run.mean_cycles().max(1.0) as u64;
                let breakdown = model.overhead(
                    run.history_block_accesses,
                    run.index_accesses,
                    run.overhead_flit_hops,
                    cycles,
                );
                (workload.clone(), PowerRow { breakdown })
            })
            .collect();
        PowerOverheadResult { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_trace::presets;

    #[test]
    fn power_overhead_is_small() {
        let mut matrix = RunMatrix::new();
        let plan = PowerOverheadPlan::plan(&mut matrix, &[presets::tiny()], 4, Scale::Test, 13);
        let result = plan.collect(&matrix.execute());
        assert_eq!(result.rows.len(), 1);
        let total = result.max_total_mw();
        assert!(total > 0.0, "history activity must consume some power");
        assert!(
            total < 300.0,
            "power overhead must stay small (got {total} mW)"
        );
        assert!(result.mean_total_mw() <= result.max_total_mw());
    }
}
