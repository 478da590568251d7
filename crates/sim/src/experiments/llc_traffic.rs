//! Figure 9: extra LLC traffic introduced by SHIFT (history reads, history
//! writes, and discarded prefetches), normalized to the baseline LLC traffic.
//!
//! The paper's claim: virtualizing the history into the LLC costs little —
//! history reads + writes add ≈6 %, discarded prefetches ≈7 %, and
//! tag-array index updates ≈2.5 % of baseline LLC traffic on average. Each
//! [`LlcTrafficRow`] field is one of those traffic classes as a fraction of
//! the same run's baseline (demand) traffic.

use serde::{Deserialize, Serialize};
use shift_trace::{Scale, WorkloadSpec};
use shift_types::AccessClass;

use crate::config::PrefetcherConfig;
use crate::matrix::{RunHandle, RunMatrix};
use crate::store::RunOutcomes;

/// One workload's LLC traffic overhead.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LlcTrafficRow {
    /// History-buffer reads ("LogRead") as a fraction of baseline traffic.
    pub log_read: f64,
    /// History-buffer writes ("LogWrite") as a fraction of baseline traffic.
    pub log_write: f64,
    /// Discarded prefetch reads as a fraction of baseline traffic.
    pub discard: f64,
    /// Index updates (tag array only) as a fraction of baseline traffic.
    pub index_update: f64,
}

impl LlcTrafficRow {
    /// Total data-array traffic overhead (index updates excluded, as in the
    /// paper's figure).
    pub fn total_data_overhead(&self) -> f64 {
        self.log_read + self.log_write + self.discard
    }
}

/// The Figure 9 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LlcTrafficResult {
    /// `(workload name, overhead breakdown)` per workload.
    pub rows: Vec<(String, LlcTrafficRow)>,
}

impl LlcTrafficResult {
    /// Average of a column across workloads.
    pub fn average<F: Fn(&LlcTrafficRow) -> f64>(&self, column: F) -> f64 {
        if self.rows.is_empty() {
            0.0
        } else {
            self.rows.iter().map(|(_, r)| column(r)).sum::<f64>() / self.rows.len() as f64
        }
    }
}

/// The planned Figure 9 sweep: one virtualized-SHIFT run per workload.
///
/// These runs are shared by key with Figure 8's SHIFT column and the §5.7
/// power estimate when planned into the same [`RunMatrix`].
#[derive(Clone, Debug)]
pub struct LlcTrafficPlan {
    workloads: Vec<String>,
    handles: Vec<RunHandle>,
}

impl LlcTrafficPlan {
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
        LlcTrafficPlan {
            workloads: workloads.iter().map(|w| w.name.clone()).collect(),
            handles,
        }
    }

    /// Derives the Figure 9 result from the executed matrix.
    pub fn collect(&self, outcomes: &RunOutcomes) -> LlcTrafficResult {
        let rows = self
            .workloads
            .iter()
            .zip(&self.handles)
            .map(|(workload, &handle)| {
                let run = &outcomes[handle];
                (
                    workload.clone(),
                    LlcTrafficRow {
                        log_read: run.llc_overhead_ratio(AccessClass::HistoryRead),
                        log_write: run.llc_overhead_ratio(AccessClass::HistoryWrite),
                        discard: run.llc_overhead_ratio(AccessClass::Discard),
                        index_update: run.llc_overhead_ratio(AccessClass::IndexUpdate),
                    },
                )
            })
            .collect();
        LlcTrafficResult { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_trace::presets;

    #[test]
    fn shift_traffic_overhead_is_modest() {
        let mut matrix = RunMatrix::new();
        let plan = LlcTrafficPlan::plan(&mut matrix, &[presets::tiny()], 4, Scale::Test, 17);
        let result = plan.collect(&matrix.execute());
        let (_, row) = &result.rows[0];
        assert!(
            row.log_read > 0.0,
            "history reads must appear in the LLC traffic"
        );
        assert!(
            row.total_data_overhead() < 0.8,
            "history traffic must remain a modest fraction of baseline traffic (got {})",
            row.total_data_overhead()
        );
        assert!(result.average(|r| r.log_read) > 0.0);
    }
}
