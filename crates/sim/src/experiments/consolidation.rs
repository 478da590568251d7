//! Figure 10: workload consolidation — four server workloads sharing the CMP,
//! each with its own OS image, history generator core, and LLC-embedded
//! history buffer.
//!
//! The paper's claim: SHIFT keeps working under consolidation (one
//! virtualized history per workload), speeding the mix up by ≈1.22 —
//! within ≈5 % of PIF_32K's benefit at a fraction of its storage, with
//! ZeroLat-SHIFT at ≈1.25. The summary's `speedups` are
//! `(prefetcher label, speedup over the consolidated no-prefetch baseline)`
//! pairs in configuration order.

use serde::{Deserialize, Serialize};
use shift_trace::{ConsolidationSpec, Scale, WorkloadSpec};

use crate::config::{CmpConfig, PrefetcherConfig, SimOptions};
use crate::matrix::{RunHandle, RunMatrix};
use crate::store::RunOutcomes;

/// The Figure 10 result: speedups of each prefetcher configuration over the
/// no-prefetch baseline for the consolidated mix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConsolidationResult {
    /// Names of the consolidated workloads.
    pub workloads: Vec<String>,
    /// `(prefetcher label, speedup)` pairs in configuration order.
    pub speedups: Vec<(String, f64)>,
}

impl ConsolidationResult {
    /// Speedup of the configuration with the given label.
    pub fn speedup_of(&self, label: &str) -> Option<f64> {
        self.speedups
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, s)| *s)
    }
}

/// The planned Figure 10 sweep: the consolidated-mix baseline plus one
/// consolidated run per prefetcher configuration.
#[derive(Clone, Debug)]
pub struct ConsolidationPlan {
    workloads: Vec<String>,
    labels: Vec<String>,
    baseline: RunHandle,
    handles: Vec<RunHandle>,
}

impl ConsolidationPlan {
    /// Plans the consolidated runs into `matrix`: `workloads` are
    /// consolidated evenly onto `cores` cores, and each configuration's
    /// throughput is compared to the no-prefetch baseline. Duplicate
    /// configurations collapse onto a single run, including a `None` entry
    /// onto the baseline.
    pub fn plan(
        matrix: &mut RunMatrix,
        workloads: &[WorkloadSpec],
        prefetchers: &[PrefetcherConfig],
        cores: u16,
        scale: Scale,
        seed: u64,
    ) -> Self {
        assert!(!workloads.is_empty() && !prefetchers.is_empty());
        let spec = ConsolidationSpec::even_split(workloads.to_vec(), cores);
        let options = SimOptions::new(scale, seed);

        let baseline = matrix.consolidated(
            CmpConfig::micro13(cores, PrefetcherConfig::None),
            &spec,
            options,
        );
        let handles = prefetchers
            .iter()
            .map(|&p| matrix.consolidated(CmpConfig::micro13(cores, p), &spec, options))
            .collect();
        ConsolidationPlan {
            workloads: workloads.iter().map(|w| w.name.clone()).collect(),
            labels: prefetchers.iter().map(PrefetcherConfig::label).collect(),
            baseline,
            handles,
        }
    }

    /// Derives the Figure 10 result from the executed matrix.
    pub fn collect(&self, outcomes: &RunOutcomes) -> ConsolidationResult {
        let speedups = self
            .labels
            .iter()
            .zip(&self.handles)
            .map(|(label, &handle)| {
                (
                    label.clone(),
                    outcomes[handle].speedup_over(&outcomes[self.baseline]),
                )
            })
            .collect();
        ConsolidationResult {
            workloads: self.workloads.clone(),
            speedups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_trace::presets;

    #[test]
    fn consolidated_shift_still_speeds_up() {
        // Two tiny workloads on four cores keeps the test fast while still
        // exercising per-workload histories and generator cores.
        let workloads = vec![
            presets::tiny().with_region_index(0),
            presets::tiny().with_region_index(1),
        ];
        let mut matrix = RunMatrix::new();
        let plan = ConsolidationPlan::plan(
            &mut matrix,
            &workloads,
            &[
                PrefetcherConfig::next_line(),
                PrefetcherConfig::shift_virtualized(),
            ],
            4,
            Scale::Test,
            23,
        );
        let result = plan.collect(&matrix.execute());
        let shift = result.speedup_of("SHIFT").unwrap();
        let nl = result.speedup_of("NextLine").unwrap();
        assert!(shift > 1.0, "SHIFT must speed up the consolidated mix");
        assert!(
            shift > nl * 0.98,
            "SHIFT should be at least on par with next-line"
        );
        assert_eq!(result.workloads.len(), 2);
    }
}
