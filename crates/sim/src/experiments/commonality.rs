//! Figure 3: instruction stream commonality across cores.
//!
//! One core picked as the recorder logs its instruction-cache access stream
//! into a (large) history; every other core, upon referencing the head of a
//! recorded stream, replays the most recent occurrence and counts how many of
//! its subsequent accesses match the replayed stream. The paper finds that
//! more than 90 % of all instruction cache accesses fall within common
//! temporal streams.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use shift_cache::{LlcConfig, NucaLlc};
use shift_core::{InstructionPrefetcher, Shift, ShiftConfig};
use shift_trace::workload::WorkloadProgram;
use shift_trace::{CoreTraceGenerator, Scale, WorkloadSpec};
use shift_types::{BlockAddr, CoreId};

use crate::matrix::parallel_map;

/// Per-workload commonality result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CommonalityRow {
    /// Workload name.
    pub workload: String,
    /// Fraction of instruction-cache accesses (from the non-recording cores)
    /// that fall within streams recorded by the single recording core.
    pub common_fraction: f64,
}

/// The Figure 3 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CommonalityResult {
    /// One row per workload.
    pub rows: Vec<CommonalityRow>,
}

impl CommonalityResult {
    /// Average commonality across workloads.
    pub fn mean(&self) -> f64 {
        if self.rows.is_empty() {
            0.0
        } else {
            self.rows.iter().map(|r| r.common_fraction).sum::<f64>() / self.rows.len() as f64
        }
    }
}

/// Runs the commonality study for each workload.
///
/// The recorder is core 0 (the paper observes no sensitivity to the choice);
/// `cores` cores run the workload, and the measurement covers
/// `scale.fetches_per_core()` accesses per core after an equally long
/// recording warm-up.
///
/// This is an opportunity study over raw trace streams, not `Simulation`
/// runs, so instead of a [`RunMatrix`](crate::matrix::RunMatrix) the
/// per-workload measurements fan out through the same worker pool via
/// [`parallel_map`].
pub fn commonality(
    workloads: &[WorkloadSpec],
    cores: u16,
    scale: Scale,
    seed: u64,
) -> CommonalityResult {
    assert!(
        cores >= 2,
        "commonality needs a recorder and at least one replayer"
    );
    let rows = parallel_map(workloads, |w| CommonalityRow {
        workload: w.name.clone(),
        common_fraction: commonality_of_workload(w, cores, scale, seed),
    });
    CommonalityResult { rows }
}

fn commonality_of_workload(workload: &WorkloadSpec, cores: u16, scale: Scale, seed: u64) -> f64 {
    let program = WorkloadProgram::build(workload);
    let mut generators: Vec<CoreTraceGenerator> = CoreId::range(cores)
        .map(|c| CoreTraceGenerator::with_program(Arc::clone(&program), c, seed))
        .collect();

    // A dedicated, zero-latency SHIFT with a generous history serves as the
    // stream recorder/replayer for this opportunity study.
    let mut config = ShiftConfig::zero_latency_micro13(CoreId::new(0));
    config.history_records = 128 * 1024;
    config.index_entries = 64 * 1024;
    let mut shift = Shift::new(config, cores);
    let mut llc = NucaLlc::new(LlcConfig::micro13(cores as usize));

    let warmup = scale.warmup_fetches_per_core();
    let measured = scale.fetches_per_core();
    let mut common = 0u64;
    let mut total = 0u64;
    let mut scratch = Vec::new();

    for phase in 0..2 {
        let steps = if phase == 0 { warmup } else { measured };
        for _ in 0..steps {
            for (core_idx, generator) in generators.iter_mut().enumerate() {
                let core = CoreId::new(core_idx as u16);
                let block: BlockAddr = generator.next_fetch().block;
                if phase == 1 && core_idx != 0 {
                    total += 1;
                    if shift.covers(core, block) {
                        common += 1;
                    } else {
                        // Referencing the head of a recorded stream starts a
                        // replay of its most recent occurrence.
                        scratch.clear();
                        shift.on_access(core, block, false, &mut llc, &mut scratch);
                        if shift.covers(core, block) {
                            common += 1;
                        }
                    }
                }
                scratch.clear();
                shift.on_retire(core, block, &mut llc, &mut scratch);
            }
        }
    }

    if total == 0 {
        0.0
    } else {
        common as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_trace::presets;

    #[test]
    fn tiny_workload_shows_high_commonality() {
        let result = commonality(&[presets::tiny()], 4, Scale::Test, 5);
        assert_eq!(result.rows.len(), 1);
        let frac = result.rows[0].common_fraction;
        assert!(
            frac > 0.7,
            "cores running the same workload should share most streams (got {frac})"
        );
        assert!(frac <= 1.0);
        assert!(result.mean() > 0.0);
    }
}
