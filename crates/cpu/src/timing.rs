//! The analytical front-end stall timing model.

use serde::{Deserialize, Serialize};

use crate::params::{CoreKind, CoreParams};

/// Per-core accumulator of the quantities the timing model needs.
///
/// The trace-driven simulator feeds it retired instruction counts and the raw
/// (unoverlapped) latencies of instruction and data misses; the
/// [`CoreTiming`] model then converts the totals into cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TimingAccumulator {
    /// Retired instructions.
    pub instructions: u64,
    /// Sum of raw instruction-miss latencies (cycles before overlap).
    pub raw_fetch_stall_cycles: u64,
    /// Sum of raw data-miss latencies (cycles before overlap).
    pub raw_data_stall_cycles: u64,
}

impl TimingAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds retired instructions.
    pub fn retire_instructions(&mut self, count: u64) {
        self.instructions += count;
    }

    /// Adds the raw latency of one instruction-fetch miss (or partial miss).
    pub fn fetch_stall(&mut self, raw_latency: u64) {
        self.raw_fetch_stall_cycles += raw_latency;
    }

    /// Adds the raw latency of one data miss.
    pub fn data_stall(&mut self, raw_latency: u64) {
        self.raw_data_stall_cycles += raw_latency;
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &TimingAccumulator) {
        self.instructions += other.instructions;
        self.raw_fetch_stall_cycles += other.raw_fetch_stall_cycles;
        self.raw_data_stall_cycles += other.raw_data_stall_cycles;
    }
}

/// The analytical timing model for one core type.
///
/// Total cycles are
///
/// ```text
/// cycles = instructions × base_cpi
///        + raw_fetch_stall × (1 − fetch_stall_overlap)
///        + raw_data_stall × (1 − data_stall_overlap)
/// ```
///
/// Performance is reported as instructions per cycle (the paper uses
/// application instructions per total cycle, which this model mirrors because
/// the trace interleaves OS instructions into the same stream).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoreTiming {
    params: CoreParams,
}

impl CoreTiming {
    /// Creates the timing model for a core kind.
    pub fn new(kind: CoreKind) -> Self {
        CoreTiming {
            params: kind.params(),
        }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &CoreParams {
        &self.params
    }

    /// Creates an empty accumulator for this model.
    pub fn new_accumulator(&self) -> TimingAccumulator {
        TimingAccumulator::new()
    }

    /// Cycles spent on useful execution (no miss stalls).
    pub fn base_cycles(&self, instructions: u64) -> f64 {
        instructions as f64 * self.params.base_cpi
    }

    /// Total cycles for the accumulated work.
    pub fn total_cycles(&self, acc: &TimingAccumulator) -> f64 {
        self.base_cycles(acc.instructions)
            + acc.raw_fetch_stall_cycles as f64 * self.params.exposed_fetch_fraction()
            + acc.raw_data_stall_cycles as f64 * self.params.exposed_data_fraction()
    }

    /// Instructions per cycle for the accumulated work.
    pub fn ipc(&self, acc: &TimingAccumulator) -> f64 {
        let cycles = self.total_cycles(acc);
        if cycles == 0.0 {
            0.0
        } else {
            acc.instructions as f64 / cycles
        }
    }

    /// Fraction of total cycles spent stalled on instruction fetch.
    pub fn fetch_stall_fraction(&self, acc: &TimingAccumulator) -> f64 {
        let total = self.total_cycles(acc);
        if total == 0.0 {
            0.0
        } else {
            acc.raw_fetch_stall_cycles as f64 * self.params.exposed_fetch_fraction() / total
        }
    }

    /// Speedup of `improved` over `baseline` (same instruction counts assumed;
    /// computed as the ratio of IPCs).
    pub fn speedup(&self, baseline: &TimingAccumulator, improved: &TimingAccumulator) -> f64 {
        let base_ipc = self.ipc(baseline);
        let new_ipc = self.ipc(improved);
        if base_ipc == 0.0 {
            0.0
        } else {
            new_ipc / base_ipc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(instr: u64, fetch: u64, data: u64) -> TimingAccumulator {
        TimingAccumulator {
            instructions: instr,
            raw_fetch_stall_cycles: fetch,
            raw_data_stall_cycles: data,
        }
    }

    #[test]
    fn in_order_core_exposes_full_fetch_latency() {
        let t = CoreTiming::new(CoreKind::LeanIO);
        let a = acc(1_000, 500, 0);
        let expected = 1_000.0 * t.params().base_cpi + 500.0;
        assert!((t.total_cycles(&a) - expected).abs() < 1e-9);
    }

    #[test]
    fn ooo_core_hides_part_of_fetch_latency() {
        let lean = CoreTiming::new(CoreKind::LeanOoO);
        let fat = CoreTiming::new(CoreKind::FatOoO);
        let a = acc(1_000, 500, 0);
        let lean_stall = lean.total_cycles(&a) - lean.base_cycles(1_000);
        let fat_stall = fat.total_cycles(&a) - fat.base_cycles(1_000);
        assert!(fat_stall < lean_stall);
        assert!(lean_stall < 500.0);
    }

    #[test]
    fn removing_fetch_stalls_speeds_up_linearly() {
        // The model must reproduce Figure 1's linear relationship: speedup is
        // linear in the fraction of fetch stall removed.
        let t = CoreTiming::new(CoreKind::LeanOoO);
        let baseline = acc(10_000, 4_000, 2_000);
        let half = acc(10_000, 2_000, 2_000);
        let none = acc(10_000, 0, 2_000);
        let s_half = t.speedup(&baseline, &half);
        let s_none = t.speedup(&baseline, &none);
        assert!(s_none > s_half);
        assert!(s_half > 1.0);
        // Cycle savings are exactly linear; check the midpoint in cycle space.
        let mid_cycles = (t.total_cycles(&baseline) + t.total_cycles(&none)) / 2.0;
        assert!((t.total_cycles(&half) - mid_cycles).abs() < 1e-9);
    }

    #[test]
    fn ipc_and_stall_fraction_are_consistent() {
        let t = CoreTiming::new(CoreKind::LeanOoO);
        let a = acc(10_000, 3_000, 1_000);
        let ipc = t.ipc(&a);
        assert!(ipc > 0.0 && ipc < t.params().dispatch_width as f64);
        let frac = t.fetch_stall_fraction(&a);
        assert!(frac > 0.0 && frac < 1.0);
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = acc(10, 20, 30);
        a.merge(&acc(1, 2, 3));
        assert_eq!(a, acc(11, 22, 33));
    }

    #[test]
    fn zero_work_yields_zero_ipc() {
        let t = CoreTiming::new(CoreKind::FatOoO);
        assert_eq!(t.ipc(&TimingAccumulator::new()), 0.0);
        assert_eq!(t.fetch_stall_fraction(&TimingAccumulator::new()), 0.0);
    }
}
