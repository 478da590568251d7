//! Cost-model-driven run scheduling: rank planned runs by estimated work so
//! workers can claim **biggest-first**.
//!
//! The elastic work queue ([`crate::shard`]) historically handed out runs in
//! canonical key order — an order chosen for *stability*, not for packing.
//! That is a real makespan problem: a worker that claims a paper-scale
//! many-core run last forces every other worker to idle while it finishes.
//! The classic fix (LPT — longest processing time first) needs a per-run
//! cost estimate, which this module provides:
//!
//! * [`RunCost`] — the scalar estimate, in *weighted fetch units*: the run's
//!   total simulated fetches (warmup + measured, times cores) multiplied by a
//!   constant prefetcher-class weight measured once from the committed
//!   `docs/bench/BENCH_PR6.json` microbenchmarks (SHIFT simulates a fetch
//!   ~1.43× slower than the baseline; `docs/PERFORMANCE.md` tabulates every
//!   weight). [`RunCost::of`] is a deterministic function of the
//!   [`RunKey`], so every worker computes the same ranking without
//!   coordination.
//! * [`SchedulePolicy`] — the knob the [`Execution`](crate::Execution)
//!   builder exposes: keep the stable canonical order or claim cost-ranked
//!   biggest-first.
//! * [`rank_by_cost`] — the ranking itself: slots sorted by cost descending,
//!   ties broken by [`RunKeyId`](crate::RunKeyId) ascending so the order is
//!   a total order, computed from the plan alone and identical on every
//!   worker.
//!
//! Ordering **never** affects results: outcomes are keyed by run identity and
//! every simulation is deterministic in its key, so a cost-ordered drain
//! merges byte-identically to a serial one (locked by the `schedule`
//! integration tests).

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};
use shift_core::ShiftMode;

use crate::config::PrefetcherConfig;
use crate::matrix::{RunKey, RunMatrix};

/// Estimated work of one planned run, in weighted fetch units.
///
/// The unit is "baseline-equivalent simulated fetches": total fetches the run
/// will simulate, scaled by how much slower its prefetcher class is per fetch
/// than the no-prefetch baseline. Costs compare across runs of any scale,
/// core count, and prefetcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RunCost(u64);

impl RunCost {
    /// The estimated cost of one planned run: its total simulated fetches
    /// (warmup + measured, times cores) times its prefetcher's class
    /// weight, rounded to whole units. A pure function of the key, so every
    /// worker computes the same cost.
    pub fn of(key: &RunKey) -> Self {
        let scale = key.options().scale;
        let per_core = scale.fetches_per_core() + scale.warmup_fetches_per_core();
        let fetches = per_core as u64 * u64::from(key.config().cores);
        let weighted = fetches as f64 * class_weight(&key.config().prefetcher);
        RunCost(weighted.round() as u64)
    }

    /// The cost in weighted fetch units.
    pub fn units(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RunCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}wfu", self.0)
    }
}

/// Next-line prefetching: near-free lookups.
const NEXT_LINE_WEIGHT: f64 = 1.05;
/// PIF: per-core history lookups on every miss, interpolated from the
/// `lookup/pif_on_access_miss` / `lookup/shift_on_access_miss` latency
/// ratio.
const PIF_WEIGHT: f64 = 1.25;
/// Virtualized SHIFT: the `engine/step_Baseline` / `engine/step_SHIFT`
/// throughput ratio.
const SHIFT_WEIGHT: f64 = 1.433;
/// Idealized zero-latency SHIFT: no LLC history traffic.
const SHIFT_ZERO_LATENCY_WEIGHT: f64 = 1.35;
/// Dedicated-storage SHIFT.
const SHIFT_DEDICATED_WEIGHT: f64 = 1.40;

/// The per-fetch weight of `prefetcher`'s class relative to the no-prefetch
/// baseline.
fn class_weight(prefetcher: &PrefetcherConfig) -> f64 {
    match prefetcher {
        PrefetcherConfig::None => 1.0,
        PrefetcherConfig::NextLine { .. } => NEXT_LINE_WEIGHT,
        PrefetcherConfig::Pif(_) | PrefetcherConfig::GatedPif { .. } => PIF_WEIGHT,
        PrefetcherConfig::Shift { mode, .. } | PrefetcherConfig::ThrottledShift { mode, .. } => {
            shift_mode_weight(*mode)
        }
        // Fallback/adaptive hybrids run both component hooks per fetch:
        // the SHIFT cost plus the (small) next-line overhead.
        PrefetcherConfig::ShiftNextLine { mode, .. }
        | PrefetcherConfig::AdaptiveNlShift { mode, .. } => {
            shift_mode_weight(*mode) + (NEXT_LINE_WEIGHT - 1.0).max(0.0)
        }
    }
}

fn shift_mode_weight(mode: ShiftMode) -> f64 {
    match mode {
        ShiftMode::Virtualized => SHIFT_WEIGHT,
        ShiftMode::Dedicated { zero_latency: true } => SHIFT_ZERO_LATENCY_WEIGHT,
        ShiftMode::Dedicated {
            zero_latency: false,
        } => SHIFT_DEDICATED_WEIGHT,
    }
}

/// In what order queue workers claim runs (and in-memory executors pack
/// them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulePolicy {
    /// Stable canonical key order — the pre-cost-model behavior, and the
    /// order every cross-process enumeration (shards, manifests) uses.
    #[default]
    Canonical,
    /// Biggest-first by [`RunCost`] (LPT packing): the [`rank_by_cost`]
    /// order, the same on every worker. Merged results are byte-identical
    /// to canonical order; only the claim order and makespan change.
    CostOrdered,
}

impl SchedulePolicy {
    /// The lowercase token the command line and the decision log use.
    pub fn as_str(self) -> &'static str {
        match self {
            SchedulePolicy::Canonical => "canonical",
            SchedulePolicy::CostOrdered => "cost-ordered",
        }
    }
}

impl fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for SchedulePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "canonical" => Ok(SchedulePolicy::Canonical),
            "cost" | "cost-ordered" | "cost_ordered" => Ok(SchedulePolicy::CostOrdered),
            other => Err(format!(
                "unknown schedule policy `{other}` (expected `canonical` or `cost-ordered`)"
            )),
        }
    }
}

/// Plan-order slot indices ranked for claiming: cost **descending**, ties
/// broken by [`RunKeyId`](crate::RunKeyId) **ascending**.
///
/// The tie-break makes the ranking a total order over distinct runs (key ids
/// are unique within a matrix), so every worker — with no coordination —
/// computes the identical claim order from the same plan.
pub fn rank_by_cost(matrix: &RunMatrix) -> Vec<usize> {
    let keys = matrix.keys();
    let ids = matrix.key_ids();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&slot| (std::cmp::Reverse(RunCost::of(&keys[slot])), ids[slot]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunMatrix;
    use shift_trace::{presets, Scale};

    #[test]
    fn cost_scales_with_cores_scale_and_class() {
        let w = presets::tiny();
        let mut matrix = RunMatrix::new();
        let _ = matrix.standalone(&w, PrefetcherConfig::None, 2, Scale::Test, 1);
        let _ = matrix.standalone(&w, PrefetcherConfig::None, 8, Scale::Test, 1);
        let _ = matrix.standalone(&w, PrefetcherConfig::shift_virtualized(), 2, Scale::Test, 1);
        let keys = matrix.keys(); // slot order == plan order
        assert!(
            RunCost::of(&keys[1]) > RunCost::of(&keys[0]),
            "more cores cost more"
        );
        assert!(
            RunCost::of(&keys[2]) > RunCost::of(&keys[0]),
            "SHIFT costs more than baseline"
        );
        // 4× the cores is exactly 4× the cost within a class.
        assert_eq!(
            RunCost::of(&keys[1]).units(),
            RunCost::of(&keys[0]).units() * 4
        );
        assert_eq!(RunCost(1_000_000).to_string(), "1000000wfu");
    }

    #[test]
    fn policy_parses_and_displays() {
        assert_eq!(
            "canonical".parse::<SchedulePolicy>(),
            Ok(SchedulePolicy::Canonical)
        );
        assert_eq!(
            "cost".parse::<SchedulePolicy>(),
            Ok(SchedulePolicy::CostOrdered)
        );
        assert_eq!(
            "Cost-Ordered".parse::<SchedulePolicy>(),
            Ok(SchedulePolicy::CostOrdered)
        );
        assert_eq!(
            "fastest".parse::<SchedulePolicy>(),
            Err(
                "unknown schedule policy `fastest` (expected `canonical` or `cost-ordered`)".into()
            )
        );
        assert_eq!(SchedulePolicy::CostOrdered.to_string(), "cost-ordered");
        assert_eq!(SchedulePolicy::default(), SchedulePolicy::Canonical);
    }
}
