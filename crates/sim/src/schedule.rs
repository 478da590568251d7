//! Cost-model-driven run scheduling: rank planned runs by estimated work so
//! queue workers can claim **biggest-first**, weighted by their own measured
//! throughput.
//!
//! The elastic work queue ([`crate::shard`]) historically handed out runs in
//! canonical key order — an order chosen for *stability*, not for packing.
//! With heterogeneous fleets that is a real makespan problem: a slow worker
//! that claims a paper-scale many-core run last forces every fast worker to
//! idle while it finishes. The classic fix (LPT — longest processing time
//! first) needs a per-run cost estimate, which this module provides:
//!
//! * [`RunCost`] — the scalar estimate, in *weighted fetch units*: the run's
//!   total simulated fetches (warmup + measured, times cores) multiplied by a
//!   prefetcher-class weight. Costs are totally ordered and deterministic
//!   functions of the [`RunKey`], so every worker computes the same ranking
//!   without coordination.
//! * [`CostModel`] — the calibration table behind the estimate. Defaults come
//!   from the committed `docs/bench/BENCH_PR6.json` microbenchmarks (425.9
//!   ns/fetch baseline; SHIFT runs ~1.43× slower per fetch); pass a newer
//!   `BENCH_*.json` to [`CostModel::from_bench_json`] to recalibrate.
//! * [`SchedulePolicy`] — the knob the [`Execution`](crate::Execution)
//!   builder exposes: keep the stable canonical order or claim cost-ranked
//!   biggest-first.
//! * [`rank_by_cost`] — the ranking itself: slots sorted by cost descending,
//!   ties broken by [`RunKeyId`](crate::RunKeyId) ascending so the order is
//!   a total order and identical on every worker.
//!
//! Ordering **never** affects results: outcomes are keyed by run identity and
//! every simulation is deterministic in its key, so a cost-ordered drain
//! merges byte-identically to a serial one (locked by the `schedule`
//! integration tests).

use std::fmt;
use std::io;
use std::path::Path;
use std::str::FromStr;
use std::time::Duration;

use serde::{json, Deserialize, Serialize, Value};

use crate::config::PrefetcherConfig;
use crate::matrix::{RunKey, RunMatrix};

/// Estimated work of one planned run, in weighted fetch units.
///
/// The unit is "baseline-equivalent simulated fetches": total fetches the run
/// will simulate, scaled by how much slower its prefetcher class is per fetch
/// than the no-prefetch baseline. Costs compare across runs of any scale,
/// core count, and prefetcher, and a worker's throughput in these same units
/// (see the `rate` field of lock records) turns a cost into an estimated
/// duration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RunCost(u64);

impl RunCost {
    /// A cost of exactly `units` weighted fetch units.
    pub fn from_units(units: u64) -> Self {
        RunCost(units)
    }

    /// The cost in weighted fetch units.
    pub fn units(self) -> u64 {
        self.0
    }

    /// Estimated wall-clock duration on a worker draining `rate` weighted
    /// fetch units per second. `None` if the rate is zero (unknown).
    pub fn duration_at(self, rate: u64) -> Option<Duration> {
        if rate == 0 {
            return None;
        }
        Some(Duration::from_secs_f64(self.0 as f64 / rate as f64))
    }
}

impl fmt::Display for RunCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}wfu", self.0)
    }
}

/// Calibration table mapping a [`RunKey`] to a [`RunCost`].
///
/// The model is deliberately simple — `fetches × cores × class_weight` — so
/// it is a pure function of the key and identical on every worker. The
/// per-class weights capture the measured per-fetch slowdown of each
/// prefetcher class relative to the baseline engine.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Measured baseline simulation speed, in nanoseconds per fetch (the
    /// `engine/step_Baseline` microbenchmark).
    pub base_ns_per_fetch: f64,
    /// Per-fetch weight of next-line prefetching (near-free lookups).
    pub next_line_weight: f64,
    /// Per-fetch weight of PIF (per-core history lookups on every miss).
    pub pif_weight: f64,
    /// Per-fetch weight of virtualized SHIFT (the `engine/step_SHIFT` /
    /// `engine/step_Baseline` throughput ratio).
    pub shift_weight: f64,
    /// Per-fetch weight of idealized zero-latency SHIFT (no LLC traffic).
    pub shift_zero_latency_weight: f64,
    /// Per-fetch weight of dedicated-storage SHIFT.
    pub shift_dedicated_weight: f64,
}

impl Default for CostModel {
    /// Calibration committed from `docs/bench/BENCH_PR6.json`:
    /// `engine/step_Baseline` at 2,347,833 fetches/s (425.9 ns/fetch),
    /// `engine/step_SHIFT` at 1,638,388 fetches/s (weight 1.433), and PIF
    /// interpolated from the `lookup/pif_on_access_miss` /
    /// `lookup/shift_on_access_miss` latency ratio.
    fn default() -> Self {
        CostModel {
            base_ns_per_fetch: 425.9,
            next_line_weight: 1.05,
            pif_weight: 1.25,
            shift_weight: 1.433,
            shift_zero_latency_weight: 1.35,
            shift_dedicated_weight: 1.40,
        }
    }
}

impl CostModel {
    /// Recalibrates the model from a committed `BENCH_*.json` benchmark
    /// artifact (the `target/artifacts/BENCH.json` the `perf` binary writes,
    /// `cargo run --release -p shift-perf --bin perf`: a
    /// `data.components[]` table of `{group, name, ns_per_op, per_sec}`
    /// rows).
    ///
    /// Uses `engine/step_Baseline` for the base ns/fetch, the
    /// `engine/step_SHIFT` throughput ratio for the SHIFT weight, and the
    /// miss-path lookup latency ratio for the PIF weight. Components that are
    /// missing keep their [`CostModel::default`] values, so a partial table
    /// still calibrates what it can.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be read or is not valid JSON.
    pub fn from_bench_json(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let doc = json::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {e}")))?;
        let mut model = CostModel::default();
        let components = doc
            .get("data")
            .and_then(|d| d.get("components"))
            .and_then(|c| match c {
                Value::Seq(items) => Some(items.as_slice()),
                _ => None,
            })
            .unwrap_or(&[]);
        let field = |group: &str, name: &str, key: &str| -> Option<f64> {
            components.iter().find_map(|c| {
                let g = c.get("group")?.as_str()?;
                let n = c.get("name")?.as_str()?;
                if g == group && n == name {
                    c.get(key)?.as_f64()
                } else {
                    None
                }
            })
        };
        let base_per_sec = field("engine", "step_Baseline", "per_sec");
        if let Some(per_sec) = base_per_sec.filter(|&v| v > 0.0) {
            model.base_ns_per_fetch = 1e9 / per_sec;
        }
        if let (Some(base), Some(shift)) = (
            base_per_sec.filter(|&v| v > 0.0),
            field("engine", "step_SHIFT", "per_sec").filter(|&v| v > 0.0),
        ) {
            model.shift_weight = (base / shift).max(1.0);
            // Idealized/dedicated SHIFT scale with the virtualized weight:
            // same history engine, less (zero-latency) or equal LLC pressure.
            model.shift_zero_latency_weight = 1.0 + (model.shift_weight - 1.0) * 0.8;
            model.shift_dedicated_weight = 1.0 + (model.shift_weight - 1.0) * 0.93;
        }
        if let (Some(pif_ns), Some(shift_ns)) = (
            field("lookup", "pif_on_access_miss", "ns_per_op").filter(|&v| v > 0.0),
            field("lookup", "shift_on_access_miss", "ns_per_op").filter(|&v| v > 0.0),
        ) {
            // PIF's per-fetch overhead is the same miss path with a cheaper
            // lookup: scale the SHIFT overhead by the lookup latency ratio.
            model.pif_weight = 1.0 + (model.shift_weight - 1.0) * (pif_ns / shift_ns);
        }
        Ok(model)
    }

    /// Total simulated fetches of the run: (warmup + measured) × cores. This
    /// is the scale-and-width part of the cost, before class weighting.
    pub fn estimated_fetches(&self, key: &RunKey) -> u64 {
        let scale = key.options().scale;
        let per_core = scale.fetches_per_core() + scale.warmup_fetches_per_core();
        per_core as u64 * u64::from(key.config().cores)
    }

    /// The per-fetch weight of the run's prefetcher class relative to the
    /// no-prefetch baseline.
    pub fn class_weight(&self, prefetcher: &PrefetcherConfig) -> f64 {
        match prefetcher {
            PrefetcherConfig::None => 1.0,
            PrefetcherConfig::NextLine { .. } => self.next_line_weight,
            PrefetcherConfig::Pif(_) | PrefetcherConfig::GatedPif { .. } => self.pif_weight,
            PrefetcherConfig::Shift { mode, .. }
            | PrefetcherConfig::ThrottledShift { mode, .. } => self.shift_mode_weight(*mode),
            // Fallback/adaptive hybrids run both component hooks per fetch:
            // the SHIFT cost plus the (small) next-line overhead.
            PrefetcherConfig::ShiftNextLine { mode, .. }
            | PrefetcherConfig::AdaptiveNlShift { mode, .. } => {
                self.shift_mode_weight(*mode) + (self.next_line_weight - 1.0).max(0.0)
            }
        }
    }

    fn shift_mode_weight(&self, mode: shift_core::ShiftMode) -> f64 {
        use shift_core::ShiftMode;
        match mode {
            ShiftMode::Virtualized => self.shift_weight,
            ShiftMode::Dedicated { zero_latency: true } => self.shift_zero_latency_weight,
            ShiftMode::Dedicated {
                zero_latency: false,
            } => self.shift_dedicated_weight,
        }
    }

    /// The estimated cost of one planned run, in weighted fetch units.
    pub fn cost(&self, key: &RunKey) -> RunCost {
        let weighted =
            self.estimated_fetches(key) as f64 * self.class_weight(&key.config().prefetcher);
        RunCost(weighted.round() as u64)
    }

    /// Estimated single-thread wall-clock duration of the run at the
    /// calibrated base speed (used when a worker has no measured rate yet).
    pub fn estimated_duration(&self, key: &RunKey) -> Duration {
        let nanos = self.cost(key).units() as f64 * self.base_ns_per_fetch;
        Duration::from_nanos(nanos.round() as u64)
    }

    /// The calibrated reference throughput, in weighted fetch units per
    /// second: what a single un-throttled worker thread is expected to drain.
    pub fn reference_rate(&self) -> u64 {
        if self.base_ns_per_fetch <= 0.0 {
            return 0;
        }
        (1e9 / self.base_ns_per_fetch).round() as u64
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
    /// Biggest-first by [`RunCost`] (LPT packing), with slow workers
    /// deferring runs whose estimated duration exceeds the configured
    /// slowness cutoff. Merged results are byte-identical to canonical
    /// order; only the claim order and makespan change.
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
                "unknown schedule policy `{other}` (expected `canonical` or `cost`)"
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
pub fn rank_by_cost(model: &CostModel, matrix: &RunMatrix) -> Vec<usize> {
    let keys = matrix.keys();
    let ids = matrix.key_ids();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&slot| (std::cmp::Reverse(model.cost(&keys[slot])), ids[slot]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunMatrix;
    use shift_trace::{presets, Scale};

    #[test]
    fn cost_scales_with_cores_scale_and_class() {
        let model = CostModel::default();
        let w = presets::tiny();
        let mut matrix = RunMatrix::new();
        let _ = matrix.standalone(&w, PrefetcherConfig::None, 2, Scale::Test, 1);
        let _ = matrix.standalone(&w, PrefetcherConfig::None, 8, Scale::Test, 1);
        let _ = matrix.standalone(&w, PrefetcherConfig::shift_virtualized(), 2, Scale::Test, 1);
        let keys = matrix.keys(); // slot order == plan order
        assert!(
            model.cost(&keys[1]) > model.cost(&keys[0]),
            "more cores cost more"
        );
        assert!(
            model.cost(&keys[2]) > model.cost(&keys[0]),
            "SHIFT costs more than baseline"
        );
        // 4× the cores is exactly 4× the cost within a class.
        assert_eq!(
            model.cost(&keys[1]).units(),
            model.cost(&keys[0]).units() * 4
        );
    }

    #[test]
    fn default_model_matches_committed_bench_numbers() {
        let model = CostModel::default();
        assert!((model.base_ns_per_fetch - 425.9).abs() < 0.1);
        assert!((model.shift_weight - 1.433).abs() < 0.01);
        assert!(model.reference_rate() > 2_000_000);
    }

    #[test]
    fn from_bench_json_recalibrates_from_committed_table() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../docs/bench/BENCH_PR6.json");
        let model = CostModel::from_bench_json(&path).expect("committed bench table parses");
        // engine/step_Baseline: 2,347,832.7 fetches/s → ~425.9 ns/fetch.
        assert!((model.base_ns_per_fetch - 425.9).abs() < 0.5, "{model:?}");
        // step_Baseline / step_SHIFT throughput ratio → ~1.433.
        assert!((model.shift_weight - 1.433).abs() < 0.01, "{model:?}");
        // PIF interpolates below SHIFT via the lookup latency ratio.
        assert!(model.pif_weight > 1.0 && model.pif_weight < model.shift_weight);
    }

    #[test]
    fn missing_bench_file_errors_and_garbage_is_invalid_data() {
        assert!(CostModel::from_bench_json(Path::new("/nonexistent/bench.json")).is_err());
        let dir = std::env::temp_dir().join("shift-schedule-badjson");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json").unwrap();
        let err = CostModel::from_bench_json(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
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
        assert!("fastest".parse::<SchedulePolicy>().is_err());
        assert_eq!(SchedulePolicy::CostOrdered.to_string(), "cost-ordered");
        assert_eq!(SchedulePolicy::default(), SchedulePolicy::Canonical);
    }

    #[test]
    fn duration_estimates_follow_rate() {
        let cost = RunCost::from_units(1_000_000);
        assert_eq!(cost.duration_at(0), None);
        let d = cost.duration_at(500_000).unwrap();
        assert_eq!(d, Duration::from_secs(2));
        assert_eq!(cost.to_string(), "1000000wfu");
    }
}
