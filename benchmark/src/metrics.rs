//! The metrics the benchmark reports, with units and directions.
//!
//! `BENCHMARK.json` lists the same names; `tests/benchmark.rs` keeps the
//! two in step. Every metric listed here is emitted by every
//! workload: the end-to-end ones by an untraced run, the per-layer ones by a
//! traced run. Layer metrics that only some workloads exercise (the sweep
//! planner, the report renderer, the daemon's endpoints, the outcome store)
//! are printed by the traced run as workload-specific extras.

/// Whether a larger or a smaller value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`, as in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
///
/// A metric is bounded at 10% when its same-code spread and its drift
/// between two sets of runs stay within that; one that does not is a layer
/// metric instead (`sim.fetches_per_s`: whole minutes of the shared hosts
/// this runs on run a fifth slower). `setup_s` stays end to end whatever
/// its spread, so work moved into set-up shows; it carries the largest
/// bound, which its drift between sets of runs needs.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
];

/// Per-layer metrics, measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sim.fetches_per_s", "1/s", Higher),
    layer("trace.ns_per_fetch", "ns", Lower),
    layer("trace.events_per_fetch", "count", Lower),
    layer("cache.l1i_ns_per_access", "ns", Lower),
    layer("cache.l1d_ns_per_access", "ns", Lower),
    layer("cache.llc_ns_per_access", "ns", Lower),
    layer("cache.l1i_mpki", "1/kinstr", Lower),
    layer("cache.l1d_misses_per_fetch", "count", Lower),
    layer("cache.llc_accesses_per_fetch", "count", Lower),
    layer("cache.llc_miss_ratio", "ratio", Lower),
    layer("noc.ns_per_round_trip", "ns", Lower),
    layer("noc.overhead_flit_hops_per_kfetch", "count", Lower),
    layer("core.ns_per_fetch", "ns", Lower),
    layer("core.candidates_per_fetch", "count", Lower),
    layer("core.history_accesses_per_kfetch", "count", Lower),
    layer("core.index_accesses_per_kfetch", "count", Lower),
    layer("core.prefetches_per_kfetch", "count", Lower),
    layer("core.useful_ratio", "ratio", Higher),
    layer("core.l1i_coverage", "ratio", Higher),
    layer("cpu.ipc", "instr/cycle", Higher),
    layer("cpu.raw_fetch_stall_cpi", "cycles/instr", Lower),
    layer("cpu.raw_data_stall_cpi", "cycles/instr", Lower),
    layer("sim.engine_new_ms", "ms", Lower),
    layer("sim.step_ns_per_fetch", "ns", Lower),
    layer("sim.step_fetches_per_s_p50", "1/s", Higher),
    layer("sim.glue_ns_per_fetch", "ns", Lower),
    layer("sim.finish_ms", "ms", Lower),
    layer("harness.trace_overhead", "ratio", Lower),
];

/// The definition of `name`, from either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        let setup = find("setup_s").expect("setup_s is defined");
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }
}
