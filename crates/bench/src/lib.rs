//! The harness that regenerates every table and figure of the SHIFT paper.
//!
//! The `reproduce` binary is its one front door: [`reproduce::PaperPlan`]
//! plans every experiment of [`shift_sim::experiments`] into a single
//! deduplicated [`shift_sim::RunMatrix`], so runs shared between figures —
//! baselines above all — simulate exactly once. It writes each figure as a
//! machine-readable artifact (JSON + CSV + markdown with a paper-reference
//! block, built in [`artifacts`]) under `target/artifacts/` (override with
//! `SHIFT_ARTIFACTS`), then prints the reference scoreboard.
//!
//! The sweep settings come from the environment: the scale from
//! `SHIFT_SCALE` (`test`, `demo`, or `paper`; default `demo`), the core
//! count from `SHIFT_CORES` (default 16), and the workload subset from
//! `SHIFT_WORKLOADS` (a comma-separated list of case-insensitive substrings
//! of workload names; default: the full Table I suite). The simulations run
//! in parallel across the host's cores; set `SHIFT_THREADS` to pin the
//! worker count (e.g. `SHIFT_THREADS=1` for a serial reference run —
//! results are bit-identical at any thread count).
//!
//! Sweeps that outgrow one process use the binary's shard, queue, reuse and
//! merge modes (`reproduce --help`, `docs/SWEEP.md`, `docs/OPERATIONS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod reproduce;

use shift_trace::{presets, Scale, WorkloadSpec};

/// Seed every harness plan uses, so results are reproducible.
pub const HARNESS_SEED: u64 = 0x5417_2013;

/// Reads the experiment scale from `SHIFT_SCALE` (default [`Scale::Demo`]).
pub fn scale_from_env() -> Scale {
    match std::env::var("SHIFT_SCALE")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "test" => Scale::Test,
        "paper" => Scale::Paper,
        "demo" | "" => Scale::Demo,
        other => {
            eprintln!("unknown SHIFT_SCALE `{other}`, using demo");
            Scale::Demo
        }
    }
}

/// Reads the simulated core count from `SHIFT_CORES` (default 16). A value
/// that is not a positive integer warns and falls back to the default.
pub fn cores_from_env() -> u16 {
    let value = std::env::var("SHIFT_CORES").unwrap_or_default();
    if value.is_empty() {
        return 16;
    }
    match value.parse() {
        Ok(cores) if cores > 0 => cores,
        _ => {
            eprintln!("invalid SHIFT_CORES `{value}`, using 16");
            16
        }
    }
}

/// Reads the workload subset from `SHIFT_WORKLOADS` (default: full suite).
///
/// The variable is a comma-separated list of case-insensitive substrings
/// matched against workload names, e.g. `SHIFT_WORKLOADS=oltp,web`.
pub fn workloads_from_env() -> Vec<WorkloadSpec> {
    let suite = presets::paper_suite();
    match std::env::var("SHIFT_WORKLOADS") {
        Err(_) => suite,
        Ok(filter) if filter.trim().is_empty() => suite,
        Ok(filter) => {
            let needles: Vec<String> = filter
                .split(',')
                .map(|s| s.trim().to_lowercase())
                .filter(|s| !s.is_empty())
                .collect();
            let selected: Vec<WorkloadSpec> = suite
                .into_iter()
                .filter(|w| {
                    let name = w.name.to_lowercase();
                    needles.iter().any(|n| name.contains(n))
                })
                .collect();
            if selected.is_empty() {
                eprintln!("SHIFT_WORKLOADS matched nothing; using the full suite");
                presets::paper_suite()
            } else {
                selected
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_env_gives_full_suite_and_16_cores() {
        // The test environment does not set the variables.
        if std::env::var("SHIFT_WORKLOADS").is_err() {
            assert_eq!(workloads_from_env().len(), 7);
        }
        if std::env::var("SHIFT_CORES").is_err() {
            assert_eq!(cores_from_env(), 16);
        }
    }

    #[test]
    fn seed_is_stable() {
        assert_eq!(HARNESS_SEED, 0x5417_2013);
    }
}
