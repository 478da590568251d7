//! Host-memory footprint of the Figure 6 "inf" points.
//!
//! The unbounded point of the Figure 6 sweep configures one shared SHIFT
//! history of 4 Mi records and a PIF history of 1 Mi records per core on a
//! 4-core CMP. A Test-scale run writes a few tens of thousands of records, so
//! a history buffer and index table sized by the records a run writes keep
//! such a run small: with 8-byte history records and 8-byte code fragments
//! its RSS grows 1.15–1.20 MiB (SHIFT) and 1.05 MiB (PIF), where 16-byte
//! records grew it 1.2–1.3 and 1.7 MiB, past the 1.25 MiB bound, and
//! 24-byte records with 16-byte fragments 1.4–1.5 and 2.2 MiB. Allocating
//! the histories to their configured capacity costs well over 100 MiB per
//! run. The test reads the process's resident set from `/proc/self/status`,
//! so it runs on Linux only, in a test binary of its own so no other test
//! shares the process.

#![cfg(target_os = "linux")]

use shift_core::{PifConfig, ShiftMode};
use shift_sim::{CmpConfig, PrefetcherConfig, SimOptions, Simulation};
use shift_trace::{presets, Scale};

/// Resident set of this process, in KiB.
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status")
}

/// RSS growth, in MiB, from before building a 4-core Test-scale Web Frontend
/// engine with `prefetcher` to the end of its run, with the engine alive.
fn run_growth_mib(prefetcher: PrefetcherConfig) -> f64 {
    let simulation = Simulation::standalone(
        CmpConfig::micro13(4, prefetcher),
        presets::web_frontend(),
        SimOptions::new(Scale::Test, 42).prediction_only(),
    );
    let before = rss_kib();
    let mut engine = simulation.engine();
    engine.step_rounds(engine.warmup_rounds());
    engine.begin_measurement();
    engine.step_rounds(engine.measured_rounds());
    let after = rss_kib();
    drop(engine);
    after.saturating_sub(before) as f64 / 1024.0
}

#[test]
fn figure6_unbounded_history_runs_stay_small() {
    const BOUND_MIB: f64 = 1.25;
    for (name, prefetcher) in [
        (
            "zero-latency SHIFT, 4 Mi records",
            PrefetcherConfig::Shift {
                history_records: 4 * 1024 * 1024,
                mode: ShiftMode::Dedicated { zero_latency: true },
            },
        ),
        (
            "PIF, 1 Mi records per core",
            PrefetcherConfig::Pif(PifConfig::with_history_records(1 << 20)),
        ),
    ] {
        let growth = run_growth_mib(prefetcher);
        eprintln!("{name}: RSS grew by {growth:.1} MiB");
        assert!(
            growth < BOUND_MIB,
            "{name}: RSS grew by {growth:.1} MiB, bound {BOUND_MIB} MiB"
        );
    }
}
