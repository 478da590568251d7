//! Host memory the trace layer adds while a run steps.
//!
//! Each core's trace generator buffers the events of one call step of its
//! current request, not the whole request: OLTP Oracle's largest request
//! is over 11 k events (about 270 KB per core, 4 MiB over 16 cores), its
//! largest call step at most 462 events. So once a 16-core OLTP Oracle
//! engine is built, stepping it grows the process by little: on a 2-vCPU
//! Xeon VM, 0.40 MiB over 5,000 rounds, most of it the caches' zero-filled
//! tag and recency lanes faulting in on first touch. It grew by 5.5 MiB
//! when each refill expanded a whole request, by 1.75 MiB while a cache
//! line held a 64-bit tag and a 64-bit stamp, and by 0.77 MiB while it held
//! a 32-bit stamp and every cache a pin mask per set. The test reads the
//! process's resident set from `/proc/self/status`, so it runs on Linux
//! only, in a test binary of its own so no other test shares the process.

#![cfg(target_os = "linux")]

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

#[test]
fn stepping_an_oltp_engine_grows_rss_by_little() {
    const BOUND_MIB: f64 = 0.5;
    const ROUNDS: usize = 5_000;
    let simulation = Simulation::standalone(
        CmpConfig::micro13(16, PrefetcherConfig::None),
        presets::oltp_oracle(),
        SimOptions::new(Scale::Demo, 42),
    );
    let mut engine = simulation.engine();
    let before = rss_kib();
    engine.step_rounds(ROUNDS);
    let growth = rss_kib().saturating_sub(before) as f64 / 1024.0;
    drop(engine);
    eprintln!("RSS grew by {growth:.2} MiB over {ROUNDS} rounds");
    assert!(
        growth < BOUND_MIB,
        "RSS grew by {growth:.2} MiB over {ROUNDS} rounds of a 16-core OLTP Oracle engine, \
         bound {BOUND_MIB} MiB"
    );
}
