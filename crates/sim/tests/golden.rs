//! Bit-identical golden-result regression tests.
//!
//! The perf work on the engine (scratch buffers, batched stepping, inlined
//! leaf calls) must never change *what* is simulated, only how fast. These
//! tests lock the full serialized [`RunResult`] of every Table I workload
//! preset under both SHIFT and PIF — plus the baseline and next-line
//! prefetchers on the tiny preset — against JSON recorded from the
//! pre-optimization engine. The hybrid-lab presets (SHIFT+next-line,
//! gated PIF, adaptive, throttled SHIFT) are locked the same way, recorded
//! when the lab landed, and so is a consolidated Tiny + Web Frontend run
//! under each SHIFT-based design, where every core must reach its own
//! workload's prefetcher unit.
//!
//! On mismatch the actual JSON is written next to the golden file as
//! `<name>.actual.json` for diffing. To re-bless after an *intentional*
//! results change, run with `SHIFT_BLESS=1`:
//!
//! ```text
//! SHIFT_BLESS=1 cargo test -p shift-sim --test golden
//! ```

use std::fs;
use std::path::PathBuf;

use serde::json;
use shift_core::{PifConfig, ShiftMode};
use shift_sim::{CmpConfig, PrefetcherConfig, SimOptions, Simulation};
use shift_trace::{presets, ConsolidationSpec, Scale, WorkloadSpec};

const CORES: u16 = 4;
const SEED: u64 = 0x60_1DEA;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn run_json(workload: &WorkloadSpec, prefetcher: PrefetcherConfig, options: SimOptions) -> String {
    let config = CmpConfig::micro13(CORES, prefetcher);
    let result = Simulation::standalone(config, workload.clone(), options).run();
    json::to_string_pretty(&result)
}

fn check(name: &str, workload: &WorkloadSpec, prefetcher: PrefetcherConfig) {
    check_with(
        name,
        workload,
        prefetcher,
        SimOptions::new(Scale::Test, SEED),
    );
}

fn check_with(
    name: &str,
    workload: &WorkloadSpec,
    prefetcher: PrefetcherConfig,
    options: SimOptions,
) {
    check_json(name, run_json(workload, prefetcher, options));
}

fn check_json(name: &str, actual: String) {
    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var("SHIFT_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        fs::create_dir_all(golden_dir()).expect("create golden dir");
        fs::write(&path, &actual).expect("write golden file");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate with SHIFT_BLESS=1",
            path.display()
        )
    });
    if actual != expected {
        let actual_path = golden_dir().join(format!("{name}.actual.json"));
        fs::write(&actual_path, &actual).expect("write actual file");
        panic!(
            "run `{name}` diverged from the recorded pre-optimization result; \
             diff {} against {}",
            actual_path.display(),
            path.display()
        );
    }
}

/// Every Table I preset (plus the tiny test preset) the goldens cover.
fn suite() -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        ("tiny", presets::tiny()),
        ("oltp_db2", presets::oltp_db2()),
        ("oltp_oracle", presets::oltp_oracle()),
        ("dss_q2", presets::dss_q2()),
        ("dss_q17", presets::dss_q17()),
        ("media_streaming", presets::media_streaming()),
        ("web_frontend", presets::web_frontend()),
        ("web_search", presets::web_search()),
    ]
}

#[test]
fn shift_results_are_bit_identical_to_recorded() {
    for (name, workload) in suite() {
        check(
            &format!("{name}_shift"),
            &workload,
            PrefetcherConfig::shift_virtualized(),
        );
    }
}

#[test]
fn pif_results_are_bit_identical_to_recorded() {
    for (name, workload) in suite() {
        check(
            &format!("{name}_pif32k"),
            &workload,
            PrefetcherConfig::pif_32k(),
        );
    }
}

#[test]
fn baseline_and_next_line_results_are_bit_identical_to_recorded() {
    let tiny = presets::tiny();
    check("tiny_baseline", &tiny, PrefetcherConfig::None);
    check("tiny_next_line", &tiny, PrefetcherConfig::next_line());
}

#[test]
fn dedicated_and_zero_latency_shift_results_are_bit_identical_to_recorded() {
    let tiny = presets::tiny();
    check(
        "tiny_shift_dedicated",
        &tiny,
        PrefetcherConfig::shift_dedicated(),
    );
    check(
        "tiny_shift_zero_latency",
        &tiny,
        PrefetcherConfig::shift_zero_latency(),
    );
}

#[test]
fn hybrid_results_are_bit_identical_to_recorded() {
    // The composed designs of the hybrid lab, on the tiny and Web Frontend
    // presets. Recorded with SHIFT_BLESS=1 when the lab landed; any later
    // change to the wrappers' issue semantics must re-bless deliberately.
    for (name, workload) in [
        ("tiny", presets::tiny()),
        ("web_frontend", presets::web_frontend()),
    ] {
        check(
            &format!("{name}_shift_next_line"),
            &workload,
            PrefetcherConfig::shift_next_line(),
        );
        check(
            &format!("{name}_gated_pif32k"),
            &workload,
            PrefetcherConfig::gated_pif_32k(),
        );
        check(
            &format!("{name}_adaptive_nl_shift"),
            &workload,
            PrefetcherConfig::adaptive_nl_shift(),
        );
    }
    check(
        "tiny_shift_throttled_bw4",
        &presets::tiny(),
        PrefetcherConfig::shift_throttled(4),
    );
}

#[test]
fn figure6_unbounded_history_results_are_bit_identical_to_recorded() {
    // The two "inf" points of the Figure 6 sweep: one shared zero-latency
    // SHIFT history of 4 Mi records and a PIF history of 4 Mi / 4 cores per
    // core, both in prediction-only mode. Recorded when the history buffer
    // and index table were still allocated to their full capacity up front,
    // so sizing them by the records a run writes is checked against the
    // eager structures' output.
    let options = SimOptions::new(Scale::Test, SEED).prediction_only();
    for (name, workload) in [
        ("tiny", presets::tiny()),
        ("web_frontend", presets::web_frontend()),
    ] {
        check_with(
            &format!("{name}_fig06_inf_zero_latency_shift"),
            &workload,
            PrefetcherConfig::Shift {
                history_records: 4 * 1024 * 1024,
                mode: ShiftMode::Dedicated { zero_latency: true },
            },
            options,
        );
        check_with(
            &format!("{name}_fig06_inf_pif"),
            &workload,
            PrefetcherConfig::Pif(PifConfig::with_history_records(1 << 20)),
            options,
        );
    }
}

#[test]
fn consolidated_results_are_bit_identical_to_recorded() {
    // Tiny and Web Frontend split the CMP, so every SHIFT-based design runs
    // one shared-history unit per workload and each core must reach its own
    // workload's unit. PIF is the one-unit control. Recorded with
    // SHIFT_BLESS=1 before the engine's per-core unit routing was rebuilt.
    let spec = ConsolidationSpec::even_split(vec![presets::tiny(), presets::web_frontend()], CORES);
    for (name, prefetcher) in [
        ("shift", PrefetcherConfig::shift_virtualized()),
        ("shift_next_line", PrefetcherConfig::shift_next_line()),
        ("adaptive_nl_shift", PrefetcherConfig::adaptive_nl_shift()),
        ("shift_throttled_bw2", PrefetcherConfig::shift_throttled(2)),
        ("pif32k", PrefetcherConfig::pif_32k()),
    ] {
        let config = CmpConfig::micro13(CORES, prefetcher);
        let options = SimOptions::new(Scale::Test, SEED);
        let result = Simulation::consolidated(config, spec.clone(), options).run();
        check_json(
            &format!("consolidated_tiny_web_frontend_{name}"),
            json::to_string_pretty(&result),
        );
    }
}
