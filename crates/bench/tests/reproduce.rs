//! End-to-end test of the whole-paper reproduce pipeline at test scale:
//! plan once, execute once, write JSON + CSV + markdown artifacts for every
//! figure/table, and render the reference scoreboard.

use std::fs;
use std::process::Command;

use shift_bench::reproduce::{PaperPlan, PlanError, ReproduceSettings};
use shift_trace::{presets, Scale};

const ARTIFACT_NAMES: [&str; 13] = [
    "fig01",
    "fig02",
    "fig03",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "table1",
    "table_pd",
    "table_power",
    "table_storage",
    "hybrid_lab",
];

#[test]
fn reproduce_writes_every_artifact_and_scores_references() {
    let settings = ReproduceSettings::new(2, Scale::Test, 11, vec![presets::tiny()]);
    let plan = PaperPlan::plan(settings);
    assert!(
        plan.saved_by_dedup() > 0,
        "cross-figure dedup must collapse shared runs"
    );
    let report = plan.execute();

    let dir = std::env::temp_dir().join("shift-bench-reproduce-test");
    let _ = fs::remove_dir_all(&dir);
    let paths = report.write_to(&dir).expect("write artifacts");
    assert_eq!(paths.len(), ARTIFACT_NAMES.len() * 3);

    for name in ARTIFACT_NAMES {
        for ext in ["json", "csv", "md"] {
            let path = dir.join(format!("{name}.{ext}"));
            let content = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing artifact {}: {e}", path.display()));
            assert!(!content.is_empty(), "{} is empty", path.display());
        }
        let json = fs::read_to_string(dir.join(format!("{name}.json"))).unwrap();
        assert!(
            json.contains("\"reference\""),
            "{name}.json lacks a reference block"
        );
        assert!(json.contains("\"data\""), "{name}.json lacks the data tree");
    }

    let scoreboard = report.scoreboard();
    assert!(scoreboard.contains("Reference scoreboard"));
    assert!(
        scoreboard.contains("reference checks"),
        "scoreboard must count its checks:\n{scoreboard}"
    );

    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn paper_plan_accounting_is_pinned() {
    // Run counts, dedup savings and fingerprints recorded from the two-pass
    // planner (each figure planned into a throwaway matrix to count its
    // runs, then into the merged one). Any planner must reproduce them
    // exactly: the fingerprint covers every key id, so a byte of drift in
    // the canonical key JSON changes it.
    let cases = [
        (
            4,
            vec![presets::web_frontend(), presets::media_streaming()],
            114,
            40,
            "43e3b62e04fa0dc8",
        ),
        (
            2,
            vec![presets::tiny(), presets::media_streaming()],
            114,
            40,
            "02409dd73b56cb75",
        ),
        (16, presets::paper_suite(), 384, 140, "caf58967943e7cb9"),
    ];
    for (cores, workloads, runs, saved, fingerprint) in cases {
        let plan = PaperPlan::plan(ReproduceSettings::new(cores, Scale::Test, 42, workloads));
        assert_eq!(plan.run_count(), runs, "{cores} cores");
        assert_eq!(plan.saved_by_dedup(), saved, "{cores} cores");
        assert_eq!(
            plan.matrix().fingerprint().to_string(),
            fingerprint,
            "{cores} cores"
        );
        if cores == 4 {
            assert_eq!(plan.matrix().key_ids()[0].to_string(), "7f4f2058bb7abe89");
        }
    }
}

#[test]
fn reproduce_binary_rejects_one_core_with_a_plan_error() {
    // One core leaves the commonality study no pair of cores to compare: the
    // binary must refuse the settings with the same error a served plan gets,
    // not an assert backtrace, and warn about each bad variable only once.
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .env("SHIFT_CORES", "1")
        .env("SHIFT_SCALE", "bogus")
        .env("SHIFT_WORKLOADS", "nomatch")
        .output()
        .expect("run the reproduce binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains(&PlanError::TooFewCores { cores: 1 }.to_string()),
        "stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    for warning in ["unknown SHIFT_SCALE", "SHIFT_WORKLOADS matched nothing"] {
        assert_eq!(stderr.matches(warning).count(), 1, "stderr:\n{stderr}");
    }
}
