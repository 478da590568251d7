//! End-to-end test of the whole-paper reproduce pipeline at test scale:
//! plan once, execute once, write JSON + CSV + markdown artifacts for every
//! figure/table, and render the reference scoreboard.

use std::fs;
use std::process::Command;

use shift_bench::reproduce::{PaperPlan, PlanError, ReproduceSettings, MAX_CORES};
use shift_bench::HARNESS_SEED;
use shift_sim::RunStore;
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

#[test]
fn reproduce_binary_rejects_too_many_cores_with_a_plan_error() {
    // Each engine sizes its LLC and NoC round-trip table from the core
    // count, so an unbounded count would fail an allocation instead of the
    // plan: the binary must refuse it with the served plan's error.
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .env("SHIFT_CORES", "65")
        .env("SHIFT_SCALE", "test")
        .env("SHIFT_WORKLOADS", "db2")
        .output()
        .expect("run the reproduce binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    let error = PlanError::TooManyCores {
        cores: 65,
        max: MAX_CORES,
    };
    assert!(stderr.contains(&error.to_string()), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}

#[test]
fn reproduce_binary_rejects_a_policy_for_a_merge() {
    // A merge never executes, so a claim order means nothing to it: the
    // binary must refuse `--policy` the way it refuses `--reuse`, before
    // planning anything.
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--merge", "never-read", "--policy", "cost-ordered"])
        .output()
        .expect("run the reproduce binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(stderr.contains("--policy"), "stderr:\n{stderr}");
    assert!(
        output.stdout.is_empty(),
        "the binary planned before refusing"
    );
}

#[test]
fn reproduce_binary_reports_store_errors_without_panicking() {
    // Merging an empty directory and reusing a missing one are operator
    // errors: the binary must print the store's error and exit 1, not panic.
    let root = std::env::temp_dir().join("shift-bench-reproduce-store-errors");
    let _ = fs::remove_dir_all(&root);
    let empty = root.join("empty");
    let missing = root.join("missing");
    fs::create_dir_all(&empty).expect("create the empty merge directory");

    // The plan the binary makes from the settings below.
    let web = presets::paper_suite()
        .into_iter()
        .filter(|w| w.name.to_lowercase().contains("web"))
        .collect();
    let plan = PaperPlan::plan(ReproduceSettings::new(2, Scale::Test, HARNESS_SEED, web));
    let merge_error = RunStore::new([&empty]).load(plan.matrix()).unwrap_err();
    let reuse_error = RunStore::new([&missing])
        .load_partial(plan.matrix())
        .unwrap_err();

    for (flag, dir, error) in [
        ("--merge", &empty, merge_error),
        ("--reuse", &missing, reuse_error),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .arg(flag)
            .arg(dir)
            .env("SHIFT_SCALE", "test")
            .env("SHIFT_CORES", "2")
            .env("SHIFT_WORKLOADS", "web")
            .output()
            .expect("run the reproduce binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{flag} stderr:\n{stderr}");
        assert!(
            stderr.contains(&error.to_string()),
            "{flag} stderr:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag} stderr:\n{stderr}");
    }
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
#[cfg(target_os = "linux")]
fn reproduce_binary_reports_an_unwritable_decision_log_without_panicking() {
    // `/dev/full` opens, but every write to it fails: an operator error that
    // must name the flag, the path and the error, and exit 1. A 1/64 shard's
    // few claims fail only at the final flush; an in-memory run's claims
    // overflow the log's buffer mid-run, which must cancel the execution.
    let dir = std::env::temp_dir().join("shift-bench-reproduce-decision-log");
    let _ = fs::remove_dir_all(&dir);
    for sharded in [true, false] {
        let mut command = Command::new(env!("CARGO_BIN_EXE_reproduce"));
        if sharded {
            command.args(["--shard", "1/64", "--outcomes"]).arg(&dir);
        }
        let output = command
            .args(["--decision-log", "/dev/full"])
            .env("SHIFT_SCALE", "test")
            .env("SHIFT_CORES", "2")
            .env("SHIFT_WORKLOADS", "web")
            .output()
            .expect("run the reproduce binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
        let no_space = std::io::Error::from_raw_os_error(28);
        assert!(
            stderr.contains(&format!(
                "cannot write --decision-log /dev/full: {no_space}"
            )),
            "stderr:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
        if !sharded {
            // "in-process: X of Y runs executed, ...": cancelled short of Y.
            let stdout = String::from_utf8_lossy(&output.stdout);
            let summary = stdout.lines().find(|l| l.starts_with("in-process: "));
            let counts: Vec<usize> = summary
                .unwrap_or_default()
                .split(' ')
                .filter_map(|word| word.parse().ok())
                .collect();
            assert!(
                counts.len() > 1 && counts[0] < counts[1],
                "stdout:\n{stdout}"
            );
        }
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn reproduce_binary_warns_once_about_an_invalid_thread_count() {
    // The banner and the execution both ask for the default thread count;
    // a bad value is reported once, not once per question, and a valid one
    // sizes the pool.
    let dir = std::env::temp_dir().join("shift-bench-reproduce-threads");
    let _ = fs::remove_dir_all(&dir);
    let run = |threads: &str| {
        Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(["--shard", "1/64", "--outcomes"])
            .arg(&dir)
            .env("SHIFT_THREADS", threads)
            .env("SHIFT_SCALE", "test")
            .env("SHIFT_CORES", "2")
            .env("SHIFT_WORKLOADS", "web")
            .output()
            .expect("run the reproduce binary")
    };
    let output = run("banana");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "stderr:\n{stderr}");
    assert_eq!(
        stderr.matches("ignoring invalid SHIFT_THREADS").count(),
        1,
        "stderr:\n{stderr}"
    );

    let output = run("3");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "stdout:\n{stdout}");
    assert!(stdout.contains("sweep threads: 3"), "stdout:\n{stdout}");
    fs::remove_dir_all(&dir).expect("cleanup");
}
