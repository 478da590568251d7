//! The sharded-reproduce acceptance test: executing the whole-paper matrix
//! as `K/4` shards into outcome directories and merging them must produce a
//! scoreboard (and artifact files) *byte-identical* to a single-process
//! `reproduce` run — including after a shard is killed mid-run and
//! restarted.

use std::fs;
use std::path::PathBuf;

use shift_bench::reproduce::{PaperPlan, ReproduceSettings};
use shift_sim::{Execution, ExecutionReport, RunStore, ShardSpec, StoreError};
use shift_trace::{presets, Scale};

fn settings() -> ReproduceSettings {
    ReproduceSettings::new(2, Scale::Test, 11, vec![presets::tiny()])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shift-sharded-reproduce-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One durable `K/N` shard execution through the builder.
fn run_shard(
    matrix: &shift_sim::RunMatrix,
    spec: ShardSpec,
    dir: &PathBuf,
    threads: usize,
) -> ExecutionReport {
    Execution::new(matrix)
        .dir(dir)
        .shard(spec)
        .threads(threads)
        .run()
        .expect("shard executes")
}

/// Writes a report's artifacts under `dir` and returns every file's bytes,
/// keyed by file name.
fn artifact_bytes(
    report: &shift_bench::reproduce::PaperReport,
    dir: &PathBuf,
) -> Vec<(String, Vec<u8>)> {
    let _ = fs::remove_dir_all(dir);
    let mut files: Vec<(String, Vec<u8>)> = report
        .write_to(dir)
        .expect("write artifacts")
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&path).expect("read artifact back"))
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

#[test]
fn four_shards_merge_byte_identical_to_single_process() {
    const SHARDS: usize = 4;

    // Reference: the classic single-process run.
    let single = PaperPlan::plan(settings()).execute();
    let single_board = single.scoreboard();

    // Sharded: plan the identical sweep (fresh matrix, same settings),
    // execute each K/4 slice into its own directory — as 4 separate machines
    // would — then merge.
    let dirs: Vec<PathBuf> = (1..=SHARDS).map(|k| temp_dir(&format!("d{k}"))).collect();
    let shard_plan = PaperPlan::plan(settings());
    let mut sliced_runs = 0;
    for (k, dir) in dirs.iter().enumerate() {
        let report = run_shard(shard_plan.matrix(), ShardSpec::new(k + 1, SHARDS), dir, 2);
        assert_eq!(
            report.sources.executed, report.planned,
            "fresh shard runs its whole slice"
        );
        sliced_runs += report.planned;
    }
    assert_eq!(
        sliced_runs,
        shard_plan.matrix().len(),
        "the {SHARDS} slices must partition the matrix"
    );

    // A shard dies mid-run: drop two of shard 2's outcomes and a half-written
    // temp file, then restart it. Only the missing runs re-execute.
    let mut shard2_files: Vec<PathBuf> = fs::read_dir(&dirs[1])
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    shard2_files.sort();
    let killed = shard2_files.len().min(2);
    for file in shard2_files.iter().take(killed) {
        fs::remove_file(file).unwrap();
    }
    fs::write(dirs[1].join(".tmp-interrupted.json"), "{\"schema\": 1,").unwrap();
    let restart_plan = PaperPlan::plan(settings());
    let restarted = run_shard(
        restart_plan.matrix(),
        ShardSpec::new(2, SHARDS),
        &dirs[1],
        2,
    );
    assert_eq!(
        restarted.sources.executed, killed,
        "restart re-runs only the lost outcomes"
    );
    assert_eq!(restarted.sources.reused, restarted.planned - killed);

    // Merge on a "fresh host": yet another identical plan, loading all dirs.
    let merge_plan = PaperPlan::plan(settings());
    let outcomes = RunStore::new(dirs.iter().cloned())
        .load(merge_plan.matrix())
        .expect("merge covers the sweep");
    let merged = merge_plan.collect(&outcomes);

    // Byte-identical scoreboard and artifact files.
    assert_eq!(merged.scoreboard(), single_board);
    let single_dir = temp_dir("artifacts-single");
    let merged_dir = temp_dir("artifacts-merged");
    assert_eq!(
        artifact_bytes(&single, &single_dir),
        artifact_bytes(&merged, &merged_dir)
    );

    for dir in dirs.iter().chain([&single_dir, &merged_dir]) {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn merge_with_a_missing_shard_is_rejected() {
    let dir = temp_dir("missing-shard");
    let plan = PaperPlan::plan(settings());
    // Only shard 1 of 2 ran.
    run_shard(plan.matrix(), ShardSpec::new(1, 2), &dir, 2);
    let err = RunStore::new([&dir]).load(plan.matrix()).unwrap_err();
    match err {
        StoreError::MissingRuns { missing, planned } => {
            assert_eq!(planned, plan.matrix().len());
            assert!(!missing.is_empty());
            assert!(missing.len() < planned, "shard 1 must have contributed");
        }
        other => panic!("expected MissingRuns, got {other}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}
