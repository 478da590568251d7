//! The queue-mode and incremental-reuse acceptance tests.
//!
//! * Four concurrent queue workers draining the whole-paper matrix from one
//!   shared outcome directory — with a worker killed mid-run (its completed
//!   outcomes, a stale claim lock, and a half-written temp file left
//!   behind) — must merge to a scoreboard and artifact files
//!   *byte-identical* to a single-process `reproduce` run.
//! * After the plan grows by one figure, `--reuse` of an old outcome
//!   directory must execute only the delta keys, asserted by exact
//!   run-count.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use shift_bench::reproduce::{PaperPlan, ReproduceSettings};
use shift_sim::experiments::{EliminationPlan, SpeedupComparisonPlan};
use shift_sim::store::lock_file_name;
use shift_sim::{
    Execution, ExecutionReport, PrefetcherConfig, QueueConfig, RunMatrix, RunStore, ShardSpec,
};
use shift_trace::{presets, Scale};

fn settings() -> ReproduceSettings {
    ReproduceSettings::new(2, Scale::Test, 11, vec![presets::tiny()])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shift-queue-reproduce-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
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

fn worker(tag: &str) -> QueueConfig {
    let mut config = QueueConfig::new(format!("accept-{tag}"));
    config.poll = Duration::from_millis(10);
    config
}

/// One durable shard execution through the builder.
fn run_shard(
    matrix: &RunMatrix,
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

#[test]
fn four_queue_workers_with_one_killed_merge_byte_identical_to_single_process() {
    const WORKERS: usize = 4;

    // Reference: the classic single-process run.
    let single = PaperPlan::plan(settings()).execute();
    let single_board = single.scoreboard();

    // A worker was killed mid-run before the fleet below started: it had
    // completed part of the sweep (simulate with a shard slice), died
    // holding a claim on another run (a lock whose claim time is long
    // past), and left a half-written temp outcome behind.
    let dir = temp_dir("shared");
    let dead_plan = PaperPlan::plan(settings());
    run_shard(dead_plan.matrix(), ShardSpec::new(1, 4), &dir, 1);
    let done_before = fs::read_dir(&dir).unwrap().count();
    let victim = {
        // A run the dead worker had claimed but not finished: any key
        // without an outcome file.
        let matrix = dead_plan.matrix();
        let missing = matrix
            .canonical_order()
            .into_iter()
            .find(|&slot| {
                !dir.join(shift_sim::store::outcome_file_name(matrix.key_ids()[slot]))
                    .exists()
            })
            .expect("some run is still missing");
        matrix.key_ids()[missing]
    };
    fs::write(
        dir.join(lock_file_name(victim)),
        format!(
            "{{\"schema\": 1, \"key_id\": \"{victim}\", \"worker\": \"killed\", \
             \"claimed_unix\": 1000}}"
        ),
    )
    .unwrap();
    fs::write(dir.join(".tmp-killed.json"), "{\"schema\":").unwrap();

    // Four replacement workers drain the queue concurrently, each planning
    // the identical sweep itself (as separate heterogeneous hosts would).
    let reports: Vec<_> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..WORKERS)
            .map(|w| {
                let dir = dir.clone();
                scope.spawn(move || {
                    let plan = PaperPlan::plan(settings());
                    Execution::new(plan.matrix())
                        .dir(&dir)
                        .queue(worker(&format!("w{w}")))
                        .serial()
                        .run()
                        .expect("queue worker")
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("worker thread"))
            .collect()
    });

    let plan = PaperPlan::plan(settings());
    let executed_total: usize = reports.iter().map(|r| r.sources.executed).sum();
    assert_eq!(
        executed_total,
        plan.matrix().len() - done_before,
        "the fleet executes exactly the runs the dead worker left unfinished"
    );
    let reclaimed_total: usize = reports.iter().map(|r| r.sources.reclaimed).sum();
    assert_eq!(reclaimed_total, 1, "exactly one stale claim to reclaim");
    for report in &reports {
        assert!(report.complete, "wait-mode workers return on completion");
    }

    // Merge on a "fresh host" and compare byte-for-byte.
    let outcomes = RunStore::new([&dir])
        .load(plan.matrix())
        .expect("drained queue covers the sweep");
    let merged = plan.collect(&outcomes);
    assert_eq!(merged.scoreboard(), single_board);
    let single_dir = temp_dir("artifacts-single");
    let merged_dir = temp_dir("artifacts-merged");
    assert_eq!(
        artifact_bytes(&single, &single_dir),
        artifact_bytes(&merged, &merged_dir)
    );

    for d in [&dir, &single_dir, &merged_dir] {
        let _ = fs::remove_dir_all(d);
    }
}

/// The incremental-reproduce acceptance: grow a plan by one figure and
/// assert — by exact run-count — that reuse executes only the delta.
#[test]
fn adding_one_figure_executes_only_the_delta_keys() {
    let settings = settings();
    let (cores, scale, seed) = (settings.cores, settings.scale, settings.seed);
    let workloads = &settings.workloads;
    let prefetchers = PrefetcherConfig::figure8_suite();

    // Yesterday's sweep: Figure 8 alone, executed durably.
    let mut old_matrix = RunMatrix::new();
    let _ =
        SpeedupComparisonPlan::plan(&mut old_matrix, workloads, &prefetchers, cores, scale, seed);
    let old_dir = temp_dir("incr-old");
    run_shard(&old_matrix, ShardSpec::full(), &old_dir, 2);

    // Today's sweep: Figure 8 plus Figure 1 (whose baselines dedup onto
    // Figure 8's) — a grown plan with a different fingerprint.
    let mut new_matrix = RunMatrix::new();
    let _ =
        SpeedupComparisonPlan::plan(&mut new_matrix, workloads, &prefetchers, cores, scale, seed);
    let fig8_runs = new_matrix.len();
    let fractions = shift_bench::artifacts::figure1_fractions();
    let fig01 = EliminationPlan::plan(&mut new_matrix, workloads, &fractions, cores, scale, seed);
    let delta = new_matrix.len() - fig8_runs;
    assert!(delta > 0, "the added figure must contribute new keys");
    assert_ne!(old_matrix.fingerprint(), new_matrix.fingerprint());

    // Reuse probe: every old key is still planned, so exactly the delta is
    // missing...
    let partial = RunStore::new([&old_dir]).load_partial(&new_matrix).unwrap();
    assert_eq!(partial.reused, old_matrix.len());
    assert_eq!(partial.missing_slots(&new_matrix).len(), delta);

    // ...and in-memory delta execution runs exactly those keys. The spliced
    // outcomes are bit-identical to executing the grown plan from scratch.
    let output = Execution::new(&new_matrix)
        .reuse(partial.clone())
        .threads(2)
        .run()
        .expect("delta execution");
    assert_eq!(
        output.report().sources.executed,
        delta,
        "only the delta keys execute"
    );
    assert_eq!(output.report().sources.reused, old_matrix.len());
    let spliced = output.into_outcomes();
    let scratch = Execution::new(&new_matrix)
        .serial()
        .run()
        .expect("scratch execution")
        .into_outcomes();
    assert_eq!(format!("{spliced:?}"), format!("{scratch:?}"));
    let _ = fig01.collect(&spliced); // figure derivation works on spliced outcomes

    // The durable variant: a resumable 1/1 execution into a fresh directory
    // seeds it from the old cache, runs only the delta, and the strict
    // merge accepts the directory under the new fingerprint.
    let new_dir = temp_dir("incr-new");
    let shard_report = Execution::new(&new_matrix)
        .dir(&new_dir)
        .reuse(partial)
        .shard(ShardSpec::full())
        .threads(2)
        .run()
        .expect("seeded shard execution");
    assert_eq!(shard_report.sources.executed, delta);
    assert_eq!(shard_report.sources.reused, old_matrix.len());
    RunStore::new([&new_dir])
        .load(&new_matrix)
        .expect("strict merge");

    fs::remove_dir_all(&old_dir).unwrap();
    fs::remove_dir_all(&new_dir).unwrap();
}
