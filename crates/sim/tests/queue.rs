//! Work-queue and incremental-reuse tests for the sweep pipeline.
//!
//! The central property mirrors the shard one: for *any* matrix and *any*
//! number of concurrent queue workers sharing one directory, the drained
//! queue merges bit-identical to a serial in-process execution. The
//! negative tests pin down the lock protocol (live claims are respected,
//! stale claims are reclaimed, merging under locks is a typed error) and
//! the cache semantics of partial loads (corrupted or foreign outcomes are
//! cache misses, never poison).

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use proptest::prelude::*;
use shift_sim::store::{lock_file_name, outcome_file_name, read_lock};
use shift_sim::{
    CancelToken, Execution, ExecutionReport, LockHeartbeat, PrefetcherConfig, QueueConfig,
    RunEvent, RunKeyId, RunMatrix, RunOutcomes, RunStore, ShardSpec, StoreError,
};
use shift_trace::{presets, Scale};

/// A claim lock as a dead/foreign worker would have written it (the schema
/// is field-order independent; `read_lock` keys on names).
fn lock_json(key_id: RunKeyId, worker: &str, claimed_unix: u64) -> String {
    format!(
        "{{\"schema\": 1, \"key_id\": \"{key_id}\", \"worker\": \"{worker}\", \
         \"claimed_unix\": {claimed_unix}}}"
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shift-sim-queue-test-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn prefetcher(idx: u64) -> PrefetcherConfig {
    match idx % 4 {
        0 => PrefetcherConfig::None,
        1 => PrefetcherConfig::next_line(),
        2 => PrefetcherConfig::pif_2k(),
        _ => PrefetcherConfig::shift_virtualized(),
    }
}

fn build_matrix(entries: &[(u64, u64, u64)]) -> (RunMatrix, Vec<shift_sim::RunHandle>) {
    let workloads = [
        presets::tiny().with_region_index(0),
        presets::tiny().with_region_index(1),
    ];
    let mut matrix = RunMatrix::new();
    let handles = entries
        .iter()
        .map(|&(w, p, seed)| {
            matrix.standalone(
                &workloads[(w % 2) as usize],
                prefetcher(p),
                2,
                Scale::Test,
                seed % 3,
            )
        })
        .collect();
    (matrix, handles)
}

/// A test worker config: distinct id, fast poll, default (long) TTL so
/// cooperating workers never steal each other's live claims.
fn worker(tag: &str) -> QueueConfig {
    let mut config = QueueConfig::new(format!("test-{tag}"));
    config.poll = Duration::from_millis(10);
    config
}

/// One queue worker draining `matrix` into `dir` through the builder.
fn drain(
    matrix: &RunMatrix,
    dir: &std::path::Path,
    config: QueueConfig,
    threads: usize,
) -> ExecutionReport {
    Execution::new(matrix)
        .dir(dir)
        .queue(config)
        .threads(threads)
        .run()
        .expect("queue drain")
}

/// Serial reference execution every merge is compared against.
fn serial_reference(matrix: &RunMatrix) -> RunOutcomes {
    Execution::new(matrix)
        .serial()
        .run()
        .expect("serial reference")
        .into_outcomes()
}

/// A durable shard execution through the builder.
fn shard_exec(matrix: &RunMatrix, spec: ShardSpec, dir: &std::path::Path) -> ExecutionReport {
    Execution::new(matrix)
        .dir(dir)
        .shard(spec)
        .serial()
        .run()
        .expect("shard execution")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For random matrices and any worker count in 1..=4, K concurrent
    /// queue workers sharing one directory drain it to outcomes that merge
    /// bit-identical to a serial execution, with every run executed exactly
    /// once across the fleet.
    #[test]
    fn concurrent_queue_workers_merge_bit_identical_to_serial(
        entries in proptest::collection::vec((0u64..2, 0u64..4, 0u64..3), 1..5),
        workers in 1usize..=4,
    ) {
        let (matrix, handles) = build_matrix(&entries);
        let serial = serial_reference(&matrix);

        let dir = temp_dir(&format!("prop-{workers}"));
        let reports: Vec<_> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..workers)
                .map(|w| {
                    let dir = dir.clone();
                    let matrix = &matrix;
                    scope.spawn(move || drain(matrix, &dir, worker(&format!("w{w}")), 1))
                })
                .collect();
            joins.into_iter().map(|j| j.join().expect("worker thread")).collect()
        });

        // Wait-mode workers only return once the sweep is complete, and
        // cooperating workers (TTL far above run time) never duplicate work.
        let executed_total: usize = reports.iter().map(|r| r.sources.executed).sum();
        prop_assert_eq!(executed_total, matrix.len(), "each run executes exactly once");
        for report in &reports {
            prop_assert!(report.complete);
            prop_assert_eq!(report.sources.reclaimed, 0, "no stale locks among live workers");
        }
        // A drained queue leaves no locks behind.
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            prop_assert!(name.starts_with("run-"), "leftover non-outcome file {name}");
        }

        let merged = RunStore::new([&dir]).load(&matrix).expect("strict merge");
        for &handle in &handles {
            prop_assert_eq!(&merged[handle], &serial[handle]);
        }
        prop_assert_eq!(format!("{merged:?}"), format!("{serial:?}"));
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn stale_lock_is_reclaimed_and_run_executes() {
    let (matrix, _) = build_matrix(&[(0, 0, 0), (1, 1, 1), (0, 2, 2)]);
    let dir = temp_dir("stale-reclaim");
    fs::create_dir_all(&dir).unwrap();

    // A worker died holding a claim: its lock records a long-past claim
    // time, and no outcome exists for the run.
    let victim = matrix.key_ids()[0];
    // Claimed in 1970: stale under any sane TTL.
    fs::write(
        dir.join(lock_file_name(victim)),
        lock_json(victim, "dead-worker", 1_000),
    )
    .unwrap();

    let report = drain(&matrix, &dir, worker("reclaimer"), 1);
    assert!(report.complete);
    assert_eq!(report.sources.executed, matrix.len(), "all runs execute");
    assert!(
        report.sources.reclaimed >= 1,
        "the dead worker's claim was reclaimed"
    );
    assert!(
        !dir.join(lock_file_name(victim)).exists(),
        "the stale lock is gone"
    );
    RunStore::new([&dir]).load(&matrix).expect("complete sweep");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn live_lock_is_respected_and_merge_reports_active_locks() {
    let (matrix, _) = build_matrix(&[(0, 0, 0), (1, 1, 1)]);
    let dir = temp_dir("live-lock");
    fs::create_dir_all(&dir).unwrap();

    // Another worker holds a *fresh* claim on one run.
    let held = matrix.key_ids()[0];
    let lock_path = dir.join(lock_file_name(held));
    fs::write(&lock_path, lock_json(held, "other-live-worker", now_unix())).unwrap();

    // A non-waiting worker executes everything else and reports incomplete.
    let mut config = worker("polite");
    config.wait = false;
    let report = drain(&matrix, &dir, config, 1);
    assert!(!report.complete, "the held run is not ours to finish");
    assert_eq!(report.sources.executed, matrix.len() - 1);
    assert_eq!(report.sources.reclaimed, 0);
    assert!(lock_path.exists(), "the live lock was not touched");
    let record = read_lock(&lock_path).expect("lock still parses");
    assert_eq!(record.worker, "other-live-worker");

    // Merging now surfaces the claim instead of a bare MissingRuns.
    let err = RunStore::new([&dir]).load(&matrix).unwrap_err();
    match err {
        StoreError::ActiveLocks {
            locks,
            missing,
            planned,
        } => {
            assert_eq!(locks, vec![lock_path.clone()]);
            assert_eq!(missing, 1);
            assert_eq!(planned, matrix.len());
        }
        other => panic!("expected ActiveLocks, got {other}"),
    }

    // Once the claim is released (owner finished elsewhere / operator
    // removed it), a waiting worker completes the sweep.
    fs::remove_file(&lock_path).unwrap();
    let report = drain(&matrix, &dir, worker("finisher"), 1);
    assert!(report.complete);
    assert_eq!(report.sources.executed, 1);
    RunStore::new([&dir]).load(&matrix).expect("complete sweep");
    fs::remove_dir_all(&dir).unwrap();
}

/// The heartbeat half of the lock protocol: a live worker's claim is
/// re-stamped every poll tick, so `SHIFT_QUEUE_TTL` can drop far below the
/// longest single run without contending workers stealing live claims.
#[test]
fn heartbeat_keeps_a_claim_fresh_while_its_owner_works() {
    let (matrix, _) = build_matrix(&[(0, 0, 0)]);
    let dir = temp_dir("heartbeat-fresh");
    fs::create_dir_all(&dir).unwrap();
    let key_id = matrix.key_ids()[0];
    let lock_path = dir.join(lock_file_name(key_id));

    // A claim whose embedded timestamp is ancient — as a long run's lock
    // would look mid-simulation if nobody refreshed it.
    fs::write(&lock_path, lock_json(key_id, "long-runner", 1_000)).unwrap();

    let heartbeat = LockHeartbeat::spawn(
        lock_path.clone(),
        key_id,
        "long-runner".to_owned(),
        Duration::from_millis(10),
    );
    // Wait until a beat lands (generous deadline for loaded CI hosts).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let refreshed = loop {
        if let Ok(record) = read_lock(&lock_path) {
            if record.claimed_unix > 1_000 {
                break record;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no heartbeat within 10s"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(refreshed.key_id, key_id);
    assert_eq!(refreshed.worker, "long-runner");
    assert!(refreshed.claimed_unix + 60 > now_unix(), "stamped with now");

    // A contender with a TTL far below any long run now sees a *fresh*
    // claim and leaves the run alone — no reclaim, no duplicate execution.
    let mut contender = worker("contender");
    contender.wait = false;
    contender.lock_ttl = Duration::from_secs(60);
    let report = drain(&matrix, &dir, contender, 1);
    assert_eq!(report.sources.executed, 0, "live claim respected");
    assert_eq!(report.sources.reclaimed, 0);
    assert!(!report.complete);

    // Dropping the heartbeat stops the refresher: a sentinel rewrite stays.
    drop(heartbeat);
    fs::write(&lock_path, lock_json(key_id, "sentinel", 5)).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(
        read_lock(&lock_path).unwrap().worker,
        "sentinel",
        "heartbeat kept beating after drop"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// A heartbeat must never recreate a lock that a contender reclaimed (or
/// the owner released): resurrection would orphan the slot until the TTL
/// expired again.
#[test]
fn heartbeat_does_not_resurrect_a_reclaimed_lock() {
    let (matrix, _) = build_matrix(&[(0, 0, 0)]);
    let dir = temp_dir("heartbeat-resurrect");
    fs::create_dir_all(&dir).unwrap();
    let key_id = matrix.key_ids()[0];
    let lock_path = dir.join(lock_file_name(key_id));
    fs::write(&lock_path, lock_json(key_id, "owner", now_unix())).unwrap();

    let heartbeat = LockHeartbeat::spawn(
        lock_path.clone(),
        key_id,
        "owner".to_owned(),
        Duration::from_millis(10),
    );
    // Another worker reclaims (rename + unlink, here collapsed to unlink).
    fs::remove_file(&lock_path).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !lock_path.exists(),
        "heartbeat resurrected a reclaimed lock"
    );
    drop(heartbeat);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn queue_resumes_a_partially_filled_directory() {
    let (matrix, _) = build_matrix(&[(0, 0, 0), (1, 1, 1), (0, 2, 2), (1, 3, 0)]);
    let dir = temp_dir("queue-resume");
    // A shard (or previous queue run) already produced part of the sweep.
    shard_exec(&matrix, ShardSpec::new(1, 2), &dir);
    let preexisting = fs::read_dir(&dir).unwrap().count();
    assert!(preexisting > 0 && preexisting < matrix.len());

    let report = drain(&matrix, &dir, worker("resumer"), 2);
    assert!(report.complete);
    assert_eq!(
        report.sources.executed,
        matrix.len() - preexisting,
        "only the missing runs execute"
    );
    RunStore::new([&dir]).load(&matrix).expect("complete sweep");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_cached_outcome_is_a_miss_not_poison() {
    let (matrix, handles) = build_matrix(&[(0, 0, 0), (1, 1, 1), (0, 2, 2)]);
    let dir = temp_dir("reuse-corrupt");
    shard_exec(&matrix, ShardSpec::full(), &dir);

    // One cached outcome rots on disk.
    let victim = dir.join(outcome_file_name(matrix.key_ids()[1]));
    fs::write(&victim, "{\"schema\": 1, \"matrix\": \"trunca").unwrap();

    let partial = RunStore::new([&dir]).load_partial(&matrix).expect("probe");
    assert_eq!(partial.reused, matrix.len() - 1);
    assert_eq!(partial.skipped_malformed, vec![victim]);
    assert_eq!(partial.skipped_foreign, 0);

    // The delta re-executes exactly the rotten run, and the spliced
    // outcomes are bit-identical to a from-scratch serial execution.
    let delta = Execution::new(&matrix)
        .reuse(partial)
        .serial()
        .run()
        .expect("delta execution");
    assert_eq!(delta.report().sources.executed, 1);
    assert_eq!(delta.report().sources.reused, matrix.len() - 1);
    let spliced = delta.into_outcomes();
    let serial = serial_reference(&matrix);
    for &handle in &handles {
        assert_eq!(&spliced[handle], &serial[handle]);
    }
    assert_eq!(format!("{spliced:?}"), format!("{serial:?}"));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partial_load_reuses_across_foreign_fingerprints_and_seeds_a_new_directory() {
    // An old sweep's outcomes...
    let (old_matrix, _) = build_matrix(&[(0, 0, 0), (1, 1, 1)]);
    let old_dir = temp_dir("reuse-old");
    shard_exec(&old_matrix, ShardSpec::full(), &old_dir);

    // ...probed under a *grown* plan (different fingerprint, superset keys).
    let (new_matrix, handles) = build_matrix(&[(0, 0, 0), (1, 1, 1), (0, 2, 2), (1, 3, 0)]);
    assert_ne!(old_matrix.fingerprint(), new_matrix.fingerprint());
    assert!(new_matrix.len() > old_matrix.len());
    // The strict merge refuses foreign fingerprints...
    assert!(matches!(
        RunStore::new([&old_dir]).load(&new_matrix),
        Err(StoreError::ForeignMatrix { .. })
    ));
    // ...but the partial load reuses every still-planned key.
    let partial = RunStore::new([&old_dir]).load_partial(&new_matrix).unwrap();
    assert_eq!(partial.reused, old_matrix.len());
    assert_eq!(partial.skipped_foreign, 0);
    assert!(partial.skipped_malformed.is_empty());

    // A queue worker reusing the probe seeds the hits into a fresh
    // directory under the NEW fingerprint, then drains only the delta, and
    // the strict merge accepts the result.
    let new_dir = temp_dir("reuse-new");
    let drain_reusing = |tag: &str| {
        Execution::new(&new_matrix)
            .dir(&new_dir)
            .reuse(partial.clone())
            .queue(worker(tag))
            .serial()
            .run()
            .expect("reusing queue worker")
    };
    let report = drain_reusing("delta");
    assert_eq!(report.sources.reused, old_matrix.len(), "every hit seeded");
    assert_eq!(report.sources.executed, new_matrix.len() - old_matrix.len());
    // Seeding is idempotent: a second reusing worker executes nothing and
    // leaves every outcome file byte-identical.
    let outcome_files = || {
        let paths = fs::read_dir(&new_dir).unwrap().map(|e| e.unwrap().path());
        let mut files: Vec<_> = paths.map(|p| (fs::read(&p).unwrap(), p)).collect();
        files.sort();
        files
    };
    let before = outcome_files();
    assert_eq!(before.len(), new_matrix.len());
    assert_eq!(drain_reusing("again").sources.executed, 0);
    assert_eq!(outcome_files(), before);

    let merged = RunStore::new([&new_dir]).load(&new_matrix).expect("merge");
    let serial = serial_reference(&new_matrix);
    for &handle in &handles {
        assert_eq!(&merged[handle], &serial[handle]);
    }
    fs::remove_dir_all(&old_dir).unwrap();
    fs::remove_dir_all(&new_dir).unwrap();
}

/// `--reuse` composed with static `K/N` sharding: each shard seeds only
/// the slice it owns, so the per-shard directories stay disjoint and the
/// strict multi-directory merge succeeds (a full seed into every shard
/// directory would duplicate every reused run and trip `DuplicateKey`).
#[test]
fn per_shard_seeding_keeps_shard_directories_disjoint() {
    let (old_matrix, _) = build_matrix(&[(0, 0, 0), (1, 1, 1), (0, 2, 2)]);
    let old_dir = temp_dir("shard-reuse-old");
    shard_exec(&old_matrix, ShardSpec::full(), &old_dir);

    let (new_matrix, handles) = build_matrix(&[(0, 0, 0), (1, 1, 1), (0, 2, 2), (1, 3, 0)]);
    let partial = RunStore::new([&old_dir]).load_partial(&new_matrix).unwrap();
    assert_eq!(partial.reused, old_matrix.len());

    const SHARDS: usize = 2;
    let dirs: Vec<PathBuf> = (1..=SHARDS)
        .map(|k| temp_dir(&format!("shard-reuse-d{k}")))
        .collect();
    let mut seeded_total = 0;
    let mut executed_total = 0;
    for (k, dir) in dirs.iter().enumerate() {
        // Fresh shard directories: everything a shard reuses, it seeded.
        let report = Execution::new(&new_matrix)
            .dir(dir)
            .shard(ShardSpec::new(k + 1, SHARDS))
            .reuse(partial.clone())
            .serial()
            .run()
            .expect("seeded shard execution");
        seeded_total += report.sources.reused;
        executed_total += report.sources.executed;
    }
    assert_eq!(
        seeded_total,
        old_matrix.len(),
        "every hit seeded exactly once"
    );
    assert_eq!(
        executed_total,
        new_matrix.len() - old_matrix.len(),
        "only the delta executes across all shards"
    );

    // The disjoint shard directories merge strictly — no DuplicateKey.
    let merged = RunStore::new(dirs.iter().cloned())
        .load(&new_matrix)
        .expect("disjoint shard+reuse directories merge");
    let serial = serial_reference(&new_matrix);
    for &handle in &handles {
        assert_eq!(&merged[handle], &serial[handle]);
    }
    for dir in dirs.iter().chain([&old_dir]) {
        let _ = fs::remove_dir_all(dir);
    }
}

/// Shrunken plans reuse too: outcomes for dropped keys are skipped as
/// foreign, the kept keys hit.
#[test]
fn partial_load_skips_keys_the_plan_dropped() {
    let (big, _) = build_matrix(&[(0, 0, 0), (1, 1, 1), (0, 2, 2)]);
    let dir = temp_dir("reuse-shrunk");
    shard_exec(&big, ShardSpec::full(), &dir);

    let (small, _) = build_matrix(&[(0, 0, 0)]);
    let partial = RunStore::new([&dir]).load_partial(&small).unwrap();
    assert_eq!(partial.reused, small.len());
    assert_eq!(partial.skipped_foreign, big.len() - small.len());
    assert!(partial.missing_slots(&small).is_empty());
    fs::remove_dir_all(&dir).unwrap();
}

/// The observer hook sees every state transition: a fresh drain emits one
/// `Claimed` + one `Executed` per run (no cache hits, no reclaims), and the
/// event stream alone reconstructs the run count — which is what lets a
/// resident server stream progress without polling the outcome directory.
#[test]
fn observer_sees_one_claim_and_one_execution_per_run() {
    use std::sync::Mutex;

    let (matrix, _) = build_matrix(&[(0, 0, 0), (1, 1, 1), (0, 2, 2)]);
    let dir = temp_dir("observer-counts");
    let events: Mutex<Vec<RunEvent>> = Mutex::new(Vec::new());
    let observer = |event: RunEvent| events.lock().unwrap().push(event);

    let report = Execution::new(&matrix)
        .dir(&dir)
        .queue(worker("observed"))
        .threads(2)
        .observer(&observer)
        .run()
        .expect("observed drain");
    assert!(report.complete);
    assert_eq!(report.sources.executed, matrix.len());

    let events = events.into_inner().unwrap();
    let count = |f: fn(&RunEvent) -> bool| events.iter().filter(|e| f(e)).count();
    assert_eq!(
        count(|e| matches!(e, RunEvent::Claimed { .. })),
        matrix.len()
    );
    assert_eq!(
        count(|e| matches!(e, RunEvent::Executed { .. })),
        matrix.len()
    );
    assert_eq!(count(|e| matches!(e, RunEvent::Reclaimed { .. })), 0);
    // Every planned key appears among the executions, exactly once.
    let mut executed: Vec<RunKeyId> = events
        .iter()
        .filter(|e| matches!(e, RunEvent::Executed { .. }))
        .map(RunEvent::key_id)
        .collect();
    executed.sort_unstable();
    let mut planned = matrix.key_ids().to_vec();
    planned.sort_unstable();
    assert_eq!(executed, planned);

    // A second drain over the full directory is all cache hits.
    let hits: Mutex<Vec<RunEvent>> = Mutex::new(Vec::new());
    let observer = |event: RunEvent| hits.lock().unwrap().push(event);
    let report = Execution::new(&matrix)
        .dir(&dir)
        .queue(worker("observed-2"))
        .serial()
        .observer(&observer)
        .run()
        .unwrap();
    assert!(report.complete);
    assert_eq!(report.sources.executed, 0);
    assert_eq!(report.sources.reused, matrix.len(), "all cache hits");
    let hits = hits.into_inner().unwrap();
    assert!(hits
        .iter()
        .all(|e| matches!(e, RunEvent::AlreadyDone { .. })));
    assert_eq!(hits.len(), matrix.len());
    fs::remove_dir_all(&dir).unwrap();
}

/// Cooperative cancellation: cancelling from the observer after the first
/// execution stops the drain between claims — exactly one run executed, the
/// report honestly incomplete, and (the invariant a server relies on) no
/// orphaned claim locks left behind.
#[test]
fn cancelled_drain_stops_cleanly_without_orphaned_claims() {
    let (matrix, _) = build_matrix(&[(0, 0, 0), (1, 1, 1), (0, 2, 2), (1, 3, 0)]);
    let dir = temp_dir("cancel-clean");
    let cancel = CancelToken::new();
    let observer = {
        let cancel = cancel.clone();
        move |event: RunEvent| {
            if matches!(event, RunEvent::Executed { .. }) {
                cancel.cancel();
            }
        }
    };

    let report = Execution::new(&matrix)
        .dir(&dir)
        .queue(worker("cancelled"))
        .serial()
        .observer(&observer)
        .cancel(&cancel)
        .run()
        .expect("cancelled drain still returns its tally");
    assert!(!report.complete, "a cancelled drain is not complete");
    assert_eq!(
        report.sources.executed, 1,
        "in-flight run finished, no new claims"
    );

    // The one finished run persisted; nothing else was touched, and no
    // lock survived the cancellation.
    let mut outcomes = 0;
    for entry in fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(name.starts_with("run-"), "leftover non-outcome file {name}");
        outcomes += 1;
    }
    assert_eq!(outcomes, 1);

    // A fresh (uncancelled) worker finishes the remainder.
    let report = drain(&matrix, &dir, worker("resume-after"), 1);
    assert!(report.complete);
    assert_eq!(report.sources.executed, matrix.len() - 1);
    RunStore::new([&dir]).load(&matrix).expect("complete sweep");
    fs::remove_dir_all(&dir).unwrap();
}

fn now_unix() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}
