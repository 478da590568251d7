//! One drain loop behind every execution mode: the same matrix drained in
//! memory, into a directory, as `K/N` shards, by queue workers, and through
//! a reuse pre-pass emits the same per-run events, and a cancel stops each
//! of them cleanly.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use shift_sim::schedule::rank_by_cost;
use shift_sim::{
    CancelToken, Execution, ExecutionOutput, ExecutionReport, PrefetcherConfig, QueueConfig,
    RunEvent, RunKeyId, RunMatrix, RunStore, SchedulePolicy, ShardSpec,
};
use shift_trace::{presets, Scale};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shift-sim-execution-test-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Four distinct runs: two prefetchers at two seeds.
fn four_runs() -> RunMatrix {
    let w = presets::tiny();
    let mut matrix = RunMatrix::new();
    for seed in [1u64, 2] {
        for p in [PrefetcherConfig::None, PrefetcherConfig::next_line()] {
            matrix.standalone(&w, p, 2, Scale::Test, seed);
        }
    }
    assert_eq!(matrix.len(), 4);
    matrix
}

/// A queue worker with a fast poll, so a worker blocked on its peer's
/// claim re-checks quickly.
fn worker(tag: &str) -> QueueConfig {
    let mut config = QueueConfig::new(format!("execution-test-{tag}"));
    config.poll = Duration::from_millis(10);
    config
}

/// Runs `run(Execution::new(matrix))` with an observer attached and
/// returns what the run returned with every event it emitted, in emission
/// order.
fn observe<T>(
    matrix: &RunMatrix,
    run: impl for<'a> FnOnce(Execution<'a>) -> io::Result<T>,
) -> (T, Vec<RunEvent>) {
    let events = Mutex::new(Vec::new());
    let observer = |event: RunEvent| events.lock().unwrap().push(event);
    let output = run(Execution::new(matrix).observer(&observer)).expect("execution");
    (output, events.into_inner().unwrap())
}

fn claimed(events: &[RunEvent]) -> Vec<(RunKeyId, usize)> {
    events
        .iter()
        .filter_map(|event| match *event {
            RunEvent::Claimed { key_id, rank, .. } => Some((key_id, rank)),
            _ => None,
        })
        .collect()
}

/// Checks one execution's event stream against its report and returns the
/// key ids its terminal events covered.
fn check_events(mode: &str, report: &ExecutionReport, events: &[RunEvent]) -> BTreeSet<RunKeyId> {
    let terminal: Vec<RunKeyId> = events
        .iter()
        .filter(|e| matches!(e, RunEvent::Executed { .. } | RunEvent::AlreadyDone { .. }))
        .map(RunEvent::key_id)
        .collect();
    let ids: BTreeSet<RunKeyId> = terminal.iter().copied().collect();
    assert!(report.complete, "{mode}: {report:?}");
    assert_eq!(ids.len(), terminal.len(), "{mode}: a run ended twice");
    assert_eq!(
        terminal.len(),
        report.planned,
        "{mode}: one end per owned run"
    );
    assert_eq!(
        claimed(events).len(),
        report.sources.executed,
        "{mode}: one claim per executed run"
    );
    ids
}

#[test]
fn every_mode_emits_the_same_per_run_events() {
    let matrix = four_runs();
    let all: BTreeSet<RunKeyId> = matrix.key_ids().iter().copied().collect();

    // A cache holding half the runs, for the reuse pre-pass.
    let cache = temp_dir("events-cache");
    Execution::new(&matrix)
        .dir(&cache)
        .shard(ShardSpec::new(1, 2))
        .serial()
        .run()
        .unwrap();
    let partial = RunStore::new([&cache]).load_partial(&matrix).unwrap();
    assert_eq!(partial.reused, 2);

    let dir = temp_dir("events-dir");
    let reuse_dir = temp_dir("events-reuse-dir");
    let shard_dirs = [temp_dir("events-shard-1"), temp_dir("events-shard-2")];
    let queue_dir = temp_dir("events-queue");
    let mut modes: Vec<(&str, ExecutionReport, Vec<RunEvent>)> = Vec::new();
    let mut push = |mode, (output, events): (ExecutionOutput, _)| {
        modes.push((mode, *output.report(), events));
    };
    push("serial", observe(&matrix, |e| e.serial().run()));
    push("threads(2)", observe(&matrix, |e| e.threads(2).run()));
    push("dir", observe(&matrix, |e| e.dir(&dir).threads(2).run()));
    let p = partial.clone();
    push("reuse", observe(&matrix, |e| e.reuse(p).serial().run()));
    let p = partial.clone();
    push(
        "reuse+dir",
        observe(&matrix, |e| e.reuse(p).dir(&reuse_dir).run()),
    );
    let mut shards = BTreeSet::new();
    for (k, shard_dir) in shard_dirs.iter().enumerate() {
        let spec = ShardSpec::new(k + 1, 2);
        let (report, events) = observe(&matrix, |e| e.dir(shard_dir).shard(spec).serial().run());
        shards.extend(check_events(&format!("shard {spec}"), &report, &events));
    }
    assert_eq!(shards, all, "the shards' union covers the matrix");
    let workers: Vec<_> = std::thread::scope(|scope| {
        let joins: Vec<_> = ["a", "b"]
            .map(|tag| {
                let (matrix, dir) = (&matrix, &queue_dir);
                scope.spawn(move || {
                    observe(matrix, |e| e.dir(dir).queue(worker(tag)).serial().run())
                })
            })
            .into_iter()
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let executed: usize = workers
        .iter()
        .map(|(report, _)| report.sources.executed)
        .sum();
    assert_eq!(executed, matrix.len(), "the two workers split the runs");
    for (report, events) in workers {
        modes.push(("queue worker", report, events));
    }

    for (mode, report, events) in &modes {
        assert_eq!(
            check_events(mode, report, events),
            all,
            "{mode}: same key ids as every other mode"
        );
    }
    let reused = |mode: &str| {
        let (_, report, _) = modes.iter().find(|(m, ..)| *m == mode).unwrap();
        report.sources
    };
    assert_eq!((reused("reuse").reused, reused("reuse").executed), (2, 2));
    assert_eq!(
        (reused("reuse+dir").reused, reused("reuse+dir").executed),
        (2, 2)
    );

    // Canonical claims walk the canonical order; cost-ordered claims walk
    // the cost ranking, in every mode that owns a set of slots.
    let (_, _, events) = &modes[0];
    let ids: Vec<RunKeyId> = claimed(events).into_iter().map(|(id, _)| id).collect();
    let canonical: Vec<RunKeyId> = matrix
        .canonical_order()
        .into_iter()
        .map(|slot| matrix.key_ids()[slot])
        .collect();
    assert_eq!(ids, canonical);
    let by_cost: Vec<RunKeyId> = rank_by_cost(&matrix)
        .into_iter()
        .map(|slot| matrix.key_ids()[slot])
        .collect();
    assert_ne!(by_cost, canonical, "the matrix tells the two orders apart");
    let (_, events) = observe(&matrix, |e| {
        e.serial().policy(SchedulePolicy::CostOrdered).run()
    });
    let claims = claimed(&events);
    assert!(
        claims.windows(2).all(|pair| pair[0].1 < pair[1].1),
        "cost-ordered claim ranks strictly ascend: {claims:?}"
    );
    let ids: Vec<RunKeyId> = claims.into_iter().map(|(id, _)| id).collect();
    assert_eq!(ids, by_cost);
    let shard_dir = temp_dir("events-shard-cost");
    let (_, events) = observe(&matrix, |e| {
        e.dir(&shard_dir)
            .shard(ShardSpec::new(2, 2))
            .serial()
            .policy(SchedulePolicy::CostOrdered)
            .run()
    });
    let ids: Vec<RunKeyId> = claimed(&events).into_iter().map(|(id, _)| id).collect();
    let slice: Vec<RunKeyId> = by_cost
        .iter()
        .copied()
        .filter(|id| canonical.iter().position(|c| c == id).unwrap() % 2 == 1)
        .collect();
    assert_eq!(ids, slice, "a shard claims its slice in cost order");

    for d in [&cache, &dir, &reuse_dir, &queue_dir, &shard_dir]
        .into_iter()
        .chain(&shard_dirs)
    {
        let _ = fs::remove_dir_all(d);
    }
}

/// The `run-*.json` and `claim-*.lock` files under `dir`.
fn outcome_and_lock_files(dir: &Path) -> (usize, usize) {
    let names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
    (count("run-"), count("claim-"))
}

/// `execution` on one thread, in memory or into `dir`, as `shard` of it if
/// both are set: its report, and whether outcomes came back (a shard run
/// returns none).
fn serial_in(
    execution: Execution,
    dir: Option<&Path>,
    shard: Option<ShardSpec>,
) -> (ExecutionReport, bool) {
    let execution = execution.serial();
    let output = match (dir, shard) {
        (Some(dir), Some(spec)) => {
            let report = execution.dir(dir).shard(spec).run().expect("shard");
            return (report, false);
        }
        (Some(dir), None) => execution.dir(dir).run(),
        (None, _) => execution.run(),
    }
    .expect("execution");
    (*output.report(), output.outcomes().is_some())
}

#[test]
fn cancel_stops_every_mode_after_the_run_in_flight() {
    let matrix = four_runs();
    let dir = temp_dir("cancel-dir");
    let shard_dir = temp_dir("cancel-shard");
    let modes: [(&str, Option<&Path>, Option<ShardSpec>); 3] = [
        ("in memory", None, None),
        ("dir", Some(&dir), None),
        ("shard 1/2", Some(&shard_dir), Some(ShardSpec::new(1, 2))),
    ];
    for (mode, dir, shard) in modes {
        let cancel = CancelToken::new();
        let observer = {
            let cancel = cancel.clone();
            move |event: RunEvent| {
                if matches!(event, RunEvent::Executed { .. }) {
                    cancel.cancel();
                }
            }
        };
        let execution = Execution::new(&matrix).observer(&observer).cancel(&cancel);
        let (report, outcomes) = serial_in(execution, dir, shard);
        assert!(!report.complete, "{mode}: cancelled, so incomplete");
        assert_eq!(report.sources.executed, 1, "{mode}: only the run in flight");
        assert!(!outcomes, "{mode}: no partial outcomes");
        if let Some(dir) = dir {
            assert_eq!(outcome_and_lock_files(dir), (1, 0), "{mode}");
        }

        let (rerun, outcomes) = serial_in(Execution::new(&matrix), dir, shard);
        assert!(rerun.complete, "{mode}: the rerun completes");
        let resumed = usize::from(dir.is_some());
        assert_eq!(rerun.sources.reused, resumed, "{mode}");
        assert_eq!(rerun.sources.executed, rerun.planned - resumed, "{mode}");
        assert_eq!(outcomes, shard.is_none(), "{mode}");
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&shard_dir);
}
