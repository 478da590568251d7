//! Measure-then-assign scheduling tests: the cost model must be a total
//! order, cost-ordered drains must merge byte-identical to a serial
//! execution for any fleet shape, and — the headline — a fleet with one
//! slow worker must finish strictly sooner under
//! [`SchedulePolicy::CostOrdered`] than under the canonical claim order.
//!
//! The makespan scenario stages the pathology the policy exists for: the
//! slowest machine in the fleet grabbing the most expensive run. Three
//! 12-core runs dwarf six 2-core runs (the canonical key order happens to
//! put the big runs first), and the slow worker polls the queue alone for a
//! head start. Canonically it claims a big run and the whole sweep waits on
//! it; cost-ordered, its advertised throughput defers everything over the
//! slowness cutoff, so it picks up small runs while the fast workers take
//! the head of the ranked list.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use shift_sim::schedule::rank_by_cost;
use shift_sim::{
    CmpConfig, Execution, ExecutionReport, PrefetcherConfig, QueueConfig, RunCost, RunKey,
    RunMatrix, RunOutcomes, RunStore, SchedulePolicy, SimOptions,
};
use shift_trace::{presets, Scale};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shift-sim-schedule-test-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The pool of run ingredients property cases draw from.
fn prefetcher(idx: u64) -> PrefetcherConfig {
    match idx % 4 {
        0 => PrefetcherConfig::None,
        1 => PrefetcherConfig::next_line(),
        2 => PrefetcherConfig::pif_2k(),
        _ => PrefetcherConfig::shift_virtualized(),
    }
}

fn build_matrix(entries: &[(u64, u64, u64)]) -> RunMatrix {
    let workloads = [
        presets::tiny().with_region_index(0),
        presets::tiny().with_region_index(1),
    ];
    let mut matrix = RunMatrix::new();
    for &(w, p, seed) in entries {
        matrix.standalone(
            &workloads[(w % 2) as usize],
            prefetcher(p),
            2,
            Scale::Test,
            seed % 3,
        );
    }
    matrix
}

fn serial_reference(matrix: &RunMatrix) -> RunOutcomes {
    Execution::new(matrix)
        .serial()
        .run()
        .expect("serial reference")
        .into_outcomes()
}

fn assert_no_leftover_locks(dir: &Path) {
    for entry in fs::read_dir(dir).expect("outcome dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            name.starts_with("run-"),
            "leftover non-outcome file after drain: {name}"
        );
    }
}

/// The cost ranking is a total order: deterministic, cost-descending, and
/// tie-broken by ascending `RunKeyId` so equal-cost runs never reorder
/// between hosts.
#[test]
fn cost_ranking_is_a_total_order_with_stable_ties() {
    let workload = presets::tiny();
    let mut matrix = RunMatrix::new();
    // Three seeds of the same shape: identical cost, distinct key ids.
    for seed in 0..3 {
        matrix.standalone(&workload, PrefetcherConfig::None, 2, Scale::Test, seed);
    }
    // And one run that dwarfs them.
    matrix.standalone(&workload, PrefetcherConfig::None, 8, Scale::Test, 0);

    let order = rank_by_cost(&matrix);

    // A permutation of the slots...
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..matrix.len()).collect::<Vec<_>>());

    // ...deterministic across calls...
    assert_eq!(order, rank_by_cost(&matrix));

    // ...cost-descending, with equal costs ordered by ascending key id.
    let keys = matrix.keys();
    let ids = matrix.key_ids();
    for pair in order.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let (cost_a, cost_b) = (RunCost::of(&keys[a]), RunCost::of(&keys[b]));
        assert!(
            cost_a > cost_b || (cost_a == cost_b && ids[a] < ids[b]),
            "rank violates the (cost desc, key id asc) total order: \
             {cost_a} @ {} before {cost_b} @ {}",
            ids[a],
            ids[b]
        );
    }
    assert_eq!(order[0], matrix.len() - 1, "the 8-core run ranks first");
}

/// The cost of one run per prefetcher constructor at Test scale (50,000
/// fetches per core), on 2 and on 16 cores, as literals: claim order and
/// the decision log's `cost` field follow these numbers exactly.
#[test]
fn run_costs_are_pinned_per_prefetcher() {
    let pinned = [
        (PrefetcherConfig::None, 100_000, 800_000),
        (PrefetcherConfig::next_line(), 105_000, 840_000),
        (PrefetcherConfig::pif_2k(), 125_000, 1_000_000),
        (PrefetcherConfig::pif_32k(), 125_000, 1_000_000),
        (PrefetcherConfig::gated_pif_32k(), 125_000, 1_000_000),
        (PrefetcherConfig::shift_virtualized(), 143_300, 1_146_400),
        (PrefetcherConfig::shift_zero_latency(), 135_000, 1_080_000),
        (PrefetcherConfig::shift_dedicated(), 140_000, 1_120_000),
        (PrefetcherConfig::shift_throttled(2), 143_300, 1_146_400),
        (PrefetcherConfig::shift_next_line(), 148_300, 1_186_400),
        (PrefetcherConfig::adaptive_nl_shift(), 148_300, 1_186_400),
    ];
    for (prefetcher, two_cores, sixteen_cores) in pinned {
        for (cores, units) in [(2, two_cores), (16, sixteen_cores)] {
            let config = CmpConfig::micro13(cores, prefetcher);
            let key = RunKey::standalone(config, presets::tiny(), SimOptions::new(Scale::Test, 7));
            let cost = RunCost::of(&key);
            assert_eq!(cost.units(), units, "{prefetcher:?} on {cores} cores");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For arbitrary matrices, arbitrary per-worker throughput shapes
    /// (throttle, advertised rate, slowness cutoff), and any fleet size in
    /// 1..=4, a cost-ordered drain merges byte-identical to a serial
    /// execution and leaves no locks behind.
    #[test]
    fn cost_ordered_fleets_merge_bit_identical_to_serial(
        entries in proptest::collection::vec((0u64..2, 0u64..4, 0u64..3), 1..5),
        throttles in proptest::collection::vec(0u64..20, 4..5),
        // 0 means "no advertised rate" (calibration unknown at start).
        rates in proptest::collection::vec(0u64..10_000_000, 4..5),
        cutoffs_ms in proptest::collection::vec(1u64..5_000, 4..5),
        workers in 1usize..=4,
    ) {
        let matrix = build_matrix(&entries);
        let serial = serial_reference(&matrix);
        let dir = temp_dir(&format!("prop-{workers}"));

        let reports: Vec<ExecutionReport> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..workers)
                .map(|w| {
                    let matrix = &matrix;
                    let dir = dir.clone();
                    let mut config = QueueConfig::new(format!("sched-w{w}"));
                    config.poll = Duration::from_millis(10);
                    config.throttle_ns_per_unit = throttles[w];
                    config.initial_rate = (rates[w] > 0).then_some(rates[w]);
                    config.slow_cutoff = Duration::from_millis(cutoffs_ms[w]);
                    scope.spawn(move || {
                        Execution::new(matrix)
                            .dir(&dir)
                            .queue(config)
                            .serial()
                            .policy(SchedulePolicy::CostOrdered)
                            .run()
                            .expect("queue worker")
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join().expect("worker thread")).collect()
        });

        let executed_total: usize = reports.iter().map(|r| r.sources.executed).sum();
        prop_assert_eq!(executed_total, matrix.len(), "each run executes exactly once");
        for report in &reports {
            prop_assert!(report.complete);
            prop_assert_eq!(report.sources.reclaimed, 0, "no stale locks among live workers");
        }
        assert_no_leftover_locks(&dir);

        let merged = RunStore::new([&dir]).load(&matrix).expect("merge");
        prop_assert_eq!(format!("{merged:?}"), format!("{serial:?}"));
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// The makespan matrix: three 12-core runs (~6x the work of a small run)
/// ahead of six 2-core runs in canonical order.
fn makespan_matrix() -> RunMatrix {
    let workload = presets::tiny();
    let mut matrix = RunMatrix::new();
    for seed in 0..3 {
        matrix.standalone(&workload, PrefetcherConfig::None, 12, Scale::Test, seed);
    }
    for seed in 0..6 {
        matrix.standalone(&workload, PrefetcherConfig::None, 2, Scale::Test, seed);
    }
    matrix
}

/// Sleep per weighted fetch unit that makes a big run cost ~3.6 s of
/// throttle on the slow worker and a small run ~0.6 s.
const SLOW_THROTTLE_NS_PER_UNIT: u64 = 6_000;

/// Drains `matrix` with a 4-worker fleet — one sleep-throttled slow worker
/// that gets a head start on the queue, three unthrottled fast ones — and
/// returns the fleet's makespan.
fn drain_fleet(matrix: &RunMatrix, dir: &Path, policy: SchedulePolicy) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let slow = scope.spawn(move || {
            let mut config = QueueConfig::new("slow".to_owned());
            config.poll = Duration::from_millis(10);
            config.throttle_ns_per_unit = SLOW_THROTTLE_NS_PER_UNIT;
            // The slow worker advertises its throughput up front, as a
            // restarted worker recovering its calibration would: 150k
            // weighted fetch units per second puts a big run (~600k units)
            // far over the cutoff and a small one (~100k) well under it.
            config.initial_rate = Some(150_000);
            config.slow_cutoff = Duration::from_millis(1_500);
            let report = Execution::new(matrix)
                .dir(dir)
                .queue(config)
                .serial()
                .policy(policy)
                .run()
                .expect("slow worker");
            assert!(report.complete);
        });
        // The head start guarantees the slow worker faces the full queue
        // alone — the exact situation where claim order decides makespan.
        std::thread::sleep(Duration::from_millis(200));
        let fast: Vec<_> = (0..3)
            .map(|w| {
                scope.spawn(move || {
                    let mut config = QueueConfig::new(format!("fast-{w}"));
                    config.poll = Duration::from_millis(10);
                    let report = Execution::new(matrix)
                        .dir(dir)
                        .queue(config)
                        .serial()
                        .policy(policy)
                        .run()
                        .expect("fast worker");
                    assert!(report.complete);
                })
            })
            .collect();
        slow.join().expect("slow worker thread");
        for join in fast {
            join.join().expect("fast worker thread");
        }
    });
    start.elapsed()
}

/// The tentpole acceptance: with one throttled worker in a 4-worker fleet,
/// `CostOrdered` yields a strictly lower makespan than the canonical claim
/// order, and the merged outcomes stay byte-identical to a serial execution.
#[test]
fn cost_ordered_beats_canonical_makespan_with_one_slow_worker() {
    let matrix = makespan_matrix();
    let serial = serial_reference(&matrix);

    // Canonical order puts the 12-core runs at the head of the queue, so
    // the slow worker's head start means it claims a big run and throttles
    // the whole sweep behind its ~3.6 s of sleep.
    let canonical_dir = temp_dir("makespan-canonical");
    let canonical = drain_fleet(&matrix, &canonical_dir, SchedulePolicy::Canonical);

    // Cost-ordered, the same slow worker defers every run whose estimated
    // duration exceeds its cutoff: it picks up small runs (~0.6 s each) and
    // the fast workers take the expensive head of the ranked list.
    let cost_dir = temp_dir("makespan-cost");
    let cost_ordered = drain_fleet(&matrix, &cost_dir, SchedulePolicy::CostOrdered);

    eprintln!(
        "makespan: canonical {:.2}s, cost-ordered {:.2}s",
        canonical.as_secs_f64(),
        cost_ordered.as_secs_f64()
    );
    assert!(
        cost_ordered < canonical,
        "cost-ordered makespan {cost_ordered:?} must beat canonical {canonical:?}"
    );
    // The slow worker's big-run throttle alone is ~3.6 s; cost-ordered the
    // fleet never waits on it, so the gap is wide, not a timing accident.
    assert!(
        canonical >= Duration::from_millis(3_600),
        "canonical drain should be throttled by the slow worker's big run, \
         finished in {canonical:?}"
    );

    // Scheduling changed *when* runs executed, never *what* they computed:
    // both drains merge byte-identical to the serial reference.
    for dir in [&canonical_dir, &cost_dir] {
        assert_no_leftover_locks(dir);
        let merged = RunStore::new([dir]).load(&matrix).expect("merge");
        assert_eq!(format!("{merged:?}"), format!("{serial:?}"));
        fs::remove_dir_all(dir).unwrap();
    }
}
