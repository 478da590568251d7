//! Cost-ordered scheduling tests: the cost ranking must be a total order,
//! run costs are pinned per prefetcher, and
//! [`SchedulePolicy::CostOrdered`] drains must merge byte-identical to a
//! serial execution for any fleet size.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

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

    /// For arbitrary matrices and any fleet size in 1..=4, a cost-ordered
    /// drain executes each run exactly once, merges byte-identical to a
    /// serial execution and leaves no locks behind.
    #[test]
    fn cost_ordered_fleets_merge_bit_identical_to_serial(
        entries in proptest::collection::vec((0u64..2, 0u64..4, 0u64..3), 1..5),
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
