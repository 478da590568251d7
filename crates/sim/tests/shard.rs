//! Sharding equivalence and negative-path tests for the plan / execute /
//! merge pipeline.
//!
//! The property at the heart of the sharded sweep: for *any* matrix and
//! *any* shard count, executing every shard into its own directory and
//! merging yields outcomes bit-identical to a serial in-process execution.
//! The negative tests pin down what the merge must reject: missing shards,
//! duplicated outcome directories, and outcomes from a foreign sweep.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use shift_sim::{Execution, PrefetcherConfig, RunMatrix, RunStore, ShardSpec, StoreError};
use shift_trace::{presets, Scale};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shift-sim-shard-test-{tag}"));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For random matrices (with random duplicates, which must dedup) and any
    /// shard count in 1..=5, executing all N shards and merging is
    /// bit-identical to a serial execution.
    #[test]
    fn sharded_execution_merges_bit_identical_to_serial(
        entries in proptest::collection::vec((0u64..2, 0u64..4, 0u64..3), 1..5),
        total in 1usize..=5,
    ) {
        let (matrix, handles) = build_matrix(&entries);
        let serial = Execution::new(&matrix).serial().run().unwrap().into_outcomes();

        let dirs: Vec<PathBuf> = (1..=total)
            .map(|k| temp_dir(&format!("prop-{k}-of-{total}")))
            .collect();
        let mut sliced = 0usize;
        for (k, dir) in dirs.iter().enumerate() {
            let report = Execution::new(&matrix)
                .dir(dir)
                .shard(ShardSpec::new(k + 1, total))
                .threads(2)
                .run()
                .expect("shard executes");
            sliced += report.planned;
        }
        prop_assert_eq!(sliced, matrix.len(), "shards must partition the matrix");

        let merged = RunStore::new(dirs.iter().cloned())
            .load(&matrix)
            .expect("merge covers the sweep");
        prop_assert_eq!(merged.len(), serial.len());
        for &handle in &handles {
            prop_assert_eq!(&merged[handle], &serial[handle]);
        }
        // The strongest form: every field of every result, via Debug's
        // shortest round-trip float rendering.
        prop_assert_eq!(format!("{merged:?}"), format!("{serial:?}"));

        for dir in dirs {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

#[test]
fn missing_shard_is_detected() {
    let (matrix, _) = build_matrix(&[(0, 0, 0), (0, 1, 0), (1, 2, 1), (1, 3, 2)]);
    let dir = temp_dir("missing");
    // Execute only shard 1 of 3.
    Execution::new(&matrix)
        .dir(&dir)
        .shard(ShardSpec::new(1, 3))
        .serial()
        .run()
        .unwrap();
    let err = RunStore::new([&dir]).load(&matrix).unwrap_err();
    match err {
        StoreError::MissingRuns { missing, planned } => {
            assert_eq!(planned, matrix.len());
            assert!(!missing.is_empty() && missing.len() < planned);
            // The missing ids are exactly the other shards' slices, in
            // canonical order.
            let expected: Vec<_> = matrix
                .canonical_order()
                .into_iter()
                .enumerate()
                .filter(|&(rank, _)| !ShardSpec::new(1, 3).selects(rank))
                .map(|(_, slot)| matrix.key_ids()[slot])
                .collect();
            assert_eq!(missing, expected);
        }
        other => panic!("expected MissingRuns, got {other}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicate_outcomes_are_rejected() {
    let (matrix, _) = build_matrix(&[(0, 0, 0), (1, 1, 1)]);
    let dir = temp_dir("duplicate");
    Execution::new(&matrix)
        .dir(&dir)
        .shard(ShardSpec::full())
        .serial()
        .run()
        .unwrap();
    // The same directory listed twice presents every run twice.
    let err = RunStore::new([dir.clone(), dir.clone()])
        .load(&matrix)
        .unwrap_err();
    assert!(
        matches!(err, StoreError::DuplicateKey { .. }),
        "expected DuplicateKey, got {err}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn foreign_matrix_outcomes_are_rejected() {
    // Shard a 4-core sweep, then try to merge it into a 2-core plan: same
    // workload, different sweep — the fingerprints differ.
    let w = presets::tiny();
    let mut four_core = RunMatrix::new();
    four_core.standalone(&w, PrefetcherConfig::None, 4, Scale::Test, 1);
    let dir = temp_dir("foreign");
    Execution::new(&four_core)
        .dir(&dir)
        .shard(ShardSpec::full())
        .serial()
        .run()
        .unwrap();

    let mut two_core = RunMatrix::new();
    two_core.standalone(&w, PrefetcherConfig::None, 2, Scale::Test, 1);
    let err = RunStore::new([&dir]).load(&two_core).unwrap_err();
    match err {
        StoreError::ForeignMatrix {
            expected, found, ..
        } => {
            assert_eq!(expected, two_core.fingerprint());
            assert_eq!(found, four_core.fingerprint());
            assert_ne!(expected, found);
        }
        other => panic!("expected ForeignMatrix, got {other}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}
