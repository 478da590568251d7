//! How the outcome store sorts a directory of outcome files, pinned end to
//! end: one pair of directories holds a file of every kind, and both the
//! lenient and the strict loader must report exactly what they report here.
//!
//! The strict loader fails on the first failing file in directory-then-name
//! order. The test removes each offending file in turn and loads again, so
//! every error the strict loader can return is pinned with all its fields,
//! in order, down to the errors about what is missing.

use std::fs;
use std::path::{Path, PathBuf};

use shift_sim::store::{lock_file_name, outcome_file_name, read_outcome};
use shift_sim::{
    Execution, PrefetcherConfig, RunHandle, RunMatrix, RunStore, StoreError, RESULTS_VERSION,
};
use shift_trace::{presets, Scale};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shift-sim-store-test-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A matrix of tiny standalone runs, one per seed, and their handles.
fn matrix(seeds: &[u64]) -> (RunMatrix, Vec<RunHandle>) {
    let w = presets::tiny();
    let mut matrix = RunMatrix::new();
    let handles = seeds
        .iter()
        .map(|&seed| matrix.standalone(&w, PrefetcherConfig::None, 2, Scale::Test, seed))
        .collect();
    (matrix, handles)
}

/// Executes `matrix` into `dir` and returns its outcome file for `slot`.
fn outcome_text(matrix: &RunMatrix, dir: &Path, slot: usize) -> String {
    fs::read_to_string(dir.join(outcome_file_name(matrix.key_ids()[slot]))).unwrap()
}

/// Replaces `from` by `to` in `text`, insisting that `from` occurs.
fn edit(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "`{from}` not in the outcome file");
    text.replace(from, to)
}

/// The strict load's error, in full.
fn strict_error(dirs: &[&Path], matrix: &RunMatrix) -> String {
    match RunStore::new(dirs).load(matrix) {
        Ok(_) => panic!("the strict load succeeded"),
        Err(e) => format!("{e:?}"),
    }
}

#[test]
fn every_kind_of_outcome_file_is_sorted_the_same_way_by_both_loaders() {
    // The plan: slot 0 has a current outcome, slot 1 only a stale one, and
    // slot 2 only one written for another sweep.
    let (planned, handles) = matrix(&[1, 2, 3]);
    // Another sweep that shares slot 2's run and plans one run of its own.
    let (other, _) = matrix(&[3, 4]);
    assert_eq!(other.key_ids()[0], planned.key_ids()[2]);
    assert!(!planned.key_ids().contains(&other.key_ids()[1]));

    let source = temp_dir("source");
    let (source_planned, source_other) = (source.join("planned"), source.join("other"));
    Execution::new(&planned)
        .serial()
        .dir(&source_planned)
        .run()
        .unwrap();
    Execution::new(&other)
        .serial()
        .dir(&source_other)
        .run()
        .unwrap();
    let results = RunStore::new([&source_planned]).load(&planned).unwrap();
    let result_of = |slot: usize| Some(results[handles[slot]].clone());

    let first = temp_dir("first");
    let second = temp_dir("second");
    let name = |matrix: &RunMatrix, slot: usize| outcome_file_name(matrix.key_ids()[slot]);
    let planned_fp = format!("\"matrix\": \"{}\"", planned.fingerprint());
    let other_fp = format!("\"matrix\": \"{}\"", other.fingerprint());

    let hit = first.join(name(&planned, 0));
    fs::write(&hit, outcome_text(&planned, &source_planned, 0)).unwrap();
    let stale = first.join(name(&planned, 1));
    fs::write(
        &stale,
        edit(
            &outcome_text(&planned, &source_planned, 1),
            &format!("\"results\": {RESULTS_VERSION}"),
            "\"results\": 0",
        ),
    )
    .unwrap();
    let foreign = first.join(name(&planned, 2));
    fs::write(&foreign, outcome_text(&other, &source_other, 0)).unwrap();
    let unplanned = first.join(name(&other, 1));
    fs::write(
        &unplanned,
        edit(
            &outcome_text(&other, &source_other, 1),
            &other_fp,
            &planned_fp,
        ),
    )
    .unwrap();
    let malformed = first.join("run-0123456789abcdef.json");
    let whole = outcome_text(&planned, &source_planned, 0);
    fs::write(&malformed, &whole[..whole.len() / 2]).unwrap();
    let again = second.join(name(&planned, 0));
    fs::copy(&hit, &again).unwrap();
    // Neither loader reads anything but `run-*.json` files.
    fs::write(first.join("notes.txt"), "scratch").unwrap();

    // Lenient: every file counted once, in exactly one bin.
    let partial = RunStore::new([&first, &second])
        .load_partial(&planned)
        .unwrap();
    assert_eq!(partial.scanned, 6);
    assert_eq!(partial.reused, 2);
    assert_eq!(partial.skipped_foreign, 1);
    assert_eq!(partial.skipped_stale, 1);
    assert_eq!(partial.skipped_malformed, vec![malformed.clone()]);
    assert_eq!(partial.hit(0).cloned(), result_of(0));
    assert_eq!(partial.hit(1), None);
    assert_eq!(partial.hit(2).cloned(), result_of(2));
    assert_eq!(partial.missing_slots(&planned), vec![1]);

    // Strict: the failing files of the first directory in name order, then
    // the second directory's copy of the hit.
    let mut failing = vec![
        (
            malformed.clone(),
            format!("{:?}", read_outcome(&malformed).unwrap_err()),
        ),
        (
            foreign.clone(),
            format!(
                "{:?}",
                StoreError::ForeignMatrix {
                    path: foreign.clone(),
                    expected: planned.fingerprint(),
                    found: other.fingerprint(),
                }
            ),
        ),
        (
            unplanned.clone(),
            format!(
                "{:?}",
                StoreError::UnknownKey {
                    path: unplanned.clone(),
                    key_id: other.key_ids()[1],
                }
            ),
        ),
    ];
    failing.sort();
    failing.push((
        again.clone(),
        format!(
            "{:?}",
            StoreError::DuplicateKey {
                key_id: planned.key_ids()[0],
                first: hit.clone(),
                second: again.clone(),
            }
        ),
    ));
    let absent = source.join("absent");
    let dirs = [first.as_path(), second.as_path()];
    for (offender, expected) in failing {
        assert_eq!(strict_error(&dirs, &planned), expected);
        // A directory after the failing file is never read.
        assert_eq!(
            strict_error(&[&first, &second, &absent], &planned),
            expected
        );
        fs::remove_file(offender).unwrap();
    }

    // Only misses remain: slot 1's stale file is the diagnosis.
    let missing_ids: Vec<_> = planned
        .canonical_order()
        .into_iter()
        .filter(|&slot| slot != 0)
        .map(|slot| planned.key_ids()[slot])
        .collect();
    assert_eq!(
        strict_error(&dirs, &planned),
        format!(
            "{:?}",
            StoreError::StaleResults {
                paths: vec![stale.clone()],
                expected: RESULTS_VERSION,
                missing: 2,
                planned: 3,
            }
        )
    );
    // Every directory is read before the misses are counted.
    let io = strict_error(&[&first, &second, &absent], &planned);
    assert!(io.starts_with("Io("), "{io}");

    fs::remove_file(&stale).unwrap();
    assert_eq!(
        strict_error(&dirs, &planned),
        format!(
            "{:?}",
            StoreError::MissingRuns {
                missing: missing_ids.clone(),
                planned: 3,
            }
        )
    );

    let lock = second.join(lock_file_name(planned.key_ids()[1]));
    fs::write(&lock, "").unwrap();
    assert_eq!(
        strict_error(&dirs, &planned),
        format!(
            "{:?}",
            StoreError::ActiveLocks {
                locks: vec![lock],
                missing: 2,
                planned: 3,
            }
        )
    );

    // The lenient load only fails on I/O.
    assert!(matches!(
        RunStore::new([&first, &absent]).load_partial(&planned),
        Err(StoreError::Io(_))
    ));

    for dir in [&source, &first, &second] {
        fs::remove_dir_all(dir).unwrap();
    }
}
