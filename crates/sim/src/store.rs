//! The **merge** stage of the sweep pipeline: durable per-run outcomes and
//! the store that loads them back into [`RunOutcomes`].
//!
//! A shard ([`crate::shard`]) persists every completed run as one JSON
//! *outcome file* named by the run's content-addressed [`RunKeyId`]. The
//! file is self-describing:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "results": 1,
//!   "matrix": "<16-hex MatrixFingerprint of the planned sweep>",
//!   "key_id": "<16-hex RunKeyId>",
//!   "key": { ...the full RunKey... },
//!   "result": { ...the RunResult... }
//! }
//! ```
//!
//! `results` records the [`RESULTS_VERSION`] the producing binary was built
//! with; files stamped with a different version (including pre-versioning
//! files, which read back as version 0) are *stale* — every reader treats
//! them as cache misses and re-executes the run rather than reusing numbers
//! a result-changing deploy has invalidated.
//!
//! [`RunStore::load`] scans one or more shard directories, verifies every
//! file against the locally planned matrix — same fingerprint, known key id,
//! byte-identical embedded key, exactly one file per planned run — and
//! assembles the results into the same [`RunOutcomes`] an in-process
//! [`RunMatrix::execute`](crate::RunMatrix::execute) would have produced.
//! Foreign sweeps, duplicate keys, and missing runs are rejected with
//! typed [`StoreError`]s rather than silently merged.
//!
//! # The outcome directory as a cache
//!
//! Strict loading treats an outcome directory as *the durable state of one
//! sweep*; [`RunStore::load_partial`] treats it as a *cache of individual
//! runs* instead. It accepts any outcome file whose embedded key JSON is
//! byte-identical to a key in the locally planned matrix — regardless of the
//! recorded [`MatrixFingerprint`] — and reports which planned runs are still
//! missing, so a changed plan (one figure added, one sweep point removed)
//! re-executes only its delta.
//!
//! **Reuse-safety argument.** A [`RunKey`] is, by construction, *everything*
//! that determines a run's [`RunResult`] (full CMP config, options, workload
//! assignment — see [`RunKey`]'s docs), and simulations are deterministic in
//! their key. Therefore an outcome whose embedded canonical key JSON equals
//! the planned key's byte-for-byte would be reproduced bit-identically by
//! re-executing the run, and substituting the cached result is sound. The
//! matrix fingerprint certifies something different — that a directory
//! *completely covers one specific sweep* — which is why the strict
//! [`RunStore::load`] keeps enforcing it while per-key reuse ignores it.
//!
//! # Claim locks
//!
//! Work-queue execution ([`Execution::queue`](crate::Execution::queue))
//! coordinates
//! workers through `claim-<RunKeyId>.lock` files in the same directory; the
//! file names are reserved here (next to the outcome-file schema) so every
//! consumer agrees on the directory layout. Lock files are transient: a
//! drained queue leaves none behind, and both [`RunStore::load`] and
//! [`RunStore::load_partial`] ignore them except to improve the diagnostic
//! when runs are missing ([`StoreError::ActiveLocks`]).

use std::fmt;
use std::fs;
use std::io;
use std::ops::Index;
use std::path::{Path, PathBuf};

use serde::{json, Deserialize, Serialize, Value};

use crate::matrix::{MatrixFingerprint, RunHandle, RunKey, RunKeyId, RunMatrix};
use crate::results::{RunResult, RESULTS_VERSION};

/// Version tag of the outcome-file layout; bump when fields change meaning.
/// (Result *semantics* are versioned separately by [`RESULTS_VERSION`].)
pub const OUTCOME_SCHEMA: u32 = 1;

/// Results of a [`RunMatrix`] execution, indexed by
/// [`RunHandle`].
///
/// Outcomes are deliberately decoupled from *how* the runs executed: a
/// single-process [`RunMatrix::execute`](crate::RunMatrix::execute), a
/// resumed multi-machine shard sweep merged by [`RunStore::load`], or any
/// mix — all produce bit-identical `RunOutcomes` for the same plan.
#[derive(Clone, Debug)]
pub struct RunOutcomes {
    matrix: u64,
    results: Vec<RunResult>,
}

impl RunOutcomes {
    /// Outcomes for the matrix with process-local id `matrix`, one result per
    /// plan slot in plan order.
    pub(crate) fn from_results(matrix: u64, results: Vec<RunResult>) -> Self {
        RunOutcomes { matrix, results }
    }

    /// The result of the given planned run.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if `handle` was planned by a *different*
    /// [`RunMatrix`] (see the invariant on [`RunHandle`]),
    /// or if it was planned after this matrix executed. Use
    /// [`RunOutcomes::try_get`] for a checked lookup.
    pub fn get(&self, handle: RunHandle) -> &RunResult {
        assert_eq!(
            handle.matrix, self.matrix,
            "RunHandle was planned by RunMatrix #{} but these outcomes were executed \
             from RunMatrix #{}; handles are only valid against outcomes of the \
             matrix that planned them",
            handle.matrix, self.matrix,
        );
        self.results.get(handle.slot).unwrap_or_else(|| {
            panic!(
                "RunHandle #{} was planned after RunMatrix #{} executed \
                 (outcomes hold {} runs); re-execute the matrix after planning",
                handle.slot,
                self.matrix,
                self.results.len(),
            )
        })
    }

    /// Checked lookup: `None` if `handle` belongs to a different matrix or
    /// was planned after this matrix executed.
    pub fn try_get(&self, handle: RunHandle) -> Option<&RunResult> {
        if handle.matrix != self.matrix {
            return None;
        }
        self.results.get(handle.slot)
    }

    /// Number of executed runs.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// `true` if the matrix was empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }
}

impl Index<RunHandle> for RunOutcomes {
    type Output = RunResult;

    fn index(&self, handle: RunHandle) -> &RunResult {
        self.get(handle)
    }
}

/// Why loading or merging outcome files failed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error reading a directory or file.
    Io(io::Error),
    /// A file that should be an outcome file did not parse or failed an
    /// integrity check (bad schema, key hash mismatch, …).
    Malformed {
        /// The offending file.
        path: PathBuf,
        /// What was wrong with it.
        reason: String,
    },
    /// An outcome file was executed for a different sweep than the one
    /// being merged (mismatched [`MatrixFingerprint`]).
    ForeignMatrix {
        /// The offending file.
        path: PathBuf,
        /// Fingerprint of the locally planned matrix.
        expected: MatrixFingerprint,
        /// Fingerprint recorded in the file.
        found: MatrixFingerprint,
    },
    /// An outcome file carries the right fingerprint but a key the local
    /// plan does not contain (corruption, or a hand-edited file).
    UnknownKey {
        /// The offending file.
        path: PathBuf,
        /// The unplanned key id.
        key_id: RunKeyId,
    },
    /// Two loaded files claim the same run (overlapping shard directories,
    /// or the same directory merged twice).
    DuplicateKey {
        /// The run claimed twice.
        key_id: RunKeyId,
        /// The file loaded first.
        first: PathBuf,
        /// The file that collided with it.
        second: PathBuf,
    },
    /// After loading every directory, some planned runs had no outcome —
    /// a shard is missing or did not finish.
    MissingRuns {
        /// Canonically ordered ids of the runs without outcomes.
        missing: Vec<RunKeyId>,
        /// Total planned runs.
        planned: usize,
    },
    /// Some planned runs only have outcome files stamped with a different
    /// [`RESULTS_VERSION`]: a result-changing deploy invalidated them, and
    /// the strict merge refuses to splice old numbers into a new sweep.
    /// Re-execute the stale runs (shard resume and queue workers do so
    /// automatically) and merge again.
    StaleResults {
        /// Stale outcome files for runs that have no current outcome, sorted.
        paths: Vec<PathBuf>,
        /// The results version this binary produces.
        expected: u32,
        /// Total runs without current outcomes (stale or absent).
        missing: usize,
        /// Total planned runs.
        planned: usize,
    },
    /// Some planned runs have no outcome but *do* have claim lock files:
    /// a queue worker is still executing them (merge too early), or workers
    /// died holding claims (the locks become reclaimable once the TTL
    /// expires — see [`QueueConfig::lock_ttl`](crate::QueueConfig)).
    ActiveLocks {
        /// Lock files found for missing runs, sorted.
        locks: Vec<PathBuf>,
        /// Total runs without outcomes (locked or not).
        missing: usize,
        /// Total planned runs.
        planned: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "outcome store I/O error: {e}"),
            StoreError::Malformed { path, reason } => {
                write!(f, "malformed outcome file {}: {reason}", path.display())
            }
            StoreError::ForeignMatrix {
                path,
                expected,
                found,
            } => write!(
                f,
                "outcome file {} belongs to a different sweep: planned matrix {expected}, \
                 file records {found} (check SHIFT_SCALE/SHIFT_CORES/SHIFT_WORKLOADS match \
                 the sharding run)",
                path.display()
            ),
            StoreError::UnknownKey { path, key_id } => write!(
                f,
                "outcome file {} records run {key_id}, which the planned matrix does not \
                 contain",
                path.display()
            ),
            StoreError::DuplicateKey {
                key_id,
                first,
                second,
            } => write!(
                f,
                "run {key_id} has two outcome files: {} and {} (same shard directory merged \
                 twice, or overlapping shards)",
                first.display(),
                second.display()
            ),
            StoreError::MissingRuns { missing, planned } => {
                write!(
                    f,
                    "merge is missing {} of {planned} planned runs (a shard did not run or \
                     did not finish); first missing: {}",
                    missing.len(),
                    missing
                        .first()
                        .map_or_else(|| "-".to_owned(), ToString::to_string)
                )
            }
            StoreError::StaleResults {
                paths,
                expected,
                missing,
                planned,
            } => write!(
                f,
                "merge is missing {missing} of {planned} planned runs, and {} of them only \
                 have outcome files from an older results version (current is {expected}); \
                 a result-changing deploy invalidated them — re-run the shard or queue \
                 workers to re-execute, then merge again; first stale: {}",
                paths.len(),
                paths
                    .first()
                    .map_or_else(|| "-".to_owned(), |p| p.display().to_string())
            ),
            StoreError::ActiveLocks {
                locks,
                missing,
                planned,
            } => write!(
                f,
                "merge is missing {missing} of {planned} planned runs and found {} claim \
                 lock file(s) for them — queue workers are still draining this directory \
                 (merge after they exit), or died holding claims (re-run a worker; stale \
                 locks are reclaimed after the TTL); first lock: {}",
                locks.len(),
                locks
                    .first()
                    .map_or_else(|| "-".to_owned(), |p| p.display().to_string())
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One parsed outcome file.
#[derive(Clone, Debug)]
pub struct OutcomeRecord {
    /// [`RESULTS_VERSION`] the producing binary was built with (0 for files
    /// written before versioning existed — always stale).
    pub results_version: u32,
    /// Fingerprint of the sweep the run was executed for.
    pub matrix: MatrixFingerprint,
    /// Content-addressed id of the run.
    pub key_id: RunKeyId,
    /// The embedded key's canonical JSON (compared byte-for-byte against the
    /// planned key, so a 64-bit id collision cannot smuggle in a wrong run).
    pub key_json: String,
    /// The run's result.
    pub result: RunResult,
}

/// File name of the outcome for `key_id` inside a shard directory.
pub fn outcome_file_name(key_id: RunKeyId) -> String {
    format!("run-{key_id}.json")
}

/// File name of the queue claim lock for `key_id` inside an outcome
/// directory (see [`crate::shard`] for the claim protocol).
pub fn lock_file_name(key_id: RunKeyId) -> String {
    format!("claim-{key_id}.lock")
}

/// Version tag of the claim-lock layout; bump when fields change meaning.
pub const LOCK_SCHEMA: u32 = 1;

/// One parsed claim lock file: who claimed a run, and when.
///
/// The contents are *informational* (operator diagnostics, staleness
/// assessment); the lock's mutual-exclusion property comes entirely from the
/// atomicity of its exclusive creation, never from what is in it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockRecord {
    /// The claimed run.
    pub key_id: RunKeyId,
    /// Free-form id of the claiming worker (host/pid style).
    pub worker: String,
    /// When the claim was taken, as seconds since the Unix epoch *on the
    /// claiming worker's clock*. Staleness checks compare it against the
    /// reader's clock, so the reclaim TTL must comfortably exceed any
    /// cross-machine clock skew.
    pub claimed_unix: u64,
    /// The claiming worker's measured drain rate, in weighted fetch units
    /// per second (see [`crate::schedule::RunCost`]), if it has completed at
    /// least one run. Heartbeats re-stamp it, and a restarted worker reads
    /// its own leftover locks to recover calibration across crashes.
    pub rate: Option<u64>,
}

impl LockRecord {
    /// The lock's serialized form (compact JSON).
    pub(crate) fn to_json(&self) -> String {
        let mut fields = vec![
            ("schema".to_owned(), LOCK_SCHEMA.to_value()),
            ("key_id".to_owned(), self.key_id.to_value()),
            ("worker".to_owned(), self.worker.to_value()),
            ("claimed_unix".to_owned(), self.claimed_unix.to_value()),
        ];
        if let Some(rate) = self.rate {
            fields.push(("rate".to_owned(), rate.to_value()));
        }
        json::to_string(&Value::Map(fields))
    }
}

/// Parses one claim lock file.
///
/// # Errors
///
/// [`StoreError::Io`] if the file is unreadable, [`StoreError::Malformed`]
/// if it does not parse or has the wrong schema. A half-written lock (the
/// claiming worker died between creating and filling it) parses as
/// malformed; the queue's staleness check falls back to the file's mtime in
/// that case rather than failing.
pub fn read_lock(path: &Path) -> Result<LockRecord, StoreError> {
    let malformed = |reason: String| StoreError::Malformed {
        path: path.to_path_buf(),
        reason,
    };
    let text = fs::read_to_string(path)?;
    let doc = json::parse(&text).map_err(|e| malformed(e.to_string()))?;
    let read_field = |name: &str| {
        doc.get(name)
            .ok_or_else(|| malformed(format!("missing `{name}` field")))
    };
    let schema = u32::from_value(read_field("schema")?)
        .map_err(|e| malformed(format!("bad `schema`: {e}")))?;
    if schema != LOCK_SCHEMA {
        return Err(malformed(format!(
            "lock schema {schema} is not the supported {LOCK_SCHEMA}"
        )));
    }
    Ok(LockRecord {
        key_id: RunKeyId::from_value(read_field("key_id")?)
            .map_err(|e| malformed(format!("bad `key_id`: {e}")))?,
        worker: String::from_value(read_field("worker")?)
            .map_err(|e| malformed(format!("bad `worker`: {e}")))?,
        claimed_unix: u64::from_value(read_field("claimed_unix")?)
            .map_err(|e| malformed(format!("bad `claimed_unix`: {e}")))?,
        // Optional: locks from workers that have not completed a run yet (or
        // were written before rate persistence existed) simply omit it.
        rate: match doc.get("rate") {
            Some(v) => Some(u64::from_value(v).map_err(|e| malformed(format!("bad `rate`: {e}")))?),
            None => None,
        },
    })
}

/// Process-wide counter making concurrent writers' temp files distinct.
static NEXT_TMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Writes one run's outcome under `dir`, atomically (write to a temp file,
/// then rename), so a killed shard never leaves a half-written outcome that
/// a resume or merge would trip over.
///
/// The temp name is unique per writer (pid + counter): two workers racing
/// to persist the same run — possible after an over-eager queue reclaim, or
/// when several reusing workers seed one directory — each complete their
/// own write, and whichever rename lands last wins with byte-identical
/// content. A shared temp name would instead let one writer rename the
/// other's half-written file into place.
pub(crate) fn write_outcome(
    dir: &Path,
    fingerprint: MatrixFingerprint,
    key: &RunKey,
    result: &RunResult,
) -> io::Result<()> {
    let key_id = key.id();
    let doc = Value::Map(vec![
        ("schema".to_owned(), OUTCOME_SCHEMA.to_value()),
        ("results".to_owned(), RESULTS_VERSION.to_value()),
        ("matrix".to_owned(), fingerprint.to_value()),
        ("key_id".to_owned(), key_id.to_value()),
        ("key".to_owned(), key.to_value()),
        ("result".to_owned(), result.to_value()),
    ]);
    let final_path = dir.join(outcome_file_name(key_id));
    let tmp_path = dir.join(format!(
        ".tmp-{key_id}-{}-{}.json",
        std::process::id(),
        NEXT_TMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    fs::write(&tmp_path, json::to_string_pretty(&doc))?;
    fs::rename(&tmp_path, &final_path)
}

/// `true` if `path` holds a valid, reusable outcome for `key` executed
/// under `fingerprint` (parses, current results version, right sweep,
/// byte-identical embedded key). The one definition of "this run is done"
/// shared by shard resume, queue claims, and reuse seeding — so a
/// results-version bump makes all of them re-execute automatically.
pub(crate) fn outcome_is_valid(path: &Path, fingerprint: MatrixFingerprint, key: &RunKey) -> bool {
    match read_outcome(path) {
        Ok(record) => {
            record.results_version == RESULTS_VERSION
                && record.matrix == fingerprint
                && record.key_json == key.canonical_json()
        }
        Err(_) => false,
    }
}

/// Parses and integrity-checks one outcome file.
///
/// # Errors
///
/// [`StoreError::Io`] if the file is unreadable, [`StoreError::Malformed`]
/// if it does not parse, has the wrong schema, or its embedded key does not
/// hash to its recorded `key_id`.
pub fn read_outcome(path: &Path) -> Result<OutcomeRecord, StoreError> {
    let malformed = |reason: String| StoreError::Malformed {
        path: path.to_path_buf(),
        reason,
    };
    let text = fs::read_to_string(path)?;
    let doc = json::parse(&text).map_err(|e| malformed(e.to_string()))?;
    let read_field = |name: &str| {
        doc.get(name)
            .ok_or_else(|| malformed(format!("missing `{name}` field")))
    };

    let schema = u32::from_value(read_field("schema")?)
        .map_err(|e| malformed(format!("bad `schema`: {e}")))?;
    if schema != OUTCOME_SCHEMA {
        return Err(malformed(format!(
            "outcome schema {schema} is not the supported {OUTCOME_SCHEMA}"
        )));
    }
    // Absent on files written before result versioning existed: version 0,
    // which never equals the current version — such files parse fine (the
    // operator can still inspect them) but are stale for every reuse path.
    let results_version = match doc.get("results") {
        Some(value) => {
            u32::from_value(value).map_err(|e| malformed(format!("bad `results`: {e}")))?
        }
        None => 0,
    };
    let matrix = MatrixFingerprint::from_value(read_field("matrix")?)
        .map_err(|e| malformed(format!("bad `matrix`: {e}")))?;
    let key_id = RunKeyId::from_value(read_field("key_id")?)
        .map_err(|e| malformed(format!("bad `key_id`: {e}")))?;
    let key_value = read_field("key")?;
    let key: RunKey =
        RunKey::from_value(key_value).map_err(|e| malformed(format!("bad `key`: {e}")))?;
    // Rendered once: the id is the hash of the same string the record keeps.
    let key_json = key.canonical_json();
    let embedded_id = RunKeyId::of_canonical_json(&key_json);
    if embedded_id != key_id {
        return Err(malformed(format!(
            "embedded key hashes to {embedded_id}, file claims {key_id}"
        )));
    }
    let result = RunResult::from_value(read_field("result")?)
        .map_err(|e| malformed(format!("bad `result`: {e}")))?;
    Ok(OutcomeRecord {
        results_version,
        matrix,
        key_id,
        key_json,
        result,
    })
}

/// A set of shard directories holding outcome files for one sweep.
///
/// The store is the bridge from durable shard state back to in-memory
/// [`RunOutcomes`]: re-plan the same matrix locally, point the store at the
/// directories the shards filled, and [`RunStore::load`] hands every
/// [`RunHandle`] its result as if the whole sweep had run in this process.
#[derive(Clone, Debug)]
pub struct RunStore {
    dirs: Vec<PathBuf>,
}

impl RunStore {
    /// A store over the given shard directories (order does not matter).
    pub fn new(dirs: impl IntoIterator<Item = impl Into<PathBuf>>) -> Self {
        RunStore {
            dirs: dirs.into_iter().map(Into::into).collect(),
        }
    }

    /// The directories this store reads.
    pub fn dirs(&self) -> &[PathBuf] {
        &self.dirs
    }

    /// Loads and merges every outcome file into outcomes for `matrix`.
    ///
    /// # Errors
    ///
    /// Rejects files from a different sweep ([`StoreError::ForeignMatrix`]),
    /// unplanned or integrity-failing files ([`StoreError::UnknownKey`],
    /// [`StoreError::Malformed`]), more than one file per run
    /// ([`StoreError::DuplicateKey`]), and incomplete coverage
    /// ([`StoreError::MissingRuns`]). Files stamped with a different
    /// [`RESULTS_VERSION`] are *cache misses*, not integrity failures: they
    /// are skipped, and if that leaves runs uncovered the merge fails with
    /// [`StoreError::StaleResults`] telling the operator to re-execute
    /// rather than wipe.
    pub fn load(&self, matrix: &RunMatrix) -> Result<RunOutcomes, StoreError> {
        let fingerprint = matrix.fingerprint();
        let slot_of = |key_id: RunKeyId| -> Option<usize> {
            matrix.key_ids().iter().position(|&id| id == key_id)
        };
        let mut results: Vec<Option<(RunResult, PathBuf)>> = vec![None; matrix.len()];
        let mut stale: Vec<(RunKeyId, PathBuf)> = Vec::new();

        for dir in &self.dirs {
            for path in outcome_paths(dir)? {
                let record = read_outcome(&path)?;
                if record.results_version != RESULTS_VERSION {
                    stale.push((record.key_id, path));
                    continue;
                }
                if record.matrix != fingerprint {
                    return Err(StoreError::ForeignMatrix {
                        path,
                        expected: fingerprint,
                        found: record.matrix,
                    });
                }
                let slot = slot_of(record.key_id).ok_or_else(|| StoreError::UnknownKey {
                    path: path.clone(),
                    key_id: record.key_id,
                })?;
                if record.key_json != matrix.keys()[slot].canonical_json() {
                    return Err(StoreError::Malformed {
                        path,
                        reason: format!(
                            "embedded key collides with planned run {} but differs from it",
                            record.key_id
                        ),
                    });
                }
                if let Some((_, first)) = &results[slot] {
                    return Err(StoreError::DuplicateKey {
                        key_id: record.key_id,
                        first: first.clone(),
                        second: path,
                    });
                }
                results[slot] = Some((record.result, path));
            }
        }

        let missing: Vec<RunKeyId> = matrix
            .canonical_order()
            .into_iter()
            .filter(|&slot| results[slot].is_none())
            .map(|slot| matrix.key_ids()[slot])
            .collect();
        if !missing.is_empty() {
            // Prefer the most actionable diagnosis: runs whose only outcome
            // is a stale-version file need re-execution, not a missing-shard
            // hunt.
            let mut stale_paths: Vec<PathBuf> = stale
                .into_iter()
                .filter(|(key_id, _)| missing.contains(key_id))
                .map(|(_, path)| path)
                .collect();
            if !stale_paths.is_empty() {
                stale_paths.sort();
                return Err(StoreError::StaleResults {
                    paths: stale_paths,
                    expected: RESULTS_VERSION,
                    missing: missing.len(),
                    planned: matrix.len(),
                });
            }
            // If the incomplete runs are claim-locked, say so — the operator
            // is merging under live (or dead) queue workers, which has a
            // different fix than a shard that never ran.
            let mut locks: Vec<PathBuf> = Vec::new();
            for dir in &self.dirs {
                for &key_id in &missing {
                    let lock = dir.join(lock_file_name(key_id));
                    if lock.exists() {
                        locks.push(lock);
                    }
                }
            }
            if !locks.is_empty() {
                locks.sort();
                return Err(StoreError::ActiveLocks {
                    locks,
                    missing: missing.len(),
                    planned: matrix.len(),
                });
            }
            return Err(StoreError::MissingRuns {
                missing,
                planned: matrix.len(),
            });
        }
        Ok(RunOutcomes::from_results(
            matrix.local_id(),
            results
                .into_iter()
                .map(|entry| entry.expect("missing runs checked above").0)
                .collect(),
        ))
    }

    /// Loads every outcome file *reusable under `matrix`*, ignoring matrix
    /// fingerprints: the incremental half of the outcome cache.
    ///
    /// A file is reusable iff its embedded key's canonical JSON is
    /// byte-identical to a planned key's (see the
    /// [reuse-safety argument](self#the-outcome-directory-as-a-cache)); the
    /// content-addressed [`RunKeyId`] is only the lookup accelerator, never
    /// the authority. Everything else is tolerated rather than rejected —
    /// this is a cache probe, not an integrity check of one sweep:
    ///
    /// * files for keys the plan does not contain are skipped (counted in
    ///   [`PartialLoad::skipped_foreign`]) — they belong to other sweeps
    ///   sharing the cache;
    /// * files stamped with a different [`RESULTS_VERSION`] are skipped
    ///   (counted in [`PartialLoad::skipped_stale`]) — a result-changing
    ///   deploy invalidated them, so their runs re-execute;
    /// * malformed or truncated files are skipped (paths collected in
    ///   [`PartialLoad::skipped_malformed`]) — the run simply re-executes;
    /// * a key present in several files (same dir listed twice, overlapping
    ///   caches) reuses the first in sorted order — byte-identical keys
    ///   guarantee the recorded results agree.
    ///
    /// # Errors
    ///
    /// Only filesystem errors ([`StoreError::Io`]) propagate.
    pub fn load_partial(&self, matrix: &RunMatrix) -> Result<PartialLoad, StoreError> {
        let slot_of = |key_id: RunKeyId| -> Option<usize> {
            matrix.key_ids().iter().position(|&id| id == key_id)
        };
        let mut results: Vec<Option<RunResult>> = vec![None; matrix.len()];
        let mut scanned = 0usize;
        let mut skipped_foreign = 0usize;
        let mut skipped_stale = 0usize;
        let mut skipped_malformed: Vec<PathBuf> = Vec::new();

        for dir in &self.dirs {
            for path in outcome_paths(dir)? {
                scanned += 1;
                let record = match read_outcome(&path) {
                    Ok(record) => record,
                    Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
                    Err(_) => {
                        skipped_malformed.push(path);
                        continue;
                    }
                };
                if record.results_version != RESULTS_VERSION {
                    skipped_stale += 1;
                    continue;
                }
                let Some(slot) = slot_of(record.key_id) else {
                    skipped_foreign += 1;
                    continue;
                };
                if record.key_json != matrix.keys()[slot].canonical_json() {
                    // A 64-bit id collision with a *different* key: not ours.
                    skipped_foreign += 1;
                    continue;
                }
                if results[slot].is_none() {
                    results[slot] = Some(record.result);
                }
            }
        }

        let reused = results.iter().filter(|r| r.is_some()).count();
        Ok(PartialLoad {
            matrix_id: matrix.local_id(),
            results,
            scanned,
            reused,
            skipped_foreign,
            skipped_stale,
            skipped_malformed,
        })
    }
}

/// What [`RunStore::load_partial`] recovered from the cache: per-slot hits
/// for one planned [`RunMatrix`], plus what the scan skipped.
///
/// Feed it to [`Execution::reuse`](crate::Execution::reuse) to run only the
/// missing slots, or to [`seed_outcomes`] to persist the hits into a fresh
/// outcome directory under the new plan's fingerprint.
#[derive(Clone, Debug)]
pub struct PartialLoad {
    /// The planning matrix's process-local id; delta execution asserts it.
    matrix_id: u64,
    /// One slot per planned run, in plan order; `Some` where the cache hit.
    results: Vec<Option<RunResult>>,
    /// Outcome files examined across all directories.
    pub scanned: usize,
    /// Planned runs with a reusable cached result.
    pub reused: usize,
    /// Valid outcome files whose key the plan does not contain.
    pub skipped_foreign: usize,
    /// Outcome files stamped with a different [`RESULTS_VERSION`] — cache
    /// misses from a result-changing deploy; their runs re-execute.
    pub skipped_stale: usize,
    /// Files that did not parse or failed integrity checks — their runs
    /// re-execute; surface these to the operator, silent corruption is how
    /// caches rot.
    pub skipped_malformed: Vec<PathBuf>,
}

impl PartialLoad {
    /// The cached result for plan-order `slot`, if the cache hit.
    pub fn hit(&self, slot: usize) -> Option<&RunResult> {
        self.results.get(slot).and_then(Option::as_ref)
    }

    /// Plan-order slots with no cached result, in canonical order — the
    /// delta a reusing run must still execute.
    pub fn missing_slots(&self, matrix: &RunMatrix) -> Vec<usize> {
        assert_eq!(
            self.matrix_id,
            matrix.local_id(),
            "PartialLoad was probed against a different RunMatrix"
        );
        matrix
            .canonical_order()
            .into_iter()
            .filter(|&slot| self.results[slot].is_none())
            .collect()
    }

    /// The matrix id this load was probed against (same-matrix assertions).
    pub(crate) fn matrix_id(&self) -> u64 {
        self.matrix_id
    }

    /// Consumes the load into its per-slot results (plan order).
    pub(crate) fn into_results(self) -> Vec<Option<RunResult>> {
        self.results
    }
}

/// Persists every cache hit of `partial` into `dir` as a regular outcome
/// file under **`matrix`'s own fingerprint**, skipping runs whose valid
/// outcome is already present. Returns how many files it wrote.
///
/// This is how `--reuse OLD --outcomes NEW` composes with every execution
/// mode: after seeding, `NEW` looks exactly as if the reused runs had been
/// executed into it, so shard resume, queue draining, and the strict
/// [`RunStore::load`] all work unchanged on top.
///
/// # Panics
///
/// Panics if `partial` was probed against a different matrix.
///
/// # Errors
///
/// Propagates filesystem errors creating `dir` or writing outcome files.
pub fn seed_outcomes(matrix: &RunMatrix, partial: &PartialLoad, dir: &Path) -> io::Result<usize> {
    let all: Vec<usize> = (0..matrix.len()).collect();
    seed_outcome_slots(matrix, partial, dir, &all)
}

/// [`seed_outcomes`] restricted to the given plan-order `slots` — how a
/// `K/N` shard seeds only the slice it owns, so the per-shard directories
/// stay disjoint and the strict merge's duplicate check keeps its teeth.
pub(crate) fn seed_outcome_slots(
    matrix: &RunMatrix,
    partial: &PartialLoad,
    dir: &Path,
    slots: &[usize],
) -> io::Result<usize> {
    assert_eq!(
        partial.matrix_id(),
        matrix.local_id(),
        "PartialLoad was probed against a different RunMatrix"
    );
    fs::create_dir_all(dir)?;
    let fingerprint = matrix.fingerprint();
    let mut written = 0usize;
    for &slot in slots {
        let Some(result) = partial.hit(slot) else {
            continue;
        };
        let key = &matrix.keys()[slot];
        let path = dir.join(outcome_file_name(matrix.key_ids()[slot]));
        if outcome_is_valid(&path, fingerprint, key) {
            continue;
        }
        write_outcome(dir, fingerprint, key, result)?;
        written += 1;
    }
    Ok(written)
}

/// The outcome files under `dir`, sorted by name for deterministic error
/// reporting. Non-outcome files (temp files, manifests, stray editors) are
/// ignored.
fn outcome_paths(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut paths = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("run-") && name.ends_with(".json") {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetcherConfig;
    use shift_trace::{presets, Scale};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("shift-store-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn outcome_files_round_trip() {
        let dir = temp_dir("round-trip");
        let mut matrix = RunMatrix::new();
        let w = presets::tiny();
        let handle = matrix.standalone(&w, PrefetcherConfig::None, 2, Scale::Test, 5);
        let outcomes = crate::Execution::new(&matrix)
            .serial()
            .run()
            .unwrap()
            .into_outcomes();

        write_outcome(
            &dir,
            matrix.fingerprint(),
            &matrix.keys()[0],
            &outcomes[handle],
        )
        .expect("write outcome");
        let path = dir.join(outcome_file_name(matrix.key_ids()[0]));
        let record = read_outcome(&path).expect("read outcome");
        assert_eq!(record.matrix, matrix.fingerprint());
        assert_eq!(record.key_id, matrix.key_ids()[0]);
        assert_eq!(record.result, outcomes[handle]);

        let merged = RunStore::new([&dir]).load(&matrix).expect("merge");
        assert_eq!(merged[handle], outcomes[handle]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_files_are_rejected_with_reasons() {
        let dir = temp_dir("corrupt");
        let mut matrix = RunMatrix::new();
        let w = presets::tiny();
        let handle = matrix.standalone(&w, PrefetcherConfig::None, 2, Scale::Test, 5);
        let outcomes = crate::Execution::new(&matrix)
            .serial()
            .run()
            .unwrap()
            .into_outcomes();
        write_outcome(
            &dir,
            matrix.fingerprint(),
            &matrix.keys()[0],
            &outcomes[handle],
        )
        .unwrap();
        let path = dir.join(outcome_file_name(matrix.key_ids()[0]));

        // Truncated JSON.
        let original = fs::read_to_string(&path).unwrap();
        fs::write(&path, &original[..original.len() / 2]).unwrap();
        assert!(matches!(
            read_outcome(&path),
            Err(StoreError::Malformed { .. })
        ));

        // key_id that does not match the embedded key.
        let tampered = original.replace(
            &format!("\"key_id\": \"{}\"", matrix.key_ids()[0]),
            "\"key_id\": \"0000000000000000\"",
        );
        assert_ne!(tampered, original);
        fs::write(&path, tampered).unwrap();
        let err = read_outcome(&path).unwrap_err();
        assert!(err.to_string().contains("hashes to"), "{err}");

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_results_version_is_a_cache_miss() {
        let dir = temp_dir("stale-version");
        let mut matrix = RunMatrix::new();
        let w = presets::tiny();
        let handle = matrix.standalone(&w, PrefetcherConfig::None, 2, Scale::Test, 5);
        let outcomes = crate::Execution::new(&matrix)
            .serial()
            .run()
            .unwrap()
            .into_outcomes();
        write_outcome(
            &dir,
            matrix.fingerprint(),
            &matrix.keys()[0],
            &outcomes[handle],
        )
        .unwrap();
        let path = dir.join(outcome_file_name(matrix.key_ids()[0]));

        // Rewrite the file as if an older deploy had produced it.
        let original = fs::read_to_string(&path).unwrap();
        let old_version =
            original.replace(&format!("\"results\": {RESULTS_VERSION}"), "\"results\": 0");
        assert_ne!(old_version, original, "results stamp must be in the file");
        fs::write(&path, &old_version).unwrap();

        // The file still parses — operators can inspect old outcomes…
        let record = read_outcome(&path).expect("stale files stay readable");
        assert_eq!(record.results_version, 0);

        // …but every reuse path treats it as a miss.
        let err = RunStore::new([&dir]).load(&matrix).unwrap_err();
        assert!(
            matches!(err, StoreError::StaleResults { .. }),
            "strict merge must diagnose staleness, got: {err}"
        );
        let partial = RunStore::new([&dir]).load_partial(&matrix).unwrap();
        assert_eq!(partial.reused, 0);
        assert_eq!(partial.skipped_stale, 1);
        assert_eq!(partial.missing_slots(&matrix).len(), 1);

        // Shard resume re-executes and re-stamps instead of trusting it.
        let report =
            crate::shard::shard_inner(&matrix, crate::shard::ShardSpec::full(), &dir, 1).unwrap();
        assert_eq!(report.executed, 1, "stale outcome must re-run");
        assert_eq!(
            read_outcome(&path).unwrap().results_version,
            RESULTS_VERSION
        );
        let merged = RunStore::new([&dir]).load(&matrix).expect("fresh merge");
        assert_eq!(merged[handle], outcomes[handle]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_versioning_files_read_as_version_zero() {
        let dir = temp_dir("pre-versioning");
        let mut matrix = RunMatrix::new();
        let w = presets::tiny();
        let handle = matrix.standalone(&w, PrefetcherConfig::None, 2, Scale::Test, 5);
        let outcomes = crate::Execution::new(&matrix)
            .serial()
            .run()
            .unwrap()
            .into_outcomes();
        write_outcome(
            &dir,
            matrix.fingerprint(),
            &matrix.keys()[0],
            &outcomes[handle],
        )
        .unwrap();
        let path = dir.join(outcome_file_name(matrix.key_ids()[0]));

        // Strip the `results` field entirely: the PR 5-era file layout.
        let original = fs::read_to_string(&path).unwrap();
        let legacy: String = original
            .lines()
            .filter(|line| !line.contains("\"results\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(legacy, original);
        fs::write(&path, &legacy).unwrap();

        assert_eq!(read_outcome(&path).unwrap().results_version, 0);
        let partial = RunStore::new([&dir]).load_partial(&matrix).unwrap();
        assert_eq!(partial.reused, 0);
        assert_eq!(partial.skipped_stale, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temp_and_stray_files_are_ignored() {
        let dir = temp_dir("stray");
        let mut matrix = RunMatrix::new();
        let w = presets::tiny();
        let handle = matrix.standalone(&w, PrefetcherConfig::None, 2, Scale::Test, 5);
        let outcomes = crate::Execution::new(&matrix)
            .serial()
            .run()
            .unwrap()
            .into_outcomes();
        write_outcome(
            &dir,
            matrix.fingerprint(),
            &matrix.keys()[0],
            &outcomes[handle],
        )
        .unwrap();
        // A crashed writer's temp file and unrelated clutter must not break
        // the merge.
        fs::write(dir.join(".tmp-dead.json"), "{").unwrap();
        fs::write(dir.join("notes.txt"), "scratch").unwrap();
        let merged = RunStore::new([&dir]).load(&matrix).expect("merge");
        assert_eq!(merged.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
