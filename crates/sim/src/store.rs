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
//! typed [`StoreError`]s rather than silently merged. It sorts each file
//! with the same classifier as [`RunStore::load_partial`] and the drain's
//! done check: a hit, stale, unplanned, an id collision, or malformed.
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

use std::collections::HashMap;
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
}

impl LockRecord {
    /// The lock's serialized form (compact JSON).
    pub(crate) fn to_json(&self) -> String {
        json::to_string(&Value::Map(vec![
            ("schema".to_owned(), LOCK_SCHEMA.to_value()),
            ("key_id".to_owned(), self.key_id.to_value()),
            ("worker".to_owned(), self.worker.to_value()),
            ("claimed_unix".to_owned(), self.claimed_unix.to_value()),
        ]))
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
    read_doc(path, |doc| {
        let schema: u32 = field(doc, "schema")?;
        if schema != LOCK_SCHEMA {
            return Err(format!(
                "lock schema {schema} is not the supported {LOCK_SCHEMA}"
            ));
        }
        Ok(LockRecord {
            key_id: field(doc, "key_id")?,
            worker: field(doc, "worker")?,
            claimed_unix: field(doc, "claimed_unix")?,
        })
    })
}

/// Reads the JSON document at `path` and parses it with `parse`, which
/// names what is wrong with a document it rejects.
fn read_doc<T>(
    path: &Path,
    parse: impl FnOnce(&Value) -> Result<T, String>,
) -> Result<T, StoreError> {
    let text = fs::read_to_string(path)?;
    json::parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|doc| parse(&doc))
        .map_err(|reason| StoreError::Malformed {
            path: path.to_path_buf(),
            reason,
        })
}

/// Field `name` of an outcome or lock document.
fn field<T: Deserialize>(doc: &Value, name: &str) -> Result<T, String> {
    optional_field(doc, name)?.ok_or_else(|| format!("missing `{name}` field"))
}

/// Field `name` of an outcome or lock document, `None` where it is absent.
fn optional_field<T: Deserialize>(doc: &Value, name: &str) -> Result<Option<T>, String> {
    doc.get(name)
        .map(|value| T::from_value(value).map_err(|e| format!("bad `{name}`: {e}")))
        .transpose()
}

/// The document of one outcome file, borrowing the run it records, so the
/// key and the result stream into the file without a [`Value`] tree.
/// [`read_outcome`] reads these fields back by name.
#[derive(Serialize)]
struct OutcomeDoc<'a> {
    schema: u32,
    results: u32,
    matrix: MatrixFingerprint,
    key_id: RunKeyId,
    key: &'a RunKey,
    result: &'a RunResult,
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
    let doc = OutcomeDoc {
        schema: OUTCOME_SCHEMA,
        results: RESULTS_VERSION,
        matrix: fingerprint,
        key_id,
        key,
        result,
    };
    let final_path = dir.join(outcome_file_name(key_id));
    let tmp_path = dir.join(format!(
        ".tmp-{key_id}-{}-{}.json",
        std::process::id(),
        NEXT_TMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    fs::write(&tmp_path, json::to_string_pretty(&doc))?;
    fs::rename(&tmp_path, &final_path)
}

/// Parses and integrity-checks one outcome file.
///
/// # Errors
///
/// [`StoreError::Io`] if the file is unreadable, [`StoreError::Malformed`]
/// if it does not parse, has the wrong schema, or its embedded key does not
/// hash to its recorded `key_id`.
pub fn read_outcome(path: &Path) -> Result<OutcomeRecord, StoreError> {
    read_doc(path, |doc| {
        let schema: u32 = field(doc, "schema")?;
        if schema != OUTCOME_SCHEMA {
            return Err(format!(
                "outcome schema {schema} is not the supported {OUTCOME_SCHEMA}"
            ));
        }
        // Absent on files written before result versioning: version 0, never
        // the current one, so such files parse (operators can inspect them)
        // but are stale for every reuse path.
        let results_version = optional_field(doc, "results")?.unwrap_or(0);
        let matrix = field(doc, "matrix")?;
        let key_id: RunKeyId = field(doc, "key_id")?;
        // Rendered once: the id hashes the same string the record keeps.
        let key_json = field::<RunKey>(doc, "key")?.canonical_json();
        let embedded_id = RunKeyId::of_canonical_json(&key_json);
        if embedded_id != key_id {
            return Err(format!(
                "embedded key hashes to {embedded_id}, file claims {key_id}"
            ));
        }
        Ok(OutcomeRecord {
            results_version,
            matrix,
            key_id,
            key_json,
            result: field(doc, "result")?,
        })
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
    /// rather than wipe. The first failing file in directory-then-name order
    /// decides the error.
    pub fn load(&self, matrix: &RunMatrix) -> Result<RunOutcomes, StoreError> {
        let index = PlanIndex::new(matrix);
        let mut results: Vec<Option<(RunResult, PathBuf)>> = vec![None; matrix.len()];
        let mut stale: Vec<(RunKeyId, PathBuf)> = Vec::new();

        for dir in &self.dirs {
            for path in outcome_paths(dir)? {
                let (class, record) = index.classify(&path)?;
                let slot = match class {
                    Class::Stale => {
                        stale.push((record.key_id, path));
                        continue;
                    }
                    _ if record.matrix != index.fingerprint => {
                        return Err(StoreError::ForeignMatrix {
                            path,
                            expected: index.fingerprint,
                            found: record.matrix,
                        })
                    }
                    Class::Unplanned => {
                        return Err(StoreError::UnknownKey {
                            path,
                            key_id: record.key_id,
                        })
                    }
                    Class::Collision => {
                        return Err(StoreError::Malformed {
                            path,
                            reason: format!(
                                "embedded key collides with planned run {} but differs from it",
                                record.key_id
                            ),
                        })
                    }
                    Class::Hit(slot) => slot,
                };
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
        let index = PlanIndex::new(matrix);
        let mut load = PartialLoad {
            matrix_id: matrix.local_id(),
            results: vec![None; matrix.len()],
            scanned: 0,
            reused: 0,
            skipped_foreign: 0,
            skipped_stale: 0,
            skipped_malformed: Vec::new(),
        };
        for dir in &self.dirs {
            for path in outcome_paths(dir)? {
                load.scanned += 1;
                match index.classify(&path) {
                    Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
                    Err(_) => load.skipped_malformed.push(path),
                    Ok((Class::Stale, _)) => load.skipped_stale += 1,
                    // Another sweep's run, or a 64-bit id collision with a
                    // *different* key: not ours either way.
                    Ok((Class::Unplanned | Class::Collision, _)) => load.skipped_foreign += 1,
                    Ok((Class::Hit(slot), record)) => {
                        load.results[slot].get_or_insert(record.result);
                    }
                }
            }
        }
        load.reused = load.results.iter().flatten().count();
        Ok(load)
    }
}

/// What one outcome file is against a planned matrix, as every reader sorts
/// it ([`PlanIndex::classify`]). The fifth kind, a file that does not parse
/// or fails an integrity check, is a [`StoreError::Malformed`].
enum Class {
    /// A current outcome of the run planned at this slot, for any sweep.
    Hit(usize),
    /// Stamped with a different [`RESULTS_VERSION`].
    Stale,
    /// Its key id is not planned.
    Unplanned,
    /// A planned key id whose embedded key differs: a 64-bit id collision.
    Collision,
}

/// A planned matrix indexed by key id, so that sorting an outcome file
/// against it costs one hash lookup. Built once per load or execution.
pub(crate) struct PlanIndex<'m> {
    matrix: &'m RunMatrix,
    fingerprint: MatrixFingerprint,
    slots: HashMap<RunKeyId, usize>,
}

impl<'m> PlanIndex<'m> {
    pub(crate) fn new(matrix: &'m RunMatrix) -> Self {
        PlanIndex {
            matrix,
            fingerprint: matrix.fingerprint(),
            slots: matrix.key_ids().iter().copied().zip(0..).collect(),
        }
    }

    /// Sorts the outcome file at `path` into its [`Class`], or fails as
    /// [`read_outcome`] does.
    fn classify(&self, path: &Path) -> Result<(Class, OutcomeRecord), StoreError> {
        let record = read_outcome(path)?;
        let class = match self.slots.get(&record.key_id) {
            _ if record.results_version != RESULTS_VERSION => Class::Stale,
            None => Class::Unplanned,
            Some(&slot) if record.key_json == self.matrix.keys()[slot].canonical_json() => {
                Class::Hit(slot)
            }
            Some(_) => Class::Collision,
        };
        Ok((class, record))
    }

    /// `true` if `dir` holds a current outcome of plan-order `slot` written
    /// for this sweep. The one definition of "this run is done" shared by
    /// shard resume, queue claims, and reuse seeding — so a results-version
    /// bump makes all of them re-execute automatically.
    pub(crate) fn is_done(&self, dir: &Path, slot: usize) -> bool {
        let path = dir.join(outcome_file_name(self.matrix.key_ids()[slot]));
        matches!(
            self.classify(&path),
            Ok((Class::Hit(hit), record)) if hit == slot && record.matrix == self.fingerprint
        )
    }
}

/// What [`RunStore::load_partial`] recovered from the cache: per-slot hits
/// for one planned [`RunMatrix`], plus what the scan skipped.
///
/// Feed it to [`Execution::reuse`](crate::Execution::reuse) to run only the
/// missing slots; in a directory mode the hits are first persisted there
/// under the new plan's fingerprint.
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
        self.assert_probed(matrix);
        matrix
            .canonical_order()
            .into_iter()
            .filter(|&slot| self.results[slot].is_none())
            .collect()
    }

    /// Consumes the load into its per-slot results (plan order).
    ///
    /// # Panics
    ///
    /// Panics if the load was probed against a different matrix.
    pub(crate) fn into_results(self, matrix: &RunMatrix) -> Vec<Option<RunResult>> {
        self.assert_probed(matrix);
        self.results
    }

    /// Panics unless this load was probed against `matrix`.
    fn assert_probed(&self, matrix: &RunMatrix) {
        assert_eq!(
            self.matrix_id,
            matrix.local_id(),
            "PartialLoad was probed against a different RunMatrix"
        );
    }
}

/// [`Execution::reuse`](crate::Execution::reuse)'s pre-pass in every
/// directory mode: persists the cache hits of `partial` for the plan-order
/// `slots` into `dir` under **the plan's own fingerprint**, skipping runs
/// whose valid outcome is already present. `dir` then looks as if the reused
/// runs had been executed into it, so resume, queue draining, and the strict
/// [`RunStore::load`] work unchanged on top. A `K/N` shard seeds only its own
/// slice, so the shard directories stay disjoint.
///
/// # Panics
///
/// Panics if `partial` was probed against a different matrix.
pub(crate) fn seed_outcome_slots(
    index: &PlanIndex,
    partial: &PartialLoad,
    dir: &Path,
    slots: &[usize],
) -> io::Result<()> {
    partial.assert_probed(index.matrix);
    for &slot in slots {
        if let Some(result) = partial.hit(slot).filter(|_| !index.is_done(dir, slot)) {
            write_outcome(dir, index.fingerprint, &index.matrix.keys()[slot], result)?;
        }
    }
    Ok(())
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

    /// Every outcome file a durable execution writes is, byte for byte, the
    /// pretty JSON of the document the store has always written: a map of
    /// the schema, the results version, the matrix fingerprint, the key id,
    /// the key and the result, rendered through the `Value` tree.
    #[test]
    fn outcome_files_keep_their_bytes() {
        let dir = temp_dir("bytes");
        let mut matrix = RunMatrix::new();
        let w = presets::tiny();
        for prefetcher in [
            PrefetcherConfig::None,
            PrefetcherConfig::next_line(),
            PrefetcherConfig::pif_2k(),
            PrefetcherConfig::shift_virtualized(),
            PrefetcherConfig::adaptive_nl_shift(),
        ] {
            matrix.standalone(&w, prefetcher, 2, Scale::Test, 5);
        }
        let mix = shift_trace::ConsolidationSpec::even_split(vec![w.clone(), w], 2);
        let config = crate::CmpConfig::micro13(2, PrefetcherConfig::shift_throttled(4));
        matrix.consolidated(config, &mix, crate::SimOptions::new(Scale::Test, 5));
        let outcomes = crate::Execution::new(&matrix)
            .serial()
            .run()
            .unwrap()
            .into_outcomes();
        crate::Execution::new(&matrix)
            .dir(&dir)
            .serial()
            .run()
            .unwrap();

        for (slot, key) in matrix.keys().iter().enumerate() {
            let key_id = matrix.key_ids()[slot];
            let doc = Value::Map(vec![
                ("schema".to_owned(), OUTCOME_SCHEMA.to_value()),
                ("results".to_owned(), RESULTS_VERSION.to_value()),
                ("matrix".to_owned(), matrix.fingerprint().to_value()),
                ("key_id".to_owned(), key_id.to_value()),
                ("key".to_owned(), key.to_value()),
                ("result".to_owned(), outcomes.results[slot].to_value()),
            ]);
            let written = fs::read_to_string(dir.join(outcome_file_name(key_id))).unwrap();
            assert_eq!(written, json::to_string_pretty(&doc), "slot {slot}");
        }
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
        let report = crate::Execution::new(&matrix)
            .dir(&dir)
            .shard(crate::ShardSpec::full())
            .serial()
            .run()
            .unwrap();
        assert_eq!(report.sources.executed, 1, "stale outcome must re-run");
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

    // --- The two readers on untrusted bytes. ---------------------------------

    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// A directory of its own for the test named `tag`.
    fn fuzz_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("shift-store-test-fuzz-{tag}"));
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// Reading `bytes` with `read` yields a record or a typed error: a
    /// document that does not parse or does not describe a record is
    /// `Malformed`, and bytes that are not UTF-8 are an `InvalidData` I/O
    /// error.
    fn assert_reads_cleanly<T>(
        path: &Path,
        bytes: &[u8],
        read: fn(&Path) -> Result<T, StoreError>,
    ) {
        fs::write(path, bytes).unwrap();
        match read(path) {
            Ok(_) | Err(StoreError::Malformed { .. }) => {}
            Err(StoreError::Io(e)) if e.kind() == io::ErrorKind::InvalidData => {}
            Err(e) => panic!("{:?}: unexpected error {e}", String::from_utf8_lossy(bytes)),
        }
    }

    /// Pieces of lock and outcome documents: structure, field names,
    /// literals, and numbers at and past the limits of their types.
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        " ",
        "\"schema\"",
        "\"key_id\"",
        "\"worker\"",
        "\"claimed_unix\"",
        "\"rate\"",
        "\"results\"",
        "\"matrix\"",
        "\"key\"",
        "\"result\"",
        "1",
        "0",
        "-1",
        "1.5",
        "1e999",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "\"00000000000000ff\"",
        "null",
        "true",
        "\\u0000",
        "\\ud800",
    ];

    /// Up to 40 tokens or raw bytes, a quarter of them raw.
    fn arbitrary_bytes(rng: &mut SmallRng) -> Vec<u8> {
        let mut bytes = Vec::new();
        for _ in 0..rng.gen_range(0..40usize) {
            if rng.gen_range(0..4u8) == 0 {
                bytes.push(rng.next_u64() as u8);
            } else {
                bytes.extend_from_slice(TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes());
            }
        }
        bytes
    }

    /// `bytes` with one to five bytes replaced, deleted or inserted, or the
    /// rest cut off.
    fn mutate(mut bytes: Vec<u8>, rng: &mut SmallRng) -> Vec<u8> {
        const STRUCTURE: &[u8] = b"{}[]\":,\\-.e0";
        for _ in 0..rng.gen_range(1..=5u8) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0..8u8) {
                0..=2 if at < bytes.len() => bytes[at] = rng.next_u64() as u8,
                3 | 4 if at < bytes.len() => {
                    bytes.remove(at);
                }
                7 => bytes.truncate(at),
                _ => bytes.insert(at, STRUCTURE[rng.gen_range(0..STRUCTURE.len())]),
            }
        }
        bytes
    }

    fn random_u64(rng: &mut SmallRng) -> u64 {
        match rng.gen_range(0..4u8) {
            0 => rng.gen_range(0..10u64),
            1 => u64::MAX - rng.gen_range(0..10u64),
            _ => rng.next_u64(),
        }
    }

    /// A finite float: an edge value or random bits.
    fn random_f64(rng: &mut SmallRng) -> f64 {
        const EDGES: &[f64] = &[
            0.0,
            -0.0,
            0.1,
            1.0,
            -1e-300,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ];
        if rng.gen_bool(0.5) {
            return EDGES[rng.gen_range(0..EDGES.len())];
        }
        loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                return x;
            }
        }
    }

    /// Text with quotes, backslashes, control characters and multibyte
    /// characters.
    fn random_text(rng: &mut SmallRng) -> String {
        const CHARS: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '/', '{', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
            '€', '\u{2028}', '😀',
        ];
        (0..rng.gen_range(0..12usize))
            .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
            .collect()
    }

    fn random_lock(rng: &mut SmallRng) -> LockRecord {
        LockRecord {
            key_id: RunKeyId::of_canonical_json(&random_text(rng)),
            worker: random_text(rng),
            claimed_unix: random_u64(rng),
        }
    }

    /// `value` with every number and string replaced by a random one of the
    /// same kind.
    fn scramble(value: &Value, rng: &mut SmallRng) -> Value {
        match value {
            Value::UInt(_) => Value::UInt(random_u64(rng)),
            Value::Float(_) => Value::Float(random_f64(rng)),
            Value::Str(_) => Value::Str(random_text(rng)),
            Value::Seq(items) => Value::Seq(items.iter().map(|v| scramble(v, rng)).collect()),
            Value::Map(fields) => Value::Map(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), scramble(v, rng)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// A one-run plan with a random key, and a random result with the
    /// fields of a real one.
    fn random_outcome(rng: &mut SmallRng) -> (RunMatrix, RunResult) {
        static REAL: std::sync::OnceLock<Value> = std::sync::OnceLock::new();
        let real = REAL.get_or_init(|| {
            let mut matrix = RunMatrix::new();
            let w = presets::tiny();
            let handle = matrix.standalone(&w, PrefetcherConfig::None, 2, Scale::Test, 5);
            let outcomes = crate::Execution::new(&matrix).serial().run().unwrap();
            outcomes.into_outcomes()[handle].to_value()
        });
        let prefetcher = [
            PrefetcherConfig::None,
            PrefetcherConfig::next_line(),
            PrefetcherConfig::pif_2k(),
            PrefetcherConfig::shift_virtualized(),
        ][rng.gen_range(0..4usize)];
        let mut matrix = RunMatrix::new();
        let cores = rng.gen_range(2..=16u16);
        matrix.standalone(
            &presets::tiny(),
            prefetcher,
            cores,
            Scale::Test,
            rng.next_u64(),
        );
        let result = RunResult::from_value(&scramble(real, rng)).expect("a scrambled result");
        (matrix, result)
    }

    /// Writes the outcome of `matrix`'s one run and returns its path.
    fn write_one(dir: &Path, matrix: &RunMatrix, result: &RunResult) -> PathBuf {
        write_outcome(dir, matrix.fingerprint(), &matrix.keys()[0], result).unwrap();
        dir.join(outcome_file_name(matrix.key_ids()[0]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        #[test]
        fn arbitrary_bytes_read_as_a_record_or_a_typed_error(seed in 0..u64::MAX) {
            let bytes = arbitrary_bytes(&mut SmallRng::seed_from_u64(seed));
            let path = fuzz_dir("arbitrary").join("doc.json");
            assert_reads_cleanly(&path, &bytes, read_lock);
            assert_reads_cleanly(&path, &bytes, read_outcome);
        }

        #[test]
        fn mutated_locks_read_as_a_record_or_a_typed_error(seed in 0..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let bytes = mutate(random_lock(&mut rng).to_json().into_bytes(), &mut rng);
            let path = fuzz_dir("mutated-lock").join("doc.json");
            assert_reads_cleanly(&path, &bytes, read_lock);
        }

        #[test]
        fn mutated_outcomes_read_as_a_record_or_a_typed_error(seed in 0..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (matrix, result) = random_outcome(&mut rng);
            let dir = fuzz_dir("mutated-outcome");
            let written = write_one(&dir, &matrix, &result);
            let bytes = mutate(fs::read(&written).unwrap(), &mut rng);
            fs::remove_file(&written).unwrap();
            assert_reads_cleanly(&dir.join("doc.json"), &bytes, read_outcome);
        }

        #[test]
        fn valid_locks_read_back_as_written(seed in 0..u64::MAX) {
            let record = random_lock(&mut SmallRng::seed_from_u64(seed));
            let path = fuzz_dir("lock-round-trip").join("doc.json");
            fs::write(&path, record.to_json()).unwrap();
            prop_assert_eq!(read_lock(&path).unwrap(), record);
        }

        #[test]
        fn valid_outcomes_read_back_as_written(seed in 0..u64::MAX) {
            let (matrix, result) = random_outcome(&mut SmallRng::seed_from_u64(seed));
            let path = write_one(&fuzz_dir("outcome-round-trip"), &matrix, &result);
            let record = read_outcome(&path).unwrap();
            fs::remove_file(&path).unwrap();
            prop_assert_eq!(record.results_version, RESULTS_VERSION);
            prop_assert_eq!(record.matrix, matrix.fingerprint());
            prop_assert_eq!(record.key_id, matrix.key_ids()[0]);
            prop_assert_eq!(&record.key_json, &matrix.keys()[0].canonical_json());
            // Floats bit for bit: a shortest rendering names one float.
            prop_assert_eq!(json::to_string(&record.result), json::to_string(&result));
            prop_assert_eq!(record.result, result);
        }
    }
}
