//! The **execute** stage of the sweep pipeline: which slots of a
//! [`RunMatrix`](crate::RunMatrix) an execution owns, and the claim protocol
//! queue workers share.
//!
//! A [`ShardSpec`] `k/N` selects every run whose rank in the matrix's
//! canonical ordering is congruent to `k − 1` modulo `N` — a partition, so
//! the `N` shards of a matrix are disjoint and cover it exactly, and every
//! process that plans the same sweep computes the same slices.
//! Shard execution ([`Execution::shard`](crate::Execution::shard)) simulates
//! the slice on the local worker pool and writes each completed run as a
//! keyed outcome file (see [`crate::store`] for the schema) the moment it
//! finishes.
//!
//! Execution into a directory is *resumable*: a run whose valid outcome
//! file already exists is skipped, so re-running a shard after a crash (or
//! preemption, or a CI retry) only simulates what is still missing and
//! converges to the same bit-identical directory contents. Outcome files are
//! written atomically (temp file + rename), so a kill mid-write never
//! corrupts the store.
//!
//! # Elastic execution: the work queue
//!
//! Static `K/N` slices assume the `N` hosts are equal; when they are not,
//! the sweep drains at the pace of the slowest shard. Queue execution
//! ([`Execution::queue`](crate::Execution::queue)) is the elastic
//! alternative: every worker sees the *whole* matrix and claims the next
//! unowned run through an atomic lock file in the shared outcome directory,
//! so fast hosts simply claim more runs and the queue drains at the
//! aggregate pace. The claim protocol and its invariants are documented on
//! `claim_lock` (and in `docs/SWEEP.md`); the directory layout (outcome
//! files, lock files) is owned by [`crate::store`].
//!
//! Every mode runs through the one drain loop of the
//! [`Execution`](crate::Execution) builder ([`crate::execution`]); this
//! module holds the pieces that loop composes: slices, queue configuration,
//! claim locks and their heartbeat, progress events, and cancellation.

use std::fmt;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::matrix::RunKeyId;
use crate::schedule::RunCost;
use crate::store::{lock_file_name, read_lock, LockRecord};

/// Which slice of a sweep this process executes: shard `index` of `total`
/// (1-based, so the CLI spelling `--shard 2/4` reads naturally).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    index: usize,
    total: usize,
}

impl ShardSpec {
    /// Shard `index` of `total`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= index <= total`.
    pub fn new(index: usize, total: usize) -> Self {
        assert!(total >= 1, "shard total must be at least 1");
        assert!(
            (1..=total).contains(&index),
            "shard index must be in 1..={total}, got {index}"
        );
        ShardSpec { index, total }
    }

    /// The whole matrix as one shard (`1/1`): single-process execution.
    pub fn full() -> Self {
        ShardSpec { index: 1, total: 1 }
    }

    /// Parses the CLI spelling `K/N` (e.g. `2/4`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for anything but `K/N` with
    /// `1 <= K <= N`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (index, total) = text
            .split_once('/')
            .ok_or_else(|| format!("shard spec must be K/N (e.g. 2/4), got `{text}`"))?;
        let index: usize = index
            .trim()
            .parse()
            .map_err(|_| format!("bad shard index in `{text}`"))?;
        let total: usize = total
            .trim()
            .parse()
            .map_err(|_| format!("bad shard total in `{text}`"))?;
        if total == 0 {
            return Err(format!("shard total must be at least 1 (from `{text}`)"));
        }
        if !(1..=total).contains(&index) {
            return Err(format!(
                "shard index must be in 1..={total}, got {index} (from `{text}`)"
            ));
        }
        Ok(ShardSpec { index, total })
    }

    /// This shard's 1-based index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total number of shards the sweep is split into.
    pub fn total(&self) -> usize {
        self.total
    }

    /// `true` if the run at canonical `rank` belongs to this shard.
    ///
    /// Round-robin over canonical ranks balances the slice sizes to within
    /// one run and keeps any locality in the canonical ordering (e.g. all
    /// scales of one workload) spread across shards.
    pub fn selects(&self, rank: usize) -> bool {
        rank % self.total == self.index - 1
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.total)
    }
}

impl FromStr for ShardSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        ShardSpec::parse(s)
    }
}

/// Seconds since the Unix epoch on this machine's clock (0 if the clock is
/// before the epoch — staleness checks degrade to "always stale" then,
/// which errs toward re-execution, the safe direction).
fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// How one work-queue worker identifies itself and times the lock protocol.
#[derive(Clone, Debug)]
pub struct QueueConfig {
    /// Worker id recorded in claim locks. Diagnostics only — mutual
    /// exclusion never depends on it. Restricted to filename-safe
    /// characters (it also names reclaim temp files).
    pub worker: String,
    /// Age past which another worker's claim counts as abandoned and may be
    /// reclaimed. Live workers re-stamp their claims every poll tick (see
    /// [`LockHeartbeat`]), so this only needs to comfortably exceed the
    /// [`QueueConfig::poll`] interval plus any cross-machine clock skew —
    /// *not* the longest single simulation. Too small still risks duplicate
    /// execution (wasteful but safe — outcomes are idempotent and
    /// bit-identical), too large delays recovery after a worker dies.
    pub lock_ttl: Duration,
    /// Sleep between passes while every remaining run is claimed by live
    /// workers; also the interval at which this worker's own claims are
    /// heartbeat-refreshed while simulating.
    pub poll: Duration,
    /// `true` (the operator default): keep polling until the whole matrix
    /// has outcomes, so a worker returning success means the sweep is
    /// complete. `false`: return as soon as nothing more is claimable,
    /// reporting [`ExecutionReport::complete`](crate::ExecutionReport)
    /// accordingly.
    pub wait: bool,
    /// Seed for this worker's measured drain rate, in weighted fetch units
    /// per second (`None`: unknown until the first run completes). Lets
    /// operators pre-calibrate known-slow hosts.
    pub initial_rate: Option<u64>,
    /// Under the cost-ordered [`Execution::policy`](crate::Execution::policy),
    /// a worker whose measured rate predicts a run will take longer than
    /// this *defers* it — walks past it to cheaper runs, returning to it
    /// only when nothing cheaper is left. Fast workers are unaffected (their
    /// estimates stay under the cutoff), so the biggest runs land on the
    /// fastest hosts. Deferral never skips a run permanently: a lone slow
    /// worker still drains the whole queue.
    pub slow_cutoff: Duration,
    /// Artificial per-weighted-fetch-unit slowdown in nanoseconds, slept
    /// after each simulated run while its claim is still heartbeat-fresh.
    /// `0` (the default) disables it. This exists to emulate a slow host in
    /// tests and CI makespan experiments deterministically.
    pub throttle_ns_per_unit: u64,
}

impl QueueConfig {
    /// Default reclaim TTL: one hour. With heartbeats a live claim is
    /// re-stamped every poll tick, so much smaller TTLs (seconds, not the
    /// longest run) are safe when faster dead-worker recovery matters;
    /// the conservative default favors never reclaiming a live claim even
    /// under extreme clock skew.
    pub const DEFAULT_TTL: Duration = Duration::from_secs(3600);

    /// A worker named `worker` with default timing (TTL
    /// [`QueueConfig::DEFAULT_TTL`], 500 ms poll, wait-until-complete).
    /// Non-filename-safe characters in the name are replaced with `_`.
    pub fn new(worker: impl Into<String>) -> Self {
        let worker: String = worker
            .into()
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        QueueConfig {
            worker,
            lock_ttl: Self::DEFAULT_TTL,
            poll: Duration::from_millis(500),
            wait: true,
            initial_rate: None,
            slow_cutoff: Self::DEFAULT_SLOW_CUTOFF,
            throttle_ns_per_unit: 0,
        }
    }

    /// Default slowness cutoff: five minutes. At the calibrated baseline
    /// rate (~2.3 M weighted fetch units/s) this is far above any paper-scale
    /// run, so only a genuinely slow (or throttled) worker ever defers.
    pub const DEFAULT_SLOW_CUTOFF: Duration = Duration::from_secs(300);
}

/// Cooperative cancellation handle for library-embedded executors.
///
/// Long-running hosts (the `shift-serve` daemon, notebooks, schedulers)
/// share a clone of the token with
/// [`Execution::cancel`](crate::Execution::cancel) and call
/// [`CancelToken::cancel`] to stop any execution at the next safe point:
/// workers finish the run they have claimed — persisting its outcome and
/// releasing its lock, so nothing is orphaned — and then return with
/// [`ExecutionReport::complete`](crate::ExecutionReport) `false` and no
/// in-memory outcomes instead of claiming further runs.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// `true` once any clone has requested cancellation.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// One progress event from an observed execution
/// ([`Execution::observer`](crate::Execution::observer)), in any mode.
///
/// Events are emitted from worker threads as they happen, so an observer
/// sees them in real execution order (and must be [`Sync`]). Every run an
/// execution owns produces exactly one terminal event per execution that
/// proves it done — [`RunEvent::Executed`] where it was simulated,
/// [`RunEvent::AlreadyDone`] where a result already existed — and every
/// `Executed` follows one [`RunEvent::Claimed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunEvent {
    /// The run was claimed and is about to be simulated. Carries the
    /// scheduler's reasoning — together these fields are the claim's
    /// decision-log entry: *this* run was picked because it sat at `rank` in
    /// the policy ordering, cost `cost`, and the worker was draining at
    /// `worker_rate`.
    Claimed {
        /// The claimed run.
        key_id: RunKeyId,
        /// The run's estimated cost: [`RunCost::of`] its key.
        cost: RunCost,
        /// The run's position in the full-matrix claim ordering of the
        /// active [`SchedulePolicy`](crate::SchedulePolicy) (0 = claimed
        /// first).
        rank: usize,
        /// The worker's measured drain rate in weighted fetch units per
        /// second at claim time; `None` before its first completed run.
        worker_rate: Option<u64>,
    },
    /// The run was simulated and its result stored (in memory, or as an
    /// outcome file).
    Executed {
        /// The completed run.
        key_id: RunKeyId,
    },
    /// A result for the run already existed (another worker, a previous
    /// invocation, or a [`reuse`](crate::Execution::reuse) cache hit).
    AlreadyDone {
        /// The already-complete run.
        key_id: RunKeyId,
    },
    /// This worker reclaimed a stale claim left by a dead worker.
    Reclaimed {
        /// The run whose stale lock was reclaimed.
        key_id: RunKeyId,
    },
}

impl RunEvent {
    /// The run this event is about.
    pub fn key_id(&self) -> RunKeyId {
        match *self {
            RunEvent::Claimed { key_id, .. }
            | RunEvent::Executed { key_id }
            | RunEvent::AlreadyDone { key_id }
            | RunEvent::Reclaimed { key_id } => key_id,
        }
    }
}

/// Receives [`RunEvent`]s from an observed execution. Implemented for any
/// `Fn(RunEvent) + Sync` closure, so ad-hoc observers need no newtype.
pub trait RunObserver: Sync {
    /// Called once per event, from the worker thread that produced it.
    fn on_event(&self, event: RunEvent);
}

impl<F: Fn(RunEvent) + Sync> RunObserver for F {
    fn on_event(&self, event: RunEvent) {
        self(event);
    }
}

/// How a claim lock held by someone else looks to a contender.
enum LockState {
    /// The lock vanished (owner finished or was reclaimed): retry.
    Gone,
    /// Claimed recently enough to be presumed live.
    Fresh,
    /// Older than the TTL: the owner is presumed dead; reclaim.
    Stale,
}

/// Assesses another worker's lock: prefer the claim timestamp embedded in
/// the lock, falling back to file mtime when the lock is half-written or
/// unreadable (the owner died between creating and filling it).
fn lock_state(path: &Path, ttl: Duration) -> LockState {
    match read_lock(path) {
        Ok(record) => {
            if unix_now() >= record.claimed_unix.saturating_add(ttl.as_secs()) {
                LockState::Stale
            } else {
                LockState::Fresh
            }
        }
        Err(crate::store::StoreError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
            LockState::Gone
        }
        Err(_) => match std::fs::metadata(path).and_then(|m| m.modified()) {
            // `elapsed` errs when mtime is in the future (clock skew):
            // treat as fresh — never reclaim on skew alone.
            Ok(mtime) => match mtime.elapsed() {
                Ok(age) if age >= ttl => LockState::Stale,
                _ => LockState::Fresh,
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => LockState::Gone,
            Err(_) => LockState::Fresh,
        },
    }
}

/// Keeps a claim lock *fresh* while its owner executes a long run.
///
/// Spawned by a queue worker right after it takes a lock,
/// and dropped (stopping the refresher thread) as soon as the simulation
/// finishes: every `interval` the background thread rewrites the lock with a
/// current `claimed_unix`, refreshing both the embedded timestamp and the
/// file mtime that half-written locks are judged by. With heartbeats in
/// place, a lock only goes stale when its owner has actually stopped — so
/// [`QueueConfig::lock_ttl`] needs to exceed only the
/// heartbeat interval plus clock skew, not the longest single run.
///
/// The refresher never *creates* the lock file: if a contender reclaimed it
/// (rename-based, see `claim_lock`) or the owner already released it,
/// recreating the path would orphan the slot until the TTL expired again.
/// A refresh that finds the file gone is simply skipped.
///
/// Public so external long-running executors that speak the claim protocol
/// directly (and tests) can keep their claims alive the same way.
#[derive(Debug)]
pub struct LockHeartbeat {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LockHeartbeat {
    /// Starts refreshing the lock at `path` every `interval` until dropped.
    /// `key_id` and `worker` are rewritten into the lock on every beat.
    pub fn spawn(path: PathBuf, key_id: RunKeyId, worker: String, interval: Duration) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let signal = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let (flag, wake) = &*signal;
            let mut stopped = flag.lock().expect("heartbeat flag poisoned");
            loop {
                let (guard, _) = wake
                    .wait_timeout(stopped, interval)
                    .expect("heartbeat flag poisoned");
                stopped = guard;
                if *stopped {
                    return;
                }
                refresh_lock(&path, key_id, &worker);
            }
        });
        LockHeartbeat {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for LockHeartbeat {
    fn drop(&mut self) {
        let (flag, wake) = &*self.stop;
        *flag.lock().expect("heartbeat flag poisoned") = true;
        wake.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// One heartbeat: rewrite the existing lock with a current timestamp.
/// Truncate-in-place on an already-open handle, never create — see
/// [`LockHeartbeat`] for why resurrection would be harmful. A reader racing
/// the rewrite can observe a half-written lock; it falls back to the file
/// mtime, which the rewrite also refreshed, so the claim still reads fresh.
fn refresh_lock(path: &Path, key_id: RunKeyId, worker: &str) {
    let record = LockRecord {
        key_id,
        worker: worker.to_owned(),
        claimed_unix: unix_now(),
    };
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .write(true)
        .truncate(true)
        .open(path)
    {
        let _ = file.write_all(record.to_json().as_bytes());
    }
}

/// What one attempt to create a run's claim lock came to.
pub(crate) enum LockClaim {
    /// This worker created the lock at the given path and holds the claim.
    Taken(PathBuf),
    /// Another live worker holds the claim.
    Held,
    /// This worker renamed a stale lock away: retry the claim.
    Reclaimed,
    /// The lock vanished, or another contender won the reclaim: retry.
    Retry,
}

/// Tries once to claim `key_id` for the worker `config` describes.
///
/// The claim sequence a queue worker runs per slot (each step atomic on
/// POSIX filesystems):
///
/// 1. if a valid outcome exists, the run is done — no claim needed;
/// 2. create `claim-<id>.lock` with `O_CREAT|O_EXCL` (this function) —
///    exclusive creation is the entire mutual-exclusion mechanism;
/// 3. re-check the outcome (another worker may have finished between 1 and
///    2), then simulate — with a [`LockHeartbeat`] refreshing the lock every
///    poll tick so the claim never looks stale while the run is live — and
///    write the outcome (temp file + rename), then remove the lock;
/// 4. on a lost creation race: a fresh foreign lock blocks; a stale one is
///    reclaimed by *renaming* it to a worker-unique name — exactly one
///    contender wins the rename — and the claim retries from step 1. The
///    renamed lock is judged again (see [`reclaim_stale`]), so a fresh lock
///    that took the path after the first judgement is put back, not
///    reclaimed.
///
/// Each run therefore executes exactly once under cooperating workers, and
/// at least once — always converging to the same bit-identical outcome
/// files — under crashes and reclaims: outcomes are written before the lock
/// is released, so a lock's absence plus an outcome's presence proves
/// completion, and runs are deterministic in their key, so a duplicate
/// execution after an over-eager reclaim rewrites identical bytes.
pub(crate) fn claim_lock(
    dir: &Path,
    key_id: RunKeyId,
    config: &QueueConfig,
) -> io::Result<LockClaim> {
    let lock = dir.join(lock_file_name(key_id));
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&lock)
    {
        Ok(mut file) => {
            let record = LockRecord {
                key_id,
                worker: config.worker.clone(),
                claimed_unix: unix_now(),
            };
            // Best-effort: an empty lock still excludes; readers fall back
            // to its mtime for staleness.
            let _ = file.write_all(record.to_json().as_bytes());
            Ok(LockClaim::Taken(lock))
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
            Ok(match lock_state(&lock, config.lock_ttl) {
                LockState::Gone => LockClaim::Retry,
                LockState::Fresh => LockClaim::Held,
                LockState::Stale => {
                    let tomb = dir.join(format!(".reclaim-{key_id}-{}", config.worker));
                    reclaim_stale(&lock, &tomb, config.lock_ttl)
                }
            })
        }
        Err(e) => Err(e),
    }
}

/// Reclaims the lock at `lock`, judged stale, by renaming it to `tomb`.
///
/// The rename moves whatever lock the path holds *now*, which need not be
/// the one judged: between the judgement and the rename, another contender
/// may have reclaimed that lock and created a fresh one of its own. So the
/// tomb is judged again. A stale tomb is removed and the reclaim counts; a
/// fresh one is linked back into place (unless a newer lock already holds
/// the path) and the claim is held.
fn reclaim_stale(lock: &Path, tomb: &Path, ttl: Duration) -> LockClaim {
    if std::fs::rename(lock, tomb).is_err() {
        // Someone else reclaimed, or the owner finished.
        return LockClaim::Retry;
    }
    let claim = match lock_state(tomb, ttl) {
        LockState::Stale => LockClaim::Reclaimed,
        LockState::Fresh => {
            // Fails with `AlreadyExists` when a newer lock took the path;
            // that lock holds the claim just the same.
            let _ = std::fs::hard_link(tomb, lock);
            LockClaim::Held
        }
        LockState::Gone => LockClaim::Retry,
    };
    let _ = std::fs::remove_file(tomb);
    claim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetcherConfig;
    use crate::store::{outcome_file_name, read_outcome, RunStore};
    use crate::{Execution, ExecutionReport, RunMatrix};
    use shift_trace::{presets, Scale};
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("shift-shard-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_matrix() -> RunMatrix {
        let mut matrix = RunMatrix::new();
        let w = presets::tiny();
        for seed in [3u64, 4] {
            for p in [PrefetcherConfig::None, PrefetcherConfig::next_line()] {
                matrix.standalone(&w, p, 2, Scale::Test, seed);
            }
        }
        matrix
    }

    /// The whole matrix as one durable shard, through the builder.
    fn full_shard(matrix: &RunMatrix, dir: &Path, threads: usize) -> ExecutionReport {
        Execution::new(matrix)
            .dir(dir)
            .shard(ShardSpec::full())
            .threads(threads)
            .run()
            .unwrap()
    }

    #[test]
    fn spec_parsing_and_selection() {
        assert_eq!(ShardSpec::parse("2/4"), Ok(ShardSpec::new(2, 4)));
        assert_eq!("1/1".parse::<ShardSpec>(), Ok(ShardSpec::full()));
        assert!(ShardSpec::parse("0/4").is_err());
        assert!(ShardSpec::parse("5/4").is_err());
        assert!(ShardSpec::parse("2").is_err());
        assert!(ShardSpec::parse("a/b").is_err());
        assert_eq!(
            ShardSpec::parse("1/0"),
            Err("shard total must be at least 1 (from `1/0`)".to_owned())
        );
        assert_eq!(ShardSpec::new(2, 4).to_string(), "2/4");

        // The N shards partition any rank range.
        for total in 1..=5usize {
            for rank in 0..23usize {
                let owners = (1..=total)
                    .filter(|&i| ShardSpec::new(i, total).selects(rank))
                    .count();
                assert_eq!(owners, 1, "rank {rank} of {total} shards");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard index must be in")]
    fn zero_index_rejected() {
        let _ = ShardSpec::new(0, 4);
    }

    #[test]
    fn full_shard_covers_the_matrix_and_resumes() {
        let dir = temp_dir("full");
        let matrix = small_matrix();
        let report = full_shard(&matrix, &dir, 2);
        assert_eq!(report.planned, matrix.len());
        assert_eq!(report.sources.executed, matrix.len());
        assert_eq!(report.sources.reused, 0);

        // Second invocation: everything resumes, nothing re-runs, and the
        // directory contents are untouched.
        let before: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                (p.clone(), fs::read_to_string(p).unwrap())
            })
            .collect();
        let again = full_shard(&matrix, &dir, 2);
        assert_eq!(again.sources.executed, 0);
        assert_eq!(again.sources.reused, matrix.len());
        for (path, content) in before {
            assert_eq!(fs::read_to_string(path).unwrap(), content);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn killed_shard_resumes_only_missing_runs() {
        let dir = temp_dir("resume");
        let matrix = small_matrix();
        full_shard(&matrix, &dir, 1);

        // Simulate a crash that lost two outcomes (plus a half-written temp
        // file the atomic rename protocol would have left behind).
        let mut outcome_files: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        outcome_files.sort();
        fs::remove_file(&outcome_files[0]).unwrap();
        fs::remove_file(&outcome_files[2]).unwrap();
        fs::write(dir.join(".tmp-dead.json"), "{\"schema\":").unwrap();

        let report = full_shard(&matrix, &dir, 2);
        assert_eq!(report.sources.executed, 2);
        assert_eq!(report.sources.reused, matrix.len() - 2);

        // The converged directory still merges to a complete, valid sweep.
        let outcomes = RunStore::new([&dir]).load(&matrix).expect("merge");
        assert_eq!(outcomes.len(), matrix.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    fn lock_bytes(claimed_unix: u64) -> String {
        LockRecord {
            key_id: RunKeyId::of_canonical_json("{}"),
            worker: "owner".to_owned(),
            claimed_unix,
        }
        .to_json()
    }

    #[test]
    fn reclaim_puts_back_a_fresh_lock_that_took_the_path() {
        // The contender judged an older lock stale; by the time it renames
        // the path, another worker's fresh claim sits there.
        let dir = temp_dir("reclaim-fresh");
        fs::create_dir_all(&dir).unwrap();
        let (lock, tomb) = (dir.join("claim.lock"), dir.join(".reclaim-tomb"));
        let fresh = lock_bytes(unix_now());
        fs::write(&lock, &fresh).unwrap();
        let claim = reclaim_stale(&lock, &tomb, Duration::from_secs(3600));
        assert!(matches!(claim, LockClaim::Held), "a fresh lock is held");
        assert_eq!(fs::read_to_string(&lock).unwrap(), fresh);
        assert!(!tomb.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reclaim_removes_a_stale_lock() {
        let dir = temp_dir("reclaim-stale");
        fs::create_dir_all(&dir).unwrap();
        let (lock, tomb) = (dir.join("claim.lock"), dir.join(".reclaim-tomb"));
        fs::write(&lock, lock_bytes(0)).unwrap();
        let claim = reclaim_stale(&lock, &tomb, Duration::from_secs(3600));
        assert!(matches!(claim, LockClaim::Reclaimed));
        assert!(!lock.exists() && !tomb.exists());
        let claim = reclaim_stale(&lock, &tomb, Duration::from_secs(3600));
        assert!(matches!(claim, LockClaim::Retry), "nothing left to reclaim");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_outcome_is_re_executed() {
        let dir = temp_dir("corrupt");
        let matrix = small_matrix();
        full_shard(&matrix, &dir, 1);
        let victim = dir.join(outcome_file_name(matrix.key_ids()[0]));
        fs::write(&victim, "not json at all").unwrap();

        let report = full_shard(&matrix, &dir, 1);
        assert_eq!(
            report.sources.executed, 1,
            "only the corrupt outcome re-runs"
        );
        assert!(
            read_outcome(&victim).is_ok(),
            "overwritten with a valid file"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
