//! The **execute** stage of the sweep pipeline: running a deterministic
//! slice of a [`RunMatrix`] with durable, resumable per-run outcomes.
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
//! Execution is *resumable*: a run whose valid outcome file already exists
//! is skipped, so re-running a shard after a crash (or preemption, or a CI
//! retry) only simulates what is still missing and converges to the same
//! bit-identical directory contents. Outcome files are written atomically
//! (temp file + rename), so a kill mid-write never corrupts the store.
//!
//! The trivial `1/1` shard ([`ShardSpec::full`]) makes single-process
//! execution just a special case of the same protocol.
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
//! `queue_inner` (and in `docs/SWEEP.md`); the directory layout (outcome
//! files, lock files) is owned by [`crate::store`].
//!
//! # Incremental execution: the delta
//!
//! `Execution::new(&matrix).reuse(partial)` closes the loop on outcome
//! reuse: probe an old directory with
//! [`RunStore::load_partial`](crate::store::RunStore::load_partial), then
//! execute only the planned runs the cache missed. Combined with
//! [`seed_outcomes`](crate::store::seed_outcomes) this turns any outcome
//! directory into a cross-sweep simulation cache.
//!
//! # Entry point
//!
//! Every execution mode — serial, threaded, shard slice, elastic queue,
//! cached delta — is driven through the [`Execution`](crate::Execution)
//! builder ([`crate::execution`]), which also owns the scheduling policy,
//! cost calibration, and the unified
//! [`ExecutionReport`](crate::ExecutionReport). The `execute_*` free
//! functions that used to live here (and the legacy per-mode `QueueReport`)
//! were deprecated once every in-tree caller migrated, and have been
//! removed; this module now exports only the building blocks the builder
//! composes (specs, configs, reports, observers, cancellation).

use std::fmt;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::matrix::{parallel_map_with_threads, MatrixFingerprint, RunKeyId, RunMatrix};
use crate::results::RunResult;
use crate::schedule::{rank_by_cost, CostModel, RunCost, SchedulePolicy};
use crate::store::{
    lock_file_name, outcome_file_name, outcome_is_valid, read_lock, write_outcome, LockRecord,
    PartialLoad, RunOutcomes,
};

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
        if total == 0 || !(1..=total).contains(&index) {
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

    /// `true` if this is the whole-matrix shard `1/1`.
    pub fn is_full(&self) -> bool {
        self.total == 1
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

/// How much of a shard's slice ran versus resumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardReport {
    /// The executed shard.
    pub spec: ShardSpec,
    /// Runs in this shard's slice of the matrix.
    pub planned: usize,
    /// Runs simulated by this invocation.
    pub executed: usize,
    /// Runs skipped because a valid outcome file already existed (resume
    /// after a crash or a previous partial invocation).
    pub resumed: usize,
}

/// The shard executor behind the [`Execution`](crate::Execution) builder's
/// durable modes.
pub(crate) fn shard_inner(
    matrix: &RunMatrix,
    spec: ShardSpec,
    dir: &Path,
    threads: usize,
) -> io::Result<ShardReport> {
    std::fs::create_dir_all(dir)?;
    let fingerprint = matrix.fingerprint();
    let slots: Vec<usize> = matrix
        .canonical_order()
        .into_iter()
        .enumerate()
        .filter(|&(rank, _)| spec.selects(rank))
        .map(|(_, slot)| slot)
        .collect();

    // Each worker claims a run, resumes it from disk if a valid outcome is
    // already there, simulates and persists it otherwise. Results land in
    // slot order regardless of scheduling (see `parallel_map`), so the
    // report is deterministic too.
    let ran: Vec<Result<bool, String>> = parallel_map_with_threads(&slots, threads, |&slot| {
        let key = &matrix.keys()[slot];
        let path = dir.join(outcome_file_name(matrix.key_ids()[slot]));
        if outcome_is_valid(&path, fingerprint, key) {
            return Ok(false);
        }
        // Missing, unreadable, foreign, or stale: (re-)execute and overwrite.
        let result = matrix.keys()[slot].run();
        write_outcome(dir, fingerprint, key, &result).map_err(|e| {
            format!(
                "failed to write outcome {} under {}: {e}",
                matrix.key_ids()[slot],
                dir.display()
            )
        })?;
        Ok(true)
    });

    let mut executed = 0usize;
    let mut resumed = 0usize;
    for entry in ran {
        match entry {
            Ok(true) => executed += 1,
            Ok(false) => resumed += 1,
            Err(message) => return Err(io::Error::other(message)),
        }
    }
    Ok(ShardReport {
        spec,
        planned: slots.len(),
        executed,
        resumed,
    })
}

/// Seconds since the Unix epoch on this machine's clock (0 if the clock is
/// before the epoch — staleness checks degrade to "always stale" then,
/// which errs toward re-execution, the safe direction).
fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Process-wide worker-id counter so concurrent in-process queue workers
/// (tests, multi-worker drivers) get distinct identities.
static NEXT_WORKER: AtomicU64 = AtomicU64::new(0);

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
    /// In what order this worker walks the not-yet-done runs when claiming.
    /// [`SchedulePolicy::CostOrdered`] claims biggest-first by [`RunCost`]
    /// (see [`crate::schedule`]); the default keeps the stable canonical
    /// order. Either way every run is eventually claimed — the policy only
    /// changes claim order and makespan, never results.
    pub policy: SchedulePolicy,
    /// Seed for this worker's measured drain rate, in weighted fetch units
    /// per second (`None`: unknown until the first run completes, unless a
    /// leftover lock from a previous incarnation of the same worker id holds
    /// a persisted rate). Lets operators pre-calibrate known-slow hosts.
    pub initial_rate: Option<u64>,
    /// Under [`SchedulePolicy::CostOrdered`], a worker whose measured rate
    /// predicts a run will take longer than this *defers* it — walks past it
    /// to cheaper runs, returning to it only when nothing cheaper is left.
    /// Fast workers are unaffected (their estimates stay under the cutoff),
    /// so the biggest runs land on the fastest hosts. Deferral never skips a
    /// run permanently: a lone slow worker still drains the whole queue.
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
    /// under extreme clock skew. Override with [`QueueConfig::from_env`]'s
    /// `SHIFT_QUEUE_TTL` or directly.
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
            policy: SchedulePolicy::default(),
            initial_rate: None,
            slow_cutoff: Self::DEFAULT_SLOW_CUTOFF,
            throttle_ns_per_unit: 0,
        }
    }

    /// Default slowness cutoff: five minutes. At the calibrated baseline
    /// rate (~2.3 M weighted fetch units/s) this is far above any paper-scale
    /// run, so only a genuinely slow (or throttled) worker ever defers.
    pub const DEFAULT_SLOW_CUTOFF: Duration = Duration::from_secs(300);

    /// A worker with a generated id (`pid<pid>-w<n>`) and knobs from the
    /// environment:
    ///
    /// * `SHIFT_QUEUE_TTL` — reclaim TTL in seconds (default
    ///   [`QueueConfig::DEFAULT_TTL`]);
    /// * `SHIFT_SCHED_POLICY` — `canonical` or `cost` (claim ordering);
    /// * `SHIFT_QUEUE_RATE` — initial rate estimate, weighted fetch units/s;
    /// * `SHIFT_QUEUE_CUTOFF` — slowness cutoff in seconds;
    /// * `SHIFT_QUEUE_THROTTLE` — artificial slowdown, ns per weighted
    ///   fetch unit (test/CI instrumentation).
    pub fn from_env() -> Self {
        let mut config = QueueConfig::new(format!(
            "pid{}-w{}",
            std::process::id(),
            NEXT_WORKER.fetch_add(1, Ordering::Relaxed)
        ));
        if let Ok(value) = std::env::var("SHIFT_QUEUE_TTL") {
            match value.trim().parse::<u64>() {
                Ok(secs) => config.lock_ttl = Duration::from_secs(secs),
                Err(_) => eprintln!("ignoring invalid SHIFT_QUEUE_TTL `{value}`"),
            }
        }
        if let Ok(value) = std::env::var("SHIFT_SCHED_POLICY") {
            match value.parse::<SchedulePolicy>() {
                Ok(policy) => config.policy = policy,
                Err(e) => eprintln!("ignoring invalid SHIFT_SCHED_POLICY: {e}"),
            }
        }
        if let Ok(value) = std::env::var("SHIFT_QUEUE_RATE") {
            match value.trim().parse::<u64>() {
                Ok(rate) if rate > 0 => config.initial_rate = Some(rate),
                _ => eprintln!("ignoring invalid SHIFT_QUEUE_RATE `{value}`"),
            }
        }
        if let Ok(value) = std::env::var("SHIFT_QUEUE_CUTOFF") {
            match value.trim().parse::<u64>() {
                Ok(secs) => config.slow_cutoff = Duration::from_secs(secs),
                Err(_) => eprintln!("ignoring invalid SHIFT_QUEUE_CUTOFF `{value}`"),
            }
        }
        if let Ok(value) = std::env::var("SHIFT_QUEUE_THROTTLE") {
            match value.trim().parse::<u64>() {
                Ok(ns) => config.throttle_ns_per_unit = ns,
                Err(_) => eprintln!("ignoring invalid SHIFT_QUEUE_THROTTLE `{value}`"),
            }
        }
        config
    }
}

/// Cooperative cancellation handle for library-embedded executors.
///
/// Long-running hosts (the `shift-serve` daemon, notebooks, schedulers)
/// share a clone of the token with
/// [`Execution::cancel`](crate::Execution::cancel) and call
/// [`CancelToken::cancel`] to stop the drain at the next safe point: workers
/// finish the run they have claimed — releasing its lock and persisting its
/// outcome, so nothing is orphaned — and then return with
/// [`ExecutionReport::complete`](crate::ExecutionReport) `false` instead of
/// claiming further runs.
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

/// One progress event from an observed queue drain
/// ([`Execution::observer`](crate::Execution::observer)).
///
/// Events are emitted from worker threads as they happen, so an observer
/// sees them in real execution order (and must be [`Sync`]). Every planned
/// run produces exactly one terminal event per worker that proves it done —
/// [`RunEvent::Executed`] on the worker that simulated it,
/// [`RunEvent::AlreadyDone`] on workers that found it finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunEvent {
    /// This worker claimed the run and is about to simulate it. Carries the
    /// scheduler's reasoning — together these fields are the claim's
    /// decision-log entry: *this* run was picked because it sat at `rank` in
    /// the policy ordering, cost `cost`, and the worker was draining at
    /// `worker_rate`.
    Claimed {
        /// The claimed run.
        key_id: RunKeyId,
        /// The run's estimated cost under the active [`CostModel`].
        cost: RunCost,
        /// The run's position in the full-matrix claim ordering of the
        /// active [`SchedulePolicy`] (0 = claimed first).
        rank: usize,
        /// The worker's measured drain rate in weighted fetch units per
        /// second at claim time; `None` before its first completed run.
        worker_rate: Option<u64>,
    },
    /// This worker finished simulating the run and persisted its outcome.
    Executed {
        /// The completed run.
        key_id: RunKeyId,
    },
    /// A valid outcome for the run already existed (another worker, a
    /// previous invocation, or a seeded cache hit).
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

/// Receives [`RunEvent`]s from an observed queue drain. Implemented for any
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

/// What happened when a worker tried to claim one run.
enum Claim {
    /// This worker took the claim and simulated the run.
    Executed { reclaimed: bool },
    /// A valid outcome already existed (another worker, or a previous run).
    AlreadyDone,
    /// Another live worker holds the claim.
    Blocked,
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
/// Spawned by the queue drain's claim path right after a lock is taken,
/// and dropped (stopping the refresher thread) as soon as the simulation
/// finishes: every `interval` the background thread rewrites the lock with a
/// current `claimed_unix`, refreshing both the embedded timestamp and the
/// file mtime that half-written locks are judged by. With heartbeats in
/// place, a lock only goes stale when its owner has actually stopped — so
/// [`QueueConfig::lock_ttl`] (`SHIFT_QUEUE_TTL`) needs to exceed only the
/// heartbeat interval plus clock skew, not the longest single run.
///
/// The refresher never *creates* the lock file: if a contender reclaimed it
/// (rename-based, see `queue_inner`) or the owner already released it,
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
        Self::spawn_with_rate(path, key_id, worker, interval, Arc::new(AtomicU64::new(0)))
    }

    /// [`LockHeartbeat::spawn`], additionally re-stamping the owner's
    /// current measured drain rate (read from `rate`; 0 means unknown and
    /// is omitted) into the lock on every beat. Persisting the rate through
    /// the lock is what lets a restarted worker recover its calibration by
    /// reading its own leftover claims.
    pub fn spawn_with_rate(
        path: PathBuf,
        key_id: RunKeyId,
        worker: String,
        interval: Duration,
        rate: Arc<AtomicU64>,
    ) -> Self {
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
                let measured = rate.load(Ordering::Relaxed);
                refresh_lock(&path, key_id, &worker, (measured > 0).then_some(measured));
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
fn refresh_lock(path: &Path, key_id: RunKeyId, worker: &str, rate: Option<u64>) {
    let record = LockRecord {
        key_id,
        worker: worker.to_owned(),
        claimed_unix: unix_now(),
        rate,
    };
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .write(true)
        .truncate(true)
        .open(path)
    {
        let _ = file.write_all(record.to_json().as_bytes());
    }
}

/// Everything shared by every claim attempt of one queue drain: the plan,
/// the directory, the worker's configuration, the scheduler state, and the
/// embedding hooks.
struct DrainCtx<'a> {
    matrix: &'a RunMatrix,
    fingerprint: MatrixFingerprint,
    dir: &'a Path,
    config: &'a QueueConfig,
    observer: &'a dyn RunObserver,
    cancel: &'a CancelToken,
    /// Per-slot estimated cost under the active model (plan order).
    costs: &'a [RunCost],
    /// Per-slot rank in the full-matrix claim ordering of the active policy.
    ranks: &'a [usize],
    /// This worker's measured drain rate in weighted fetch units per second
    /// (0 = unknown). Shared with every worker thread and the heartbeats.
    rate: &'a Arc<AtomicU64>,
}

impl DrainCtx<'_> {
    /// The worker's current rate, `None` while still unmeasured.
    fn current_rate(&self) -> Option<u64> {
        let rate = self.rate.load(Ordering::Relaxed);
        (rate > 0).then_some(rate)
    }

    /// Folds one completed run into the worker's measured rate: the first
    /// sample is taken as-is, later samples are blended half-and-half with
    /// the running estimate so the rate tracks drift without whiplashing on
    /// one outlier run.
    fn record_rate(&self, cost: RunCost, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return;
        }
        let sample = (cost.units() as f64 / secs).round().max(1.0) as u64;
        let previous = self.rate.load(Ordering::Relaxed);
        let blended = if previous == 0 {
            sample
        } else {
            previous / 2 + sample / 2
        };
        self.rate.store(blended.max(1), Ordering::Relaxed);
    }
}

/// Tries to claim and execute the run in plan-order `slot`.
///
/// The claim sequence (each step atomic on POSIX filesystems):
///
/// 1. if a valid outcome exists, the run is done — no claim needed;
/// 2. create `claim-<id>.lock` with `O_CREAT|O_EXCL` — exclusive creation
///    is the entire mutual-exclusion mechanism;
/// 3. re-check the outcome (another worker may have finished between 1 and
///    2), then simulate — with a [`LockHeartbeat`] refreshing the lock every
///    poll tick so the claim never looks stale while the run is live — and
///    write the outcome (temp file + rename), then remove the lock;
/// 4. on a lost creation race: a fresh foreign lock blocks; a stale one is
///    reclaimed by *renaming* it to a worker-unique name — exactly one
///    contender wins the rename — and retrying from step 1.
fn claim_one(ctx: &DrainCtx<'_>, slot: usize) -> io::Result<Claim> {
    let DrainCtx {
        matrix,
        fingerprint,
        dir,
        config,
        observer,
        ..
    } = *ctx;
    let key = &matrix.keys()[slot];
    let key_id = matrix.key_ids()[slot];
    let outcome = dir.join(outcome_file_name(key_id));
    let lock = dir.join(lock_file_name(key_id));
    let mut reclaimed = false;
    loop {
        if outcome_is_valid(&outcome, fingerprint, key) {
            observer.on_event(RunEvent::AlreadyDone { key_id });
            return Ok(Claim::AlreadyDone);
        }
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
                    rate: ctx.current_rate(),
                };
                // Best-effort: an empty lock still excludes; readers fall
                // back to its mtime for staleness.
                let _ = file.write_all(record.to_json().as_bytes());
                drop(file);
                // Double-check: the run may have completed between the
                // validity check and our claim.
                if outcome_is_valid(&outcome, fingerprint, key) {
                    let _ = std::fs::remove_file(&lock);
                    observer.on_event(RunEvent::AlreadyDone { key_id });
                    return Ok(Claim::AlreadyDone);
                }
                let cost = ctx.costs[slot];
                observer.on_event(RunEvent::Claimed {
                    key_id,
                    cost,
                    rank: ctx.ranks[slot],
                    worker_rate: ctx.current_rate(),
                });
                // Keep the claim visibly alive for the whole simulation, so
                // the TTL can be far shorter than the longest run.
                let heartbeat = LockHeartbeat::spawn_with_rate(
                    lock.clone(),
                    key_id,
                    config.worker.clone(),
                    config.poll,
                    Arc::clone(ctx.rate),
                );
                let started = std::time::Instant::now();
                let result = matrix.keys()[slot].run();
                if config.throttle_ns_per_unit > 0 {
                    // Emulated slow host: sleep in proportion to the run's
                    // cost, with the heartbeat still stamping the claim so
                    // it never looks abandoned.
                    std::thread::sleep(Duration::from_nanos(
                        cost.units().saturating_mul(config.throttle_ns_per_unit),
                    ));
                }
                ctx.record_rate(cost, started.elapsed());
                drop(heartbeat);
                let written = write_outcome(dir, fingerprint, key, &result);
                let _ = std::fs::remove_file(&lock);
                written?;
                observer.on_event(RunEvent::Executed { key_id });
                return Ok(Claim::Executed { reclaimed });
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                match lock_state(&lock, config.lock_ttl) {
                    LockState::Gone => continue,
                    LockState::Fresh => return Ok(Claim::Blocked),
                    LockState::Stale => {
                        let tomb = dir.join(format!(".reclaim-{key_id}-{}", config.worker));
                        if std::fs::rename(&lock, &tomb).is_ok() {
                            let _ = std::fs::remove_file(&tomb);
                            reclaimed = true;
                            observer.on_event(RunEvent::Reclaimed { key_id });
                        }
                        // Rename lost ⇒ someone else reclaimed or the owner
                        // finished; either way, re-evaluate from the top.
                        continue;
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Per-pass tallies of a queue worker.
#[derive(Default)]
struct PassStats {
    executed: usize,
    already: usize,
    reclaimed: usize,
    blocked: usize,
}

/// One pass over `candidates`: worker threads race down the list claiming
/// what they can. Runs proven complete (executed here, or found done) are
/// marked in `done` so later passes skip re-validating them — outcome
/// validity is monotonic, a valid file never becomes invalid.
fn queue_pass(
    ctx: &DrainCtx<'_>,
    threads: usize,
    candidates: &[usize],
    done: &[std::sync::atomic::AtomicBool],
) -> io::Result<PassStats> {
    let workers = threads.clamp(1, candidates.len().max(1));
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let stats = Mutex::new(PassStats::default());
    let failure: Mutex<Option<io::Error>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if ctx.cancel.is_cancelled() {
                    break;
                }
                if failure.lock().expect("failure flag poisoned").is_some() {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&slot) = candidates.get(i) else {
                    break;
                };
                match claim_one(ctx, slot) {
                    Ok(claim) => {
                        let mut stats = stats.lock().expect("stats poisoned");
                        match claim {
                            Claim::Executed { reclaimed } => {
                                done[slot].store(true, Ordering::Relaxed);
                                stats.executed += 1;
                                if reclaimed {
                                    stats.reclaimed += 1;
                                }
                            }
                            Claim::AlreadyDone => {
                                done[slot].store(true, Ordering::Relaxed);
                                stats.already += 1;
                            }
                            Claim::Blocked => stats.blocked += 1,
                        }
                    }
                    Err(e) => {
                        failure
                            .lock()
                            .expect("failure flag poisoned")
                            .get_or_insert(e);
                        break;
                    }
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().expect("failure flag poisoned") {
        return Err(e);
    }
    Ok(stats.into_inner().expect("stats poisoned"))
}

/// Full tallies of one queue worker's drain, including outcomes it *found*
/// done rather than executed — what the unified
/// [`ExecutionReport`](crate::ExecutionReport) reports as reused.
pub(crate) struct QueueDrain {
    pub planned: usize,
    pub executed: usize,
    pub already: usize,
    pub reclaimed: usize,
    pub passes: usize,
    pub complete: bool,
}

/// Recovers a restarted worker's measured rate from its own leftover claim
/// locks: a worker that died (or was killed) mid-drain left locks whose
/// heartbeats persisted its last rate estimate, so its successor — same
/// operator-assigned worker id — resumes calibrated instead of cold.
fn recover_rate(dir: &Path, worker: &str) -> Option<u64> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut best: Option<u64> = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !(name.starts_with("claim-") && name.ends_with(".lock")) {
            continue;
        }
        if let Ok(record) = read_lock(&entry.path()) {
            if record.worker == worker {
                if let Some(rate) = record.rate {
                    best = Some(best.map_or(rate, |b| b.max(rate)));
                }
            }
        }
    }
    best
}

/// The queue executor behind the [`Execution`](crate::Execution) builder's
/// queue mode: full scheduler support (claim ordering policy, per-worker
/// rate measurement and recovery, slowness deferral) plus the extended
/// tallies.
///
/// Every participating worker (any number of processes on any number of
/// hosts sharing `dir`) drains the same planned matrix; each run executes
/// exactly once under cooperating workers, and at least once — always
/// converging to the same bit-identical outcome files — under crashes and
/// reclaims. The four-step claim sequence is documented in `docs/SWEEP.md`
/// (§ "The lock-file / reclaim protocol"); its invariants:
///
/// * **Mutual exclusion** comes from `O_CREAT|O_EXCL` lock creation; lock
///   *contents* are diagnostics only.
/// * **Crash safety**: outcomes are written atomically before the lock is
///   released, so a lock's absence plus an outcome's presence proves
///   completion; a killed worker leaves at most one lock, which goes stale
///   after [`QueueConfig::lock_ttl`] and is reclaimed by rename (exactly
///   one contender can win).
/// * **Idempotence**: runs are deterministic in their key, so even a
///   duplicate execution after an over-eager reclaim rewrites byte-identical
///   content.
pub(crate) fn queue_inner(
    matrix: &RunMatrix,
    dir: &Path,
    config: &QueueConfig,
    threads: usize,
    observer: &dyn RunObserver,
    cancel: &CancelToken,
    model: &CostModel,
) -> io::Result<QueueDrain> {
    std::fs::create_dir_all(dir)?;
    // The claim ordering is a pure function of the plan and the model, so
    // every worker computes the same ranking with no coordination.
    let order = match config.policy {
        SchedulePolicy::Canonical => matrix.canonical_order(),
        SchedulePolicy::CostOrdered => rank_by_cost(model, matrix),
    };
    let costs: Vec<RunCost> = matrix.keys().iter().map(|key| model.cost(key)).collect();
    let mut ranks = vec![0usize; matrix.len()];
    for (rank, &slot) in order.iter().enumerate() {
        ranks[slot] = rank;
    }
    let rate = Arc::new(AtomicU64::new(
        config
            .initial_rate
            .or_else(|| recover_rate(dir, &config.worker))
            .unwrap_or(0),
    ));
    let ctx = DrainCtx {
        matrix,
        fingerprint: matrix.fingerprint(),
        dir,
        config,
        observer,
        cancel,
        costs: &costs,
        ranks: &ranks,
        rate: &rate,
    };
    // Completion is monotonic, so it is remembered across passes: only
    // not-yet-done slots are (re-)examined, and `claim_one` performs the
    // actual on-disk validity check for those. Without this, an idle worker
    // would re-read and re-parse every completed outcome file on every
    // poll tick — painful on a large sweep over a network filesystem.
    let done: Vec<std::sync::atomic::AtomicBool> = (0..matrix.len())
        .map(|_| std::sync::atomic::AtomicBool::new(false))
        .collect();
    let mut report = QueueDrain {
        planned: matrix.len(),
        executed: 0,
        already: 0,
        reclaimed: 0,
        passes: 0,
        complete: false,
    };
    loop {
        if cancel.is_cancelled() {
            return Ok(report);
        }
        report.passes += 1;
        let mut candidates: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&slot| !done[slot].load(Ordering::Relaxed))
            .collect();
        if candidates.is_empty() {
            report.complete = true;
            return Ok(report);
        }
        // Slowness deferral: once this worker has a measured rate, runs it
        // would hold for longer than the cutoff move to the back of *its*
        // claim order — fast contenders pick them up first, but nothing is
        // ever skipped outright, so a lone slow worker still completes.
        if config.policy == SchedulePolicy::CostOrdered {
            if let Some(rate) = ctx.current_rate() {
                let (mut preferred, deferred): (Vec<usize>, Vec<usize>) =
                    candidates.into_iter().partition(|&slot| {
                        costs[slot]
                            .duration_at(rate)
                            .is_none_or(|d| d <= config.slow_cutoff)
                    });
                preferred.extend(deferred);
                candidates = preferred;
            }
        }
        let stats = queue_pass(&ctx, threads, &candidates, &done)?;
        report.executed += stats.executed;
        report.already += stats.already;
        report.reclaimed += stats.reclaimed;
        if cancel.is_cancelled() {
            return Ok(report);
        }
        if stats.executed == 0 && stats.blocked > 0 {
            // Everything left is claimed by other live workers: wait for
            // them (their completion or their locks going stale both
            // unblock the next pass), or hand the tally back.
            if !config.wait {
                return Ok(report);
            }
            std::thread::sleep(config.poll);
        }
    }
}

/// Seeds only this shard's slice of `partial`'s cache hits into `dir`
/// (under `matrix`'s own fingerprint), returning how many files it wrote.
///
/// The slice restriction is what keeps `--reuse` composable with static
/// sharding: each of the `N` shard directories receives only the runs its
/// [`ShardSpec`] owns, so the directories stay disjoint and the strict
/// merge's [`DuplicateKey`](crate::store::StoreError::DuplicateKey) check
/// still catches genuinely overlapping shards. Use
/// [`seed_outcomes`](crate::store::seed_outcomes) (the
/// [`ShardSpec::full`] equivalent) for queue and single-directory modes,
/// where one directory holds the whole sweep.
///
/// # Panics
///
/// Panics if `partial` was probed against a different matrix.
///
/// # Errors
///
/// Propagates filesystem errors creating `dir` or writing outcome files.
pub fn seed_shard_outcomes(
    matrix: &RunMatrix,
    partial: &PartialLoad,
    dir: &Path,
    spec: ShardSpec,
) -> io::Result<usize> {
    let slots: Vec<usize> = matrix
        .canonical_order()
        .into_iter()
        .enumerate()
        .filter(|&(rank, _)| spec.selects(rank))
        .map(|(_, slot)| slot)
        .collect();
    crate::store::seed_outcome_slots(matrix, partial, dir, &slots)
}

/// Outcomes assembled from cache hits plus a freshly executed delta.
#[derive(Debug)]
pub struct DeltaReport {
    /// The complete outcomes for the planned matrix.
    pub outcomes: RunOutcomes,
    /// Runs answered from the cache ([`PartialLoad::reused`]).
    pub reused: usize,
    /// Runs this call simulated (the cache misses).
    pub executed: usize,
}

/// The delta executor behind the [`Execution`](crate::Execution) builder's
/// reuse mode: completes a [`PartialLoad`] in memory by executing only the
/// planned runs the cache missed, returning full [`RunOutcomes`]
/// indistinguishable from an end-to-end execution — the reuse-safety
/// argument in [`crate::store`] is what makes the splice sound. Panics if
/// `partial` was probed against a different matrix.
pub(crate) fn delta_inner(matrix: &RunMatrix, partial: PartialLoad, threads: usize) -> DeltaReport {
    let missing = partial.missing_slots(matrix);
    let fresh: Vec<RunResult> =
        parallel_map_with_threads(&missing, threads, |&slot| matrix.keys()[slot].run());
    let reused = partial.reused;
    let mut results = partial.into_results();
    for (&slot, result) in missing.iter().zip(fresh) {
        results[slot] = Some(result);
    }
    DeltaReport {
        outcomes: RunOutcomes::from_results(
            matrix.local_id(),
            results
                .into_iter()
                .map(|r| r.expect("hits plus delta cover every slot"))
                .collect(),
        ),
        reused,
        executed: missing.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetcherConfig;
    use crate::store::{read_outcome, RunStore};
    use shift_trace::{presets, Scale};
    use std::fs;
    use std::path::PathBuf;

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

    #[test]
    fn spec_parsing_and_selection() {
        assert_eq!(ShardSpec::parse("2/4"), Ok(ShardSpec::new(2, 4)));
        assert_eq!("1/1".parse::<ShardSpec>(), Ok(ShardSpec::full()));
        assert!(ShardSpec::parse("0/4").is_err());
        assert!(ShardSpec::parse("5/4").is_err());
        assert!(ShardSpec::parse("2").is_err());
        assert!(ShardSpec::parse("a/b").is_err());
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
        let report = shard_inner(&matrix, ShardSpec::full(), &dir, 2).unwrap();
        assert_eq!(report.planned, matrix.len());
        assert_eq!(report.executed, matrix.len());
        assert_eq!(report.resumed, 0);

        // Second invocation: everything resumes, nothing re-runs, and the
        // directory contents are untouched.
        let before: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                (p.clone(), fs::read_to_string(p).unwrap())
            })
            .collect();
        let again = shard_inner(&matrix, ShardSpec::full(), &dir, 2).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.resumed, matrix.len());
        for (path, content) in before {
            assert_eq!(fs::read_to_string(path).unwrap(), content);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn killed_shard_resumes_only_missing_runs() {
        let dir = temp_dir("resume");
        let matrix = small_matrix();
        shard_inner(&matrix, ShardSpec::full(), &dir, 1).unwrap();

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

        let report = shard_inner(&matrix, ShardSpec::full(), &dir, 2).unwrap();
        assert_eq!(report.executed, 2);
        assert_eq!(report.resumed, matrix.len() - 2);

        // The converged directory still merges to a complete, valid sweep.
        let outcomes = RunStore::new([&dir]).load(&matrix).expect("merge");
        assert_eq!(outcomes.len(), matrix.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_outcome_is_re_executed() {
        let dir = temp_dir("corrupt");
        let matrix = small_matrix();
        shard_inner(&matrix, ShardSpec::full(), &dir, 1).unwrap();
        let victim = dir.join(outcome_file_name(matrix.key_ids()[0]));
        fs::write(&victim, "not json at all").unwrap();

        let report = shard_inner(&matrix, ShardSpec::full(), &dir, 1).unwrap();
        assert_eq!(report.executed, 1, "only the corrupt outcome re-runs");
        assert!(
            read_outcome(&victim).is_ok(),
            "overwritten with a valid file"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
