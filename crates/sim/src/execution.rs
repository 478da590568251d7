//! The unified entry point for executing a planned [`RunMatrix`]: every
//! mode — in memory, durable, sharded, queued, reusing a cache — is
//! configured on one [`Execution`] builder and reported by one
//! [`ExecutionReport`].
//!
//! ```
//! use shift_sim::{Execution, PrefetcherConfig, RunMatrix};
//! use shift_trace::{presets, Scale};
//!
//! let mut matrix = RunMatrix::new();
//! let w = presets::tiny();
//! let run = matrix.standalone(&w, PrefetcherConfig::None, 2, Scale::Test, 7);
//!
//! // In-memory execution on two worker threads.
//! let output = Execution::new(&matrix).threads(2).run().unwrap();
//! assert!(output.report().complete);
//! let outcomes = output.into_outcomes();
//! assert!(outcomes[run].throughput() > 0.0);
//! ```
//!
//! Every execution is one drain loop. It owns a set of plan slots and
//! visits them pass by pass on the worker pool; per slot it checks whether
//! the run is already done, claims it, runs it, and stores the result. The
//! mode picks which slots are owned and where results go, and it is the
//! builder's type parameter, so a contradiction does not compile:
//!
//! | Mode | Built by | Slots owned | Results | `run()` returns |
//! |---|---|---|---|---|
//! | [`InMemory`] | [`Execution::new`] | every slot | in memory | [`ExecutionOutput`] |
//! | [`Durable`] | `.dir(d)` | every slot | the outcome directory: resumable, loaded back once complete | [`ExecutionOutput`] |
//! | [`Sharded`] | `.dir(d).shard(spec)` | the `K/N` slice, by canonical rank | the outcome directory | [`ExecutionReport`] |
//! | [`Queued`] | `.dir(d).queue(config)` | every slot, each taken by an `O_EXCL` lock claim | the shared outcome directory | [`ExecutionReport`] |
//!
//! The rest applies to every mode:
//!
//! * [`reuse`](Execution::reuse) is a pre-pass: cache hits are copied into
//!   memory, or written into the directory for the owned slots, and then
//!   count as already done;
//! * [`policy`](Execution::policy) is one sort of the owned slots — the
//!   canonical order, or biggest-first by [`RunCost::of`];
//! * [`observer`](Execution::observer) sees every slot's
//!   [`RunEvent`]s and [`cancel`](Execution::cancel) stops the drain
//!   between claims.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::matrix::{default_threads, parallel_map_with_threads, MatrixFingerprint, RunMatrix};
use crate::results::RunResult;
use crate::schedule::{rank_by_cost, RunCost, SchedulePolicy};
use crate::shard::{
    claim_lock, CancelToken, LockClaim, LockHeartbeat, QueueConfig, RunEvent, RunObserver,
    ShardSpec,
};
use crate::store::{
    seed_outcome_slots, write_outcome, PartialLoad, PlanIndex, RunOutcomes, RunStore,
};

/// Where each planned run's outcome came from, summed over one execution.
///
/// The two sources are exhaustive and disjoint per run *as this invocation
/// saw it*: simulated here (`executed`), or already present — cache hit,
/// resumed file, or another queue worker's work (`reused`). Stale claims
/// taken over from dead workers are counted beside them (`reclaimed`),
/// because operators alert on them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeSources {
    /// Runs simulated by this invocation.
    pub executed: usize,
    /// Runs satisfied without simulating: valid outcomes that already
    /// existed (resume, cache seed, or other workers' completions observed
    /// by this one).
    pub reused: usize,
    /// Stale claims this invocation took over from dead workers. The run
    /// behind one is usually executed here too, but once the stale lock is
    /// gone a peer may claim the run first, so each stale claim counts once
    /// across a fleet: in the report of the worker that removed it.
    pub reclaimed: usize,
}

/// What one [`Execution`] did, uniformly across every mode. Serde-derived so
/// embedding services (`shift-serve` status responses, the bench decision
/// log) can emit it directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Runs this execution owned: the whole matrix, or the shard's slice
    /// in shard mode.
    pub planned: usize,
    /// Per-source breakdown of how those runs were satisfied.
    pub sources: OutcomeSources,
    /// Passes over the owned runs not yet known done. One pass visits every
    /// owned run; only a queue worker waiting on runs that live peers have
    /// claimed takes more.
    pub passes: usize,
    /// `true` if every owned run had a result on return. Shard mode reports
    /// its own slice; a cancelled execution or a non-waiting queue worker
    /// that left runs to its peers reports `false`.
    pub complete: bool,
}

/// The result of an in-memory or durable [`run`](Execution::run): the
/// report, plus every planned run's outcome once the execution completed.
#[derive(Debug)]
pub struct ExecutionOutput {
    report: ExecutionReport,
    outcomes: Option<RunOutcomes>,
}

impl ExecutionOutput {
    /// What the execution did.
    pub fn report(&self) -> &ExecutionReport {
        &self.report
    }

    /// The outcomes of every planned run: `None` when the execution was
    /// cancelled before it completed.
    pub fn outcomes(&self) -> Option<&RunOutcomes> {
        self.outcomes.as_ref()
    }

    /// Consumes the output, returning the outcomes of every planned run.
    ///
    /// # Panics
    ///
    /// Panics when the execution was cancelled before it completed.
    pub fn into_outcomes(self) -> RunOutcomes {
        self.outcomes
            .expect("the execution was cancelled before it completed")
    }
}

/// Mode of an [`Execution`] that keeps results in memory: what
/// [`Execution::new`] builds.
#[derive(Debug)]
pub struct InMemory;

/// Mode of an [`Execution`] that writes every run to an outcome directory,
/// resumes from it, and loads it back once complete: what
/// [`dir`](Execution::dir) builds.
#[derive(Debug)]
pub struct Durable(PathBuf);

/// Mode of an [`Execution`] that runs one `K/N` slice of the matrix into an
/// outcome directory: what [`shard`](Execution::shard) builds.
#[derive(Debug)]
pub struct Sharded(PathBuf, ShardSpec);

/// Mode of an [`Execution`] that drains a shared outcome directory as one
/// work-queue worker: what [`queue`](Execution::queue) builds.
#[derive(Debug)]
pub struct Queued(PathBuf, QueueConfig);

/// Builder for executing a [`RunMatrix`] in mode `M` — see the
/// [module docs](self) for the mode table.
///
/// [`shard`](Execution::shard) and [`queue`](Execution::queue) exist only on
/// a [`Durable`] execution, and neither exists on the other's result; shard
/// and queue runs return a bare [`ExecutionReport`]. So each `compile_fail`
/// block below is a contradiction, and the compiling block after it is the
/// same code with the fix (the two queue contradictions share theirs):
///
/// ```compile_fail,E0599
/// # use shift_sim::{Execution, RunMatrix, ShardSpec};
/// # let matrix = RunMatrix::new();
/// let shard = Execution::new(&matrix).shard(ShardSpec::full());
/// ```
/// ```
/// # use shift_sim::{Execution, RunMatrix, ShardSpec};
/// # let matrix = RunMatrix::new();
/// let shard = Execution::new(&matrix).dir("out").shard(ShardSpec::full());
/// ```
/// ```compile_fail,E0599
/// # use shift_sim::{Execution, QueueConfig, RunMatrix};
/// # let matrix = RunMatrix::new();
/// let worker = Execution::new(&matrix).queue(QueueConfig::new("w"));
/// ```
/// ```compile_fail,E0599
/// # use shift_sim::{Execution, QueueConfig, RunMatrix, ShardSpec};
/// # let matrix = RunMatrix::new();
/// let worker = Execution::new(&matrix).dir("out").shard(ShardSpec::full()).queue(QueueConfig::new("w"));
/// ```
/// ```
/// # use shift_sim::{Execution, QueueConfig, RunMatrix};
/// # let matrix = RunMatrix::new();
/// let worker = Execution::new(&matrix).dir("out").queue(QueueConfig::new("w"));
/// ```
/// ```compile_fail,E0599
/// # use shift_sim::{Execution, RunMatrix, ShardSpec};
/// # let matrix = RunMatrix::new();
/// let outcomes = Execution::new(&matrix).dir("out").shard(ShardSpec::full()).run()?.into_outcomes();
/// # Ok::<(), std::io::Error>(())
/// ```
/// ```no_run
/// # use shift_sim::{Execution, RunMatrix, ShardSpec};
/// # let matrix = RunMatrix::new();
/// let outcomes = Execution::new(&matrix).dir("out").run()?.into_outcomes();
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct Execution<'a, M = InMemory> {
    mode: M,
    settings: Settings<'a>,
}

/// What every mode of an [`Execution`] configures the same way.
struct Settings<'a> {
    matrix: &'a RunMatrix,
    threads: Option<usize>,
    reuse: Option<PartialLoad>,
    observer: Option<&'a dyn RunObserver>,
    cancel: Option<&'a CancelToken>,
    policy: SchedulePolicy,
}

impl<M: std::fmt::Debug> std::fmt::Debug for Execution<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let settings = &self.settings;
        f.debug_struct("Execution")
            .field("planned", &settings.matrix.len())
            .field("mode", &self.mode)
            .field("threads", &settings.threads)
            .field("reuse", &settings.reuse.is_some())
            .field("observer", &settings.observer.is_some())
            .field("cancel", &settings.cancel.is_some())
            .field("policy", &settings.policy)
            .finish()
    }
}

impl<'a> Execution<'a, InMemory> {
    /// Starts building an execution of `matrix`. With no further
    /// configuration, [`run`](Execution::run) executes in memory on the
    /// default worker pool.
    pub fn new(matrix: &'a RunMatrix) -> Self {
        Execution {
            mode: InMemory,
            settings: Settings {
                matrix,
                threads: None,
                reuse: None,
                observer: None,
                cancel: None,
                policy: SchedulePolicy::default(),
            },
        }
    }

    /// Persists outcomes under `dir`: a durable execution of every run,
    /// written as keyed outcome files, resumable, and loaded back once
    /// complete. [`shard`](Execution::shard) and
    /// [`queue`](Execution::queue) narrow it further.
    #[must_use]
    pub fn dir(self, dir: impl Into<PathBuf>) -> Execution<'a, Durable> {
        Execution {
            mode: Durable(dir.into()),
            settings: self.settings,
        }
    }

    /// Drains every run in memory and returns the report plus, once
    /// complete, the outcomes. Nothing touches the filesystem, so this
    /// never returns an error.
    pub fn run(self) -> io::Result<ExecutionOutput> {
        let matrix = self.settings.matrix;
        let (report, memory) = self.settings.drain(None, None, None)?;
        let outcomes = report.complete.then(|| {
            RunOutcomes::from_results(
                matrix.local_id(),
                memory
                    .into_iter()
                    .map(|result| result.expect("a complete drain holds every result"))
                    .collect(),
            )
        });
        Ok(ExecutionOutput { report, outcomes })
    }
}

impl<'a> Execution<'a, Durable> {
    /// Executes only this shard's slice of the matrix, into the directory.
    #[must_use]
    pub fn shard(self, spec: ShardSpec) -> Execution<'a, Sharded> {
        Execution {
            mode: Sharded(self.mode.0, spec),
            settings: self.settings,
        }
    }

    /// Drains the matrix through the elastic work queue in the directory,
    /// as the worker described by `config`.
    #[must_use]
    pub fn queue(self, config: QueueConfig) -> Execution<'a, Queued> {
        Execution {
            mode: Queued(self.mode.0, config),
            settings: self.settings,
        }
    }

    /// Drains every run into the directory and returns the report plus,
    /// once complete, the outcomes loaded back through the strict merge.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors: creating the outcome directory,
    /// writing outcome files, loading them back.
    pub fn run(self) -> io::Result<ExecutionOutput> {
        let matrix = self.settings.matrix;
        let Durable(dir) = self.mode;
        let (report, _) = self.settings.drain(Some(&dir), None, None)?;
        let outcomes = if report.complete {
            Some(
                RunStore::new([&dir])
                    .load(matrix)
                    .map_err(|e| io::Error::other(format!("re-loading executed outcomes: {e}")))?,
            )
        } else {
            None
        };
        Ok(ExecutionOutput { report, outcomes })
    }
}

impl Execution<'_, Sharded> {
    /// Drains the shard's slice into the directory. The outcomes stay
    /// there for a later [`RunStore`] merge.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors: creating the outcome directory,
    /// writing outcome files.
    pub fn run(self) -> io::Result<ExecutionReport> {
        let Sharded(dir, spec) = self.mode;
        Ok(self.settings.drain(Some(&dir), Some(spec), None)?.0)
    }
}

impl Execution<'_, Queued> {
    /// Claims and runs what no live peer holds, waiting on their claims
    /// unless the config says otherwise. The outcomes stay in the shared
    /// directory for a later [`RunStore`] merge.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors: creating the outcome directory,
    /// writing outcome or lock files.
    pub fn run(self) -> io::Result<ExecutionReport> {
        let Queued(dir, config) = self.mode;
        Ok(self.settings.drain(Some(&dir), None, Some(&config))?.0)
    }
}

impl<'a, M> Execution<'a, M> {
    /// Uses exactly `n` worker threads (default: [`default_threads`]).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.settings.threads = Some(n);
        self
    }

    /// Executes on the calling thread only — shorthand for `.threads(1)`.
    #[must_use]
    pub fn serial(self) -> Self {
        self.threads(1)
    }

    /// Reuses the cache hits of a [`RunStore::load_partial`] probe, so only
    /// the delta executes: in memory they are spliced in; in a directory
    /// they are first seeded into it for the owned runs only (a `K/N` shard
    /// seeds its own slice, keeping shard directories disjoint).
    ///
    /// `run` panics if `partial` was probed against a different matrix.
    #[must_use]
    pub fn reuse(mut self, partial: PartialLoad) -> Self {
        self.settings.reuse = Some(partial);
        self
    }

    /// Streams every [`RunEvent`] of the execution to `observer`.
    #[must_use]
    pub fn observer(mut self, observer: &'a dyn RunObserver) -> Self {
        self.settings.observer = Some(observer);
        self
    }

    /// Makes the execution cancellable through `token`: once cancelled, the
    /// runs in flight finish and are stored, nothing more is claimed, and
    /// the report says `complete: false`.
    #[must_use]
    pub fn cancel(mut self, token: &'a CancelToken) -> Self {
        self.settings.cancel = Some(token);
        self
    }

    /// Sets the scheduling policy: the order in which the owned runs are
    /// claimed (default: the stable canonical order). Results never depend
    /// on it.
    #[must_use]
    pub fn policy(mut self, policy: SchedulePolicy) -> Self {
        self.settings.policy = policy;
        self
    }
}

impl Settings<'_> {
    /// Drains the owned runs (see the [module docs](self)) into `dir`, or
    /// in memory, and returns the report and the in-memory results.
    fn drain(
        self,
        dir: Option<&Path>,
        shard: Option<ShardSpec>,
        queue: Option<&QueueConfig>,
    ) -> io::Result<(ExecutionReport, Vec<Option<RunResult>>)> {
        let matrix = self.matrix;
        let threads = self.threads.unwrap_or_else(default_threads);
        let policy = self.policy;

        // Which slots: the policy's order over the whole matrix — a pure
        // function of the plan, so every worker computes the same ranking —
        // cut to the shard's slice, which is always chosen by canonical rank
        // so that every shard agrees on it.
        let canonical = matrix.canonical_order();
        let order = match policy {
            SchedulePolicy::Canonical => canonical.clone(),
            SchedulePolicy::CostOrdered => rank_by_cost(matrix),
        };
        let mut ranks = vec![0; matrix.len()];
        for (rank, &slot) in order.iter().enumerate() {
            ranks[slot] = rank;
        }
        let owned: Vec<usize> = match shard {
            None => order,
            Some(spec) => {
                let mut mine = vec![false; matrix.len()];
                for (rank, &slot) in canonical.iter().enumerate() {
                    mine[slot] = spec.selects(rank);
                }
                order.into_iter().filter(|&slot| mine[slot]).collect()
            }
        };

        // The reuse pre-pass: hits count as already done in the drain.
        let index = PlanIndex::new(matrix);
        let mut memory: Vec<Option<RunResult>> = vec![None; matrix.len()];
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir)?;
        }
        if let Some(partial) = self.reuse {
            match dir {
                Some(dir) => seed_outcome_slots(&index, &partial, dir, &owned)?,
                None => memory = partial.into_results(matrix),
            }
        }

        let noop = |_: RunEvent| {};
        let uncancelled = CancelToken::new();
        let drain = Drain {
            matrix,
            fingerprint: matrix.fingerprint(),
            index,
            dir,
            queue,
            observer: self.observer.unwrap_or(&noop),
            costs: matrix.keys().iter().map(RunCost::of).collect(),
            ranks,
            rate: AtomicU64::new(queue.and_then(|config| config.initial_rate).unwrap_or(0)),
            reclaims: AtomicUsize::new(0),
        };
        let cancel = self.cancel.unwrap_or(&uncancelled);
        let failed = AtomicBool::new(false);
        // Completion is monotonic (a valid outcome never becomes invalid),
        // so later passes skip slots already proven done instead of
        // re-reading their outcome files every poll tick.
        let mut done = vec![false; matrix.len()];
        let mut report = ExecutionReport {
            planned: owned.len(),
            sources: OutcomeSources::default(),
            passes: 0,
            complete: false,
        };
        while !cancel.is_cancelled() {
            let mut candidates: Vec<usize> =
                owned.iter().copied().filter(|&slot| !done[slot]).collect();
            if candidates.is_empty() {
                report.complete = true;
                break;
            }
            report.passes += 1;
            // Slowness deferral: once a queue worker has a measured rate,
            // runs it would hold for longer than the cutoff move to the back
            // of *its* claim order — fast contenders pick them up first, but
            // nothing is skipped, so a lone slow worker still completes.
            if let (Some(config), Some(rate), SchedulePolicy::CostOrdered) =
                (queue, drain.current_rate(), policy)
            {
                candidates.sort_by_key(|&slot| {
                    drain.costs[slot]
                        .duration_at(rate)
                        .is_some_and(|d| d > config.slow_cutoff)
                });
            }
            let visits = parallel_map_with_threads(&candidates, threads, |&slot| {
                if cancel.is_cancelled() || failed.load(Ordering::Relaxed) {
                    return Ok(Visit::Skipped);
                }
                let visit = drain.visit(slot, &memory);
                failed.fetch_or(visit.is_err(), Ordering::Relaxed);
                visit
            });
            let executed_before = report.sources.executed;
            let mut blocked = false;
            for (&slot, visit) in candidates.iter().zip(visits) {
                match visit? {
                    Visit::Executed { result } => {
                        done[slot] = true;
                        memory[slot] = result.map(|result| *result);
                        report.sources.executed += 1;
                    }
                    Visit::AlreadyDone => {
                        done[slot] = true;
                        report.sources.reused += 1;
                    }
                    Visit::Blocked => blocked = true,
                    Visit::Skipped => {}
                }
            }
            if blocked && report.sources.executed == executed_before && !cancel.is_cancelled() {
                // Everything left is claimed by other live workers: wait for
                // them (their completion or their locks going stale both
                // unblock the next pass), or hand the tally back.
                match queue {
                    Some(config) if config.wait => std::thread::sleep(config.poll),
                    _ => break,
                }
            }
        }

        report.sources.reclaimed = drain.reclaims.load(Ordering::Relaxed);
        Ok((report, memory))
    }
}

/// What one slot's visit in a pass came to.
enum Visit {
    /// Claimed and simulated here. `result` is kept only when results stay
    /// in memory.
    Executed { result: Option<Box<RunResult>> },
    /// A result already existed.
    AlreadyDone,
    /// Another live queue worker holds the claim.
    Blocked,
    /// Not visited: the execution was cancelled, or another visit failed.
    Skipped,
}

/// Everything the slot visits of one execution share: the plan, where
/// results go, the queue worker when claims take locks, the scheduler
/// state, and the observer.
struct Drain<'a> {
    matrix: &'a RunMatrix,
    fingerprint: MatrixFingerprint,
    /// The plan, indexed for the done check.
    index: PlanIndex<'a>,
    /// The outcome directory; `None` keeps results in memory.
    dir: Option<&'a Path>,
    /// The queue worker, when claims go through `O_EXCL` lock files.
    queue: Option<&'a QueueConfig>,
    observer: &'a dyn RunObserver,
    /// Per-slot estimated cost under the active model (plan order).
    costs: Vec<RunCost>,
    /// Per-slot rank in the full-matrix order of the active policy.
    ranks: Vec<usize>,
    /// The measured drain rate in weighted fetch units per second (0 =
    /// unknown), shared with every worker thread.
    rate: AtomicU64,
    /// Stale claims taken over, counted where the reclaim happens: the
    /// reclaiming visit may then lose the run to a peer's fresh claim.
    reclaims: AtomicUsize,
}

impl Drain<'_> {
    /// The current drain rate, `None` while still unmeasured.
    fn current_rate(&self) -> Option<u64> {
        let rate = self.rate.load(Ordering::Relaxed);
        (rate > 0).then_some(rate)
    }

    /// Folds one completed run into the measured rate: the first sample is
    /// taken as-is, later samples are blended half-and-half with the running
    /// estimate so the rate tracks drift without whiplashing on one outlier
    /// run.
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

    /// Visits plan-order `slot`: done already, or claim it, run it, and
    /// store the result — handed back when results stay in memory
    /// (`memory` holds the ones already there), written to the outcome
    /// directory otherwise.
    fn visit(&self, slot: usize, memory: &[Option<RunResult>]) -> io::Result<Visit> {
        let key = &self.matrix.keys()[slot];
        let key_id = self.matrix.key_ids()[slot];
        let is_done = || match self.dir {
            None => memory[slot].is_some(),
            Some(dir) => self.index.is_done(dir, slot),
        };
        // Only queue workers take locks (see `claim_lock`). A taken lock goes
        // round once more, so the outcome is re-checked before running:
        // another worker may have finished between the check and the claim.
        let mut lock: Option<PathBuf> = None;
        loop {
            if is_done() {
                if let Some(lock) = &lock {
                    let _ = std::fs::remove_file(lock);
                }
                self.observer.on_event(RunEvent::AlreadyDone { key_id });
                return Ok(Visit::AlreadyDone);
            }
            let (Some(dir), Some(config), None) = (self.dir, self.queue, &lock) else {
                break;
            };
            match claim_lock(dir, key_id, config)? {
                LockClaim::Taken(path) => lock = Some(path),
                LockClaim::Held => return Ok(Visit::Blocked),
                LockClaim::Reclaimed => {
                    self.reclaims.fetch_add(1, Ordering::Relaxed);
                    self.observer.on_event(RunEvent::Reclaimed { key_id });
                }
                LockClaim::Retry => {}
            }
        }

        let cost = self.costs[slot];
        self.observer.on_event(RunEvent::Claimed {
            key_id,
            cost,
            rank: self.ranks[slot],
            worker_rate: self.current_rate(),
        });
        // Keep the claim visibly alive for the whole simulation, so the TTL
        // can be far shorter than the longest run.
        let heartbeat = lock.as_ref().zip(self.queue).map(|(path, config)| {
            LockHeartbeat::spawn(path.clone(), key_id, config.worker.clone(), config.poll)
        });
        let started = Instant::now();
        let result = key.run();
        if let Some(config) = self.queue.filter(|config| config.throttle_ns_per_unit > 0) {
            // Emulated slow host: sleep in proportion to the run's cost, with
            // the heartbeat still stamping the claim so it never looks
            // abandoned.
            std::thread::sleep(Duration::from_nanos(
                cost.units().saturating_mul(config.throttle_ns_per_unit),
            ));
        }
        self.record_rate(cost, started.elapsed());
        drop(heartbeat);
        let kept = match self.dir {
            None => Some(Box::new(result)),
            Some(dir) => {
                let written = write_outcome(dir, self.fingerprint, key, &result);
                if let Some(lock) = &lock {
                    let _ = std::fs::remove_file(lock);
                }
                written.map_err(|e| {
                    io::Error::other(format!(
                        "failed to write outcome {key_id} under {}: {e}",
                        dir.display()
                    ))
                })?;
                None
            }
        };
        self.observer.on_event(RunEvent::Executed { key_id });
        Ok(Visit::Executed { result: kept })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetcherConfig;
    use shift_trace::{presets, Scale};

    fn small_matrix() -> RunMatrix {
        let mut matrix = RunMatrix::new();
        let w = presets::tiny();
        for seed in [11u64, 12] {
            matrix.standalone(&w, PrefetcherConfig::None, 2, Scale::Test, seed);
        }
        matrix
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("shift-execution-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_memory_mode_returns_outcomes_and_full_report() {
        let matrix = small_matrix();
        let output = Execution::new(&matrix).serial().run().unwrap();
        assert_eq!(output.report().planned, matrix.len());
        assert_eq!(output.report().sources.executed, matrix.len());
        assert!(output.report().complete);
        assert_eq!(output.into_outcomes().len(), matrix.len());
    }

    #[test]
    fn cost_ordered_in_memory_is_bit_identical_to_canonical() {
        let matrix = small_matrix();
        let canonical = Execution::new(&matrix)
            .serial()
            .run()
            .unwrap()
            .into_outcomes();
        let ordered = Execution::new(&matrix)
            .serial()
            .policy(SchedulePolicy::CostOrdered)
            .run()
            .unwrap()
            .into_outcomes();
        assert_eq!(format!("{canonical:?}"), format!("{ordered:?}"));
    }

    #[test]
    fn dir_mode_persists_and_returns_outcomes() {
        let matrix = small_matrix();
        let dir = temp_dir("durable");
        let output = Execution::new(&matrix).serial().dir(&dir).run().unwrap();
        assert_eq!(output.report().sources.executed, matrix.len());
        assert!(output.outcomes().is_some());
        // Durable: a second execution resumes everything from disk.
        let again = Execution::new(&matrix).serial().dir(&dir).run().unwrap();
        assert_eq!(again.report().sources.executed, 0);
        assert_eq!(again.report().sources.reused, matrix.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_mode_reports_slice_and_withholds_outcomes() {
        let matrix = small_matrix();
        let dir = temp_dir("shard");
        let report = Execution::new(&matrix)
            .serial()
            .dir(&dir)
            .shard(ShardSpec::new(1, 2))
            .run()
            .unwrap();
        assert!(report.planned < matrix.len() || matrix.len() < 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
