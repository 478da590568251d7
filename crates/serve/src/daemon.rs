//! The resident scheduler: a job registry keyed by matrix fingerprint and
//! one scheduler thread draining submissions onto the queue-worker pool.
//!
//! # Exactly-once across overlapping submissions
//!
//! Every accepted plan becomes a [`Job`] keyed by its
//! [`MatrixFingerprint`](shift_sim::MatrixFingerprint); identical resubmissions collapse onto the same
//! job in the registry (a completed job answers instantly from its cached
//! wire bundle, without touching the store). *Distinct but overlapping*
//! plans are serialized through one scheduler thread, and each job probes
//! every earlier sweep's outcome directory
//! ([`RunStore::load_partial`](shift_sim::store::RunStore::load_partial)) before executing: runs shared with any
//! previous sweep are seeded as cache hits and only the delta is simulated.
//! Serial scheduling + cross-sweep reuse is what gives the serving layer
//! its headline property — across any set of concurrent submissions, each
//! distinct run key simulates exactly once.
//!
//! # Layout
//!
//! Outcomes live under `<root>/sweeps/<fingerprint>/`, one directory per
//! distinct plan, each internally identical to a `reproduce --outcomes`
//! directory — so the operator tooling from `docs/OPERATIONS.md` (strict
//! merges, stale-claim inspection) applies unchanged, and a daemon restart
//! over a warm root re-validates outcomes through the exact
//! `RESULTS_VERSION`-checking store path the batch pipeline uses.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use serde::{json, Serialize, Value};
use shift_bench::reproduce::{PaperPlan, PlanSpec};
use shift_report::wire_bundle_json;
use shift_sim::{CancelToken, Execution, ExecutionReport, QueueConfig, RunEvent, RunStore};

/// Everything that parameterizes a daemon instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Root directory: outcome stores live under `<root>/sweeps/`.
    pub root: PathBuf,
    /// Worker threads per sweep drain.
    pub threads: usize,
    /// Queue poll interval (claim heartbeat cadence for long runs).
    pub poll: Duration,
    /// Maximum accepted request-body size in bytes.
    pub max_body: usize,
}

impl ServeConfig {
    /// Defaults: 2 drain threads, 200 ms poll, 1 MiB body limit.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServeConfig {
            root: root.into(),
            threads: 2,
            poll: Duration::from_millis(200),
            max_body: 1 << 20,
        }
    }

    /// The directory holding one sweep's outcome files.
    pub fn sweep_dir(&self, id: &str) -> PathBuf {
        self.root.join("sweeps").join(id)
    }
}

/// Lifecycle of a submitted sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for the scheduler.
    Queued,
    /// Currently draining on the worker pool.
    Running,
    /// Finished; bundle and scoreboard are cached.
    Complete,
    /// Aborted with an error message.
    Failed(String),
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobStatus::Queued => write!(f, "queued"),
            JobStatus::Running => write!(f, "running"),
            JobStatus::Complete => write!(f, "complete"),
            JobStatus::Failed(_) => write!(f, "failed"),
        }
    }
}

/// Mutable per-job state, guarded by the job's mutex.
#[derive(Debug)]
pub struct JobState {
    /// Where the job is in its lifecycle.
    pub status: JobStatus,
    /// Distinct runs the plan needs.
    pub planned: usize,
    /// The drain's [`ExecutionReport`], once the sweep has run: where every
    /// outcome came from (executed / reused / reclaimed) and how many queue
    /// passes the drain took.
    pub report: Option<ExecutionReport>,
    /// NDJSON progress events, in emission order.
    pub events: Vec<String>,
    /// The cached wire bundle (`shift_report::wire_bundle_json`).
    pub bundle: Option<Arc<String>>,
    /// The cached markdown scoreboard.
    pub scoreboard: Option<Arc<String>>,
}

/// One accepted sweep: the resolved plan plus its observable state.
#[derive(Debug)]
pub struct Job {
    /// The job id: the plan's matrix fingerprint (16 hex digits).
    pub id: String,
    /// The submission, as resolved.
    pub spec: PlanSpec,
    plan: Mutex<Option<PaperPlan>>,
    state: Mutex<JobState>,
    cond: Condvar,
}

impl Job {
    /// Runs `f` under the state lock.
    pub fn with_state<T>(&self, f: impl FnOnce(&JobState) -> T) -> T {
        f(&self.state.lock().expect("job state poisoned"))
    }

    /// Blocks until the job is [`JobStatus::Complete`] or
    /// [`JobStatus::Failed`], returning the final status.
    pub fn wait(&self) -> JobStatus {
        let mut state = self.state.lock().expect("job state poisoned");
        loop {
            match &state.status {
                JobStatus::Complete | JobStatus::Failed(_) => return state.status.clone(),
                _ => state = self.cond.wait(state).expect("job state poisoned"),
            }
        }
    }

    /// Blocks until either more events than `cursor` exist or the job
    /// reached a terminal status; returns the new events past `cursor` and
    /// whether the job is finished.
    pub fn wait_events(&self, cursor: usize) -> (Vec<String>, bool) {
        let mut state = self.state.lock().expect("job state poisoned");
        loop {
            let finished = matches!(state.status, JobStatus::Complete | JobStatus::Failed(_));
            if state.events.len() > cursor || finished {
                return (
                    state.events[cursor.min(state.events.len())..].to_vec(),
                    finished,
                );
            }
            state = self.cond.wait(state).expect("job state poisoned");
        }
    }

    fn push_event(&self, line: String) {
        let mut state = self.state.lock().expect("job state poisoned");
        state.events.push(line);
        self.cond.notify_all();
    }

    /// The status summary document served for this job.
    pub fn summary(&self, cached: bool) -> String {
        let state = self.state.lock().expect("job state poisoned");
        let sources = state.report.map(|r| r.sources).unwrap_or_default();
        let mut fields = vec![
            ("id".to_owned(), Value::Str(self.id.clone())),
            ("status".to_owned(), Value::Str(state.status.to_string())),
            ("planned".to_owned(), Value::UInt(state.planned as u64)),
            ("executed".to_owned(), Value::UInt(sources.executed as u64)),
            ("reused".to_owned(), Value::UInt(sources.reused as u64)),
            (
                "reclaimed".to_owned(),
                Value::UInt(sources.reclaimed as u64),
            ),
            ("cached".to_owned(), Value::Bool(cached)),
        ];
        if let Some(report) = &state.report {
            fields.push(("report".to_owned(), report.to_value()));
        }
        if let JobStatus::Failed(msg) = &state.status {
            fields.push(("error".to_owned(), Value::Str(msg.clone())));
        }
        json::to_string(&Value::Map(fields))
    }
}

/// What [`Daemon::submit`] decided about a submission.
#[derive(Debug)]
pub struct Submission {
    /// The (possibly pre-existing) job this submission maps to.
    pub job: Arc<Job>,
    /// `true` when an identical plan had already completed before this
    /// submission arrived — the response is a pure cache replay.
    pub cached: bool,
}

/// The resident scheduler: registry, submission queue, and drain state.
pub struct Daemon {
    config: ServeConfig,
    registry: Mutex<HashMap<String, Arc<Job>>>,
    queue: Mutex<Option<mpsc::Sender<Arc<Job>>>>,
    queued: AtomicUsize,
    busy: AtomicBool,
    draining: AtomicBool,
    cancel: CancelToken,
    scheduler: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl fmt::Debug for Daemon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Daemon")
            .field("root", &self.config.root)
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Creates the root layout and starts the scheduler thread.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating `<root>/sweeps`.
    pub fn start(config: ServeConfig) -> io::Result<Arc<Daemon>> {
        fs::create_dir_all(config.root.join("sweeps"))?;
        let (tx, rx) = mpsc::channel::<Arc<Job>>();
        let daemon = Arc::new(Daemon {
            config,
            registry: Mutex::new(HashMap::new()),
            queue: Mutex::new(Some(tx)),
            queued: AtomicUsize::new(0),
            busy: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            cancel: CancelToken::new(),
            scheduler: Mutex::new(None),
        });
        let worker = Arc::clone(&daemon);
        let handle = std::thread::spawn(move || {
            while let Ok(job) = rx.recv() {
                worker.queued.fetch_sub(1, Ordering::Relaxed);
                worker.busy.store(true, Ordering::Relaxed);
                let result = worker.run_job(&job);
                worker.busy.store(false, Ordering::Relaxed);
                let mut state = job.state.lock().expect("job state poisoned");
                state.status = match result {
                    Ok(()) => JobStatus::Complete,
                    Err(msg) => JobStatus::Failed(msg),
                };
                drop(state);
                job.cond.notify_all();
            }
        });
        *daemon.scheduler.lock().expect("scheduler slot poisoned") = Some(handle);
        Ok(daemon)
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// `true` once [`drain`](Daemon::drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Parses, resolves, and registers a submission body.
    ///
    /// Identical plans (same matrix fingerprint) collapse onto one job; a
    /// draining daemon rejects plans that would need *new* scheduling but
    /// still answers ones that already completed.
    ///
    /// # Errors
    ///
    /// [`crate::protocol::ApiError::BadJson`] /
    /// [`BadPlan`](crate::protocol::ApiError::BadPlan) for unusable bodies,
    /// [`Draining`](crate::protocol::ApiError::Draining) when new work is
    /// refused.
    pub fn submit(&self, body: &str) -> Result<Submission, crate::protocol::ApiError> {
        use crate::protocol::ApiError;

        let spec: PlanSpec = json::from_str(body).map_err(|e| ApiError::BadJson(e.to_string()))?;
        let settings = spec
            .resolve()
            .map_err(|e| ApiError::BadPlan(e.to_string()))?;
        let plan = PaperPlan::plan(settings);
        let id = plan.matrix().fingerprint().to_string();

        let mut registry = self.registry.lock().expect("registry poisoned");
        if let Some(job) = registry.get(&id) {
            let cached = job.with_state(|s| s.status == JobStatus::Complete);
            return Ok(Submission {
                job: Arc::clone(job),
                cached,
            });
        }
        if self.is_draining() {
            return Err(ApiError::Draining);
        }
        let job = Arc::new(Job {
            id: id.clone(),
            spec,
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                planned: plan.run_count(),
                report: None,
                events: Vec::new(),
                bundle: None,
                scoreboard: None,
            }),
            plan: Mutex::new(Some(plan)),
            cond: Condvar::new(),
        });
        registry.insert(id, Arc::clone(&job));
        // Holding the registry lock across the send keeps submit/drain
        // atomic: a job is either registered *and* queued, or neither.
        let queue = self.queue.lock().expect("queue poisoned");
        match queue.as_ref() {
            Some(tx) => {
                self.queued.fetch_add(1, Ordering::Relaxed);
                tx.send(Arc::clone(&job)).expect("scheduler alive");
            }
            None => return Err(ApiError::Draining),
        }
        Ok(Submission { job, cached: false })
    }

    /// Looks up a job by its fingerprint id.
    pub fn job(&self, id: &str) -> Option<Arc<Job>> {
        self.registry
            .lock()
            .expect("registry poisoned")
            .get(id)
            .cloned()
    }

    /// The `/v1/status` document: job counts and drain state.
    pub fn status_json(&self) -> String {
        let jobs = self.registry.lock().expect("registry poisoned").len();
        json::to_string(&Value::Map(vec![
            ("jobs".to_owned(), Value::UInt(jobs as u64)),
            (
                "queued".to_owned(),
                Value::UInt(self.queued.load(Ordering::Relaxed) as u64),
            ),
            (
                "busy".to_owned(),
                Value::Bool(self.busy.load(Ordering::Relaxed)),
            ),
            ("draining".to_owned(), Value::Bool(self.is_draining())),
        ]))
    }

    /// Stops accepting new plans and lets already-queued jobs finish; the
    /// scheduler thread exits once the queue is empty. Idempotent.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
        // Dropping the sender ends the scheduler's recv loop after the
        // in-flight jobs drain.
        self.queue.lock().expect("queue poisoned").take();
    }

    /// [`drain`](Daemon::drain), then blocks until the scheduler thread has
    /// exited (every queued job reached a terminal state).
    pub fn drain_and_join(&self) {
        self.drain();
        if let Some(handle) = self
            .scheduler
            .lock()
            .expect("scheduler slot poisoned")
            .take()
        {
            let _ = handle.join();
        }
    }

    /// Existing sweep directories under the root, sorted for determinism.
    fn sweep_dirs(&self) -> io::Result<Vec<PathBuf>> {
        let mut dirs = Vec::new();
        for entry in fs::read_dir(self.config.root.join("sweeps"))? {
            let path = entry?.path();
            if path.is_dir() {
                dirs.push(path);
            }
        }
        dirs.sort();
        Ok(dirs)
    }

    /// Executes one job end to end; called only from the scheduler thread,
    /// which serializes all sweeps (the exactly-once argument).
    fn run_job(&self, job: &Job) -> Result<(), String> {
        {
            let mut state = job.state.lock().expect("job state poisoned");
            state.status = JobStatus::Running;
            job.cond.notify_all();
        }
        let plan = job
            .plan
            .lock()
            .expect("plan slot poisoned")
            .take()
            .expect("a job is scheduled exactly once");
        let dir = self.config.sweep_dir(&job.id);
        fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

        // Cross-sweep reuse: probe every sweep directory (including our
        // own — a restart or a killed worker leaves partial outcomes there);
        // the execution seeds the hits under this plan's fingerprint. Stale
        // RESULTS_VERSION outcomes are skipped by the probe, so they are
        // re-executed, never served.
        let probe = RunStore::new(self.sweep_dirs().map_err(|e| e.to_string())?);
        let partial = probe
            .load_partial(plan.matrix())
            .map_err(|e| e.to_string())?;
        job.push_event(json::to_string(&Value::Map(vec![
            ("event".to_owned(), Value::Str("seeded".to_owned())),
            ("reused".to_owned(), Value::UInt(partial.reused as u64)),
        ])));

        // The scheduler decision log: `claimed` events carry the cost rank
        // and the worker's measured rate so the NDJSON stream explains *why*
        // each claim happened in that order.
        let observer = |event: RunEvent| {
            let mut fields = vec![(
                "event".to_owned(),
                Value::Str(
                    match event {
                        RunEvent::Claimed { .. } => "claimed",
                        RunEvent::Executed { .. } => "executed",
                        RunEvent::AlreadyDone { .. } => "already_done",
                        RunEvent::Reclaimed { .. } => "reclaimed",
                    }
                    .to_owned(),
                ),
            )];
            fields.push(("run".to_owned(), Value::Str(event.key_id().to_string())));
            if let RunEvent::Claimed {
                cost,
                rank,
                worker_rate,
                ..
            } = event
            {
                fields.push(("cost".to_owned(), Value::UInt(cost.units())));
                fields.push(("rank".to_owned(), Value::UInt(rank as u64)));
                if let Some(rate) = worker_rate {
                    fields.push(("worker_rate".to_owned(), Value::UInt(rate)));
                }
            }
            job.push_event(json::to_string(&Value::Map(fields)));
        };
        let mut queue_config = QueueConfig::new(format!("serve-{}", std::process::id()));
        queue_config.poll = self.config.poll;
        let report = Execution::new(plan.matrix())
            .dir(&dir)
            .queue(queue_config)
            .reuse(partial)
            .threads(self.config.threads)
            .observer(&observer)
            .cancel(&self.cancel)
            .run()
            .map_err(|e| e.to_string())?;
        if !report.complete {
            return Err("drain cancelled before the sweep completed".to_owned());
        }

        let outcomes = RunStore::new([&dir])
            .load(plan.matrix())
            .map_err(|e| e.to_string())?;
        let planned = plan.run_count();
        let paper_report = plan.collect(&outcomes);
        let bundle = Arc::new(wire_bundle_json(paper_report.artifacts()));
        let scoreboard = Arc::new(paper_report.scoreboard());

        let mut state = job.state.lock().expect("job state poisoned");
        state.planned = planned;
        state.report = Some(report);
        state.bundle = Some(bundle);
        state.scoreboard = Some(scoreboard);
        drop(state);
        job.push_event(json::to_string(&Value::Map(vec![
            ("event".to_owned(), Value::Str("complete".to_owned())),
            (
                "executed".to_owned(),
                Value::UInt(report.sources.executed as u64),
            ),
        ])));
        Ok(())
    }
}
