//! The resident scheduler: a job registry keyed by matrix fingerprint and
//! one run lock that lets a single sweep execute at a time.
//!
//! # Exactly-once across overlapping submissions
//!
//! Every accepted plan becomes a [`Job`] keyed by its
//! [`MatrixFingerprint`](shift_sim::MatrixFingerprint); identical resubmissions collapse onto the same
//! job in the registry (a completed job answers instantly from its cached
//! wire bundle, without touching the store). *Distinct but overlapping*
//! plans are serialized by the run lock, which the submitting thread holds
//! while it drains its plan, and each job probes
//! every earlier sweep's outcome directory
//! ([`RunStore::load_partial`](shift_sim::store::RunStore::load_partial)) before executing: runs shared with any
//! previous sweep are seeded as cache hits and only the delta is simulated.
//! One sweep at a time + cross-sweep reuse is what gives the serving layer
//! its headline property — across any set of concurrent submissions, each
//! distinct run key simulates exactly once.
//!
//! # Layout
//!
//! Outcomes live under `<root>/sweeps/<fingerprint>/`, one directory per
//! distinct plan, written only by the daemon, each internally identical to
//! a `reproduce --outcomes` directory — so the operator tooling from
//! `docs/OPERATIONS.md` (strict merges) applies unchanged, and a daemon
//! restart over a warm root re-validates outcomes through the exact
//! `RESULTS_VERSION`-checking store path the batch pipeline uses. A sweep
//! is a durable execution, which takes no claim locks: a restarted daemon
//! resumes from the valid outcomes it finds and re-executes the rest,
//! whatever a killed process left in the directory.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use serde::{json, Serialize, Value};
use shift_bench::reproduce::{PaperPlan, PlanSpec};
use shift_report::wire_bundle_json;
use shift_sim::{Execution, ExecutionReport, RunEvent, RunStore};

/// Everything that parameterizes a daemon instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Root directory: outcome stores live under `<root>/sweeps/`.
    pub root: PathBuf,
    /// Worker threads per sweep drain.
    pub threads: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body: usize,
}

impl ServeConfig {
    /// Defaults: 2 drain threads, 1 MiB body limit.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServeConfig {
            root: root.into(),
            threads: 2,
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
    /// Accepted, waiting for the run lock.
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
    /// outcome came from (executed / reused / reclaimed) and how many
    /// passes the drain took.
    pub report: Option<ExecutionReport>,
    /// NDJSON progress events, in emission order.
    pub events: Vec<String>,
    /// The cached wire bundle (`shift_report::wire_bundle_json`).
    pub bundle: Option<Arc<String>>,
    /// The cached markdown scoreboard.
    pub scoreboard: Option<Arc<String>>,
}

/// One accepted sweep and its observable state.
#[derive(Debug)]
pub struct Job {
    /// The job id: the plan's matrix fingerprint (16 hex digits).
    pub id: String,
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

    fn set_status(&self, status: JobStatus) {
        self.state.lock().expect("job state poisoned").status = status;
        self.cond.notify_all();
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

/// The resident scheduler: registry, run lock, and drain state.
pub struct Daemon {
    config: ServeConfig,
    registry: Mutex<HashMap<String, Arc<Job>>>,
    /// Held by the sweep that is executing, so sweeps run one at a time.
    run: Mutex<()>,
    draining: AtomicBool,
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
    /// Creates the root layout.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating `<root>/sweeps`.
    pub fn start(config: ServeConfig) -> io::Result<Arc<Daemon>> {
        fs::create_dir_all(config.root.join("sweeps"))?;
        Ok(Arc::new(Daemon {
            config,
            registry: Mutex::new(HashMap::new()),
            run: Mutex::new(()),
            draining: AtomicBool::new(false),
        }))
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// `true` once [`drain`](Daemon::drain) has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Parses, resolves, and registers a submission body; a new plan is
    /// then drained on the calling thread once no other sweep is executing.
    ///
    /// Identical plans (same matrix fingerprint) collapse onto one job, which
    /// only its first submission executes; a draining daemon rejects plans
    /// that would need *new* scheduling but still answers registered ones.
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
        // Checked under the registry lock, so no job is registered after
        // `drain_and_join` took its list.
        if self.is_draining() {
            return Err(ApiError::Draining);
        }
        let job = Arc::new(Job {
            id: id.clone(),
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                planned: plan.run_count(),
                report: None,
                events: Vec::new(),
                bundle: None,
                scoreboard: None,
            }),
            cond: Condvar::new(),
        });
        registry.insert(id, Arc::clone(&job));
        drop(registry);
        job.set_status(match self.run_job(&job, plan) {
            Ok(()) => JobStatus::Complete,
            Err(msg) => JobStatus::Failed(msg),
        });
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
        let registry = self.registry.lock().expect("registry poisoned");
        let count = |status: JobStatus| {
            registry
                .values()
                .filter(|job| job.with_state(|s| s.status == status))
                .count()
        };
        json::to_string(&Value::Map(vec![
            ("jobs".to_owned(), Value::UInt(registry.len() as u64)),
            (
                "queued".to_owned(),
                Value::UInt(count(JobStatus::Queued) as u64),
            ),
            (
                "busy".to_owned(),
                Value::Bool(count(JobStatus::Running) > 0),
            ),
            ("draining".to_owned(), Value::Bool(self.is_draining())),
        ]))
    }

    /// Stops accepting new plans; registered jobs still finish. Idempotent.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// [`drain`](Daemon::drain), then blocks until every registered job
    /// reached a terminal state.
    pub fn drain_and_join(&self) {
        self.drain();
        let jobs: Vec<Arc<Job>> = self
            .registry
            .lock()
            .expect("registry poisoned")
            .values()
            .cloned()
            .collect();
        for job in jobs {
            job.wait();
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

    /// Executes one job end to end under the run lock, which serializes
    /// all sweeps (the exactly-once argument).
    fn run_job(&self, job: &Job, plan: PaperPlan) -> Result<(), String> {
        // The lock guards no data: a sweep that panicked holding it left
        // nothing to repair.
        let _run = self.run.lock().unwrap_or_else(PoisonError::into_inner);
        job.set_status(JobStatus::Running);
        let dir = self.config.sweep_dir(&job.id);

        // Cross-sweep reuse: probe every sweep directory (including our
        // own — a killed daemon leaves partial outcomes there); the
        // execution seeds the hits under this plan's fingerprint. Stale
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
        // One sweep at a time and one directory per plan: nothing else
        // writes `dir`, so the drain takes no claims. Its strict reload
        // returns the outcomes.
        let output = Execution::new(plan.matrix())
            .dir(&dir)
            .reuse(partial)
            .threads(self.config.threads)
            .observer(&observer)
            .run()
            .map_err(|e| e.to_string())?;
        let report = *output.report();
        let paper_report = plan.collect(&output.into_outcomes());
        let bundle = Arc::new(wire_bundle_json(paper_report.artifacts()));
        let scoreboard = Arc::new(paper_report.scoreboard());

        let mut state = job.state.lock().expect("job state poisoned");
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
