//! Reproduces every figure and table of the paper — in one process, as one
//! stage of a sharded multi-machine sweep, or as one worker of an elastic
//! work queue — optionally reusing outcomes cached by earlier runs.
//!
//! All experiments are planned into a single deduplicated `RunMatrix`
//! (shared baselines simulate once for the whole paper). What happens next
//! depends on the mode:
//!
//! * **Default** — execute in-process and write per-figure artifacts under
//!   `target/artifacts/` (override with `SHIFT_ARTIFACTS`), ending with the
//!   paper-reference scoreboard.
//! * **`--shard K/N --outcomes DIR`** — execute only shard `K` of `N`
//!   (a deterministic slice of the matrix), persisting each completed run as
//!   a keyed JSON outcome file under `DIR`. Already-present outcomes are
//!   skipped, so a killed shard resumes where it stopped. No artifacts are
//!   written; ship `DIR` to the merge host instead.
//! * **`--queue --outcomes DIR`** — run one *work-queue worker*: claim the
//!   next unowned run via an atomic lock file in `DIR` (which must be shared
//!   by all workers — NFS mount, shared volume, one multi-process host),
//!   simulate it, repeat until the whole matrix has outcomes. Heterogeneous
//!   hosts drain one queue at their own pace; a killed worker's claims go
//!   stale after `SHIFT_QUEUE_TTL` seconds (default 3600) and are reclaimed.
//!   The worker only returns success once the sweep is complete.
//! * **`--merge DIR...`** — load outcome files from one or more shard/queue
//!   directories, verify they cover this exact sweep, and derive all
//!   artifacts + scoreboard. Byte-identical to the default mode's output.
//! * **`--outcomes DIR`** alone — execute the full sweep with durable
//!   outcomes in `DIR`, then load it back: a crash-resumable single-host
//!   run.
//!
//! Every execution mode (all but `--merge`) takes the same three extras:
//!
//! * **`--reuse OLD_DIR...`** — outcomes in the old directories whose keys
//!   still exist in the current plan — even if they were executed for a
//!   *different* sweep — are reused instead of re-simulated, so only the
//!   delta of the new plan executes. With `--outcomes DIR`, reusable
//!   outcomes are first *seeded* into `DIR` under the current plan's
//!   fingerprint (a `K/N` shard seeds only its own slice); without it, the
//!   delta executes in memory.
//! * **`--policy cost-ordered`** — claim biggest runs first, in an order
//!   computed from the plan alone, the same on every worker (see
//!   `docs/PERFORMANCE.md`).
//! * **`--decision-log FILE`** — write one NDJSON line per claim — with the
//!   run's estimated cost and its rank in the schedule — plus a final
//!   `drained` line carrying the makespan. A failed write cancels the
//!   execution after the runs in flight and exits 1.
//!
//! All modes read the sweep settings from `SHIFT_SCALE` / `SHIFT_CORES` /
//! `SHIFT_WORKLOADS`; shard, queue, and merge hosts must agree on them (the
//! outcome files carry the planned matrix's fingerprint, so a mismatch is
//! rejected rather than silently merged). See `docs/SWEEP.md` for the
//! pipeline guide and `docs/OPERATIONS.md` for the operator runbook.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use shift_bench::artifacts::artifacts_dir;
use shift_bench::reproduce::{PaperPlan, PaperReport, ReproduceSettings};
use shift_sim::matrix::default_threads;
use shift_sim::{
    CancelToken, Execution, ExecutionReport, QueueConfig, RunEvent, RunStore, SchedulePolicy,
    ShardSpec,
};

/// What the command line asked for.
enum Mode {
    /// Print usage and exit successfully.
    Help,
    /// Execute the plan and collect, or leave the outcomes for a merge.
    Execute(Run),
    /// Merge outcome directories and collect.
    Merge(Vec<PathBuf>),
}

/// One execution of the plan, as the command line configured it.
struct Run {
    target: Target,
    reuse: Vec<PathBuf>,
    policy: SchedulePolicy,
    decision_log: Option<PathBuf>,
}

/// The `--decision-log` writer. The first failed write is kept instead of
/// panicking a worker thread, and it cancels the execution; `reproduce`
/// reports it as an operator error.
struct DecisionLog {
    path: PathBuf,
    out: BufWriter<File>,
    error: Option<io::Error>,
}

impl DecisionLog {
    /// Runs `write` unless an earlier write failed; a failure is kept and
    /// cancels the execution.
    fn write(
        &mut self,
        cancel: &CancelToken,
        write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
    ) {
        if self.error.is_none() {
            if let Err(e) = write(&mut self.out) {
                self.error = Some(e);
                cancel.cancel();
            }
        }
    }

    /// The kept write error, as the message to exit with.
    fn result(&mut self) -> Result<(), String> {
        match self.error.take() {
            Some(e) => Err(format!(
                "cannot write --decision-log {}: {e}",
                self.path.display()
            )),
            None => Ok(()),
        }
    }
}

/// Which runs one execution owns and where their outcomes go.
enum Target {
    /// Every run, in memory.
    InMemory,
    /// Every run, durable in the outcome directory.
    Durable(PathBuf),
    /// One `K/N` slice, into the outcome directory.
    Shard(PathBuf, ShardSpec),
    /// One work-queue worker over the shared outcome directory.
    Queue(PathBuf, QueueConfig),
}

const USAGE: &str = "\
usage: reproduce [--shard K/N --outcomes DIR | --queue --outcomes DIR |
                  --outcomes DIR | --merge DIR...] [--reuse OLD_DIR...]
                 [--policy canonical|cost-ordered] [--decision-log FILE]
  (no flags)                   plan, execute in-process, write artifacts + scoreboard
  --shard K/N --outcomes DIR   execute shard K of N into DIR (resumable)
  --queue --outcomes DIR       one elastic queue worker over shared DIR; returns
                               once the whole sweep has outcomes (SHIFT_QUEUE_TTL
                               seconds until a dead worker's claims are reclaimed)
  --outcomes DIR               full durable run: execute into DIR, then load it back
  --merge DIR...               merge shard outcome dirs, write artifacts + scoreboard
every mode but --merge also takes:
  --reuse OLD_DIR...           reuse cached outcomes whose keys are still planned;
                               only the delta executes
  --policy POLICY              claim order: canonical (default) or cost-ordered
                               (biggest runs first, the same order on every worker)
  --decision-log FILE          write one NDJSON line per claim with cost / rank,
                               and a final `drained` line with the makespan
";

fn parse_args() -> Result<Mode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut shard: Option<ShardSpec> = None;
    let mut queue = false;
    let mut outcomes: Option<PathBuf> = None;
    let mut merge: Vec<PathBuf> = Vec::new();
    let mut reuse: Vec<PathBuf> = Vec::new();
    let mut policy: Option<SchedulePolicy> = None;
    let mut decision_log: Option<PathBuf> = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--shard" => {
                let spec = iter.next().ok_or("--shard needs a K/N argument")?;
                shard = Some(ShardSpec::parse(spec)?);
            }
            "--queue" => queue = true,
            "--outcomes" => {
                let dir = iter.next().ok_or("--outcomes needs a directory")?;
                outcomes = Some(PathBuf::from(dir));
            }
            "--policy" => {
                let name = iter.next().ok_or("--policy needs canonical|cost-ordered")?;
                policy = Some(name.parse::<SchedulePolicy>()?);
            }
            "--decision-log" => {
                let path = iter.next().ok_or("--decision-log needs a file path")?;
                decision_log = Some(PathBuf::from(path));
            }
            "--merge" | "--reuse" => {
                let list = if arg == "--merge" {
                    &mut merge
                } else {
                    &mut reuse
                };
                while let Some(dir) = iter.peek() {
                    if dir.starts_with("--") {
                        break;
                    }
                    list.push(PathBuf::from(iter.next().expect("peeked")));
                }
                if list.is_empty() {
                    return Err(format!("{arg} needs at least one directory"));
                }
            }
            "--help" | "-h" => return Ok(Mode::Help),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !merge.is_empty() && (!reuse.is_empty() || policy.is_some() || decision_log.is_some()) {
        return Err(
            "--reuse, --policy and --decision-log cannot be combined with --merge (a \
             merge never executes; point them at an execution mode instead)"
                .into(),
        );
    }
    let target = match (shard, queue, outcomes) {
        (Some(_), true, _) => return Err("--shard and --queue are mutually exclusive".into()),
        (_, true, None) => return Err("--queue requires --outcomes DIR".into()),
        (Some(_), _, None) => return Err("--shard requires --outcomes DIR".into()),
        (None, false, None) => Target::InMemory,
        (None, false, Some(dir)) => Target::Durable(dir),
        (Some(spec), false, Some(dir)) => Target::Shard(dir, spec),
        (None, true, Some(dir)) => Target::Queue(dir, queue_config_from_env()),
    };
    match (target, merge.is_empty()) {
        (target, true) => Ok(Mode::Execute(Run {
            target,
            reuse,
            policy: policy.unwrap_or_default(),
            decision_log,
        })),
        (Target::InMemory, false) => Ok(Mode::Merge(merge)),
        _ => Err("--merge cannot be combined with --shard/--queue/--outcomes".into()),
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(reproduce) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `mode`; every operator error (bad settings, unreadable outcome
/// directories, unwritable files) comes back as the message to print.
fn reproduce(mode: Mode) -> Result<(), String> {
    if let Mode::Help = mode {
        print!("{USAGE}");
        return Ok(());
    }
    let settings =
        ReproduceSettings::from_env().map_err(|e| format!("invalid sweep settings: {e}"))?;
    let names: Vec<&str> = settings.workloads.iter().map(|w| w.name.as_str()).collect();
    println!("=== SHIFT reproduction harness: reproduce (all figures and tables) ===");
    println!(
        "scale: {:?}, cores: {}, sweep threads: {}, workloads: {}",
        settings.scale,
        settings.cores,
        default_threads(),
        names.join(", ")
    );
    println!();

    let plan = PaperPlan::plan(settings);
    println!(
        "planned {} distinct simulations for the whole paper ({} avoided by cross-figure \
         dedup); matrix fingerprint {}",
        plan.run_count(),
        plan.saved_by_dedup(),
        plan.matrix().fingerprint(),
    );
    println!();

    let Run {
        target,
        reuse,
        policy,
        decision_log,
    } = match mode {
        Mode::Help => unreachable!("handled before planning"),
        Mode::Merge(dirs) => return merge_and_report(plan, dirs),
        Mode::Execute(run) => run,
    };

    let mut execution = Execution::new(plan.matrix()).policy(policy);
    // Probe the reuse cache up front; the execution seeds or splices the
    // hits for the runs it owns.
    if !reuse.is_empty() {
        let partial = RunStore::new(reuse)
            .load_partial(plan.matrix())
            .map_err(|e| format!("probing --reuse directories failed: {e}"))?;
        println!(
            "reuse: {} of {} planned runs answered by cached outcomes ({} scanned, \
             {} foreign keys skipped, {} malformed files ignored)",
            partial.reused,
            plan.run_count(),
            partial.scanned,
            partial.skipped_foreign,
            partial.skipped_malformed.len(),
        );
        for path in &partial.skipped_malformed {
            eprintln!(
                "warning: ignored malformed cached outcome {}",
                path.display()
            );
        }
        execution = execution.reuse(partial);
    }
    // Who this process is in the summary line and the decision log.
    let worker = match &target {
        Target::InMemory => "in-process".to_owned(),
        Target::Durable(_) => "durable".to_owned(),
        Target::Shard(_, spec) => format!("shard-{spec}"),
        Target::Queue(dir, config) => {
            println!(
                "queue worker {} draining {} (claim TTL {}s)",
                config.worker,
                dir.display(),
                config.lock_ttl.as_secs(),
            );
            config.worker.clone()
        }
    };

    let log = match decision_log {
        Some(path) => {
            let file = File::create(&path)
                .map_err(|e| format!("cannot open --decision-log {}: {e}", path.display()))?;
            Some(Mutex::new(DecisionLog {
                path,
                out: BufWriter::new(file),
                error: None,
            }))
        }
        None => None,
    };
    let cancel = CancelToken::new();
    let start = Instant::now();
    let observer = |event: RunEvent| {
        let Some(log) = &log else { return };
        if let RunEvent::Claimed { key_id, cost, rank } = event {
            let mut log = log.lock().expect("decision log poisoned");
            log.write(&cancel, |out| {
                writeln!(
                    out,
                    "{{\"event\":\"claimed\",\"run\":\"{key_id}\",\"worker\":\"{worker}\",\
                     \"policy\":\"{policy}\",\"cost\":{cost_units},\"rank\":{rank},\
                     \"t_ms\":{t}}}",
                    cost_units = cost.units(),
                    t = start.elapsed().as_millis(),
                )
            });
        }
    };
    // Ends the decision log with its `drained` line, prints one summary
    // line, and fails with the decision-log write error that cancelled the
    // execution.
    let summarize = |report: &ExecutionReport, dir: Option<&Path>| {
        let mut log = log
            .as_ref()
            .map(|log| log.lock().expect("decision log poisoned"));
        if let Some(log) = &mut log {
            log.write(&cancel, |out| {
                writeln!(
                    out,
                    "{{\"event\":\"drained\",\"worker\":\"{worker}\",\"policy\":\"{policy}\",\
                     \"executed\":{executed},\"reclaimed\":{reclaimed},\"passes\":{passes},\
                     \"makespan_ms\":{makespan}}}",
                    executed = report.sources.executed,
                    reclaimed = report.sources.reclaimed,
                    passes = report.passes,
                    makespan = start.elapsed().as_millis(),
                )?;
                out.flush()
            });
        }
        println!(
            "{worker}: {} of {} runs executed, {} reused, {} stale claims reclaimed \
             (passes: {}, policy {policy}){}",
            report.sources.executed,
            report.planned,
            report.sources.reused,
            report.sources.reclaimed,
            report.passes,
            dir.map_or_else(String::new, |dir| format!(", under {}", dir.display())),
        );
        log.map_or(Ok(()), |mut log| log.result())
    };
    let execution = execution.observer(&observer).cancel(&cancel);
    let failed = |e: io::Error| format!("{worker} failed: {e}");
    match target {
        Target::InMemory => {
            let output = execution.run().map_err(failed)?;
            summarize(output.report(), None)?;
            write_report(&plan.collect(&output.into_outcomes()))
        }
        Target::Durable(dir) => {
            let output = execution.dir(&dir).run().map_err(failed)?;
            summarize(output.report(), Some(&dir))?;
            write_report(&plan.collect(&output.into_outcomes()))
        }
        Target::Shard(dir, spec) => {
            let report = execution.dir(&dir).shard(spec).run().map_err(failed)?;
            summarize(&report, Some(&dir))?;
            println!(
                "merge with: reproduce --merge {} <other shard dirs...>",
                dir.display()
            );
            Ok(())
        }
        Target::Queue(dir, config) => {
            let report = execution.dir(&dir).queue(config).run().map_err(failed)?;
            summarize(&report, Some(&dir))?;
            println!("merge with: reproduce --merge {}", dir.display());
            Ok(())
        }
    }
}

/// This process's queue worker, id `pid<pid>-w0`, with the claim TTL
/// `docs/OPERATIONS.md` describes read from `SHIFT_QUEUE_TTL` (seconds); an
/// invalid value warns and keeps the default.
fn queue_config_from_env() -> QueueConfig {
    let mut config = QueueConfig::new(format!("pid{}-w0", std::process::id()));
    if let Ok(value) = std::env::var("SHIFT_QUEUE_TTL") {
        match value.trim().parse() {
            Ok(secs) => config.lock_ttl = Duration::from_secs(secs),
            Err(_) => eprintln!("ignoring invalid SHIFT_QUEUE_TTL `{value}`"),
        }
    }
    config
}

/// Merges the planned matrix's outcomes from `dirs` and writes every
/// artifact plus the scoreboard.
fn merge_and_report(plan: PaperPlan, dirs: Vec<PathBuf>) -> Result<(), String> {
    let outcomes = RunStore::new(dirs.iter().cloned())
        .load(plan.matrix())
        .map_err(|e| format!("merge failed: {e}"))?;
    println!(
        "merged {} run outcomes from {} director{}",
        outcomes.len(),
        dirs.len(),
        if dirs.len() == 1 { "y" } else { "ies" }
    );
    write_report(&plan.collect(&outcomes))
}

/// Writes every artifact of `report` plus the scoreboard.
fn write_report(report: &PaperReport) -> Result<(), String> {
    let dir = artifacts_dir();
    let paths = report
        .write_to(&dir)
        .map_err(|e| format!("failed to write artifacts under {}: {e}", dir.display()))?;
    println!(
        "wrote {} artifact files ({} figures/tables x json+csv+md) under {}",
        paths.len(),
        report.artifacts().len(),
        dir.display()
    );
    for artifact in report.artifacts() {
        println!("  {:<13} {}", artifact.name(), artifact.title());
    }
    println!();
    println!("{}", report.scoreboard());
    Ok(())
}
