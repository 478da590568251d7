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
//!   `--policy cost-ordered` drains biggest-runs-first weighted by the
//!   worker's measured throughput (see `docs/PERFORMANCE.md`), and
//!   `--decision-log FILE` appends one NDJSON line per claim — with the
//!   run's estimated cost, its rank in the schedule, and the worker's
//!   fetch rate — plus a final `drained` line carrying the makespan.
//! * **`--merge DIR...`** — load outcome files from one or more shard/queue
//!   directories, verify they cover this exact sweep, and derive all
//!   artifacts + scoreboard. Byte-identical to the default mode's output.
//! * **`--outcomes DIR`** alone — execute the full sweep (shard `1/1`) with
//!   durable outcomes in `DIR`, then merge from it: a crash-resumable
//!   single-host run.
//!
//! **`--reuse OLD_DIR...`** composes with all execution modes (not with
//! `--merge`): outcomes in the old directories whose keys still exist in
//! the current plan — even if they were executed for a *different* sweep —
//! are reused instead of re-simulated, so only the delta of the new plan
//! executes. With `--outcomes DIR`, reusable outcomes are first *seeded*
//! into `DIR` under the current plan's fingerprint; without it, the delta
//! executes in memory.
//!
//! All modes read the sweep settings from `SHIFT_SCALE` / `SHIFT_CORES` /
//! `SHIFT_WORKLOADS`; shard, queue, and merge hosts must agree on them (the
//! outcome files carry the planned matrix's fingerprint, so a mismatch is
//! rejected rather than silently merged). See `docs/SWEEP.md` for the
//! pipeline guide and `docs/OPERATIONS.md` for the operator runbook.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use shift_bench::artifacts::artifacts_dir;
use shift_bench::banner;
use shift_bench::reproduce::{PaperPlan, PaperReport, ReproduceSettings};
use shift_sim::shard::seed_shard_outcomes;
use shift_sim::store::seed_outcomes;
use shift_sim::{
    Execution, PartialLoad, QueueConfig, RunEvent, RunStore, SchedulePolicy, ShardSpec,
};

/// What the command line asked for.
enum Mode {
    /// Print usage and exit successfully.
    Help,
    /// In-process plan → execute → collect.
    Local,
    /// Execute one shard into an outcome directory.
    Shard(ShardSpec, PathBuf),
    /// Run one work-queue worker against a shared outcome directory.
    Queue(PathBuf),
    /// Execute everything into an outcome directory, then merge from it.
    LocalDurable(PathBuf),
    /// Merge outcome directories and collect.
    Merge(Vec<PathBuf>),
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
  --outcomes DIR               full durable run: execute 1/1 into DIR, then merge
  --merge DIR...               merge shard outcome dirs, write artifacts + scoreboard
  --reuse OLD_DIR...           reuse cached outcomes whose keys are still planned
                               (any mode but --merge); only the delta executes
  --policy POLICY              claim order: canonical (default) or cost-ordered
                               (biggest runs first, weighted by worker throughput)
  --decision-log FILE          (--queue only) append one NDJSON line per claim
                               with cost / rank / worker rate, and a final
                               `drained` line with the worker's makespan
";

/// Everything parsed from the command line besides the mode itself.
struct Options {
    reuse: Vec<PathBuf>,
    policy: Option<SchedulePolicy>,
    decision_log: Option<PathBuf>,
}

fn parse_args() -> Result<(Mode, Options), String> {
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
            "--help" | "-h" => {
                return Ok((
                    Mode::Help,
                    Options {
                        reuse: Vec::new(),
                        policy: None,
                        decision_log: None,
                    },
                ))
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !merge.is_empty() && !reuse.is_empty() {
        return Err(
            "--reuse cannot be combined with --merge (a merge never executes; \
                    point --reuse at an execution mode instead)"
                .into(),
        );
    }
    if decision_log.is_some() && !queue {
        return Err("--decision-log only applies to --queue workers".into());
    }
    let mode = match (shard, queue, outcomes, merge.is_empty()) {
        (None, false, None, true) => Mode::Local,
        (Some(spec), false, Some(dir), true) => Mode::Shard(spec, dir),
        (None, true, Some(dir), true) => Mode::Queue(dir),
        (None, false, Some(dir), true) => Mode::LocalDurable(dir),
        (None, false, None, false) => Mode::Merge(merge),
        (Some(_), true, _, _) => return Err("--shard and --queue are mutually exclusive".into()),
        (_, true, None, _) => return Err("--queue requires --outcomes DIR".into()),
        (Some(_), _, None, _) => return Err("--shard requires --outcomes DIR".into()),
        _ => return Err("--merge cannot be combined with --shard/--queue/--outcomes".into()),
    };
    Ok((
        mode,
        Options {
            reuse,
            policy,
            decision_log,
        },
    ))
}

fn main() -> ExitCode {
    let (mode, options) = match parse_args() {
        Ok((Mode::Help, _)) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let reuse = options.reuse;

    let settings = match ReproduceSettings::from_env() {
        Ok(settings) => settings,
        Err(e) => {
            eprintln!("invalid sweep settings: {e}");
            return ExitCode::FAILURE;
        }
    };
    banner(
        "reproduce (all figures and tables)",
        settings.scale,
        settings.cores,
        &settings.workloads,
    );

    let plan = PaperPlan::plan(settings);
    println!(
        "planned {} distinct simulations for the whole paper ({} avoided by cross-figure \
         dedup); matrix fingerprint {}",
        plan.run_count(),
        plan.saved_by_dedup(),
        plan.matrix().fingerprint(),
    );
    println!();

    // Probe the reuse cache up front; every mode below composes with it.
    let partial: Option<PartialLoad> = (!reuse.is_empty()).then(|| {
        let partial = RunStore::new(reuse.iter().cloned())
            .load_partial(plan.matrix())
            .unwrap_or_else(|e| panic!("probing --reuse directories failed: {e}"));
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
        partial
    });
    // Durable modes persist the reused outcomes under the *current* plan's
    // fingerprint first, so shard resume / queue claims / the strict merge
    // see them as already-completed runs. A K/N shard seeds only the slice
    // it owns: the N shard directories must stay disjoint or their merge
    // would trip the duplicate check.
    let seed = |dir: &PathBuf, spec: ShardSpec| {
        if let Some(partial) = &partial {
            let written = if spec.is_full() {
                seed_outcomes(plan.matrix(), partial, dir)
            } else {
                seed_shard_outcomes(plan.matrix(), partial, dir, spec)
            }
            .unwrap_or_else(|e| panic!("seeding {} from --reuse failed: {e}", dir.display()));
            println!("seeded {written} reused outcomes into {}", dir.display());
        }
    };

    match mode {
        Mode::Help => unreachable!("handled before planning"),
        Mode::Local => {
            let report = match partial {
                None => {
                    let mut execution = Execution::new(plan.matrix());
                    if let Some(policy) = options.policy {
                        execution = execution.policy(policy);
                    }
                    let outcomes = execution
                        .run()
                        .unwrap_or_else(|e| panic!("in-process execution failed: {e}"))
                        .into_outcomes();
                    plan.collect(&outcomes)
                }
                Some(partial) => {
                    let output = Execution::new(plan.matrix())
                        .reuse(partial)
                        .run()
                        .unwrap_or_else(|e| panic!("incremental execution failed: {e}"));
                    println!(
                        "incremental run: {} reused, {} executed",
                        output.report().sources.reused,
                        output.report().sources.executed
                    );
                    plan.collect(&output.into_outcomes())
                }
            };
            write_report(&report);
        }
        Mode::Shard(spec, dir) => {
            seed(&dir, spec);
            let report = *Execution::new(plan.matrix())
                .shard(spec)
                .dir(&dir)
                .run()
                .unwrap_or_else(|e| panic!("shard {spec} failed: {e}"))
                .report();
            println!(
                "shard {spec}: {} of {} runs executed, {} resumed, under {}",
                report.sources.executed,
                report.planned,
                report.sources.reused,
                dir.display()
            );
            println!(
                "merge with: reproduce --merge {} <other shard dirs...>",
                dir.display()
            );
        }
        Mode::Queue(dir) => {
            seed(&dir, ShardSpec::full());
            let mut config = QueueConfig::from_env();
            if let Some(policy) = options.policy {
                config.policy = policy;
            }
            let worker = config.worker.clone();
            let policy = config.policy;
            println!(
                "queue worker {} draining {} (claim TTL {}s, {} order)",
                worker,
                dir.display(),
                config.lock_ttl.as_secs(),
                policy
            );
            let log = options.decision_log.as_ref().map(|path| {
                let file = File::create(path).unwrap_or_else(|e| {
                    panic!("cannot open --decision-log {}: {e}", path.display())
                });
                Mutex::new(BufWriter::new(file))
            });
            let start = Instant::now();
            let observer = |event: RunEvent| {
                let Some(log) = &log else { return };
                if let RunEvent::Claimed {
                    key_id,
                    cost,
                    rank,
                    worker_rate,
                } = event
                {
                    let rate = worker_rate
                        .map(|r| r.to_string())
                        .unwrap_or_else(|| "null".to_owned());
                    let mut log = log.lock().expect("decision log poisoned");
                    writeln!(
                        log,
                        "{{\"event\":\"claimed\",\"run\":\"{key_id}\",\"worker\":\"{worker}\",\
                         \"policy\":\"{policy}\",\"cost\":{cost_units},\"rank\":{rank},\
                         \"worker_rate\":{rate},\"t_ms\":{t}}}",
                        cost_units = cost.units(),
                        t = start.elapsed().as_millis(),
                    )
                    .expect("decision log write");
                }
            };
            let report = *Execution::new(plan.matrix())
                .queue(config)
                .dir(&dir)
                .observer(&observer)
                .run()
                .unwrap_or_else(|e| panic!("queue worker failed: {e}"))
                .report();
            if let Some(log) = &log {
                let mut log = log.lock().expect("decision log poisoned");
                writeln!(
                    log,
                    "{{\"event\":\"drained\",\"worker\":\"{worker}\",\"policy\":\"{policy}\",\
                     \"executed\":{executed},\"reclaimed\":{reclaimed},\"passes\":{passes},\
                     \"makespan_ms\":{makespan}}}",
                    executed = report.sources.executed,
                    reclaimed = report.sources.reclaimed,
                    passes = report.passes,
                    makespan = start.elapsed().as_millis(),
                )
                .expect("decision log write");
                log.flush().expect("decision log flush");
            }
            println!(
                "queue drained: this worker executed {} of {} runs ({} stale claims \
                 reclaimed, {} passes); sweep complete",
                report.sources.executed, report.planned, report.sources.reclaimed, report.passes
            );
            println!("merge with: reproduce --merge {}", dir.display());
        }
        Mode::LocalDurable(dir) => {
            seed(&dir, ShardSpec::full());
            let report = *Execution::new(plan.matrix())
                .shard(ShardSpec::full())
                .dir(&dir)
                .run()
                .unwrap_or_else(|e| panic!("durable execution failed: {e}"))
                .report();
            println!(
                "durable run: {} executed, {} resumed, under {}",
                report.sources.executed,
                report.sources.reused,
                dir.display()
            );
            merge_and_report(plan, vec![dir]);
        }
        Mode::Merge(dirs) => merge_and_report(plan, dirs),
    }
    ExitCode::SUCCESS
}

/// Merges the planned matrix's outcomes from `dirs` and writes every
/// artifact plus the scoreboard.
fn merge_and_report(plan: PaperPlan, dirs: Vec<PathBuf>) {
    let outcomes = RunStore::new(dirs.iter().cloned())
        .load(plan.matrix())
        .unwrap_or_else(|e| panic!("merge failed: {e}"));
    println!(
        "merged {} run outcomes from {} director{}",
        outcomes.len(),
        dirs.len(),
        if dirs.len() == 1 { "y" } else { "ies" }
    );
    let report = plan.collect(&outcomes);
    write_report(&report);
}

/// Writes every artifact of `report` plus the scoreboard.
fn write_report(report: &PaperReport) {
    let dir = artifacts_dir();
    let paths = report
        .write_to(&dir)
        .unwrap_or_else(|e| panic!("failed to write artifacts under {}: {e}", dir.display()));
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
}
