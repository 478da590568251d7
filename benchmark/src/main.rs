//! The `benchmark` command.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! benchmark ab OLD_BIN NEW_BIN [--pairs N] [--seed N] [--seconds S] [--workload NAME]...
//! ```
//!
//! With `--workload`, runs that workload in this process and prints its
//! metrics, then the result object as the last line. Without it, runs every
//! workload in a child process of its own (so peak memory and set-up are
//! per workload), prints every metric as `workload metric value unit`, and
//! writes the combined result to `benchmark.json` (`benchmark-trace.json`
//! for a traced run) in the artifact directory. `ab` compares two builds.

use std::path::PathBuf;
use std::process::ExitCode;

use serde::{json, Value};
use shift_benchmark::ab::{self, AbConfig};
use shift_benchmark::host::HostStamp;
use shift_benchmark::span::{chrome_trace, totals_by_name};
use shift_benchmark::{artifact_dir, run, RunConfig, RunOutput, Size, Workload, DEFAULT_SECONDS};

const USAGE: &str = "usage:
  benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
  benchmark ab OLD_BIN NEW_BIN [--pairs N] [--seed N] [--seconds S] [--workload NAME]...
workloads: oltp_shift oltp_baseline paper_sweep serve_mixed";

const DEFAULT_SEED: u64 = 42;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    pairs: usize,
    binaries: Vec<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        pairs: 10,
        binaries: Vec::new(),
    };
    let mut i = 0;
    let value = |i: usize, flag: &str| -> Result<&String, String> {
        args.get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--workload" => {
                let name = value(i, arg)?;
                out.workloads.push(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
                i += 1;
            }
            "--seed" => {
                out.seed = value(i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                out.seconds = value(i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                i += 1;
            }
            "--pairs" => {
                out.pairs = value(i, arg)?
                    .parse()
                    .map_err(|e| format!("bad --pairs: {e}"))?;
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    out.trace = true;
                    i += 1;
                }
                _ => out.trace = true,
            },
            other if !other.starts_with("--") => out.binaries.push(PathBuf::from(other)),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(out)
}

/// Threads every internal pool is pinned to: two, or fewer on a smaller host.
fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn print_run(out: &RunOutput) {
    let w = out.workload.name();
    for m in &out.metrics {
        println!("{w} {} {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    for m in &out.extras {
        println!(
            "{w} extra {} {} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    if !out.spans.is_empty() {
        println!("{w} span count total_ms self_ms");
        for (name, t) in totals_by_name(&out.spans) {
            println!(
                "{w} span {name} {} {:.3} {:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    for (key, digest) in &out.digests {
        println!("{w} digest {key} {digest}");
    }
    for failure in &out.failures {
        println!("{w} FAILED {failure}");
    }
}

fn detail(out: &RunOutput) -> Value {
    let metrics = |list: &[shift_benchmark::Metric]| {
        Value::Map(
            list.iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Value::Map(vec![
                            ("value".to_owned(), Value::Float(m.value)),
                            ("unit".to_owned(), Value::Str(m.unit.to_owned())),
                            ("samples".to_owned(), Value::UInt(m.samples as u64)),
                        ]),
                    )
                })
                .collect(),
        )
    };
    Value::Map(vec![
        ("metrics".to_owned(), metrics(&out.metrics)),
        ("extras".to_owned(), metrics(&out.extras)),
        (
            "digests".to_owned(),
            Value::Map(
                out.digests
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "failures".to_owned(),
            Value::Seq(out.failures.iter().cloned().map(Value::Str).collect()),
        ),
    ])
}

/// One workload in this process: the form `BENCHMARK.json`'s command runs.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        size: Size::Full,
        work_dir: artifact_dir().join("benchmark-work"),
    };
    println!("host {}", json::to_string(&HostStamp::current().to_value()));
    let out = match run(workload, &config) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_run(&out);
    if args.trace {
        let path = artifact_dir().join(format!("benchmark-trace-{}.json", workload.name()));
        let doc = chrome_trace(&out.spans, workload.name());
        match shift_report::write_json(&path, &doc) {
            Ok(()) => println!("{} trace {}", workload.name(), path.display()),
            Err(e) => eprintln!("benchmark: writing {}: {e}", path.display()),
        }
    }
    println!("detail {}", json::to_string(&detail(&out)));
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}

/// Every workload, each in a child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find my own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = HostStamp::current();
    println!("host {}", json::to_string(&host.to_value()));
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        let out = match ab::run_binary(
            &exe,
            workload,
            args.seed,
            args.seconds,
            args.trace,
            threads(),
        ) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::FAILURE;
            }
        };
        let w = workload.name();
        let rows = ["metrics", "extras"]
            .into_iter()
            .filter_map(|section| match out.detail.get(section) {
                Some(Value::Map(entries)) => Some(entries.clone()),
                _ => None,
            })
            .flatten();
        for (name, m) in rows {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            let n = m.get("samples").and_then(Value::as_u64).unwrap_or(0);
            println!("{w} {name} {value} {unit} (n={n})");
        }
        println!(
            "{w} checks {} attempted {} failed",
            out.attempted, out.failed
        );
        all_correct &= out.correct;
        results.push((
            w.to_owned(),
            Value::Map(vec![
                ("correct".to_owned(), Value::Bool(out.correct)),
                ("attempted".to_owned(), Value::UInt(out.attempted)),
                ("failed".to_owned(), Value::UInt(out.failed)),
                ("detail".to_owned(), out.detail),
            ]),
        ));
    }
    let name = if args.trace {
        "benchmark-trace.json"
    } else {
        "benchmark.json"
    };
    let path = artifact_dir().join(name);
    let doc = Value::Map(vec![
        ("host".to_owned(), host.to_value()),
        ("seed".to_owned(), Value::UInt(args.seed)),
        ("seconds".to_owned(), Value::UInt(args.seconds)),
        ("trace".to_owned(), Value::Bool(args.trace)),
        ("workloads".to_owned(), Value::Map(results)),
    ]);
    if let Err(e) = shift_report::write_json(&path, &doc) {
        eprintln!("benchmark: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_ab(args: &Args) -> ExitCode {
    let [old, new] = args.binaries.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if args.pairs < 2 {
        eprintln!("benchmark ab: --pairs must be at least 2");
        return ExitCode::FAILURE;
    }
    let config = AbConfig {
        old: old.clone(),
        new: new.clone(),
        pairs: args.pairs,
        seed: args.seed,
        seconds: args.seconds,
        workloads: if args.workloads.is_empty() {
            Workload::ALL.to_vec()
        } else {
            args.workloads.clone()
        },
        threads: threads(),
    };
    match ab::run(&config) {
        Ok(doc) => {
            let path = artifact_dir().join("benchmark-ab.json");
            if let Err(e) = shift_report::write_json(&path, &doc) {
                eprintln!("benchmark ab: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark ab: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    // Pin every internal pool (the sweep executor, the commonality study,
    // the daemon's drains) before any of them starts.
    std::env::set_var("SHIFT_THREADS", threads().to_string());
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (is_ab, rest) = match raw.first().map(String::as_str) {
        Some("ab") => (true, &raw[1..]),
        _ => (false, &raw[..]),
    };
    let args = match parse(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if is_ab {
        return run_ab(&args);
    }
    if !args.binaries.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    match args.workloads.as_slice() {
        [] => run_all(&args),
        [workload] => run_one(*workload, &args),
        _ => {
            eprintln!("benchmark: give one --workload, or none to run them all\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
