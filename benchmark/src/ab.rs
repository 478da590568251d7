//! A/B runs: two benchmark binaries, interleaved, on one host.
//!
//! `benchmark ab OLD_BIN NEW_BIN --pairs N` runs every workload once per
//! binary per pair, alternating which binary goes first, with a fresh seed
//! per pair shared by both sides. Each binary runs as its own process, the
//! way `BENCHMARK.json`'s command runs it. The two sides of a pair must
//! produce the same output digests: every digest that differs counts as a
//! failed check of the new side. For every (end-to-end metric, workload) it
//! reports each side's median and quartiles, the fraction of pairs the new
//! binary won, and a verdict:
//!
//! * `incorrect` — the new side failed more checks than the old side, so no
//!   gain or parity counts;
//! * `improved` — the new side won at least nine tenths of the pairs (ties
//!   count for neither) and the medians differ by more than the old side's
//!   inter-quartile distance;
//! * `no-worse` — the new median is not worse than the old by more than the
//!   metric's bound, and the old side's spread is within that bound (or
//!   every new run beats every old run);
//! * `worse` — worse than the bound allows, with the spread within it;
//! * `unresolved` — the old side's own spread exceeds the bound.
//!
//! Results from binaries whose host stamps differ (other than in the
//! commit) are refused.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use serde::{json, Value};

use crate::digest::{self, Digests};
use crate::host::HostStamp;
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats;
use crate::Workload;

/// What one benchmark process printed.
#[derive(Clone, Debug)]
pub struct ChildOutput {
    /// The `host` line.
    pub host: Option<HostStamp>,
    /// The `detail` line: extras, digests and failures.
    pub detail: Value,
    /// `correct` of the result line.
    pub correct: bool,
    /// `attempted` of the result line.
    pub attempted: u64,
    /// `failed` of the result line.
    pub failed: u64,
    /// Metric values of the result line.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a benchmark process's standard output: `host {…}` and
/// `detail {…}` lines anywhere, the result object on the last line.
pub fn parse_output(stdout: &str) -> Result<ChildOutput, String> {
    let mut host = None;
    let mut detail = Value::Null;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("host ") {
            host = HostStamp::parse(rest);
        } else if let Some(rest) = line.strip_prefix("detail ") {
            detail = json::parse(rest).map_err(|e| format!("bad detail line: {e}"))?;
        }
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = json::parse(last).map_err(|e| format!("bad result line {last:?}: {e}"))?;
    let mut metrics = BTreeMap::new();
    if let Some(Value::Map(entries)) = doc.get("metrics") {
        for (name, m) in entries {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                metrics.insert(name.clone(), v);
            }
        }
    }
    Ok(ChildOutput {
        host,
        detail,
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        attempted: doc.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Value::as_u64).unwrap_or(0),
        metrics,
    })
}

/// The digests a `detail` document carries.
fn digests_of(detail: &Value) -> Digests {
    match detail.get("digests") {
        Some(Value::Map(entries)) => entries
            .iter()
            .filter_map(|(k, v)| v.as_str().map(|v| (k.clone(), v.to_owned())))
            .collect(),
        _ => Digests::new(),
    }
}

/// Every output whose digest differs between two sides' `detail`
/// documents of one pair, including outputs only one side produced.
pub fn digest_differences(old: &Value, new: &Value) -> Vec<String> {
    digest::mismatches(&digests_of(old), &digests_of(new))
}

/// Runs `binary` on one workload as `BENCHMARK.json`'s command does, with
/// every internal pool pinned to `threads`.
pub fn run_binary(
    binary: &std::path::Path,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
) -> Result<ChildOutput, String> {
    let output = Command::new(binary)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("SHIFT_THREADS", threads.to_string())
        .output()
        .map_err(|e| format!("{}: {e}", binary.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} --workload {} exited with {}: {}",
            binary.display(),
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    parse_output(&stdout)
}

/// The verdict on one (metric, workload) pair of an A/B comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The new side failed more checks than the old side.
    Incorrect,
    /// The new side wins by the gain rule.
    Improved,
    /// Within the bound of the old side.
    NoWorse,
    /// Beyond the bound, with a spread that resolves it.
    Worse,
    /// The old side's own spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    /// The verdict as printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Incorrect => "incorrect",
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (metric, workload) comparison.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Quartiles of the old side.
    pub old: [f64; 3],
    /// Quartiles of the new side.
    pub new: [f64; 3],
    /// Fraction of pairs the new side won.
    pub wins: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares paired samples of `def` (`old[i]` and `new[i]` ran as pair `i`)
/// from runs in which each side failed `failed[0]` and `failed[1]` checks.
///
/// # Panics
///
/// Panics with fewer than two pairs or unequal sample counts.
pub fn compare(def: &MetricDef, old: &[f64], new: &[f64], failed: [u64; 2]) -> Comparison {
    assert_eq!(old.len(), new.len(), "samples must be paired");
    let better = |a: f64, b: f64| match def.better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    };
    let wins = old
        .iter()
        .zip(new)
        .filter(|(o, n)| better(**n, **o))
        .count();
    let (qo, qn) = (stats::quartiles(old), stats::quartiles(new));
    let (old_med, new_med) = (qo[1], qn[1]);
    let pairs = old.len() as f64;
    // Relative change, positive when the new side is worse.
    let worse_by = match def.better {
        Better::Higher => (old_med - new_med) / old_med.abs(),
        Better::Lower => (new_med - old_med) / old_med.abs(),
    };
    let all_better = new.iter().all(|&n| old.iter().all(|&o| better(n, o)));
    let bound = def.bound.unwrap_or(0.0);
    let verdict = if failed[1] > failed[0] {
        Verdict::Incorrect
    } else if wins as f64 >= 0.9 * pairs
        && better(new_med, old_med)
        && (new_med - old_med).abs() > qo[2] - qo[0]
    {
        Verdict::Improved
    } else if all_better {
        Verdict::NoWorse
    } else if stats::relative_iqr(old) > bound {
        Verdict::Unresolved
    } else if worse_by <= bound {
        Verdict::NoWorse
    } else {
        Verdict::Worse
    };
    Comparison {
        old: qo,
        new: qn,
        wins: wins as f64 / pairs,
        verdict,
    }
}

/// Settings of an A/B run.
#[derive(Clone, Debug)]
pub struct AbConfig {
    /// The parent's binary.
    pub old: PathBuf,
    /// The change's binary.
    pub new: PathBuf,
    /// Pairs to run (at least two).
    pub pairs: usize,
    /// Seed of the first pair; pair `i` uses `seed + i`.
    pub seed: u64,
    /// `--seconds` passed to both sides.
    pub seconds: u64,
    /// Workloads to compare.
    pub workloads: Vec<Workload>,
    /// Threads each side's pools are pinned to.
    pub threads: usize,
}

/// Runs the pairs and returns the report document (also printed).
///
/// # Errors
///
/// A side that fails to run, or host stamps that differ.
pub fn run(config: &AbConfig) -> Result<Value, String> {
    let mut samples: BTreeMap<(String, &'static str), [Vec<f64>; 2]> = BTreeMap::new();
    // Failed checks per workload and side, differing digests included.
    let mut failed: BTreeMap<&'static str, [u64; 2]> = BTreeMap::new();
    let mut stamps: Vec<HostStamp> = Vec::new();
    let mut failures = Vec::new();
    for pair in 0..config.pairs {
        let seed = config.seed + pair as u64;
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for &workload in &config.workloads {
            let mut sides: [Option<ChildOutput>; 2] = [None, None];
            for side in order {
                let binary = if side == 0 { &config.old } else { &config.new };
                eprintln!("pair {pair} {} {}", ["old", "new"][side], workload.name());
                let out = run_binary(
                    binary,
                    workload,
                    seed,
                    config.seconds,
                    false,
                    config.threads,
                )?;
                let stamp = out.host.clone().ok_or("a side printed no host stamp")?;
                if let Some(first) = stamps.first() {
                    if !first.comparable(&stamp) {
                        return Err(format!(
                            "refusing to compare results from different hosts: {} vs {}",
                            json::to_string(&first.to_value()),
                            json::to_string(&stamp.to_value())
                        ));
                    }
                }
                stamps.push(stamp);
                sides[side] = Some(out);
            }
            let [Some(old), Some(new)] = sides else {
                unreachable!("both sides ran");
            };
            let differing = digest_differences(&old.detail, &new.detail);
            let counts = failed.entry(workload.name()).or_default();
            counts[0] += old.failed;
            counts[1] += new.failed + differing.len() as u64;
            for (side, out) in [("old", &old), ("new", &new)] {
                if !out.correct {
                    failures.push(format!(
                        "pair {pair} {side} {}: {} of {} checks failed",
                        workload.name(),
                        out.failed,
                        out.attempted
                    ));
                }
            }
            for key in differing {
                failures.push(format!(
                    "pair {pair} {}: digest {key} differs between old and new",
                    workload.name()
                ));
            }
            for (side, out) in [old, new].into_iter().enumerate() {
                for (name, value) in out.metrics {
                    samples.entry((name, workload.name())).or_default()[side].push(value);
                }
            }
        }
    }

    let mut rows = Vec::new();
    println!("metric workload old_median [q1 q3] new_median [q1 q3] wins failed_old/new verdict");
    for def in END_TO_END {
        for &workload in &config.workloads {
            let Some([old, new]) = samples.get(&(def.name.to_owned(), workload.name())) else {
                continue;
            };
            if old.len() != new.len() || old.len() < 2 {
                continue;
            }
            let failed = failed[workload.name()];
            let c = compare(def, old, new, failed);
            println!(
                "{} {} {:.6} [{:.6} {:.6}] {:.6} [{:.6} {:.6}] {:.2} {}/{} {}",
                def.name,
                workload.name(),
                c.old[1],
                c.old[0],
                c.old[2],
                c.new[1],
                c.new[0],
                c.new[2],
                c.wins,
                failed[0],
                failed[1],
                c.verdict.as_str()
            );
            let seq = |v: &[f64]| Value::Seq(v.iter().map(|&x| Value::Float(x)).collect());
            rows.push(Value::Map(vec![
                ("metric".to_owned(), Value::Str(def.name.to_owned())),
                (
                    "workload".to_owned(),
                    Value::Str(workload.name().to_owned()),
                ),
                ("old".to_owned(), seq(old)),
                ("new".to_owned(), seq(new)),
                ("old_quartiles".to_owned(), seq(&c.old)),
                ("new_quartiles".to_owned(), seq(&c.new)),
                ("wins".to_owned(), Value::Float(c.wins)),
                (
                    "failed".to_owned(),
                    Value::Seq(failed.iter().map(|&n| Value::UInt(n)).collect()),
                ),
                (
                    "verdict".to_owned(),
                    Value::Str(c.verdict.as_str().to_owned()),
                ),
            ]));
        }
    }
    for failure in &failures {
        println!("FAILED {failure}");
    }
    let host = stamps.first().map_or(Value::Null, HostStamp::to_value);
    let commits: Vec<Value> = stamps
        .iter()
        .map(|s| Value::Str(s.commit.clone()))
        .take(2)
        .collect();
    Ok(Value::Map(vec![
        ("host".to_owned(), host),
        ("commits".to_owned(), Value::Seq(commits)),
        (
            "old".to_owned(),
            Value::Str(config.old.display().to_string()),
        ),
        (
            "new".to_owned(),
            Value::Str(config.new.display().to_string()),
        ),
        ("pairs".to_owned(), Value::UInt(config.pairs as u64)),
        ("seed".to_owned(), Value::UInt(config.seed)),
        ("seconds".to_owned(), Value::UInt(config.seconds)),
        ("comparisons".to_owned(), Value::Seq(rows)),
        (
            "failures".to_owned(),
            Value::Seq(failures.into_iter().map(Value::Str).collect()),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "s",
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn a_consistent_win_beyond_the_spread_is_an_improvement() {
        let old = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2];
        let new: Vec<f64> = old.iter().map(|x| x * 0.8).collect();
        let c = compare(&def(Better::Lower, 0.1), &old, &new, [0, 0]);
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!(c.wins, 1.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let old = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2];
        let same: Vec<f64> = old.iter().rev().copied().collect();
        assert_eq!(
            compare(&def(Better::Lower, 0.1), &old, &same, [0, 0]).verdict,
            Verdict::NoWorse
        );
        let slower: Vec<f64> = old.iter().map(|x| x * 1.3).collect();
        assert_eq!(
            compare(&def(Better::Lower, 0.1), &old, &slower, [0, 0]).verdict,
            Verdict::Worse
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(
            compare(&def(Better::Higher, 0.1), &old, &slower, [0, 0]).verdict,
            Verdict::Improved
        );
        let noisy = [5.0, 15.0, 6.0, 14.0, 5.0, 15.0, 6.0, 14.0, 5.0, 15.0];
        let noisy_new: Vec<f64> = noisy.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            compare(&def(Better::Lower, 0.1), &noisy, &noisy_new, [0, 0]).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_digest_that_differs_is_a_failure_no_gain_outweighs() {
        let detail = |run: &str| {
            json::parse(&format!(
                r#"{{"digests":{{"bundle":"00aa","run/1":"{run}"}},"failures":[]}}"#
            ))
            .expect("parses")
        };
        let (old_detail, new_detail) = (detail("0001"), detail("0002"));
        assert!(digest_differences(&old_detail, &old_detail).is_empty());
        let differing = digest_differences(&old_detail, &new_detail);
        assert_eq!(differing, vec!["run/1".to_owned()]);
        // Every new run is faster, but one output changed.
        let old = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2];
        let new: Vec<f64> = old.iter().map(|x| x * 0.5).collect();
        let failed = [0, differing.len() as u64];
        assert_eq!(
            compare(&def(Better::Lower, 0.1), &old, &new, failed).verdict,
            Verdict::Incorrect
        );
        // Failures the old side shares do not count against the new one.
        assert_eq!(
            compare(&def(Better::Lower, 0.1), &old, &new, [1, 1]).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn the_last_line_is_the_result_and_host_and_detail_lines_are_found() {
        let stamp = HostStamp {
            nproc: 2,
            cpu_model: "cpu".to_owned(),
            rustc: "rustc 1".to_owned(),
            commit: "abc".to_owned(),
        };
        let text = format!(
            "host {}\noltp_shift setup_s 0.1 s (n=5)\ndetail {{\"extras\":{{}}}}\n{}\n",
            json::to_string(&stamp.to_value()),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.1,"unit":"s"}}}"#
        );
        let out = parse_output(&text).expect("parses");
        assert_eq!(out.host, Some(stamp));
        assert!(out.correct);
        assert_eq!(out.attempted, 3);
        assert_eq!(out.metrics["setup_s"], 0.1);
        assert!(out.detail.get("extras").is_some());
    }
}
