//! The benchmark against its own definition: `BENCHMARK.json` names the
//! metrics the code defines, and a reduced-size run of every workload emits
//! every one of them, with its unit, and passes its output checks.

use std::path::PathBuf;

use serde::{json, Value};
use shift_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use shift_benchmark::{run, RunConfig, Size, Workload, DEFAULT_SECONDS};

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("BENCHMARK.json has no list {key}: {other:?}"),
    }
}

fn keys(value: &Value) -> Vec<&str> {
    match value {
        Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn assert_matches(listed: &[Value], defined: &[MetricDef]) {
    assert_eq!(listed.len(), defined.len());
    for (entry, def) in listed.iter().zip(defined) {
        let field = |k: &str| entry.get(k).and_then(Value::as_str);
        assert_eq!(field("name"), Some(def.name));
        assert_eq!(field("unit"), Some(def.unit), "{}", def.name);
        assert_eq!(field("better"), Some(def.better.as_str()), "{}", def.name);
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            def.bound,
            "{}",
            def.name
        );
    }
}

#[test]
fn benchmark_json_names_the_metrics_and_workloads_the_code_defines() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_u64),
        Some(DEFAULT_SECONDS),
        "--seconds defaults to run_seconds"
    );
    let names: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            w.get("why").and_then(Value::as_str).expect("a why");
            w.get("name").and_then(Value::as_str).expect("a name")
        })
        .collect();
    let defined: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, defined);
    for m in entries(&doc, "end_to_end") {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
    }
    for m in entries(&doc, "per_layer") {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    assert_matches(entries(&doc, "end_to_end"), END_TO_END);
    assert_matches(entries(&doc, "per_layer"), PER_LAYER);
}

#[test]
fn a_smoke_run_of_every_workload_emits_every_metric_and_passes_its_checks() {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for workload in Workload::ALL {
        for (trace, defined) in [(false, END_TO_END), (true, PER_LAYER)] {
            let config = RunConfig {
                seed: 7,
                seconds: 0.0,
                trace,
                size: Size::Smoke,
                work_dir: work_dir.clone(),
            };
            let out = run(workload, &config).expect("the run completes");
            let label = format!("{} trace={trace}", workload.name());
            assert!(out.correct(), "{label}: {:?}", out.failures);
            assert!(out.attempted > 0, "{label}: nothing was checked");
            let emitted: Vec<(&str, &str)> = out
                .metrics
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            let expected: Vec<(&str, &str)> = defined.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(emitted, expected, "{label}");
            assert!(
                out.metrics.iter().all(|m| m.value.is_finite()),
                "{label}: {:?}",
                out.metrics
            );
            let line = json::parse(&out.result_line()).expect("the result line parses");
            assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
            assert!(out.digests.keys().any(|k| k.starts_with("run/")), "{label}");
            if trace {
                assert!(!out.spans.is_empty(), "{label}: no spans");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
}
