//! The `shift-perf` measurement subsystem.
//!
//! Wall-clock per simulated fetch is the binding constraint on how many
//! (workload × prefetcher × scale × seed) scenarios the reproduction can
//! sweep, so this crate gives every PR a recorded perf datapoint:
//!
//! * **Microbenchmarks** (via the upgraded `compat/criterion` shim: warm-up
//!   passes, batched timed iterations, median ns/iter) for the components on
//!   the per-fetch hot path — trace generation, history-buffer append/read,
//!   index-table lookup, LLC bank tag scan, tabulated NoC round trip, SHIFT
//!   and PIF lookup.
//! * **End-to-end engine stepping** on the quickstart workload (the same
//!   web-frontend configuration `examples/quickstart.rs` runs), measured in
//!   simulated fetches per second through [`shift_sim::Engine::step_rounds`],
//!   the batched stepping entry point.
//! * **Sweep throughput**: a small deduplicated [`shift_sim::RunMatrix`]
//!   executed end to end, in runs per second.
//! * **Planning**: one content-addressed run-key id and one figure planned
//!   into a fresh matrix — the JSON rendering every plan pays per key. Not
//!   gated; they show writer or derive regressions from run to run.
//!
//! The `perf` binary runs the whole suite and publishes
//! `target/artifacts/BENCH.{json,csv,md}` through [`shift_report::Artifact`]
//! (`SHIFT_ARTIFACTS` overrides the directory), so the numbers are
//! machine-diffable across PRs — CI uploads them from every build (quick
//! mode: `--quick` or `SHIFT_PERF_QUICK=1`). See `docs/PERFORMANCE.md` for
//! how to read the trajectory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

use criterion::{BenchReport, Criterion, Throughput};
use serde::Serialize;
use shift_cache::{CacheConfig, LlcConfig, NucaLlc, SetAssocCache};
use shift_core::{
    HistoryBuffer, IndexTable, InstructionPrefetcher, Pif, PifConfig, Shift, ShiftConfig,
    SpatialRegion,
};
use shift_noc::{Mesh, MeshConfig, RoundTripTable};
use shift_report::{Artifact, Table};
use shift_sim::experiments::SpeedupComparisonPlan;
use shift_sim::matrix::default_threads;
use shift_sim::{CmpConfig, PrefetcherConfig, RunKey, RunMatrix, SimOptions};
use shift_trace::{presets, CoreTraceGenerator, Scale, WorkloadSpec};
use shift_types::{AccessClass, BlockAddr, CoreId};

/// How large a suite to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteMode {
    /// CI-sized: fewer samples and shorter stepping batches (~seconds).
    Quick,
    /// Full-sized: the numbers recorded in the `docs/PERFORMANCE.md`
    /// trajectory.
    Full,
}

impl SuiteMode {
    /// Reads the mode from the process arguments (`--quick`) and the
    /// `SHIFT_PERF_QUICK` environment variable (any non-empty value but `0`).
    pub fn from_env_and_args() -> Self {
        let arg_quick = std::env::args().any(|a| a == "--quick");
        let env_quick = std::env::var("SHIFT_PERF_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
        if arg_quick || env_quick {
            SuiteMode::Quick
        } else {
            SuiteMode::Full
        }
    }

    fn is_quick(self) -> bool {
        self == SuiteMode::Quick
    }
}

/// One measured component, in the `BENCH.json` document.
#[derive(Clone, Debug, Serialize)]
pub struct ComponentResult {
    /// Criterion group the measurement ran in.
    pub group: String,
    /// Benchmark name.
    pub name: String,
    /// Median nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations (or annotated elements) per second implied by the median.
    pub per_sec: f64,
}

impl ComponentResult {
    fn from_report(report: &BenchReport) -> Self {
        ComponentResult {
            group: report.group.clone(),
            name: report.name.clone(),
            ns_per_op: report.median_ns_per_iter,
            per_sec: report.per_second(),
        }
    }
}

/// The full suite result: the `data` tree of the `BENCH` artifact.
#[derive(Clone, Debug, Serialize)]
pub struct BenchDoc {
    /// Document schema tag, bumped when fields change meaning.
    pub schema: u32,
    /// `true` if the quick (CI-sized) suite produced these numbers.
    pub quick: bool,
    /// Worker threads the sweep measurement used (`SHIFT_THREADS` or the
    /// host's available parallelism).
    pub threads: usize,
    /// End-to-end simulated fetches per second, baseline (no prefetcher).
    pub baseline_fetches_per_sec: f64,
    /// End-to-end simulated fetches per second with virtualized SHIFT (the
    /// quickstart configuration; the headline throughput number).
    pub shift_fetches_per_sec: f64,
    /// Complete Test-scale simulations per second through `RunMatrix`.
    pub runs_per_sec: f64,
    /// Per-component medians.
    pub components: Vec<ComponentResult>,
}

/// The quickstart workload the end-to-end measurement steps — the same
/// configuration `examples/quickstart.rs` simulates.
pub fn quickstart_workload() -> WorkloadSpec {
    presets::web_frontend().scaled_footprint(0.25)
}

fn bench_trace_generation(c: &mut Criterion, mode: SuiteMode) {
    let mut group = c.benchmark_group("trace");
    group
        .sample_size(if mode.is_quick() { 5 } else { 10 })
        .warm_up_iterations(10_000)
        .measurement_iterations(if mode.is_quick() { 20_000 } else { 100_000 })
        .throughput(Throughput::Elements(1));
    let mut generator = CoreTraceGenerator::new(&quickstart_workload(), CoreId::new(0), 7);
    group.bench_function("next_event", |b| b.iter(|| generator.next_event()));
    group.finish();
}

fn bench_history_buffer(c: &mut Criterion, mode: SuiteMode) {
    let mut group = c.benchmark_group("history");
    group
        .sample_size(if mode.is_quick() { 5 } else { 10 })
        .warm_up_iterations(1_000)
        .measurement_iterations(if mode.is_quick() { 20_000 } else { 100_000 })
        .throughput(Throughput::Elements(1));

    let mut history = HistoryBuffer::new(32 * 1024);
    let mut trigger = 0u64;
    group.bench_function("append", |b| {
        b.iter(|| {
            trigger = trigger.wrapping_add(16);
            history.append(SpatialRegion::new(BlockAddr::new(trigger), 8))
        })
    });

    let mut ptr = 0u32;
    let mut window = Vec::with_capacity(8);
    group.bench_function("read_window5", |b| {
        b.iter(|| {
            window.clear();
            history.read_into(ptr, 5, &mut window);
            ptr = history.advance_ptr(ptr, 1);
            window.len()
        })
    });
    group.finish();
}

fn bench_index_table(c: &mut Criterion, mode: SuiteMode) {
    let mut group = c.benchmark_group("index");
    group
        .sample_size(if mode.is_quick() { 5 } else { 10 })
        .warm_up_iterations(1_000)
        .measurement_iterations(if mode.is_quick() { 20_000 } else { 100_000 })
        .throughput(Throughput::Elements(1));

    // The paper's PIF_32K design point: an 8 K-entry per-core index table,
    // fully populated so every lookup probes a live open-addressed slot and
    // splices the LRU list (the hot path of every L1-I miss).
    const ENTRIES: u64 = 8 * 1024;
    let mut table = IndexTable::new(ENTRIES as usize);
    for i in 0..ENTRIES {
        table.update(BlockAddr::new(i * 3), i as u32);
    }
    let mut key = 0u64;
    group.bench_function("lookup_hit", |b| {
        b.iter(|| {
            key += 1;
            if key == ENTRIES {
                key = 0;
            }
            table.lookup(BlockAddr::new(key * 3))
        })
    });
    group.finish();
}

fn bench_bank_scan(c: &mut Criterion, mode: SuiteMode) {
    let mut group = c.benchmark_group("scan");
    group
        .sample_size(if mode.is_quick() { 5 } else { 10 })
        .warm_up_iterations(1_000)
        .measurement_iterations(if mode.is_quick() { 20_000 } else { 100_000 })
        .throughput(Throughput::Elements(1));

    // One LLC bank's worth of sets at the paper's 16-way associativity, fully
    // resident, so every access scans a full 16-tag set — the packed-array
    // scan the SoA layout (and the optional `simd` feature) accelerates.
    const SETS: u64 = 512;
    const WAYS: u64 = 16;
    let mut bank: SetAssocCache<()> = SetAssocCache::new(CacheConfig::new(
        (SETS * WAYS) as usize * 64,
        WAYS as usize,
        64,
        10,
    ));
    for way in 0..WAYS {
        for set in 0..SETS {
            bank.fill(BlockAddr::new(way * SETS + set), ());
        }
    }
    let mut i = 0u64;
    group.bench_function("bank_tag_scan", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let block = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (SETS * WAYS);
            bank.access(BlockAddr::new(block)).is_hit()
        })
    });
    group.finish();
}

/// Builds a SHIFT instance whose generator core has recorded a long stream,
/// plus the warmed LLC it virtualizes into.
fn warmed_shift() -> (Shift, NucaLlc) {
    let mut llc = NucaLlc::new(LlcConfig::micro13(16));
    let config = ShiftConfig::virtualized_micro13(CoreId::new(0), BlockAddr::new(0x7000_0000));
    let mut shift = Shift::new(config, 16);
    let mut out = Vec::new();
    for rep in 0..200u64 {
        for step in 0..64u64 {
            let block = BlockAddr::new(0x1000 + step * 3 + (rep % 2));
            llc.access(block, AccessClass::Demand);
            shift.on_retire(CoreId::new(0), block, &mut llc, &mut out);
            out.clear();
        }
    }
    (shift, llc)
}

fn bench_prefetcher_lookup(c: &mut Criterion, mode: SuiteMode) {
    let mut group = c.benchmark_group("lookup");
    group
        .sample_size(if mode.is_quick() { 5 } else { 10 })
        .warm_up_iterations(100)
        .measurement_iterations(if mode.is_quick() { 2_000 } else { 10_000 })
        .throughput(Throughput::Elements(1));

    let (mut shift, mut llc) = warmed_shift();
    let mut out = Vec::new();
    group.bench_function("shift_on_access_miss", |b| {
        b.iter(|| {
            out.clear();
            shift.on_access(
                CoreId::new(7),
                BlockAddr::new(0x1000),
                false,
                &mut llc,
                &mut out,
            );
            out.len()
        })
    });

    let mut pif = Pif::new(PifConfig::pif_32k(), 1);
    let mut pif_llc = NucaLlc::new(LlcConfig::micro13(1));
    for rep in 0..200u64 {
        for step in 0..64u64 {
            let block = BlockAddr::new(0x1000 + step * 3 + (rep % 2));
            pif.on_retire(CoreId::new(0), block, &mut pif_llc, &mut out);
            out.clear();
        }
    }
    group.bench_function("pif_on_access_miss", |b| {
        b.iter(|| {
            out.clear();
            pif.on_access(
                CoreId::new(0),
                BlockAddr::new(0x1000),
                false,
                &mut pif_llc,
                &mut out,
            );
            out.len()
        })
    });
    group.finish();
}

fn bench_noc(c: &mut Criterion, mode: SuiteMode) {
    let mut group = c.benchmark_group("noc");
    group
        .sample_size(if mode.is_quick() { 5 } else { 10 })
        .warm_up_iterations(1_000)
        .measurement_iterations(if mode.is_quick() { 20_000 } else { 100_000 })
        .throughput(Throughput::Elements(1));

    // The engine's LLC access pattern: an 8 B request out, a 64 B block
    // back, on the paper's 4×4 mesh — one tabulated round trip per
    // iteration, cycling through every (core tile, bank tile) pair so the
    // table row is not pinned in L1.
    let config = MeshConfig::micro13();
    let table = RoundTripTable::new(&config, 8, 64);
    let tiles = config.tiles();
    let mut mesh = Mesh::new(config);
    let mut i = 0usize;
    group.bench_function("round_trip", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let from = i % tiles;
            let to = (i / tiles) % tiles;
            mesh.record_round_trip(&table, from, to, AccessClass::Demand)
        })
    });
    group.finish();
}

/// Rounds each timed engine sample steps (per core).
fn engine_rounds(mode: SuiteMode) -> usize {
    if mode.is_quick() {
        1_000
    } else {
        5_000
    }
}

fn bench_engine(c: &mut Criterion, mode: SuiteMode) {
    let cores = 8u16;
    let rounds = engine_rounds(mode);
    let mut group = c.benchmark_group("engine");
    group
        .sample_size(if mode.is_quick() { 5 } else { 10 })
        .warm_up_iterations(1)
        .measurement_iterations(1)
        .throughput(Throughput::Elements(rounds as u64 * cores as u64));

    for prefetcher in [
        PrefetcherConfig::None,
        PrefetcherConfig::next_line(),
        PrefetcherConfig::shift_virtualized(),
    ] {
        let label = prefetcher.label();
        let config = CmpConfig::micro13(cores, prefetcher);
        let options = SimOptions::new(Scale::Demo, 1);
        let sim = shift_sim::Simulation::standalone(config, quickstart_workload(), options);
        let mut engine = sim.engine();
        // Reach steady state before sampling: warmed caches and history.
        engine.step_rounds(if mode.is_quick() { 5_000 } else { 20_000 });
        group.bench_function(&format!("step_{label}"), |b| {
            b.iter(|| engine.step_rounds(rounds))
        });
    }
    group.finish();
}

fn bench_matrix(c: &mut Criterion, mode: SuiteMode) {
    let mut matrix = RunMatrix::new();
    let workload = presets::tiny();
    for prefetcher in [
        PrefetcherConfig::None,
        PrefetcherConfig::next_line(),
        PrefetcherConfig::shift_virtualized(),
    ] {
        matrix.standalone(&workload, prefetcher, 4, Scale::Test, 7);
    }
    let runs = matrix.len() as u64;
    let mut group = c.benchmark_group("matrix");
    group
        .sample_size(if mode.is_quick() { 2 } else { 5 })
        .warm_up_iterations(if mode.is_quick() { 0 } else { 1 })
        .measurement_iterations(1)
        .throughput(Throughput::Elements(runs));
    group.bench_function("execute_test_scale", |b| b.iter(|| matrix.execute().len()));
    group.finish();
}

/// The plan layer: one run key's content-addressed id (its canonical JSON,
/// rendered and hashed), and Figure 8's sweep over two workloads planned
/// into a fresh matrix, which computes one id per distinct key.
fn bench_plan(c: &mut Criterion, mode: SuiteMode) {
    let (cores, scale, seed) = (4, Scale::Test, 42);
    let key = RunKey::standalone(
        CmpConfig::micro13(cores, PrefetcherConfig::shift_virtualized()),
        presets::web_frontend(),
        SimOptions::new(scale, seed),
    );
    let workloads = [presets::web_frontend(), presets::media_streaming()];
    let prefetchers = PrefetcherConfig::figure8_suite();
    let mut group = c.benchmark_group("matrix");
    group
        .sample_size(if mode.is_quick() { 5 } else { 10 })
        .warm_up_iterations(10)
        .measurement_iterations(if mode.is_quick() { 200 } else { 1_000 })
        .throughput(Throughput::Elements(1));
    group.bench_function("run_key_id", |b| b.iter(|| key.id()));
    group.measurement_iterations(if mode.is_quick() { 20 } else { 100 });
    group.bench_function("plan_fig08", |b| {
        b.iter(|| {
            let mut matrix = RunMatrix::new();
            SpeedupComparisonPlan::plan(&mut matrix, &workloads, &prefetchers, cores, scale, seed);
            matrix.len()
        })
    });
    group.finish();
}

/// Runs the whole suite and assembles the `BENCH` document.
pub fn run_suite(mode: SuiteMode) -> BenchDoc {
    let mut criterion = Criterion::default();
    bench_trace_generation(&mut criterion, mode);
    bench_history_buffer(&mut criterion, mode);
    bench_index_table(&mut criterion, mode);
    bench_bank_scan(&mut criterion, mode);
    bench_prefetcher_lookup(&mut criterion, mode);
    bench_noc(&mut criterion, mode);
    bench_engine(&mut criterion, mode);
    bench_matrix(&mut criterion, mode);
    bench_plan(&mut criterion, mode);

    let reports = criterion.take_reports();
    let find = |group: &str, name: &str| -> f64 {
        reports
            .iter()
            .find(|r| r.group == group && r.name == name)
            .map(BenchReport::per_second)
            .unwrap_or(0.0)
    };
    BenchDoc {
        schema: 1,
        quick: mode.is_quick(),
        threads: default_threads(),
        baseline_fetches_per_sec: find("engine", "step_Baseline"),
        shift_fetches_per_sec: find("engine", "step_SHIFT"),
        runs_per_sec: find("matrix", "execute_test_scale"),
        components: reports.iter().map(ComponentResult::from_report).collect(),
    }
}

/// Renders the document as the `BENCH` artifact (JSON + CSV + markdown).
pub fn to_artifact(doc: &BenchDoc) -> Artifact {
    let mut table = Table::new(["group", "name", "ns_per_op", "per_sec"]);
    for component in &doc.components {
        table.push_row([
            component.group.as_str(),
            component.name.as_str(),
            &format!("{:.1}", component.ns_per_op),
            &format!("{:.0}", component.per_sec),
        ]);
    }
    table.push_row([
        "end_to_end",
        "baseline_fetches_per_sec",
        "",
        &format!("{:.0}", doc.baseline_fetches_per_sec),
    ]);
    table.push_row([
        "end_to_end",
        "shift_fetches_per_sec",
        "",
        &format!("{:.0}", doc.shift_fetches_per_sec),
    ]);
    table.push_row([
        "end_to_end",
        "runs_per_sec",
        "",
        &format!("{:.2}", doc.runs_per_sec),
    ]);
    Artifact::new("BENCH", "Simulator throughput benchmark", doc, table)
}

/// The artifact output directory: `SHIFT_ARTIFACTS` or `target/artifacts`.
pub fn artifact_dir() -> std::path::PathBuf {
    std::env::var_os("SHIFT_ARTIFACTS")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new("target").join("artifacts"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_produces_nonzero_headline_numbers() {
        let doc = run_suite(SuiteMode::Quick);
        assert!(doc.quick);
        assert!(doc.threads >= 1);
        assert!(doc.baseline_fetches_per_sec > 0.0);
        assert!(doc.shift_fetches_per_sec > 0.0);
        assert!(doc.runs_per_sec > 0.0);
        assert!(doc.components.len() >= 9);
        for (group, name) in gate::GATED_COMPONENTS {
            assert!(
                doc.components
                    .iter()
                    .any(|c| c.group == *group && c.name == *name),
                "suite did not measure gated component {group}/{name}"
            );
        }
        assert!(doc.components.iter().all(|c| c.ns_per_op >= 0.0));
    }

    #[test]
    fn artifact_renders_all_formats() {
        let doc = BenchDoc {
            schema: 1,
            quick: true,
            threads: 4,
            baseline_fetches_per_sec: 2e6,
            shift_fetches_per_sec: 1.5e6,
            runs_per_sec: 10.0,
            components: vec![ComponentResult {
                group: "trace".into(),
                name: "next_event".into(),
                ns_per_op: 55.0,
                per_sec: 1.8e7,
            }],
        };
        let artifact = to_artifact(&doc);
        assert_eq!(artifact.name(), "BENCH");
        let json = artifact.to_json();
        assert!(json.contains("\"shift_fetches_per_sec\""));
        assert!(json.contains("\"components\""));
        let md = artifact.to_markdown();
        assert!(md.contains("ns_per_op"));
    }

    #[test]
    fn mode_detection_follows_env_variable() {
        // The test binary is never invoked with `--quick`, so the env
        // variable alone decides. No other test in this binary reads it.
        std::env::remove_var("SHIFT_PERF_QUICK");
        assert_eq!(SuiteMode::from_env_and_args(), SuiteMode::Full);
        std::env::set_var("SHIFT_PERF_QUICK", "0");
        assert_eq!(SuiteMode::from_env_and_args(), SuiteMode::Full);
        std::env::set_var("SHIFT_PERF_QUICK", "1");
        assert_eq!(SuiteMode::from_env_and_args(), SuiteMode::Quick);
        std::env::remove_var("SHIFT_PERF_QUICK");
    }
}
