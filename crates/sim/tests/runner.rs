//! Integration tests for the sweep engine: parallel execution must be
//! bit-identical to serial execution, and shared runs must be memoized.

use shift_sim::experiments::SpeedupComparisonPlan;
use shift_sim::{CmpConfig, Execution, PrefetcherConfig, RunMatrix, SimOptions, Simulation};
use shift_trace::{presets, ConsolidationSpec, Scale};

/// Builds the matrix a figure-8-style sweep would: two workloads, a
/// consolidated mix, and several prefetchers sharing one baseline each.
fn figure_sized_matrix() -> RunMatrix {
    let mut matrix = RunMatrix::new();
    let workloads = [
        presets::tiny().with_region_index(0),
        presets::tiny().with_region_index(1),
    ];
    for workload in &workloads {
        for prefetcher in [
            PrefetcherConfig::None,
            PrefetcherConfig::next_line(),
            PrefetcherConfig::pif_2k(),
            PrefetcherConfig::shift_virtualized(),
        ] {
            matrix.standalone(workload, prefetcher, 4, Scale::Test, 21);
        }
    }
    let mix = ConsolidationSpec::even_split(workloads.to_vec(), 4);
    matrix.consolidated(
        CmpConfig::micro13(4, PrefetcherConfig::shift_virtualized()),
        &mix,
        SimOptions::new(Scale::Test, 21),
    );
    matrix
}

#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    let matrix = figure_sized_matrix();
    assert_eq!(matrix.len(), 9);

    let serial = Execution::new(&matrix)
        .serial()
        .run()
        .unwrap()
        .into_outcomes();
    let parallel = Execution::new(&matrix)
        .threads(4)
        .run()
        .unwrap()
        .into_outcomes();
    let default = matrix.execute();

    assert_eq!(serial.len(), parallel.len());
    // RunResult has no Eq (it carries f64 fields), but its Debug form renders
    // floats in shortest round-trip notation, so equal strings mean
    // bit-identical results for every counter and cycle count.
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    assert_eq!(format!("{serial:?}"), format!("{default:?}"));
}

#[test]
fn repeated_executions_are_deterministic() {
    let matrix = figure_sized_matrix();
    let first = matrix.execute();
    let second = matrix.execute();
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
}

#[test]
fn batched_stepping_is_bit_identical_to_run() {
    // The batched entry point must be a pure partitioning of the same
    // schedule: stepping warm-up and measurement in uneven chunks yields the
    // exact result `Simulation::run` assembles in one go, for both SHIFT and
    // PIF engines.
    for prefetcher in [
        PrefetcherConfig::shift_virtualized(),
        PrefetcherConfig::pif_32k(),
    ] {
        let config = CmpConfig::micro13(4, prefetcher);
        let options = SimOptions::new(Scale::Test, 55);
        let sim = Simulation::standalone(config, presets::tiny(), options);

        let whole = sim.run();

        let mut engine = sim.engine();
        let mut remaining = engine.warmup_rounds();
        while remaining > 0 {
            let chunk = remaining.min(777);
            engine.step_rounds(chunk);
            remaining -= chunk;
        }
        engine.begin_measurement();
        let mut remaining = engine.measured_rounds();
        while remaining > 0 {
            let chunk = remaining.min(1_024);
            engine.step_rounds(chunk);
            remaining -= chunk;
        }
        let chunked = engine.finish();

        assert_eq!(format!("{whole:?}"), format!("{chunked:?}"));
    }
}

#[test]
fn batched_stepping_matches_matrix_outcomes_across_thread_counts() {
    // `SHIFT_THREADS=1` vs `=4` determinism, extended to the batched path: a
    // hand-stepped engine must reproduce the matrix-executed result at any
    // worker count.
    let workload = presets::tiny();
    let mut matrix = RunMatrix::new();
    let handle = matrix.standalone(
        &workload,
        PrefetcherConfig::shift_virtualized(),
        4,
        Scale::Test,
        21,
    );

    let serial = Execution::new(&matrix)
        .serial()
        .run()
        .unwrap()
        .into_outcomes();
    let parallel = Execution::new(&matrix)
        .threads(4)
        .run()
        .unwrap()
        .into_outcomes();

    let config = CmpConfig::micro13(4, PrefetcherConfig::shift_virtualized());
    let sim = Simulation::standalone(config, workload, SimOptions::new(Scale::Test, 21));
    let mut engine = sim.engine();
    engine.step_rounds(engine.warmup_rounds());
    engine.begin_measurement();
    let half = engine.measured_rounds() / 2;
    engine.step_rounds(half);
    engine.step_rounds(engine.measured_rounds() - half);
    let stepped = engine.finish();

    assert_eq!(format!("{:?}", serial[handle]), format!("{stepped:?}"));
    assert_eq!(format!("{:?}", parallel[handle]), format!("{stepped:?}"));
}

#[test]
fn driver_results_are_identical_across_thread_counts() {
    let workloads = [presets::tiny()];
    let prefetchers = [
        PrefetcherConfig::next_line(),
        PrefetcherConfig::shift_virtualized(),
    ];
    // The thread count only changes the worker pool, never the results: run
    // one planned figure on one thread and on many.
    let mut matrix = RunMatrix::new();
    let plan =
        SpeedupComparisonPlan::plan(&mut matrix, &workloads, &prefetchers, 4, Scale::Test, 33);
    let collect = |threads| {
        let outcomes = Execution::new(&matrix).threads(threads).run().unwrap();
        plan.collect(&outcomes.into_outcomes())
    };
    let serial = collect(1);
    let parallel = collect(8);

    assert_eq!(format!("{:?}", serial.rows), format!("{:?}", parallel.rows));
    assert_eq!(serial.geomean, parallel.geomean);
}
