//! Runs the perf suite and publishes `BENCH.{json,csv,md}`.
//!
//! ```text
//! cargo run --release -p shift-perf --bin perf            # full suite
//! cargo run --release -p shift-perf --bin perf -- --quick # CI-sized
//! ```
//!
//! Artifacts land in `target/artifacts/` (`SHIFT_ARTIFACTS` overrides); see
//! `docs/PERFORMANCE.md` for how to read them.

use shift_perf::{artifact_dir, run_suite, to_artifact, SuiteMode};

fn main() {
    let (mode, name) = if std::env::args().any(|a| a == "--quick") {
        (SuiteMode::Quick, "quick")
    } else {
        (SuiteMode::Full, "full")
    };
    println!("shift-perf: running the {name} suite");
    let doc = run_suite(mode);

    println!();
    println!(
        "end-to-end (quickstart workload, 8 cores): baseline {:.0} fetches/s, SHIFT {:.0} fetches/s",
        doc.baseline_fetches_per_sec, doc.shift_fetches_per_sec
    );
    println!(
        "sweep: {:.2} Test-scale runs/s on {} thread(s)",
        doc.runs_per_sec, doc.threads
    );

    let artifact = to_artifact(&doc);
    let dir = artifact_dir();
    match artifact.write_to(&dir) {
        Ok(paths) => {
            for path in paths {
                println!("wrote {}", path.display());
            }
        }
        Err(e) => {
            eprintln!(
                "error: could not write BENCH artifacts to {}: {e}",
                dir.display()
            );
            std::process::exit(1);
        }
    }
}
