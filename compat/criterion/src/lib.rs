//! Local stand-in for the `criterion` crate so the workspace builds without
//! network access to a crate registry.
//!
//! Implements the subset of the criterion API the `shift-perf` harness uses:
//! benchmark groups, `bench_function`, and element `Throughput` — no
//! statistics engine, plots, or baselines.
//!
//! Measurement mirrors real criterion's structure: every benchmark first runs
//! *warm-up* passes (untimed, so caches, branch predictors, and lazily built
//! state settle), then `sample_size` timed samples; each sample times a batch
//! of `measurement_iterations` back-to-back iterations under one clock read
//! and the reported figure is the **median ns/iter** across samples. Results
//! are also recorded as [`BenchReport`]s on the [`Criterion`] driver, which is
//! how the `shift-perf` harness turns bench runs into `BENCH.json` artifacts.

#![forbid(unsafe_code)]

use std::hint;
use std::time::{Duration, Instant};

/// Throughput annotation (recorded on the report and echoed in the log line).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// The measured outcome of one benchmark, kept on the [`Criterion`] driver so
/// harnesses (the `shift-perf` binary) can consume numbers programmatically
/// instead of scraping stdout.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Group the benchmark ran in.
    pub group: String,
    /// Benchmark name (including any parameter suffix).
    pub name: String,
    /// Median time per iteration across the timed samples, in nanoseconds.
    pub median_ns_per_iter: f64,
    /// Number of timed samples taken.
    pub samples: usize,
    /// Iterations timed per sample.
    pub iterations_per_sample: u64,
    /// Throughput annotation, if the group declared one.
    pub throughput: Option<Throughput>,
}

impl BenchReport {
    /// Iterations (or annotated units) per second implied by the median.
    ///
    /// With a [`Throughput::Elements`] annotation this is elements/sec;
    /// without an annotation it is iterations/sec. Returns 0.0 for a zero
    /// median.
    pub fn per_second(&self) -> f64 {
        if self.median_ns_per_iter <= 0.0 {
            return 0.0;
        }
        let iters_per_sec = 1e9 / self.median_ns_per_iter;
        match self.throughput {
            Some(Throughput::Elements(n)) => iters_per_sec * n as f64,
            None => iters_per_sec,
        }
    }
}

/// The benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    reports: Vec<BenchReport>,
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("benchmark group: {name}");
        BenchmarkGroup {
            criterion: self,
            group: name.to_owned(),
            sample_size: 10,
            warm_up_iterations: 2,
            measurement_iterations: 1,
            throughput: None,
        }
    }

    /// Drains the recorded benchmark results, in execution order.
    pub fn take_reports(&mut self) -> Vec<BenchReport> {
        std::mem::take(&mut self.reports)
    }
}

/// A group of related benchmarks sharing sample settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    group: String,
    sample_size: usize,
    warm_up_iterations: u64,
    measurement_iterations: u64,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the number of untimed warm-up iterations run before sampling.
    pub fn warm_up_iterations(&mut self, n: u64) -> &mut Self {
        self.warm_up_iterations = n;
        self
    }

    /// Sets how many iterations each timed sample batches under one clock
    /// read (amortizing timer overhead for nanosecond-scale routines).
    pub fn measurement_iterations(&mut self, n: u64) -> &mut Self {
        self.measurement_iterations = n.max(1);
        self
    }

    /// Records the per-iteration throughput for the report.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}

    /// Runs a named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        // Warm-up: untimed iterations so the first timed sample does not pay
        // for cold caches or lazily initialized state.
        if self.warm_up_iterations > 0 {
            let mut warmup = Bencher {
                elapsed: Duration::ZERO,
                iterations: 0,
                batch: self.warm_up_iterations,
            };
            routine(&mut warmup);
        }

        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut bencher = Bencher {
                elapsed: Duration::ZERO,
                iterations: 0,
                batch: self.measurement_iterations,
            };
            routine(&mut bencher);
            if bencher.iterations > 0 {
                samples.push(bencher.elapsed.as_nanos() as f64 / bencher.iterations as f64);
            }
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
        let median = samples.get(samples.len() / 2).copied().unwrap_or(0.0);
        let throughput = match self.throughput {
            Some(Throughput::Elements(n)) if median > 0.0 => {
                format!("  ({:.0} elem/s)", n as f64 * 1e9 / median)
            }
            _ => String::new(),
        };
        println!(
            "  {name}: median {median:.1} ns/iter over {} samples × {} iters{throughput}",
            samples.len(),
            self.measurement_iterations,
        );
        self.criterion.reports.push(BenchReport {
            group: self.group.clone(),
            name: name.to_owned(),
            median_ns_per_iter: median,
            samples: samples.len(),
            iterations_per_sample: self.measurement_iterations,
            throughput: self.throughput,
        });
        self
    }
}

/// Timing context handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    elapsed: Duration,
    iterations: u64,
    batch: u64,
}

impl Bencher {
    /// Times `batch` back-to-back executions of `routine` under a single
    /// clock read (criterion's iteration batching), accumulating into this
    /// sample.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.batch {
            hint::black_box(routine());
        }
        self.elapsed += start.elapsed();
        self.iterations += self.batch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_warmup_then_samples_and_records_reports() {
        let mut criterion = Criterion::default();
        let mut runs = 0u32;
        {
            let mut group = criterion.benchmark_group("smoke");
            group
                .sample_size(3)
                .warm_up_iterations(2)
                .measurement_iterations(4)
                .throughput(Throughput::Elements(10));
            group.bench_function("counting", |b| {
                b.iter(|| {
                    runs += 1;
                    hint::black_box(runs)
                })
            });
            group.finish();
        }
        // 2 warm-up iterations + 3 samples × 4 iterations each.
        assert_eq!(runs, 2 + 3 * 4);
        let reports = criterion.take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].group, "smoke");
        assert_eq!(reports[0].name, "counting");
        assert_eq!(reports[0].samples, 3);
        assert_eq!(reports[0].iterations_per_sample, 4);
        assert!(reports[0].median_ns_per_iter >= 0.0);
        assert!(criterion.take_reports().is_empty());
    }

    #[test]
    fn per_second_scales_with_throughput_annotation() {
        let report = BenchReport {
            group: "g".into(),
            name: "n".into(),
            median_ns_per_iter: 100.0,
            samples: 3,
            iterations_per_sample: 1,
            throughput: Some(Throughput::Elements(50)),
        };
        // 100 ns/iter → 10M iters/sec → 500M elements/sec.
        assert!((report.per_second() - 5e8).abs() < 1.0);
        let plain = BenchReport {
            throughput: None,
            ..report
        };
        assert!((plain.per_second() - 1e7).abs() < 1.0);
        let zero = BenchReport {
            median_ns_per_iter: 0.0,
            ..plain
        };
        assert_eq!(zero.per_second(), 0.0);
    }
}
