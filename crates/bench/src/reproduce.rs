//! The all-in-one reproduction driver: every figure and table of the paper
//! planned into **one** [`RunMatrix`], executed once, and fanned back out to
//! per-figure artifacts plus a reference scoreboard.
//!
//! Planning the whole evaluation into a single matrix is what makes the
//! reproduction cheap: runs shared between figures deduplicate by key, so
//! the no-prefetch baselines (used by Figures 1, 2, 8 and §5.6), the
//! PIF/SHIFT runs shared by Figures 7, 8, 9 and §5.7, and the PIF_32K column
//! shared by Figure 2 and §5.6 all simulate exactly once for the whole
//! paper instead of once per figure. [`PaperPlan::saved_by_dedup`] reports
//! how many simulations the sharing avoided.
//!
//! The Figure 3 commonality study is not made of [`Simulation`] runs (it
//! measures raw trace streams), so it fans out through the same worker pool
//! separately, and the §5.1 storage table and Table I are pure arithmetic.
//!
//! The plan and the artifact derivation are deliberately split
//! ([`PaperPlan::plan`] / [`PaperPlan::collect`]): between them the planned
//! matrix can execute in-process ([`PaperPlan::execute`]), as `K/N` shards
//! on many machines, as an elastic work-queue drain by any number of
//! heterogeneous hosts sharing one outcome directory, or incrementally on
//! top of a cache of an earlier sweep's outcomes — with the directories
//! merged back through a [`shift_sim::RunStore`]. The `reproduce` binary's
//! `--shard` / `--queue` / `--outcomes` / `--reuse` / `--merge` flags drive
//! exactly that, and the merged scoreboard is byte-identical to the
//! single-process one (locked by the `sharded_reproduce` and
//! `queue_reproduce` integration tests).
//!
//! [`Simulation`]: shift_sim::Simulation

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use shift_report::{scoreboard, Artifact};
use shift_sim::experiments::{
    commonality, storage_table, ConsolidationPlan, CoverageBreakdownPlan, EliminationPlan,
    HistorySweepPlan, HybridShootoutPlan, LlcTrafficPlan, PerformanceDensityPlan,
    PowerOverheadPlan, SpeedupComparisonPlan,
};
use shift_sim::{CmpConfig, Execution, PrefetcherConfig, RunMatrix};
use shift_trace::{presets, Scale, WorkloadSpec};

use crate::artifacts::{
    fig01_artifact, fig02_artifact, fig03_artifact, fig06_artifact, fig07_artifact, fig08_artifact,
    fig09_artifact, fig10_artifact, figure1_fractions, figure6_sizes, hybrid_lab_artifact,
    table1_artifact, table_pd_artifact, table_power_artifact, table_storage_artifact,
};
use crate::{cores_from_env, scale_from_env, workloads_from_env, HARNESS_SEED};

/// Everything that parameterizes a whole-paper reproduction run.
#[derive(Clone, Debug)]
pub struct ReproduceSettings {
    /// Simulated core count (16 in the paper).
    pub cores: u16,
    /// Trace length per core.
    pub scale: Scale,
    /// Seed for all runs.
    pub seed: u64,
    /// The standalone workload suite (Figures 1–9, §5.6, §5.7).
    pub workloads: Vec<WorkloadSpec>,
}

impl ReproduceSettings {
    /// Settings from the harness environment variables (`SHIFT_SCALE`,
    /// `SHIFT_CORES`, `SHIFT_WORKLOADS`) with the fixed harness seed. Each
    /// variable is read once, so each of its warnings prints once.
    ///
    /// # Errors
    ///
    /// [`PlanError::TooFewCores`] if `SHIFT_CORES` is below 2 and
    /// [`PlanError::TooManyCores`] if it is above [`MAX_CORES`], the same
    /// errors a served plan with that core count gets.
    pub fn from_env() -> Result<Self, PlanError> {
        let (cores, scale, workloads) = (cores_from_env(), scale_from_env(), workloads_from_env());
        check_cores(cores)?;
        Ok(ReproduceSettings::new(
            cores,
            scale,
            HARNESS_SEED,
            workloads,
        ))
    }

    /// Explicit settings (used by tests at reduced scale).
    pub fn new(cores: u16, scale: Scale, seed: u64, workloads: Vec<WorkloadSpec>) -> Self {
        assert!(cores >= 2, "the commonality study needs at least 2 cores");
        assert!(!workloads.is_empty(), "need at least one workload");
        ReproduceSettings {
            cores,
            scale,
            seed,
            workloads,
        }
    }
}

/// A wire-serializable sweep submission: [`ReproduceSettings`] with the
/// workloads referenced *by preset name* instead of by their full parameter
/// blocks, so a client can submit a plan as a small JSON document and the
/// server resolves it against the same catalog `reproduce` itself uses.
///
/// Naming (rather than inlining) the workload parameters is a correctness
/// feature for the serving path: two clients asking for "OLTP DB2" always
/// resolve to byte-identical [`WorkloadSpec`]s, so their planned matrices
/// share [`RunKeyId`](shift_sim::RunKeyId)s and the outcome cache
/// deduplicates across submissions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanSpec {
    /// Simulated core count (16 in the paper): at least 2 and at most
    /// [`MAX_CORES`].
    pub cores: u16,
    /// Trace length per core.
    pub scale: Scale,
    /// Seed for all runs.
    pub seed: u64,
    /// Preset workload names (case-insensitive; empty means the full paper
    /// suite). See [`PlanSpec::catalog`].
    pub workloads: Vec<String>,
}

/// The largest simulated core count a plan may ask for: a square 8 × 8
/// mesh, four times the paper's 16-core CMP. An engine sizes its LLC and
/// its NoC round-trip table from the core count (the table with its
/// square), so an unbounded count from a submitted plan could ask one run
/// for more memory than the host has and abort the daemon.
pub const MAX_CORES: u16 = 64;

/// Why a [`PlanSpec`] could not be resolved into [`ReproduceSettings`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// Fewer than two cores (the commonality study needs at least 2).
    TooFewCores {
        /// The rejected core count.
        cores: u16,
    },
    /// More cores than [`MAX_CORES`].
    TooManyCores {
        /// The rejected core count.
        cores: u16,
        /// The largest core count a plan may ask for.
        max: u16,
    },
    /// A workload name matched nothing in the catalog.
    UnknownWorkload {
        /// The unmatched name as submitted.
        name: String,
        /// Every name the catalog does know, for the error message.
        known: Vec<String>,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::TooFewCores { cores } => {
                write!(f, "plan needs at least 2 cores, got {cores}")
            }
            PlanError::TooManyCores { cores, max } => {
                write!(f, "plan may simulate at most {max} cores, got {cores}")
            }
            PlanError::UnknownWorkload { name, known } => {
                write!(f, "unknown workload {name:?}; known: {}", known.join(", "))
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Checks a plan's core count against `2..=MAX_CORES`.
fn check_cores(cores: u16) -> Result<(), PlanError> {
    if cores < 2 {
        Err(PlanError::TooFewCores { cores })
    } else if cores > MAX_CORES {
        Err(PlanError::TooManyCores {
            cores,
            max: MAX_CORES,
        })
    } else {
        Ok(())
    }
}

impl PlanSpec {
    /// The names a submission may reference: the paper suite plus the
    /// test-scale `Tiny` workload (so smoke submissions stay cheap).
    pub fn catalog() -> Vec<WorkloadSpec> {
        let mut suite = presets::paper_suite();
        suite.push(presets::tiny());
        suite
    }

    /// A spec naming the given settings' workloads (the inverse of
    /// [`resolve`](PlanSpec::resolve) for catalog workloads).
    pub fn from_settings(settings: &ReproduceSettings) -> Self {
        PlanSpec {
            cores: settings.cores,
            scale: settings.scale,
            seed: settings.seed,
            workloads: settings.workloads.iter().map(|w| w.name.clone()).collect(),
        }
    }

    /// Resolves the named workloads against the catalog into full
    /// [`ReproduceSettings`]. Matching is case-insensitive but otherwise
    /// exact; an empty workload list selects the whole paper suite.
    ///
    /// # Errors
    ///
    /// [`PlanError::TooFewCores`] if `cores < 2`;
    /// [`PlanError::TooManyCores`] if `cores > MAX_CORES`;
    /// [`PlanError::UnknownWorkload`] naming the first unmatched workload.
    pub fn resolve(&self) -> Result<ReproduceSettings, PlanError> {
        check_cores(self.cores)?;
        let catalog = Self::catalog();
        let workloads = if self.workloads.is_empty() {
            presets::paper_suite()
        } else {
            self.workloads
                .iter()
                .map(|name| {
                    catalog
                        .iter()
                        .find(|w| w.name.eq_ignore_ascii_case(name))
                        .cloned()
                        .ok_or_else(|| PlanError::UnknownWorkload {
                            name: name.clone(),
                            known: catalog.iter().map(|w| w.name.clone()).collect(),
                        })
                })
                .collect::<Result<Vec<_>, _>>()?
        };
        Ok(ReproduceSettings::new(
            self.cores, self.scale, self.seed, workloads,
        ))
    }
}

/// The planned whole-paper evaluation: one deduplicated [`RunMatrix`] plus
/// each figure's handles into it.
#[derive(Debug)]
pub struct PaperPlan {
    settings: ReproduceSettings,
    matrix: RunMatrix,
    naive_runs: usize,
    fig01: EliminationPlan,
    fig02: PerformanceDensityPlan,
    fig06: HistorySweepPlan,
    fig07: CoverageBreakdownPlan,
    fig08: SpeedupComparisonPlan,
    fig09: LlcTrafficPlan,
    fig10: ConsolidationPlan,
    table_pd: PerformanceDensityPlan,
    table_power: PowerOverheadPlan,
    hybrid: HybridShootoutPlan,
}

impl PaperPlan {
    /// Plans all ten experiments into one matrix.
    pub fn plan(settings: ReproduceSettings) -> Self {
        assert!(
            settings.cores >= 2,
            "the commonality study needs at least 2 cores"
        );
        let ReproduceSettings {
            cores,
            scale,
            seed,
            ref workloads,
        } = settings;
        let mut matrix = RunMatrix::new();
        let mut naive_runs = 0usize;

        let fig01 = Self::plan_counted(&mut matrix, &mut naive_runs, |m| {
            EliminationPlan::plan(m, workloads, &figure1_fractions(), cores, scale, seed)
        });
        let fig02 = Self::plan_counted(&mut matrix, &mut naive_runs, |m| {
            PerformanceDensityPlan::plan(
                m,
                workloads,
                &[PrefetcherConfig::pif_32k()],
                cores,
                scale,
                seed,
            )
        });
        let fig06 = Self::plan_counted(&mut matrix, &mut naive_runs, |m| {
            HistorySweepPlan::plan(m, workloads, &figure6_sizes(), cores, scale, seed)
        });

        // The PIF_2K / PIF_32K / SHIFT trio is shared verbatim by Figure 7
        // and the §5.6 performance-density table, so its runs collapse in
        // the merged matrix.
        let pif_vs_shift = [
            PrefetcherConfig::pif_2k(),
            PrefetcherConfig::pif_32k(),
            PrefetcherConfig::shift_virtualized(),
        ];
        let fig07 = Self::plan_counted(&mut matrix, &mut naive_runs, |m| {
            CoverageBreakdownPlan::plan(m, workloads, &pif_vs_shift, cores, scale, seed)
        });
        let fig08 = Self::plan_counted(&mut matrix, &mut naive_runs, |m| {
            SpeedupComparisonPlan::plan(
                m,
                workloads,
                &PrefetcherConfig::figure8_suite(),
                cores,
                scale,
                seed,
            )
        });
        let fig09 = Self::plan_counted(&mut matrix, &mut naive_runs, |m| {
            LlcTrafficPlan::plan(m, workloads, cores, scale, seed)
        });

        let consolidation_mix = Self::consolidation_mix(&settings);
        let fig10 = Self::plan_counted(&mut matrix, &mut naive_runs, |m| {
            ConsolidationPlan::plan(
                m,
                &consolidation_mix,
                &PrefetcherConfig::figure8_suite(),
                cores,
                scale,
                seed,
            )
        });

        let table_pd = Self::plan_counted(&mut matrix, &mut naive_runs, |m| {
            PerformanceDensityPlan::plan(m, workloads, &pif_vs_shift, cores, scale, seed)
        });
        let table_power = Self::plan_counted(&mut matrix, &mut naive_runs, |m| {
            PowerOverheadPlan::plan(m, workloads, cores, scale, seed)
        });

        // Beyond the paper: the hybrid shootout. Its baselines and its
        // NextLine/PIF_32K/SHIFT comparison columns are figure 7/8/9 runs,
        // so only the hybrid designs and the throttled sweep add keys.
        let hybrid = Self::plan_counted(&mut matrix, &mut naive_runs, |m| {
            HybridShootoutPlan::plan(m, workloads, cores, scale, seed)
        });

        PaperPlan {
            settings,
            matrix,
            naive_runs,
            fig01,
            fig02,
            fig06,
            fig07,
            fig08,
            fig09,
            fig10,
            table_pd,
            table_power,
            hybrid,
        }
    }

    /// The consolidation mix: the paper's four-workload §5.5 suite when the
    /// core count divides by four, otherwise the largest prefix of the suite
    /// that divides the core count evenly (keeps reduced-scale and odd
    /// core-count runs valid — `ConsolidationSpec::even_split` requires it).
    fn consolidation_mix(settings: &ReproduceSettings) -> Vec<WorkloadSpec> {
        let suite = presets::consolidation_suite();
        let cores = settings.cores as usize;
        let mut n = suite.len().min(cores);
        while n > 1 && !cores.is_multiple_of(n) {
            n -= 1;
        }
        suite.into_iter().take(n).collect()
    }

    /// Plans one figure into the merged matrix and adds the number of
    /// distinct runs it asked for to `naive_runs`, the without-sharing total:
    /// what the figure's own matrix would hold had it been planned alone.
    /// The count comes from the same plan calls that build the merged
    /// matrix, so the dedup accounting cannot drift from the real plan.
    fn plan_counted<P>(
        matrix: &mut RunMatrix,
        naive_runs: &mut usize,
        plan: impl FnOnce(&mut RunMatrix) -> P,
    ) -> P {
        let mark = matrix.plan_calls();
        let planned = plan(matrix);
        *naive_runs += matrix.distinct_runs_since(mark);
        planned
    }

    /// Number of distinct simulations the whole paper needs (after
    /// cross-figure deduplication).
    pub fn run_count(&self) -> usize {
        self.matrix.len()
    }

    /// Number of simulations avoided by cross-figure sharing: the sum of
    /// each figure's standalone matrix size minus the merged matrix size.
    pub fn saved_by_dedup(&self) -> usize {
        self.naive_runs - self.matrix.len()
    }

    /// The merged matrix (exposed for tests asserting the key count).
    pub fn matrix(&self) -> &RunMatrix {
        &self.matrix
    }

    /// Executes the matrix (plus the commonality study) in-process and
    /// derives every artifact: the trivial single-host path through the
    /// plan / execute / merge pipeline.
    pub fn execute(self) -> PaperReport {
        let outcomes = Execution::new(&self.matrix)
            .run()
            .expect("in-memory execution is infallible")
            .into_outcomes();
        self.collect(&outcomes)
    }

    /// Derives every artifact from already-executed outcomes — in-process
    /// ones or a [`RunStore`](shift_sim::RunStore) merge of shard
    /// directories; the collect phases cannot tell the difference.
    ///
    /// The commonality study (Figure 3) measures raw trace streams rather
    /// than simulations, and the §5.1/Table I entries are pure arithmetic,
    /// so all three recompute locally on whichever host merges.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` were executed from a different matrix than this
    /// plan's (the [`RunHandle`](shift_sim::RunHandle) invariant).
    pub fn collect(self, outcomes: &shift_sim::RunOutcomes) -> PaperReport {
        let settings = &self.settings;
        let fig03_result = commonality(
            &settings.workloads,
            settings.cores,
            settings.scale,
            settings.seed,
        );
        let storage_result = storage_table(
            settings.cores,
            CmpConfig::micro13(settings.cores, PrefetcherConfig::None)
                .llc
                .capacity_blocks(),
        );

        let artifacts = vec![
            fig01_artifact(&self.fig01.collect(outcomes)),
            fig02_artifact(&self.fig02.collect(outcomes)),
            fig03_artifact(&fig03_result),
            fig06_artifact(&self.fig06.collect(outcomes)),
            fig07_artifact(&self.fig07.collect(outcomes)),
            fig08_artifact(&self.fig08.collect(outcomes)),
            fig09_artifact(&self.fig09.collect(outcomes)),
            fig10_artifact(&self.fig10.collect(outcomes)),
            table1_artifact(settings.cores, &settings.workloads),
            table_pd_artifact(&self.table_pd.collect(outcomes)),
            table_power_artifact(&self.table_power.collect(outcomes)),
            table_storage_artifact(&storage_result),
            hybrid_lab_artifact(&self.hybrid.collect(outcomes)),
        ];
        PaperReport { artifacts }
    }
}

/// Every artifact of the reproduced paper, ready to write and score.
#[derive(Debug)]
pub struct PaperReport {
    artifacts: Vec<Artifact>,
}

impl PaperReport {
    /// All artifacts, in paper order.
    pub fn artifacts(&self) -> &[Artifact] {
        &self.artifacts
    }

    /// Finds an artifact by name (e.g. `"fig08"`).
    pub fn artifact(&self, name: &str) -> Option<&Artifact> {
        self.artifacts.iter().find(|a| a.name() == name)
    }

    /// Writes every artifact's JSON + CSV + markdown under `dir` and returns
    /// the written paths.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> io::Result<Vec<PathBuf>> {
        let dir = dir.as_ref();
        let mut paths = Vec::new();
        for artifact in &self.artifacts {
            paths.extend(artifact.write_to(dir)?);
        }
        Ok(paths)
    }

    /// The final reference scoreboard (markdown, terminal-friendly).
    pub fn scoreboard(&self) -> String {
        scoreboard(&self.artifacts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};
    use serde::json;

    fn tiny_settings() -> ReproduceSettings {
        ReproduceSettings::new(
            4,
            Scale::Test,
            7,
            vec![
                presets::tiny().with_region_index(0),
                presets::tiny().with_region_index(1),
            ],
        )
    }

    #[test]
    fn shared_runs_simulate_once_across_figures() {
        let plan = PaperPlan::plan(tiny_settings());
        // Cross-figure sharing must collapse a substantial number of runs:
        // the baselines shared by Figures 1/2/8/§5.6, the SHIFT runs shared
        // by Figures 7/8/9/§5.7, and the PIF columns shared by Figures 2/7/8
        // and §5.6.
        assert!(
            plan.saved_by_dedup() > 0,
            "the merged matrix must be smaller than the per-figure sum"
        );
        assert_eq!(plan.run_count(), plan.matrix().keys().len());

        // The strongest form of the claim, on exact key counts: adding the
        // Figure 9 and §5.7 plans (SHIFT per workload — all shared with
        // Figure 8) to a matrix that already holds Figure 8 adds no keys.
        let settings = tiny_settings();
        let mut matrix = RunMatrix::new();
        let _ = SpeedupComparisonPlan::plan(
            &mut matrix,
            &settings.workloads,
            &PrefetcherConfig::figure8_suite(),
            settings.cores,
            settings.scale,
            settings.seed,
        );
        let after_fig08 = matrix.len();
        let _ = LlcTrafficPlan::plan(
            &mut matrix,
            &settings.workloads,
            settings.cores,
            settings.scale,
            settings.seed,
        );
        let _ = PowerOverheadPlan::plan(
            &mut matrix,
            &settings.workloads,
            settings.cores,
            settings.scale,
            settings.seed,
        );
        assert_eq!(
            matrix.len(),
            after_fig08,
            "fig09/§5.7 SHIFT runs must dedup onto fig08's SHIFT column"
        );

        // Likewise the Figure 1 baselines dedup onto Figure 8's baselines.
        let _ = EliminationPlan::plan(
            &mut matrix,
            &settings.workloads,
            &figure1_fractions(),
            settings.cores,
            settings.scale,
            settings.seed,
        );
        let nonzero_fractions = figure1_fractions().iter().filter(|&&f| f > 0.0).count();
        assert_eq!(
            matrix.len(),
            after_fig08 + settings.workloads.len() * nonzero_fractions,
            "fig01 must only add its elimination runs; its baselines are fig08's"
        );
    }

    #[test]
    fn consolidation_mix_divides_any_core_count() {
        // Regression: core counts that are not multiples of the 4-workload
        // suite (6, 10, 14, …) must shrink the mix to a divisor instead of
        // panicking in `ConsolidationSpec::even_split`.
        for cores in [2u16, 3, 4, 5, 6, 7, 8, 10, 14, 16] {
            let settings = ReproduceSettings::new(cores, Scale::Test, 1, vec![presets::tiny()]);
            let mix = PaperPlan::consolidation_mix(&settings);
            assert!(!mix.is_empty(), "{cores} cores: empty mix");
            assert!(
                (cores as usize).is_multiple_of(mix.len()),
                "{cores} cores: mix of {} workloads does not divide evenly",
                mix.len()
            );
        }
        let six = ReproduceSettings::new(6, Scale::Test, 1, vec![presets::tiny()]);
        assert_eq!(PaperPlan::consolidation_mix(&six).len(), 3);
        let sixteen = ReproduceSettings::new(16, Scale::Test, 1, vec![presets::tiny()]);
        assert_eq!(PaperPlan::consolidation_mix(&sixteen).len(), 4);
    }

    #[test]
    fn plan_spec_round_trips_and_resolves_against_the_catalog() {
        let spec = PlanSpec {
            cores: 4,
            scale: Scale::Test,
            seed: 7,
            workloads: vec!["Tiny".to_owned(), "OLTP DB2".to_owned()],
        };
        // Wire round-trip through the same JSON layer the server uses.
        let json = serde::json::to_string(&spec);
        let back: PlanSpec = serde::json::from_str(&json).expect("parse");
        assert_eq!(back, spec);

        // Resolution is case-insensitive and yields catalog specs verbatim.
        let lax = PlanSpec {
            workloads: vec!["tiny".to_owned(), "oltp db2".to_owned()],
            ..spec.clone()
        };
        let settings = lax.resolve().expect("resolve");
        assert_eq!(settings.cores, 4);
        assert_eq!(settings.workloads[0], presets::tiny());
        assert_eq!(settings.workloads[1], presets::oltp_db2());

        // Two equal submissions plan to the same matrix fingerprint — the
        // property the serving cache depends on.
        let a = PaperPlan::plan(spec.resolve().unwrap());
        let b = PaperPlan::plan(lax.resolve().unwrap());
        assert_eq!(a.matrix().fingerprint(), b.matrix().fingerprint());

        // from_settings is the inverse for catalog workloads.
        assert_eq!(
            PlanSpec::from_settings(&spec.resolve().unwrap()),
            PlanSpec {
                workloads: vec!["Tiny".to_owned(), "OLTP DB2".to_owned()],
                ..spec
            }
        );
    }

    #[test]
    fn plan_spec_rejects_bad_submissions_with_typed_errors() {
        let unknown = PlanSpec {
            cores: 4,
            scale: Scale::Test,
            seed: 0,
            workloads: vec!["OLTP DB3".to_owned()],
        };
        match unknown.resolve() {
            Err(PlanError::UnknownWorkload { name, known }) => {
                assert_eq!(name, "OLTP DB3");
                assert!(known.contains(&"OLTP DB2".to_owned()));
                assert!(known.contains(&"Tiny".to_owned()));
            }
            other => panic!("expected UnknownWorkload, got {other:?}"),
        }

        let narrow = PlanSpec {
            cores: 1,
            scale: Scale::Test,
            seed: 0,
            workloads: vec![],
        };
        assert_eq!(
            narrow.resolve().unwrap_err(),
            PlanError::TooFewCores { cores: 1 }
        );

        // The core count is bounded above too; the bound itself still plans.
        let wide = PlanSpec {
            cores: MAX_CORES + 1,
            workloads: vec!["Tiny".to_owned()],
            ..narrow
        };
        assert_eq!(
            wide.resolve().unwrap_err(),
            PlanError::TooManyCores { cores: 65, max: 64 }
        );
        let widest = PlanSpec {
            cores: MAX_CORES,
            ..wide
        };
        let plan = PaperPlan::plan(widest.resolve().expect("64 cores resolve"));
        assert!(!plan.matrix().is_empty());

        // Empty workloads select the full paper suite.
        let full = PlanSpec {
            cores: 2,
            scale: Scale::Test,
            seed: 0,
            workloads: vec![],
        };
        assert_eq!(full.resolve().unwrap().workloads, presets::paper_suite());
    }

    #[test]
    fn report_covers_all_figures_and_tables() {
        let plan = PaperPlan::plan(tiny_settings());
        let report = plan.execute();
        let names: Vec<&str> = report.artifacts().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "fig01",
                "fig02",
                "fig03",
                "fig06",
                "fig07",
                "fig08",
                "fig09",
                "fig10",
                "table1",
                "table_pd",
                "table_power",
                "table_storage",
                "hybrid_lab",
            ]
        );
        let board = report.scoreboard();
        assert!(board.contains("Reference scoreboard"));
        assert!(board.contains("reference checks"));
        assert!(report.artifact("fig08").is_some());
        assert!(report.artifact("fig99").is_none());
        // The scoreboard gains at least three hybrid rows.
        let hybrid_rows = board
            .lines()
            .filter(|l| l.starts_with("hybrid_lab"))
            .count();
        assert!(hybrid_rows >= 3, "{hybrid_rows} hybrid_lab scoreboard rows");
    }

    #[test]
    fn hybrid_shootout_dedups_against_the_paper_figures() {
        // The shootout's baseline and NextLine/PIF_32K/SHIFT columns are
        // already planned by Figures 8/9: planning it into a matrix that
        // holds Figure 8 must add only the hybrid-specific keys (3 hybrid
        // designs + 5 throttled points, per workload).
        let settings = tiny_settings();
        let mut matrix = RunMatrix::new();
        let _ = SpeedupComparisonPlan::plan(
            &mut matrix,
            &settings.workloads,
            &PrefetcherConfig::figure8_suite(),
            settings.cores,
            settings.scale,
            settings.seed,
        );
        let after_fig08 = matrix.len();
        let _ = HybridShootoutPlan::plan(
            &mut matrix,
            &settings.workloads,
            settings.cores,
            settings.scale,
            settings.seed,
        );
        let hybrid_only = 3 + HybridShootoutPlan::BANDWIDTHS.len();
        assert_eq!(
            matrix.len(),
            after_fig08 + settings.workloads.len() * hybrid_only,
            "shootout must reuse fig08's baseline/NextLine/PIF_32K/SHIFT runs"
        );
    }

    /// Pieces of plan documents and of broken ones.
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        " ",
        "\"cores\"",
        "\"scale\"",
        "\"seed\"",
        "\"workloads\"",
        "\"Test\"",
        "\"Demo\"",
        "\"Paper\"",
        "\"Tiny\"",
        "\"oltp db2\"",
        "\"Web Frontend\"",
        "0",
        "1",
        "2",
        "64",
        "65",
        "65535",
        "65536",
        "-1",
        "1.5",
        "1e999",
        "18446744073709551615",
        "18446744073709551616",
        "null",
        "true",
        "\\u0000",
        "\\ud800",
    ];

    /// Up to 40 tokens or raw bytes, a quarter of them raw, read as text.
    fn arbitrary_text(rng: &mut SmallRng) -> String {
        let mut bytes = Vec::new();
        for _ in 0..rng.gen_range(0..40usize) {
            if rng.gen_range(0..4u8) == 0 {
                bytes.push(rng.next_u64() as u8);
            } else {
                bytes.extend_from_slice(TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes());
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// `text` with one to five bytes replaced, deleted or inserted, or the
    /// rest cut off, read as text.
    fn mutate(text: &str, rng: &mut SmallRng) -> String {
        const STRUCTURE: &[u8] = b"{}[]\":,\\-.e0";
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..=5u8) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0..8u8) {
                0..=2 if at < bytes.len() => bytes[at] = rng.next_u64() as u8,
                3 | 4 if at < bytes.len() => {
                    bytes.remove(at);
                }
                7 => bytes.truncate(at),
                _ => bytes.insert(at, STRUCTURE[rng.gen_range(0..STRUCTURE.len())]),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// A plan spec with any core count (edge values likely), scale and
    /// seed, naming up to four catalog workloads in random letter case or,
    /// now and then, a name the catalog lacks.
    fn random_spec(rng: &mut SmallRng) -> PlanSpec {
        let cores = match rng.gen_range(0..4u8) {
            0 => rng.gen_range(0..=3u16),
            1 => rng.gen_range(MAX_CORES - 1..=MAX_CORES + 1),
            2 => u16::MAX - rng.gen_range(0..=1u16),
            _ => rng.next_u64() as u16,
        };
        let scale = [Scale::Test, Scale::Demo, Scale::Paper][rng.gen_range(0..3usize)];
        let catalog = PlanSpec::catalog();
        let workloads = (0..rng.gen_range(0..=4usize))
            .map(|_| {
                if rng.gen_range(0..16u8) == 0 {
                    return "No Such Workload".to_owned();
                }
                let name = &catalog[rng.gen_range(0..catalog.len())].name;
                name.chars()
                    .map(|c| match rng.gen_range(0..3u8) {
                        0 => c.to_ascii_lowercase(),
                        1 => c.to_ascii_uppercase(),
                        _ => c,
                    })
                    .collect()
            })
            .collect();
        PlanSpec {
            cores,
            scale,
            seed: rng.next_u64(),
            workloads,
        }
    }

    /// Parses `text` as a plan and resolves it: settings with a core count
    /// in `2..=MAX_CORES`, or a typed error, never a panic.
    fn assert_resolves_cleanly(text: &str) {
        let Ok(spec) = json::from_str::<PlanSpec>(text) else {
            return;
        };
        match spec.resolve() {
            Ok(settings) => {
                assert!((2..=MAX_CORES).contains(&settings.cores), "{spec:?}");
                assert_eq!(settings.cores, spec.cores);
                assert!(!settings.workloads.is_empty());
            }
            Err(e) => assert!(!e.to_string().is_empty()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        #[test]
        fn arbitrary_text_resolves_to_settings_or_a_typed_error(seed in 0..u64::MAX) {
            assert_resolves_cleanly(&arbitrary_text(&mut SmallRng::seed_from_u64(seed)));
        }

        #[test]
        fn mutated_specs_resolve_to_settings_or_a_typed_error(seed in 0..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let text = json::to_string(&random_spec(&mut rng));
            assert_resolves_cleanly(&mutate(&text, &mut rng));
        }

        #[test]
        fn valid_specs_round_trip_and_resolve_by_their_bounds(seed in 0..u64::MAX) {
            let spec = random_spec(&mut SmallRng::seed_from_u64(seed));
            let back: PlanSpec = json::from_str(&json::to_string(&spec)).expect("a rendered spec");
            prop_assert_eq!(&back, &spec);
            let unknown = spec.workloads.iter().any(|w| w == "No Such Workload");
            match spec.resolve() {
                Ok(settings) => {
                    prop_assert!((2..=MAX_CORES).contains(&spec.cores) && !unknown);
                    prop_assert_eq!(settings.cores, spec.cores);
                    prop_assert_eq!(settings.scale, spec.scale);
                    prop_assert_eq!(settings.seed, spec.seed);
                    if !spec.workloads.is_empty() {
                        let names: Vec<&str> =
                            settings.workloads.iter().map(|w| w.name.as_str()).collect();
                        prop_assert_eq!(names.len(), spec.workloads.len());
                        for (name, asked) in names.iter().zip(&spec.workloads) {
                            prop_assert!(name.eq_ignore_ascii_case(asked));
                        }
                    }
                }
                Err(PlanError::TooFewCores { cores }) => prop_assert!(cores < 2),
                Err(PlanError::TooManyCores { cores, max }) => {
                    prop_assert!(cores > max && max == MAX_CORES)
                }
                Err(PlanError::UnknownWorkload { name, .. }) => {
                    prop_assert!(unknown && name == "No Such Workload")
                }
            }
        }
    }
}
