//! System configuration (Table I) and simulation options.

use serde::{Deserialize, Serialize};
use shift_cache::{CacheConfig, LlcConfig};
use shift_core::{
    AdaptConfig, GateConfig, HistoryPortConfig, PifConfig, ShiftConfig, ShiftMode, StorageCost,
};
use shift_cpu::CoreKind;
use shift_noc::MeshConfig;
use shift_trace::Scale;
use shift_types::{BlockAddr, CoreId};

/// Which instruction prefetcher the simulated CMP uses.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PrefetcherConfig {
    /// No instruction prefetching (the baseline all speedups are relative to).
    None,
    /// Next-line prefetcher of the given degree.
    NextLine {
        /// Number of sequential blocks prefetched per access.
        degree: u64,
    },
    /// Proactive Instruction Fetch with per-core history.
    Pif(PifConfig),
    /// Shared History Instruction Fetch.
    Shift {
        /// Shared history capacity in spatial region records.
        history_records: usize,
        /// Storage mode (dedicated, zero-latency, or LLC-virtualized).
        mode: ShiftMode,
    },
    /// Hybrid: SHIFT primary with a next-line fallback (the fallback fires
    /// only on fetches where SHIFT produced no candidates).
    ShiftNextLine {
        /// Shared history capacity in spatial region records.
        history_records: usize,
        /// Storage mode of the SHIFT primary.
        mode: ShiftMode,
        /// Next-line degree of the fallback.
        degree: u64,
    },
    /// Hybrid: PIF behind a per-core stream-confidence gate.
    GatedPif {
        /// The wrapped PIF configuration.
        config: PifConfig,
        /// The confidence-gate parameters.
        gate: GateConfig,
    },
    /// Hybrid: per-core adaptive selection between next-line (conservative)
    /// and SHIFT (aggressive) on observed warm-up miss rate.
    AdaptiveNlShift {
        /// Shared history capacity of the SHIFT side.
        history_records: usize,
        /// Storage mode of the SHIFT side.
        mode: ShiftMode,
        /// The adaptation-window parameters.
        adapt: AdaptConfig,
    },
    /// SHIFT behind a bandwidth-throttled shared history port (the
    /// degradation-under-contention scenario).
    ThrottledShift {
        /// Shared history capacity in spatial region records.
        history_records: usize,
        /// Storage mode of the throttled SHIFT.
        mode: ShiftMode,
        /// The history-port bandwidth model.
        port: HistoryPortConfig,
    },
}

impl PrefetcherConfig {
    /// The paper's PIF_32K configuration.
    pub fn pif_32k() -> Self {
        PrefetcherConfig::Pif(PifConfig::pif_32k())
    }

    /// The equal-storage PIF_2K configuration.
    pub fn pif_2k() -> Self {
        PrefetcherConfig::Pif(PifConfig::pif_2k())
    }

    /// The paper's virtualized SHIFT configuration (32 K shared records in
    /// the LLC).
    pub fn shift_virtualized() -> Self {
        PrefetcherConfig::Shift {
            history_records: 32 * 1024,
            mode: ShiftMode::Virtualized,
        }
    }

    /// The idealized zero-latency SHIFT configuration.
    pub fn shift_zero_latency() -> Self {
        PrefetcherConfig::Shift {
            history_records: 32 * 1024,
            mode: ShiftMode::Dedicated { zero_latency: true },
        }
    }

    /// The dedicated-storage SHIFT baseline of §4.1.
    pub fn shift_dedicated() -> Self {
        PrefetcherConfig::Shift {
            history_records: 32 * 1024,
            mode: ShiftMode::Dedicated {
                zero_latency: false,
            },
        }
    }

    /// A next-line prefetcher of degree 1.
    pub fn next_line() -> Self {
        PrefetcherConfig::NextLine { degree: 1 }
    }

    /// Hybrid: virtualized SHIFT with a degree-1 next-line fallback.
    pub fn shift_next_line() -> Self {
        PrefetcherConfig::ShiftNextLine {
            history_records: 32 * 1024,
            mode: ShiftMode::Virtualized,
            degree: 1,
        }
    }

    /// Hybrid: PIF_32K behind the default confidence gate.
    pub fn gated_pif_32k() -> Self {
        PrefetcherConfig::GatedPif {
            config: PifConfig::pif_32k(),
            gate: GateConfig::default_gate(),
        }
    }

    /// Hybrid: per-core adaptive next-line/SHIFT selection with the default
    /// adaptation window.
    pub fn adaptive_nl_shift() -> Self {
        PrefetcherConfig::AdaptiveNlShift {
            history_records: 32 * 1024,
            mode: ShiftMode::Virtualized,
            adapt: AdaptConfig::default_adapt(),
        }
    }

    /// Virtualized SHIFT behind a history port limited to
    /// `candidates_per_window` prefetch candidates per 64-access window.
    pub fn shift_throttled(candidates_per_window: u32) -> Self {
        PrefetcherConfig::ThrottledShift {
            history_records: 32 * 1024,
            mode: ShiftMode::Virtualized,
            port: HistoryPortConfig::per_64_accesses(candidates_per_window),
        }
    }

    /// The composed designs the hybrid-shootout experiment compares against
    /// the paper's standalone suite (throttled SHIFT is swept separately).
    pub fn hybrid_suite() -> Vec<PrefetcherConfig> {
        vec![
            PrefetcherConfig::shift_next_line(),
            PrefetcherConfig::gated_pif_32k(),
            PrefetcherConfig::adaptive_nl_shift(),
        ]
    }

    /// Human-readable label used in reports and figures.
    pub fn label(&self) -> String {
        match self {
            PrefetcherConfig::None => "Baseline".to_owned(),
            PrefetcherConfig::NextLine { .. } => "NextLine".to_owned(),
            PrefetcherConfig::Pif(cfg) => cfg.design_name(),
            PrefetcherConfig::Shift { mode, .. } => match mode {
                ShiftMode::Virtualized => "SHIFT".to_owned(),
                ShiftMode::Dedicated { zero_latency: true } => "ZeroLat-SHIFT".to_owned(),
                ShiftMode::Dedicated {
                    zero_latency: false,
                } => "SHIFT-dedicated".to_owned(),
            },
            PrefetcherConfig::ShiftNextLine { .. } => "SHIFT+NL".to_owned(),
            PrefetcherConfig::GatedPif { config, .. } => {
                format!("Gated-{}", config.design_name())
            }
            PrefetcherConfig::AdaptiveNlShift { .. } => "Adaptive-NL/SHIFT".to_owned(),
            PrefetcherConfig::ThrottledShift { port, .. } => {
                format!("SHIFT@bw{}", port.candidates_per_window)
            }
        }
    }

    /// Storage cost of this design on an LLC of `llc_blocks` tags, computed
    /// from the configuration alone. A composed design costs its PIF or
    /// SHIFT part: a next-line side, a confidence gate and a history port
    /// are a few control bits per core, which the paper's costing counts as
    /// zero.
    pub fn storage(&self, llc_blocks: usize) -> StorageCost {
        match self {
            PrefetcherConfig::None | PrefetcherConfig::NextLine { .. } => StorageCost::none(),
            PrefetcherConfig::Pif(config) | PrefetcherConfig::GatedPif { config, .. } => {
                config.storage()
            }
            PrefetcherConfig::Shift {
                history_records,
                mode,
            }
            | PrefetcherConfig::ShiftNextLine {
                history_records,
                mode,
                ..
            }
            | PrefetcherConfig::AdaptiveNlShift {
                history_records,
                mode,
                ..
            }
            | PrefetcherConfig::ThrottledShift {
                history_records,
                mode,
                ..
            } => shift_config(*history_records, *mode, llc_blocks).storage(),
        }
    }

    /// The five configurations Figure 8 compares, in the paper's order.
    pub fn figure8_suite() -> Vec<PrefetcherConfig> {
        vec![
            PrefetcherConfig::next_line(),
            PrefetcherConfig::pif_2k(),
            PrefetcherConfig::pif_32k(),
            PrefetcherConfig::shift_zero_latency(),
            PrefetcherConfig::shift_virtualized(),
        ]
    }
}

/// The SHIFT design a `history_records`-record history in `mode` on an LLC
/// of `llc_capacity_blocks` tags describes: the paper's design with an index
/// of one entry per record. Everything that sets the design's cost is here;
/// the engine adds each unit's generator core, LLC history window and NoC
/// latency, which cost nothing.
pub(crate) fn shift_config(
    history_records: usize,
    mode: ShiftMode,
    llc_capacity_blocks: usize,
) -> ShiftConfig {
    ShiftConfig {
        history_records,
        index_entries: history_records.max(16),
        mode,
        llc_capacity_blocks,
        ..ShiftConfig::virtualized_micro13(CoreId::new(0), BlockAddr::new(0))
    }
}

/// The full CMP configuration (Table I).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CmpConfig {
    /// Number of cores (16 in the paper).
    pub cores: u16,
    /// Core microarchitecture.
    pub core_kind: CoreKind,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Shared LLC geometry.
    pub llc: LlcConfig,
    /// Mesh interconnect geometry.
    pub mesh: MeshConfig,
    /// Instruction prefetcher.
    pub prefetcher: PrefetcherConfig,
}

impl CmpConfig {
    /// The paper's 16-core configuration with the given prefetcher, scaled to
    /// `cores` cores (LLC capacity and mesh size scale with the core count).
    pub fn micro13(cores: u16, prefetcher: PrefetcherConfig) -> Self {
        assert!(cores > 0, "CMP needs at least one core");
        CmpConfig {
            cores,
            core_kind: CoreKind::LeanOoO,
            l1i: CacheConfig::l1i_micro13(),
            l1d: CacheConfig::l1d_micro13(),
            llc: LlcConfig::micro13(cores as usize),
            mesh: if cores == 16 {
                MeshConfig::micro13()
            } else {
                MeshConfig::for_tiles(cores as usize)
            },
            prefetcher,
        }
    }

    /// Changes the core kind (used by the performance-density study).
    #[must_use]
    pub fn with_core_kind(mut self, kind: CoreKind) -> Self {
        self.core_kind = kind;
        self
    }

    /// Changes the prefetcher.
    #[must_use]
    pub fn with_prefetcher(mut self, prefetcher: PrefetcherConfig) -> Self {
        self.prefetcher = prefetcher;
        self
    }
}

/// Options controlling one simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimOptions {
    /// Trace length per core.
    pub scale: Scale,
    /// Seed for workload interleaving and the miss-elimination lottery.
    pub seed: u64,
    /// If `true`, prefetches are predicted but never installed in the cache
    /// (the Figure 6 methodology).
    pub prediction_only: bool,
    /// If set, each instruction-cache miss is converted into a hit with this
    /// probability (the Figure 1 methodology).
    pub miss_elimination_probability: Option<f64>,
}

impl SimOptions {
    /// Creates default options for a given scale and seed.
    pub fn new(scale: Scale, seed: u64) -> Self {
        SimOptions {
            scale,
            seed,
            prediction_only: false,
            miss_elimination_probability: None,
        }
    }

    /// Enables prediction-only mode.
    #[must_use]
    pub fn prediction_only(mut self) -> Self {
        self.prediction_only = true;
        self
    }

    /// Enables probabilistic miss elimination with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn with_miss_elimination(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.miss_elimination_probability = Some(p);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro13_matches_table1() {
        let cfg = CmpConfig::micro13(16, PrefetcherConfig::None);
        assert_eq!(cfg.cores, 16);
        assert_eq!(cfg.core_kind, CoreKind::LeanOoO);
        assert_eq!(cfg.l1i.capacity_bytes, 32 * 1024);
        assert_eq!(cfg.llc.total_bytes, 8 * 1024 * 1024);
        assert_eq!(cfg.mesh.tiles(), 16);
    }

    #[test]
    fn figure8_suite_has_five_configs_in_order() {
        let suite = PrefetcherConfig::figure8_suite();
        let labels: Vec<_> = suite.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec!["NextLine", "PIF_2K", "PIF_32K", "ZeroLat-SHIFT", "SHIFT"]
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PrefetcherConfig::None.label(), "Baseline");
        assert_eq!(
            PrefetcherConfig::shift_dedicated().label(),
            "SHIFT-dedicated"
        );
    }

    #[test]
    fn hybrid_suite_labels_are_stable() {
        let labels: Vec<_> = PrefetcherConfig::hybrid_suite()
            .iter()
            .map(|c| c.label())
            .collect();
        assert_eq!(
            labels,
            vec!["SHIFT+NL", "Gated-PIF_32K", "Adaptive-NL/SHIFT"]
        );
        assert_eq!(PrefetcherConfig::shift_throttled(4).label(), "SHIFT@bw4");
    }

    #[test]
    fn hybrid_configs_serialize_distinctly_from_base_kinds() {
        // RunKey content addressing hashes the serde form: the hybrid
        // variants must not collide with (or perturb) the existing arms.
        use serde::json;
        let virt = json::to_string(&PrefetcherConfig::shift_virtualized());
        let hybrid = json::to_string(&PrefetcherConfig::shift_next_line());
        assert_ne!(virt, hybrid);
        for config in PrefetcherConfig::hybrid_suite() {
            let text = json::to_string(&config);
            let back: PrefetcherConfig = json::from_str(&text).unwrap();
            assert_eq!(back, config);
        }
    }

    #[test]
    fn every_design_costs_its_pinned_storage() {
        let cost = |per_core_bytes, shared_bytes, llc_data_bytes, llc_tag_bytes| StorageCost {
            per_core_bytes,
            shared_bytes,
            llc_data_bytes,
            llc_tag_bytes,
        };
        let none = cost(0, 0, 0, 0);
        // Virtualized SHIFT on the LLCs of 2 and 16 cores: 2 731 history
        // blocks, and a 15-bit pointer on each of 16 K or 128 K tags.
        let shift = [
            cost(246, 0, 174_784, 30_720),
            cost(246, 0, 174_784, 245_760),
        ];
        let dedicated = cost(246, 368_640, 0, 0);
        let pif_32k = cost(218_112, 0, 0, 0);
        // A next-line fallback and the adaptive selector's next-line side
        // cost nothing, and so do the gate and the port: each composed
        // design costs exactly its PIF or SHIFT part.
        let designs = [
            (PrefetcherConfig::None, [none; 2]),
            (PrefetcherConfig::next_line(), [none; 2]),
            (PrefetcherConfig::pif_2k(), [cost(13_376, 0, 0, 0); 2]),
            (PrefetcherConfig::pif_32k(), [pif_32k; 2]),
            (PrefetcherConfig::gated_pif_32k(), [pif_32k; 2]),
            (PrefetcherConfig::shift_virtualized(), shift),
            (PrefetcherConfig::shift_zero_latency(), [dedicated; 2]),
            (PrefetcherConfig::shift_dedicated(), [dedicated; 2]),
            (PrefetcherConfig::shift_next_line(), shift),
            (PrefetcherConfig::adaptive_nl_shift(), shift),
            (PrefetcherConfig::shift_throttled(2), shift),
        ];
        for (design, expected) in designs {
            for (cores, expected) in [2, 16].into_iter().zip(expected) {
                let llc_blocks = LlcConfig::micro13(cores).capacity_blocks();
                assert_eq!(
                    design.storage(llc_blocks),
                    expected,
                    "{} at {cores} cores",
                    design.label()
                );
            }
        }
    }

    #[test]
    fn options_builders_set_flags() {
        let opts = SimOptions::new(Scale::Test, 1)
            .prediction_only()
            .with_miss_elimination(0.5);
        assert!(opts.prediction_only);
        assert_eq!(opts.miss_elimination_probability, Some(0.5));
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn bad_probability_rejected() {
        let _ = SimOptions::new(Scale::Test, 1).with_miss_elimination(1.5);
    }

    #[test]
    fn non_16_core_config_scales_mesh_and_llc() {
        let cfg = CmpConfig::micro13(4, PrefetcherConfig::None);
        assert!(cfg.mesh.tiles() >= 4);
        assert_eq!(cfg.llc.banks, 4);
        assert_eq!(cfg.llc.total_bytes, 4 * 512 * 1024);
    }
}
