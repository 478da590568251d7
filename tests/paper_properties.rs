//! Integration tests checking the headline quantitative claims of the paper
//! that do not require full-scale simulation: storage costs, area, and
//! performance-density arithmetic.

use shift::metrics::{AreaModel, PdComparison, PowerModel};
use shift::prefetch::{PifConfig, ShiftConfig};
use shift::sim::experiments::storage_table;
use shift::types::{BlockAddr, CoreId};

#[test]
fn pif_per_core_storage_is_213_kb_and_0_9_mm2() {
    let storage = PifConfig::pif_32k().storage();
    assert_eq!(storage.per_core_bytes / 1024, 213);
    let area = AreaModel::nm40();
    let per_core = area.prefetcher_mm2_per_core(&storage, 16);
    assert!((per_core - 0.9).abs() < 0.02);
}

#[test]
fn shift_storage_is_roughly_14x_cheaper_than_pif() {
    let table = storage_table(16, 8 * 1024 * 1024 / 64);
    let ratio = table.sram_ratio("PIF_32K", "SHIFT").unwrap();
    assert!((10.0..20.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn shift_history_occupies_2731_llc_lines() {
    let cfg = ShiftConfig::virtualized_micro13(CoreId::new(0), BlockAddr::new(0));
    assert_eq!(cfg.history_llc_blocks(), 2731);
    let storage = cfg.storage();
    assert_eq!(storage.llc_tag_bytes / 1024, 240);
    assert!(storage.llc_data_bytes / 1024 >= 170);
}

#[test]
fn figure2_pd_classification_matches_section_2_3() {
    // PIF on a Xeon: 23% speedup for 0.9/25 extra area → PD gain.
    let fat = PdComparison::new(1.0, 25.0, 1.23, 25.9);
    assert!(fat.improves_density());
    // PIF on an A15: 0.9/4.5 = 20% extra area for ~21% speedup → marginal.
    let lean = PdComparison::new(1.0, 4.5, 1.21, 5.4);
    assert!((lean.pd_ratio() - 1.0).abs() < 0.02);
    // PIF on an A8: 0.9/1.3 = 69% extra area for 17% speedup → PD loss.
    let io = PdComparison::new(1.0, 1.3, 1.17, 2.2);
    assert!(!io.improves_density());
}

#[test]
fn power_model_keeps_shift_overhead_under_150_mw() {
    // A generous upper bound on per-interval activity still lands below the
    // paper's 150 mW bound.
    let model = PowerModel::nm40();
    let cycles = 50_000_000u64;
    let breakdown = model.overhead(1_200_000, 3_000_000, 20_000_000, cycles);
    assert!(
        breakdown.total_mw() < 150.0,
        "got {} mW",
        breakdown.total_mw()
    );
}
