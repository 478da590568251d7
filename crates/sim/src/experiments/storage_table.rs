//! §5.1: storage cost of each prefetcher design (the paper's configuration
//! discussion and the basis for the equal-cost PIF_2K design point).

use serde::{Deserialize, Serialize};
use shift_core::StorageCost;
use shift_metrics::AreaModel;

use crate::config::PrefetcherConfig;

/// One design's storage and area summary.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StorageRow {
    /// Design label.
    pub design: String,
    /// Storage breakdown.
    pub storage: StorageCost,
    /// Added SRAM for a 16-core CMP, in KiB.
    pub added_sram_kib: f64,
    /// Added SRAM area for a 16-core CMP, in mm² (40 nm).
    pub added_area_mm2: f64,
}

/// The §5.1 storage table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StorageTableResult {
    /// One row per design.
    pub rows: Vec<StorageRow>,
    /// Number of cores the costs are computed for.
    pub cores: u16,
}

impl StorageTableResult {
    /// Finds a row by design label.
    pub fn row(&self, design: &str) -> Option<&StorageRow> {
        self.rows.iter().find(|r| r.design == design)
    }

    /// Storage-cost ratio between two designs (added SRAM).
    pub fn sram_ratio(&self, a: &str, b: &str) -> Option<f64> {
        let ra = self.row(a)?;
        let rb = self.row(b)?;
        Some(ra.added_sram_kib / rb.added_sram_kib)
    }
}

/// Computes the storage table for the paper's designs on a `cores`-core CMP
/// with an LLC of `llc_capacity_blocks` tags.
///
/// Pure arithmetic — no `Simulation` runs, so there is no sweep to declare
/// as a [`RunMatrix`](crate::matrix::RunMatrix): the three rows cost
/// microseconds and are computed inline.
pub fn storage_table(cores: u16, llc_capacity_blocks: usize) -> StorageTableResult {
    let area = AreaModel::nm40();
    let rows = [
        PrefetcherConfig::pif_2k(),
        PrefetcherConfig::pif_32k(),
        PrefetcherConfig::shift_virtualized(),
    ]
    .iter()
    .map(|design| {
        let storage = design.storage(llc_capacity_blocks);
        StorageRow {
            design: design.label(),
            added_sram_kib: storage.added_sram_kib(cores),
            added_area_mm2: area.prefetcher_mm2(&storage, cores),
            storage,
        }
    })
    .collect();
    StorageTableResult { rows, cores }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_table_reproduces_paper_ratios() {
        let table = storage_table(16, 8 * 1024 * 1024 / 64);
        let pif32 = table.row("PIF_32K").unwrap();
        let shift = table.row("SHIFT").unwrap();

        // PIF_32K: 213 KB per core → 3.4 MB aggregate; ~0.9 mm² per core.
        assert_eq!(pif32.storage.per_core_bytes / 1024, 213);
        assert!((pif32.added_area_mm2 / 16.0 - 0.9).abs() < 0.02);

        // SHIFT: 240 KB of tag extension + tiny per-core SABs.
        assert_eq!(shift.storage.llc_tag_bytes / 1024, 240);
        assert!(shift.added_sram_kib < 300.0);

        // The paper's headline: SHIFT costs ~14x less storage than PIF_32K.
        let ratio = table.sram_ratio("PIF_32K", "SHIFT").unwrap();
        assert!(
            ratio > 10.0 && ratio < 20.0,
            "storage ratio {ratio} outside the paper's ~14x claim"
        );
    }
}
