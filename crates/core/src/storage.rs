//! Storage cost accounting for the prefetcher designs.
//!
//! §5.1 of the paper costs the designs as follows (8-block regions, 34-bit
//! block addresses, 15-bit history pointers):
//!
//! * **PIF (per core)** — a 32 K-record history buffer at 41 bits per record
//!   (164 KB) plus an 8 K-entry index table at 49 bits per entry (49 KB),
//!   213 KB per core in total, about 0.9 mm² at 40 nm.
//! * **SHIFT (virtualized)** — no dedicated storage: 32 K records packed
//!   twelve to a 64-byte LLC block occupy 2 731 LLC lines (171 KB of existing
//!   LLC capacity), and the embedded index table adds 15 bits to each of the
//!   128 K LLC tags (240 KB of new tag-array storage).

use serde::{Deserialize, Serialize};

/// Storage requirements of one prefetcher configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StorageCost {
    /// Dedicated SRAM required next to *each* core, in bytes.
    pub per_core_bytes: u64,
    /// Dedicated SRAM shared by all cores (dedicated-storage SHIFT), in bytes.
    pub shared_bytes: u64,
    /// Existing LLC data capacity occupied by virtualized history, in bytes.
    pub llc_data_bytes: u64,
    /// New storage added to the LLC tag array (embedded index pointers), in
    /// bytes.
    pub llc_tag_bytes: u64,
}

impl StorageCost {
    /// A prefetcher with no storage at all (the null and next-line designs).
    pub fn none() -> Self {
        StorageCost::default()
    }

    /// Total *new* SRAM the design adds to the chip for `cores` cores:
    /// per-core structures, shared dedicated structures, and tag-array
    /// extensions. LLC data capacity that the history borrows is not new
    /// storage and is excluded (its performance effect is modelled in the
    /// simulator instead).
    pub fn added_sram_bytes(&self, cores: u16) -> u64 {
        self.per_core_bytes * cores as u64 + self.shared_bytes + self.llc_tag_bytes
    }

    /// Total storage footprint including borrowed LLC capacity, for `cores`
    /// cores.
    pub fn total_bytes(&self, cores: u16) -> u64 {
        self.added_sram_bytes(cores) + self.llc_data_bytes
    }

    /// Convenience: kibibytes of added SRAM.
    pub fn added_sram_kib(&self, cores: u16) -> f64 {
        self.added_sram_bytes(cores) as f64 / 1024.0
    }
}

/// Bytes occupied by `records` history records of `bits_per_record` bits.
pub fn history_bytes(records: usize, bits_per_record: u32) -> u64 {
    (records as u64 * bits_per_record as u64).div_ceil(8)
}

/// Bytes occupied by `entries` index-table entries, each holding a block
/// address (34 bits) and a history pointer.
pub fn index_bytes(entries: usize, pointer_bits: u32) -> u64 {
    let entry_bits = shift_types::BlockAddr::STORAGE_BITS + pointer_bits;
    (entries as u64 * entry_bits as u64).div_ceil(8)
}

/// Number of history pointer bits needed to address `records` records.
pub fn pointer_bits(records: usize) -> u32 {
    (records.max(2) as u64 - 1).ilog2() + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pif_history_cost_matches_paper() {
        // 32 K records × 41 bits = 164 KB.
        let bytes = history_bytes(32 * 1024, 41);
        assert_eq!(bytes / 1024, 164);
    }

    #[test]
    fn pif_index_cost_matches_paper() {
        // 8 K entries × 49 bits (34-bit tag + 15-bit pointer) = 49 KB.
        let bytes = index_bytes(8 * 1024, 15);
        assert_eq!(bytes / 1024, 49);
    }

    #[test]
    fn pointer_bits_for_32k_history_is_15() {
        assert_eq!(pointer_bits(32 * 1024), 15);
        assert_eq!(pointer_bits(2 * 1024), 11);
        assert_eq!(pointer_bits(2), 1);
    }

    #[test]
    fn added_sram_sums_per_core_and_shared_parts() {
        let cost = StorageCost {
            per_core_bytes: 1000,
            shared_bytes: 500,
            llc_data_bytes: 200,
            llc_tag_bytes: 300,
        };
        assert_eq!(cost.added_sram_bytes(4), 4 * 1000 + 500 + 300);
        assert_eq!(cost.total_bytes(4), 4 * 1000 + 500 + 300 + 200);
        assert!(cost.added_sram_kib(4) > 4.0);
    }

    #[test]
    fn none_has_zero_cost() {
        assert_eq!(StorageCost::none().total_bytes(16), 0);
    }
}
