//! Cache geometry and latency configuration.

use serde::{Deserialize, Serialize};
use shift_types::BLOCK_BYTES;

/// Geometry and latency of a single cache (an L1 or one LLC bank).
///
/// # Examples
///
/// ```
/// use shift_cache::CacheConfig;
/// let l1i = CacheConfig::l1i_micro13();
/// assert_eq!(l1i.sets(), 32 * 1024 / (2 * 64));
/// assert_eq!(l1i.capacity_blocks(), 512);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (number of ways per set).
    pub ways: usize,
    /// Block size in bytes.
    pub block_bytes: usize,
    /// Load-to-use (hit) latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of `ways * block_bytes`
    /// or any parameter is zero.
    pub fn new(capacity_bytes: usize, ways: usize, block_bytes: usize, hit_latency: u64) -> Self {
        assert!(capacity_bytes > 0 && ways > 0 && block_bytes > 0);
        assert_eq!(
            capacity_bytes % (ways * block_bytes),
            0,
            "capacity must be a whole number of sets"
        );
        CacheConfig {
            capacity_bytes,
            ways,
            block_bytes,
            hit_latency,
        }
    }

    /// The paper's L1 instruction cache: 32 KB, 2-way, 64 B blocks, 2-cycle
    /// load-to-use latency.
    pub fn l1i_micro13() -> Self {
        CacheConfig::new(32 * 1024, 2, BLOCK_BYTES, 2)
    }

    /// The paper's L1 data cache: 32 KB, 2-way, 64 B blocks, 2-cycle latency.
    pub fn l1d_micro13() -> Self {
        CacheConfig::new(32 * 1024, 2, BLOCK_BYTES, 2)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.ways * self.block_bytes)
    }

    /// Total number of blocks the cache can hold.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_bytes / self.block_bytes
    }
}

/// Geometry of the shared NUCA last-level cache.
///
/// The paper models a unified L2/LLC of 512 KB per core, 16-way, with one
/// bank per core (16 banks), 5-cycle bank hit latency, and 64-byte blocks.
///
/// # Examples
///
/// ```
/// use shift_cache::LlcConfig;
/// let llc = LlcConfig::micro13(16);
/// assert_eq!(llc.total_bytes, 16 * 512 * 1024);
/// assert_eq!(llc.banks, 16);
/// assert_eq!(llc.bank_config().capacity_bytes, 512 * 1024);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LlcConfig {
    /// Aggregate capacity in bytes across all banks.
    pub total_bytes: usize,
    /// Associativity of each bank.
    pub ways: usize,
    /// Number of banks (address-interleaved at block granularity).
    pub banks: usize,
    /// Block size in bytes.
    pub block_bytes: usize,
    /// Hit latency of a bank in cycles.
    pub hit_latency: u64,
    /// Main-memory access latency in cycles, charged on LLC misses.
    pub memory_latency: u64,
    /// Width in bits of the index pointer appended to each tag for the
    /// virtualized SHIFT index table (15 bits in the paper, addressing a
    /// 32 K-entry history buffer).
    pub index_pointer_bits: u32,
}

impl LlcConfig {
    /// The paper's LLC for a CMP with `cores` cores: 512 KB per core, 16-way,
    /// one bank per core, 5-cycle hit latency, 45 ns (90 cycles at 2 GHz)
    /// memory latency, 15-bit index pointers.
    pub fn micro13(cores: usize) -> Self {
        assert!(cores > 0, "LLC needs at least one bank");
        LlcConfig {
            total_bytes: cores * 512 * 1024,
            ways: 16,
            banks: cores,
            block_bytes: BLOCK_BYTES,
            hit_latency: 5,
            memory_latency: 90,
            index_pointer_bits: 15,
        }
    }

    /// Configuration of a single bank.
    pub fn bank_config(&self) -> CacheConfig {
        CacheConfig::new(
            self.total_bytes / self.banks,
            self.ways,
            self.block_bytes,
            self.hit_latency,
        )
    }

    /// Total number of blocks (and therefore tags) in the LLC.
    pub fn capacity_blocks(&self) -> usize {
        self.total_bytes / self.block_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_configs_match_table1() {
        let i = CacheConfig::l1i_micro13();
        let d = CacheConfig::l1d_micro13();
        assert_eq!(i.capacity_bytes, 32 * 1024);
        assert_eq!(i.ways, 2);
        assert_eq!(i.hit_latency, 2);
        assert_eq!(d.capacity_bytes, 32 * 1024);
        assert_eq!(i.sets(), 256);
    }

    #[test]
    fn llc_config_matches_table1() {
        let llc = LlcConfig::micro13(16);
        assert_eq!(llc.total_bytes, 8 * 1024 * 1024);
        assert_eq!(llc.ways, 16);
        assert_eq!(llc.banks, 16);
        assert_eq!(llc.hit_latency, 5);
        assert_eq!(llc.bank_config().sets(), 512 * 1024 / (16 * 64));
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn misaligned_capacity_rejected() {
        let _ = CacheConfig::new(1000, 3, 64, 1);
    }
}
