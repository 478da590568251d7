//! The shared, banked NUCA last-level cache.
//!
//! The LLC is the substrate into which virtualized SHIFT embeds its shared
//! history: a reserved, non-evictable block range holds the history buffer,
//! and a tag can carry an index pointer into that buffer (the embedded index
//! table of §4.2). The LLC also accounts traffic per [`AccessClass`] so that
//! the Figure 9 overhead breakdown can be reproduced.
//!
//! The banks hold tags, recency and pins alone. The pointers sit in a lane
//! of their own, one 4-byte entry per line slot of every bank, which the
//! first stored pointer allocates: only virtualized SHIFT, alone or inside
//! a hybrid, stores one, so the LLC of every other design holds no lane.
//! Once the lane exists, every fill clears its slot's entry, so a line never
//! inherits the pointer of the line it replaced; a resident line keeps its
//! slot until it is evicted.

use std::num::NonZeroU32;

use serde::{Deserialize, Serialize};
use shift_types::{AccessClass, BlockAddr};

use crate::config::LlcConfig;
use crate::set_assoc::SetAssocCache;
use crate::stats::{CacheStats, TrafficStats};

/// Outcome of an LLC access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcAccessOutcome {
    /// Whether the block was found in the LLC.
    pub hit: bool,
    /// The bank that served the request.
    pub bank: usize,
    /// Access latency in cycles (bank hit latency, plus memory latency on a
    /// miss).
    pub latency: u64,
    /// Index pointer stored alongside the block's tag, if the block was
    /// present and had one. The LLC returns it with every demand response so
    /// the requesting core's SHIFT logic can start a history read (§4.2,
    /// replay step 1).
    pub index_ptr: Option<u32>,
}

/// The shared, banked last-level cache.
///
/// # Examples
///
/// ```
/// use shift_cache::{LlcConfig, NucaLlc};
/// use shift_types::{AccessClass, BlockAddr};
///
/// let mut llc = NucaLlc::new(LlcConfig::micro13(4));
/// let outcome = llc.access(BlockAddr::new(0x1234), AccessClass::Demand);
/// assert!(!outcome.hit);
/// let outcome = llc.access(BlockAddr::new(0x1234), AccessClass::Demand);
/// assert!(outcome.hit);
/// ```
#[derive(Clone, Debug)]
pub struct NucaLlc {
    config: LlcConfig,
    banks: Vec<SetAssocCache<()>>,
    /// Line slots per bank: bank `b`'s slot `s` owns lane entry
    /// `b * bank_slots + s`.
    bank_slots: usize,
    /// Index-pointer lane over every line slot of every bank, empty until
    /// the first pointer is stored. A history holds at most `u32::MAX`
    /// records, so a pointer is at most `u32::MAX - 1`; it is stored plus
    /// one, and `None` means "no pointer".
    index_ptrs: Vec<Option<NonZeroU32>>,
    traffic: TrafficStats,
    pinned_ranges: Vec<(BlockAddr, u64)>,
    /// `log2(banks)` when the bank count is a power of two: bank selection
    /// and bank-local address derivation then use mask/shift instead of the
    /// modulo and division on the per-access path.
    bank_bits: Option<u32>,
}

impl NucaLlc {
    /// Creates an empty LLC.
    pub fn new(config: LlcConfig) -> Self {
        let banks = (0..config.banks)
            .map(|_| SetAssocCache::new(config.bank_config()))
            .collect();
        NucaLlc {
            banks,
            bank_slots: config.bank_config().capacity_blocks(),
            index_ptrs: Vec::new(),
            traffic: TrafficStats::new(),
            pinned_ranges: Vec::new(),
            bank_bits: (config.banks as u64)
                .is_power_of_two()
                .then(|| (config.banks as u64).trailing_zeros()),
            config,
        }
    }

    /// The LLC configuration.
    pub fn config(&self) -> &LlcConfig {
        &self.config
    }

    /// The bank a block maps to (block-interleaved).
    #[inline]
    pub fn bank_of(&self, block: BlockAddr) -> usize {
        match self.bank_bits {
            Some(bits) => (block.get() & ((1u64 << bits) - 1)) as usize,
            None => (block.get() % self.config.banks as u64) as usize,
        }
    }

    /// The address used to index within a bank: the bank-selection bits are
    /// stripped so consecutive blocks of one bank spread over all of its sets.
    #[inline]
    fn bank_local(&self, block: BlockAddr) -> BlockAddr {
        match self.bank_bits {
            Some(bits) => BlockAddr::new(block.get() >> bits),
            None => BlockAddr::new(block.get() / self.config.banks as u64),
        }
    }

    /// The pointer stored with line `slot` of bank `bank`: none while the
    /// lane is empty.
    #[inline]
    fn ptr_at(&self, bank: usize, slot: usize) -> Option<u32> {
        self.index_ptrs
            .get(bank * self.bank_slots + slot)
            .copied()
            .flatten()
            .map(|p| p.get() - 1)
    }

    /// Installs `local` in bank `bank`, pinned if `pinned`, and clears the
    /// pointer its slot may hold from the line it replaced.
    #[inline]
    fn fill(&mut self, bank: usize, local: BlockAddr, pinned: bool) {
        let (slot, _) = self.banks[bank].fill_slot(local, (), pinned);
        if let Some(ptr) = self.index_ptrs.get_mut(bank * self.bank_slots + slot) {
            *ptr = None;
        }
    }

    /// Per-class traffic statistics.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Records a traffic event that does not correspond to a block transfer
    /// performed through [`access`](Self::access) (e.g. a discarded prefetch
    /// or a tag-only index update).
    pub fn record_traffic(&mut self, class: AccessClass, bytes: u64) {
        self.traffic.record(class, bytes);
    }

    /// Aggregate hit/miss statistics across all banks.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for bank in &self.banks {
            let s = bank.stats();
            total.accesses += s.accesses;
            total.hits += s.hits;
            total.misses += s.misses;
            total.fills += s.fills;
            total.evictions += s.evictions;
        }
        total
    }

    /// Resets hit/miss and traffic statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        for bank in &mut self.banks {
            bank.reset_stats();
        }
        self.traffic = TrafficStats::new();
    }

    /// Performs an access of the given class, filling the block on a miss.
    ///
    /// The returned latency covers the bank lookup plus, on a miss, the
    /// memory round trip. NoC latency between the requesting core and the
    /// bank is accounted separately by the interconnect model.
    #[inline]
    pub fn access(&mut self, block: BlockAddr, class: AccessClass) -> LlcAccessOutcome {
        self.traffic.record(class, self.config.block_bytes as u64);
        let bank_idx = self.bank_of(block);
        let local = self.bank_local(block);
        // One scan resolves hit/miss and recency and finds the hit's slot,
        // whose pointer the response carries; the pinned-range check only
        // matters for fills, so it is deferred to the miss path.
        let (hit, index_ptr) = match self.banks[bank_idx].access_slot(local) {
            Some(slot) => (true, self.ptr_at(bank_idx, slot)),
            None => {
                let pinned = self.is_pinned(block);
                self.fill(bank_idx, local, pinned);
                (false, None)
            }
        };
        let latency = if hit {
            self.config.hit_latency
        } else {
            self.config.hit_latency + self.config.memory_latency
        };
        LlcAccessOutcome {
            hit,
            bank: bank_idx,
            latency,
            index_ptr,
        }
    }

    /// Checks whether a block is resident without perturbing state.
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.banks[self.bank_of(block)].probe(self.bank_local(block))
    }

    /// Reads the index pointer stored with `block`'s tag, if the block is
    /// resident. Does not count as traffic (the pointer travels with demand
    /// responses).
    pub fn index_ptr(&self, block: BlockAddr) -> Option<u32> {
        let bank = self.bank_of(block);
        let slot = self.banks[bank].slot_of(self.bank_local(block))?;
        self.ptr_at(bank, slot)
    }

    /// Updates the index pointer of `block` if it is resident, recording the
    /// tag-array traffic. Returns `true` if the pointer was stored.
    ///
    /// This is the "index update request" the history generator core issues
    /// for every new spatial-region record (§4.2, record step 2). The first
    /// pointer stored allocates the pointer lane, one entry per line slot of
    /// every bank.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is `u32::MAX`, which points past any history.
    pub fn update_index_ptr(&mut self, block: BlockAddr, ptr: u32) -> bool {
        let stored = NonZeroU32::MIN
            .checked_add(ptr)
            .unwrap_or_else(|| panic!("index pointer {ptr} points past any history"));
        // Index updates only touch the tag array; account two bytes (the
        // 15-bit pointer) rather than a full block.
        self.traffic.record(AccessClass::IndexUpdate, 2);
        let bank = self.bank_of(block);
        let Some(slot) = self.banks[bank].slot_of(self.bank_local(block)) else {
            return false;
        };
        if self.index_ptrs.is_empty() {
            self.index_ptrs = vec![None; self.banks.len() * self.bank_slots];
        }
        self.index_ptrs[bank * self.bank_slots + slot] = Some(stored);
        true
    }

    /// Reserves `blocks` LLC lines starting at `start` for a virtualized
    /// history buffer: the lines are installed immediately and pinned so they
    /// can never be evicted, guaranteeing that the entire history is always
    /// LLC-resident (§4.2).
    pub fn reserve_history_region(&mut self, start: BlockAddr, blocks: u64) {
        assert!(blocks > 0, "history region must not be empty");
        self.pinned_ranges.push((start, blocks));
        for i in 0..blocks {
            let block = start.offset(i);
            self.fill(self.bank_of(block), self.bank_local(block), true);
        }
    }

    /// Returns `true` if `block` belongs to a reserved history region.
    #[inline]
    pub fn is_pinned(&self, block: BlockAddr) -> bool {
        self.pinned_ranges
            .iter()
            .any(|&(start, len)| block >= start && block < start.offset(len))
    }

    /// Total number of LLC blocks reserved for history buffers.
    pub fn pinned_blocks(&self) -> u64 {
        self.pinned_ranges.iter().map(|&(_, len)| len).sum()
    }

    /// Number of blocks currently resident across all banks.
    pub fn resident_blocks(&self) -> usize {
        self.banks.iter().map(|b| b.resident_blocks()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_llc() -> NucaLlc {
        NucaLlc::new(LlcConfig {
            total_bytes: 64 * 1024,
            ways: 4,
            banks: 4,
            block_bytes: 64,
            hit_latency: 5,
            memory_latency: 90,
            index_pointer_bits: 15,
        })
    }

    #[test]
    fn miss_fills_and_charges_memory_latency() {
        let mut llc = small_llc();
        let b = BlockAddr::new(77);
        let first = llc.access(b, AccessClass::Demand);
        assert!(!first.hit);
        assert_eq!(first.latency, 95);
        let second = llc.access(b, AccessClass::Demand);
        assert!(second.hit);
        assert_eq!(second.latency, 5);
        assert_eq!(llc.stats().accesses, 2);
    }

    #[test]
    fn banks_are_block_interleaved() {
        let llc = small_llc();
        assert_eq!(llc.bank_of(BlockAddr::new(0)), 0);
        assert_eq!(llc.bank_of(BlockAddr::new(1)), 1);
        assert_eq!(llc.bank_of(BlockAddr::new(5)), 1);
        assert_eq!(llc.bank_of(BlockAddr::new(7)), 3);
    }

    #[test]
    fn index_pointer_round_trips_while_block_resident() {
        let mut llc = small_llc();
        let b = BlockAddr::new(100);
        // Not resident yet: update fails.
        assert!(!llc.update_index_ptr(b, 5));
        llc.access(b, AccessClass::Demand);
        assert!(llc.update_index_ptr(b, 5));
        assert_eq!(llc.index_ptr(b), Some(5));
        // A demand hit returns the pointer with the response.
        let outcome = llc.access(b, AccessClass::Demand);
        assert_eq!(outcome.index_ptr, Some(5));
    }

    #[test]
    fn the_index_pointer_takes_four_bytes_and_holds_its_whole_range() {
        fn lane_bytes<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        let mut llc = small_llc();
        assert_eq!(lane_bytes(&llc.index_ptrs), 4);
        let b = BlockAddr::new(100);
        llc.access(b, AccessClass::Demand);
        assert_eq!(llc.index_ptr(b), None);
        for ptr in [0, 1, u32::MAX - 1] {
            assert!(llc.update_index_ptr(b, ptr));
            assert_eq!(llc.index_ptr(b), Some(ptr));
        }
    }

    #[test]
    #[should_panic(expected = "index pointer 4294967295 points past any history")]
    fn u32_max_is_not_an_index_pointer() {
        let mut llc = small_llc();
        llc.update_index_ptr(BlockAddr::new(100), u32::MAX);
    }

    #[test]
    fn history_region_is_always_resident() {
        let mut llc = small_llc();
        let start = BlockAddr::new(0x8000);
        llc.reserve_history_region(start, 64);
        assert_eq!(llc.pinned_blocks(), 64);
        // Thrash the cache with demand traffic.
        for i in 0..10_000u64 {
            llc.access(BlockAddr::new(i), AccessClass::Demand);
        }
        for i in 0..64u64 {
            assert!(llc.probe(start.offset(i)), "history block evicted");
            assert!(llc.is_pinned(start.offset(i)));
        }
    }

    #[test]
    fn history_reads_are_hits_after_reservation() {
        let mut llc = small_llc();
        let start = BlockAddr::new(0x4000);
        llc.reserve_history_region(start, 16);
        let outcome = llc.access(start.offset(3), AccessClass::HistoryRead);
        assert!(outcome.hit);
        assert_eq!(llc.traffic().count(AccessClass::HistoryRead), 1);
    }

    #[test]
    fn traffic_classes_are_recorded_separately() {
        let mut llc = small_llc();
        llc.access(BlockAddr::new(1), AccessClass::Demand);
        llc.access(BlockAddr::new(2), AccessClass::HistoryWrite);
        llc.record_traffic(AccessClass::Discard, 64);
        llc.update_index_ptr(BlockAddr::new(1), 9);
        assert_eq!(llc.traffic().count(AccessClass::Demand), 1);
        assert_eq!(llc.traffic().count(AccessClass::HistoryWrite), 1);
        assert_eq!(llc.traffic().count(AccessClass::Discard), 1);
        assert_eq!(llc.traffic().count(AccessClass::IndexUpdate), 1);
    }

    #[test]
    fn reset_stats_clears_traffic_and_counters() {
        let mut llc = small_llc();
        llc.access(BlockAddr::new(1), AccessClass::Demand);
        llc.reset_stats();
        assert_eq!(llc.stats().accesses, 0);
        assert_eq!(llc.traffic().total_count(), 0);
    }

    #[test]
    fn evicted_blocks_lose_their_index_pointer() {
        let mut llc = NucaLlc::new(LlcConfig {
            total_bytes: 4096, // one bank of 32 two-way sets
            ways: 2,
            banks: 1,
            block_bytes: 64,
            hit_latency: 5,
            memory_latency: 90,
            index_pointer_bits: 15,
        });
        let sets = llc.config().bank_config().sets() as u64;
        assert_eq!(sets, 32);
        let b = BlockAddr::new(3);
        llc.access(b, AccessClass::Demand);
        assert!(llc.update_index_ptr(b, 42));
        // Evict it by filling two more blocks mapping to the same set: the
        // second takes the evicted line's slot, and none of its pointer.
        let newcomer = BlockAddr::new(3 + 2 * sets);
        llc.access(BlockAddr::new(3 + sets), AccessClass::Demand);
        llc.access(newcomer, AccessClass::Demand);
        assert!(!llc.probe(b));
        assert_eq!(llc.index_ptr(b), None);
        assert_eq!(llc.index_ptr(newcomer), None);
        let outcome = llc.access(newcomer, AccessClass::Demand);
        assert!(outcome.hit);
        assert_eq!(outcome.index_ptr, None);
    }

    /// Drives every kind of fill: pinned history lines, demand, prefetch
    /// and history traffic over far more blocks than the LLC holds.
    fn drive_every_fill(llc: &mut NucaLlc, rounds: u64) {
        let start = BlockAddr::new(0x8000);
        llc.reserve_history_region(start, 64);
        for i in 0..rounds {
            llc.access(BlockAddr::new(i % 3_001), AccessClass::Demand);
            llc.access(BlockAddr::new(i % 1_999 + 4), AccessClass::PrefetchUseful);
            llc.access(start.offset(i % 64), AccessClass::HistoryRead);
            llc.access(start.offset(i % 61), AccessClass::HistoryWrite);
        }
    }

    #[test]
    fn an_llc_that_stores_no_pointer_holds_no_pointer_lane() {
        let mut llc = small_llc();
        drive_every_fill(&mut llc, 10_000);
        assert!(llc.stats().evictions > 0);
        assert_eq!(
            llc.index_ptrs.capacity(),
            0,
            "an LLC that stored no pointer holds a pointer lane"
        );
        // An update of a block that is not resident stores nothing.
        assert!(!llc.probe(BlockAddr::new(0x7000)));
        assert!(!llc.update_index_ptr(BlockAddr::new(0x7000), 1));
        assert_eq!(llc.index_ptrs.capacity(), 0);
    }

    #[test]
    fn the_first_stored_pointer_allocates_one_per_line_in_every_bank() {
        let mut llc = small_llc();
        drive_every_fill(&mut llc, 1_000);
        let b = BlockAddr::new(7);
        llc.access(b, AccessClass::Demand);
        assert!(llc.update_index_ptr(b, 3));
        let lines = llc.config().capacity_blocks();
        assert_eq!(lines, 4 * llc.config().bank_config().capacity_blocks());
        assert_eq!(llc.index_ptrs.len(), lines);
        assert_eq!(llc.index_ptrs.iter().flatten().count(), 1);
        assert_eq!(llc.index_ptr(b), Some(3));
    }

    #[test]
    fn pointer_paths_do_not_allocate_after_the_first_pointer() {
        let mut llc = small_llc();
        llc.access(BlockAddr::new(1), AccessClass::Demand);
        assert!(llc.update_index_ptr(BlockAddr::new(1), 0));
        let lane = (llc.index_ptrs.as_ptr(), llc.index_ptrs.capacity());
        drive_every_fill(&mut llc, 20_000);
        for i in 0..20_000u64 {
            let b = BlockAddr::new(i % 2_503);
            llc.update_index_ptr(b, i as u32);
            llc.index_ptr(b);
        }
        assert_eq!(
            lane,
            (llc.index_ptrs.as_ptr(), llc.index_ptrs.capacity()),
            "the pointer lane must not reallocate"
        );
    }
}
