//! SHIFT: the shared history instruction fetch prefetcher.
//!
//! SHIFT keeps a *single* instruction stream history per workload. One
//! designated core — the history generator — records its retire-order
//! instruction-cache access stream as spatial region records; every core
//! running the workload replays that shared history through its own small set
//! of stream address buffers (§4.1).
//!
//! Three variants are modelled, selected by [`ShiftMode`]:
//!
//! * **Dedicated** — the baseline design of §4.1: the shared history buffer
//!   and index table live in dedicated SRAM next to the LLC. Setting
//!   `zero_latency` gives the idealized ZeroLat-SHIFT configuration the paper
//!   uses to isolate prediction quality from history-access latency.
//! * **Virtualized** — the design of §4.2: history records are packed twelve
//!   to a 64-byte block into a reserved, non-evictable LLC region, the index
//!   table becomes a 15-bit pointer appended to every LLC tag, the history
//!   generator batches records in a cache-block buffer (CBB) before flushing
//!   them to the LLC, and every history read/write and index update becomes
//!   LLC traffic with LLC latency.

use serde::{Deserialize, Serialize};
use shift_cache::NucaLlc;
use shift_types::{AccessClass, BlockAddr, CoreId};

use crate::history::HistoryBuffer;
use crate::index::IndexTable;
use crate::prefetcher::{InstructionPrefetcher, PrefetchCandidate};
use crate::region::{SpatialRegion, SpatialRegionCompactor};
use crate::sab::{SabConfig, StreamAddressBufferSet};
use crate::storage::{self, StorageCost};

/// How the shared history is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShiftMode {
    /// Dedicated SRAM for the shared history buffer and index table (§4.1).
    Dedicated {
        /// If `true`, history accesses are free (the paper's ZeroLat-SHIFT).
        zero_latency: bool,
    },
    /// History embedded in the LLC, index embedded in the LLC tag array
    /// (§4.2). This is the design the paper calls simply "SHIFT".
    Virtualized,
}

/// Configuration of a SHIFT instance (one per workload).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShiftConfig {
    /// Shared history buffer capacity in spatial region records (32 K in the
    /// paper).
    pub history_records: usize,
    /// Index-table entries for the dedicated-storage variant.
    pub index_entries: usize,
    /// Spatial region size in blocks (8 in the paper).
    pub region_blocks: u8,
    /// Per-core stream address buffer configuration.
    pub sab: SabConfig,
    /// Storage mode.
    pub mode: ShiftMode,
    /// The core that generates the shared history.
    pub generator_core: CoreId,
    /// First block of the reserved LLC address window holding the virtualized
    /// history buffer (HBBase in the paper).
    pub history_base: BlockAddr,
    /// Spatial region records per 64-byte LLC block (12 in the paper:
    /// ⌊512 bits / 41 bits⌋).
    pub records_per_llc_block: usize,
    /// Average NoC round-trip latency (cycles) added to history-buffer reads
    /// in the virtualized design; the simulator sets this from its mesh model.
    pub noc_round_trip: u64,
    /// Total LLC tags, used to cost the embedded index table (128 K for the
    /// paper's 8 MB LLC).
    pub llc_capacity_blocks: usize,
}

impl ShiftConfig {
    /// The paper's virtualized SHIFT design: 32 K shared records embedded in
    /// the LLC, 8-block regions, paper SAB parameters.
    pub fn virtualized_micro13(generator_core: CoreId, history_base: BlockAddr) -> Self {
        ShiftConfig {
            history_records: 32 * 1024,
            index_entries: 32 * 1024,
            region_blocks: 8,
            sab: SabConfig::micro13(),
            mode: ShiftMode::Virtualized,
            generator_core,
            history_base,
            records_per_llc_block: 12,
            noc_round_trip: 12,
            llc_capacity_blocks: 8 * 1024 * 1024 / 64,
        }
    }

    /// The dedicated-storage baseline design of §4.1.
    pub fn dedicated_micro13(generator_core: CoreId) -> Self {
        ShiftConfig {
            mode: ShiftMode::Dedicated {
                zero_latency: false,
            },
            ..Self::virtualized_micro13(generator_core, BlockAddr::new(0))
        }
    }

    /// The idealized zero-latency configuration (ZeroLat-SHIFT).
    pub fn zero_latency_micro13(generator_core: CoreId) -> Self {
        ShiftConfig {
            mode: ShiftMode::Dedicated { zero_latency: true },
            ..Self::virtualized_micro13(generator_core, BlockAddr::new(0))
        }
    }

    /// Number of LLC blocks the virtualized history buffer occupies
    /// (2 731 for the paper's 32 K records at 12 records per block).
    pub fn history_llc_blocks(&self) -> u64 {
        (self.history_records as u64).div_ceil(self.records_per_llc_block as u64)
    }

    /// Storage cost of this design. Pure arithmetic on the configuration, so
    /// a cost needs no built prefetcher.
    pub fn storage(&self) -> StorageCost {
        let record_bits = SpatialRegion::storage_bits(self.region_blocks);
        let pointer_bits = storage::pointer_bits(self.history_records);
        // Per-core control logic: the stream address buffers (4 × 12 records).
        let sab_bits = (self.sab.streams * self.sab.capacity_regions) as u64 * record_bits as u64;
        let per_core_bytes = sab_bits.div_ceil(8);
        match self.mode {
            ShiftMode::Dedicated { .. } => StorageCost {
                per_core_bytes,
                shared_bytes: storage::history_bytes(self.history_records, record_bits)
                    + storage::index_bytes(self.index_entries, pointer_bits),
                llc_data_bytes: 0,
                llc_tag_bytes: 0,
            },
            ShiftMode::Virtualized => StorageCost {
                per_core_bytes,
                shared_bytes: 0,
                llc_data_bytes: self.history_llc_blocks() * 64,
                llc_tag_bytes: (self.llc_capacity_blocks as u64 * pointer_bits as u64).div_ceil(8),
            },
        }
    }
}

/// The SHIFT prefetcher.
///
/// One instance serves all cores that run a given workload; under workload
/// consolidation the simulator creates one instance per workload, each with
/// its own generator core and its own reserved LLC history window.
#[derive(Debug, Serialize, Deserialize)]
pub struct Shift {
    config: ShiftConfig,
    compactor: SpatialRegionCompactor,
    history: HistoryBuffer,
    index: IndexTable,
    cbb_records: usize,
    sabs: Vec<StreamAddressBufferSet>,
    llc_installed: bool,
    /// Reused candidate-block buffer for SAB replay (cleared per call).
    scratch_blocks: Vec<BlockAddr>,
}

impl Shift {
    /// Creates a SHIFT instance for a CMP with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or the generator core is out of range.
    pub fn new(config: ShiftConfig, cores: u16) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(
            config.generator_core.index() < cores as usize,
            "generator core outside the CMP"
        );
        assert!(
            config.records_per_llc_block > 0,
            "records per block must be positive"
        );
        Shift {
            compactor: SpatialRegionCompactor::new(config.region_blocks),
            history: HistoryBuffer::new(config.history_records),
            index: IndexTable::new(config.index_entries),
            cbb_records: 0,
            sabs: (0..cores)
                .map(|_| StreamAddressBufferSet::new(config.sab))
                .collect(),
            llc_installed: false,
            scratch_blocks: Vec::new(),
            config,
        }
    }

    /// Reserves the virtualized history window in the LLC. Called lazily on
    /// first use; exposed for explicit installation by the simulator.
    pub fn install(&mut self, llc: &mut NucaLlc) {
        if self.llc_installed || !matches!(self.config.mode, ShiftMode::Virtualized) {
            return;
        }
        llc.reserve_history_region(self.config.history_base, self.config.history_llc_blocks());
        self.llc_installed = true;
    }

    fn is_virtualized(&self) -> bool {
        matches!(self.config.mode, ShiftMode::Virtualized)
    }

    /// LLC block holding history record slot `ptr`.
    fn history_block_of(&self, ptr: u32) -> BlockAddr {
        self.config
            .history_base
            .offset(ptr as u64 / self.config.records_per_llc_block as u64)
    }

    /// Performs the LLC reads needed to fetch the history records in
    /// `[ptr, ptr + count)` and returns the access latency to charge.
    fn read_history_blocks(&mut self, llc: &mut NucaLlc, ptr: u32, count: usize) -> u64 {
        if !self.is_virtualized() || count == 0 {
            return 0;
        }
        let mut max_latency = 0;
        let mut last_block = None;
        for i in 0..count as u32 {
            let slot = self.history.advance_ptr(ptr, i);
            let block = self.history_block_of(slot);
            if last_block == Some(block) {
                continue;
            }
            last_block = Some(block);
            let outcome = llc.access(block, AccessClass::HistoryRead);
            max_latency = max_latency.max(outcome.latency);
        }
        max_latency + self.config.noc_round_trip
    }

    fn record(&mut self, block: BlockAddr, llc: &mut NucaLlc) {
        let Some(record) = self.compactor.observe(block) else {
            return;
        };
        let ptr = self.history.append(record);
        if self.is_virtualized() {
            // Index update request to the LLC tag array for the trigger block.
            llc.update_index_ptr(record.trigger(), ptr);
            // Accumulate records in the cache-block buffer; flush a full block.
            self.cbb_records += 1;
            if self.cbb_records >= self.config.records_per_llc_block {
                let hb_block = self.history_block_of(ptr);
                llc.access(hb_block, AccessClass::HistoryWrite);
                self.cbb_records = 0;
            }
        } else {
            self.index.update(record.trigger(), ptr);
        }
    }

    fn lookup_index(&mut self, block: BlockAddr, llc: &NucaLlc) -> Option<u32> {
        if self.is_virtualized() {
            // The pointer travels with the demand response for the missing
            // block; it is only available while the block's tag is LLC
            // resident.
            llc.index_ptr(block)
        } else {
            self.index.lookup(block)
        }
    }
}

impl InstructionPrefetcher for Shift {
    fn on_access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        hit: bool,
        llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        if hit {
            return;
        }
        self.install(llc);
        let Some(ptr) = self.lookup_index(block, llc) else {
            return;
        };
        // Fetch the history block(s) covering the lookahead window, then
        // allocate a stream.
        let lookahead = self.config.sab.lookahead;
        let delay = self.read_history_blocks(llc, ptr, lookahead);
        let history = &self.history;
        let blocks = &mut self.scratch_blocks;
        blocks.clear();
        self.sabs[core.index()].allocate(
            ptr,
            &mut |p, n, buf| {
                history.read_into(p, n, buf);
                history.advance_ptr(p, buf.len() as u32)
            },
            blocks,
        );
        out.extend(blocks.iter().map(|&b| PrefetchCandidate::delayed(b, delay)));
    }

    fn on_retire(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        self.install(llc);

        // Replay: advance this core's streams. We first compute which records
        // would be read so the virtualized LLC traffic can be charged.
        let lookahead = self.config.sab.lookahead;
        let history = &self.history;
        let blocks = &mut self.scratch_blocks;
        blocks.clear();
        let mut read_span: Option<(u32, usize)> = None;
        self.sabs[core.index()].on_retire(
            block,
            &mut |p, n, buf| {
                history.read_into(p, n, buf);
                read_span = Some((p, buf.len()));
                history.advance_ptr(p, buf.len() as u32)
            },
            blocks,
        );
        let delay = match read_span {
            Some((ptr, count)) => self.read_history_blocks(llc, ptr, count.min(lookahead)),
            None => 0,
        };
        out.extend(
            self.scratch_blocks
                .iter()
                .map(|&b| PrefetchCandidate::delayed(b, delay)),
        );

        // Record: only the history generator core writes the shared history.
        if core == self.config.generator_core {
            self.record(block, llc);
        }
    }

    fn covers(&self, core: CoreId, block: BlockAddr) -> bool {
        self.sabs[core.index()].covers(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_cache::LlcConfig;

    fn llc16() -> NucaLlc {
        NucaLlc::new(LlcConfig::micro13(16))
    }

    fn virt_config() -> ShiftConfig {
        // Place the history window far away from the instruction blocks used
        // in the tests.
        ShiftConfig::virtualized_micro13(CoreId::new(0), BlockAddr::new(0x10_0000))
    }

    fn drive_retires(shift: &mut Shift, core: CoreId, llc: &mut NucaLlc, blocks: &[u64]) {
        let mut out = Vec::new();
        for &b in blocks {
            shift.on_retire(core, BlockAddr::new(b), llc, &mut out);
        }
    }

    /// The stream used throughout: three discontinuous fragments.
    const STREAM: [u64; 9] = [100, 101, 102, 240, 241, 500, 501, 502, 900];

    fn warm_llc_with_stream(llc: &mut NucaLlc) {
        for &b in &STREAM {
            llc.access(BlockAddr::new(b), AccessClass::Demand);
        }
    }

    #[test]
    fn non_generator_cores_replay_the_generator_history() {
        let mut llc = llc16();
        warm_llc_with_stream(&mut llc);
        let mut shift = Shift::new(virt_config(), 16);
        // Core 0 (the generator) records the stream a few times.
        for _ in 0..3 {
            drive_retires(&mut shift, CoreId::new(0), &mut llc, &STREAM);
        }
        // Core 7 misses on the stream head and should replay the shared
        // history even though it never recorded anything.
        let mut out = Vec::new();
        shift.on_access(
            CoreId::new(7),
            BlockAddr::new(100),
            false,
            &mut llc,
            &mut out,
        );
        let blocks: Vec<u64> = out.iter().map(|c| c.block.get()).collect();
        assert!(blocks.contains(&101), "prefetches: {blocks:?}");
        assert!(
            blocks.contains(&240),
            "discontinuity must be predicted: {blocks:?}"
        );
        assert!(shift.covers(CoreId::new(7), BlockAddr::new(241)));
    }

    #[test]
    fn non_generator_cores_do_not_write_history() {
        let mut llc = llc16();
        let mut shift = Shift::new(virt_config(), 4);
        drive_retires(&mut shift, CoreId::new(2), &mut llc, &STREAM);
        drive_retires(&mut shift, CoreId::new(3), &mut llc, &STREAM);
        assert_eq!(llc.traffic().count(AccessClass::IndexUpdate), 0);
        drive_retires(&mut shift, CoreId::new(0), &mut llc, &STREAM);
        assert!(llc.traffic().count(AccessClass::IndexUpdate) > 0);
    }

    #[test]
    fn virtualized_history_reads_generate_llc_traffic_and_delay() {
        let mut llc = llc16();
        warm_llc_with_stream(&mut llc);
        let mut shift = Shift::new(virt_config(), 2);
        for _ in 0..4 {
            drive_retires(&mut shift, CoreId::new(0), &mut llc, &STREAM);
        }
        let before = llc.traffic().count(AccessClass::HistoryRead);
        let mut out = Vec::new();
        shift.on_access(
            CoreId::new(1),
            BlockAddr::new(100),
            false,
            &mut llc,
            &mut out,
        );
        assert!(!out.is_empty());
        assert!(llc.traffic().count(AccessClass::HistoryRead) > before);
        assert!(
            out.iter().all(|c| c.ready_delay > 0),
            "history read latency must delay replay"
        );
    }

    #[test]
    fn zero_latency_variant_has_no_delay_and_no_llc_traffic() {
        let mut llc = llc16();
        let mut shift = Shift::new(ShiftConfig::zero_latency_micro13(CoreId::new(0)), 2);
        for _ in 0..4 {
            drive_retires(&mut shift, CoreId::new(0), &mut llc, &STREAM);
        }
        let mut out = Vec::new();
        shift.on_access(
            CoreId::new(1),
            BlockAddr::new(100),
            false,
            &mut llc,
            &mut out,
        );
        assert!(!out.is_empty());
        assert!(out.iter().all(|c| c.ready_delay == 0));
        assert_eq!(llc.traffic().count(AccessClass::HistoryRead), 0);
        assert_eq!(llc.traffic().count(AccessClass::IndexUpdate), 0);
    }

    #[test]
    fn generator_recording_emits_index_updates_and_history_writes() {
        let mut llc = llc16();
        warm_llc_with_stream(&mut llc);
        let mut shift = Shift::new(virt_config(), 1);
        // Long stream: enough records to fill the CBB (12 records per block).
        let mut blocks = Vec::new();
        for rep in 0..40u64 {
            for &b in &STREAM {
                blocks.push(b + (rep % 2) * 10_000);
            }
        }
        drive_retires(&mut shift, CoreId::new(0), &mut llc, &blocks);
        // One index update per record; one CBB flush per 12 records.
        let index_updates = llc.traffic().count(AccessClass::IndexUpdate);
        let history_writes = llc.traffic().count(AccessClass::HistoryWrite);
        assert!(index_updates > 0);
        assert!(history_writes > 0, "CBB flushes must reach the LLC");
        assert_eq!(history_writes, index_updates / 12);
    }

    #[test]
    fn history_window_is_reserved_in_llc() {
        let mut llc = llc16();
        let cfg = virt_config();
        let mut shift = Shift::new(cfg, 1);
        shift.install(&mut llc);
        assert_eq!(llc.pinned_blocks(), cfg.history_llc_blocks());
        // 32 K records at 12 per block = 2 731 blocks ≈ 171 KB, as in §4.2.
        assert_eq!(cfg.history_llc_blocks(), 2731);
        assert_eq!(cfg.history_llc_blocks() * 64 / 1024, 170); // 170.7 KB
    }

    #[test]
    fn storage_cost_matches_paper() {
        let cost = virt_config().storage();
        // Embedded index: 128 K tags × 15 bits = 240 KB.
        assert_eq!(cost.llc_tag_bytes / 1024, 240);
        // History occupies ~171 KB of existing LLC capacity.
        assert_eq!(cost.llc_data_bytes / 1024, 170);
        // Dedicated per-core cost is tiny (stream address buffers only).
        assert!(cost.per_core_bytes < 1024);

        let dcost = ShiftConfig::dedicated_micro13(CoreId::new(0)).storage();
        assert!(dcost.shared_bytes > 200 * 1024);
        assert_eq!(dcost.llc_tag_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "generator core outside")]
    fn generator_core_must_be_in_range() {
        let _ = Shift::new(
            ShiftConfig::virtualized_micro13(CoreId::new(5), BlockAddr::new(0)),
            4,
        );
    }
}
