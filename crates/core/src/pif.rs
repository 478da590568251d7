//! Proactive Instruction Fetch (PIF) — the per-core-history baseline.
//!
//! PIF \[Ferdman, Kaynak, Falsafi, MICRO-44 2011\] is the state-of-the-art
//! stream prefetcher SHIFT is compared against. Every core records its own
//! retire-order instruction-cache access stream as spatial region records in
//! a private history buffer with a private index table, and replays it with
//! private stream address buffers. The paper evaluates two design points:
//! `PIF_32K` (32 K records + 8 K index entries per core, 213 KB/core) and the
//! equal-aggregate-storage `PIF_2K` (2 K records + 512 index entries per
//! core).

use serde::{Deserialize, Serialize};
use shift_cache::NucaLlc;
use shift_types::{BlockAddr, CoreId};

use crate::history::HistoryBuffer;
use crate::index::IndexTable;
use crate::prefetcher::{InstructionPrefetcher, PrefetchCandidate};
use crate::region::{SpatialRegion, SpatialRegionCompactor};
use crate::sab::{SabConfig, StreamAddressBufferSet};
use crate::storage::{self, StorageCost};

/// Configuration of a PIF instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PifConfig {
    /// History-buffer capacity in spatial region records, per core.
    pub history_records: usize,
    /// Index-table capacity in entries, per core.
    pub index_entries: usize,
    /// Spatial region size in blocks.
    pub region_blocks: u8,
    /// Stream address buffer configuration.
    pub sab: SabConfig,
}

impl PifConfig {
    /// The paper's PIF_32K design point: 32 K records and 8 K index entries
    /// per core (≈213 KB/core), 8-block regions.
    pub fn pif_32k() -> Self {
        PifConfig {
            history_records: 32 * 1024,
            index_entries: 8 * 1024,
            region_blocks: 8,
            sab: SabConfig::micro13(),
        }
    }

    /// The equal-storage PIF_2K design point: 2 K records and 512 index
    /// entries per core.
    pub fn pif_2k() -> Self {
        PifConfig {
            history_records: 2 * 1024,
            index_entries: 512,
            region_blocks: 8,
            sab: SabConfig::micro13(),
        }
    }

    /// A design point with an arbitrary per-core history size, keeping the
    /// paper's 4:1 history-to-index ratio; used for the Figure 6 sweep.
    pub fn with_history_records(records: usize) -> Self {
        PifConfig {
            history_records: records.max(16),
            index_entries: (records / 4).max(8),
            region_blocks: 8,
            sab: SabConfig::micro13(),
        }
    }

    /// Storage cost of this design point: a private history buffer and index
    /// table per core. Pure arithmetic on the configuration, so a cost needs
    /// no built prefetcher.
    pub fn storage(&self) -> StorageCost {
        let record_bits = SpatialRegion::storage_bits(self.region_blocks);
        let pointer_bits = storage::pointer_bits(self.history_records);
        StorageCost {
            per_core_bytes: storage::history_bytes(self.history_records, record_bits)
                + storage::index_bytes(self.index_entries, pointer_bits),
            shared_bytes: 0,
            llc_data_bytes: 0,
            llc_tag_bytes: 0,
        }
    }

    /// Human-readable design point name (`PIF_32K`, `PIF_2K`, …).
    pub fn design_name(&self) -> String {
        if self.history_records.is_multiple_of(1024) {
            format!("PIF_{}K", self.history_records / 1024)
        } else {
            format!("PIF_{}", self.history_records)
        }
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct PifCore {
    compactor: SpatialRegionCompactor,
    history: HistoryBuffer,
    index: IndexTable,
    sabs: StreamAddressBufferSet,
    /// Reused candidate-block buffer for SAB replay (cleared per call).
    scratch_blocks: Vec<BlockAddr>,
}

impl PifCore {
    fn new(config: &PifConfig) -> Self {
        PifCore {
            compactor: SpatialRegionCompactor::new(config.region_blocks),
            history: HistoryBuffer::new(config.history_records),
            index: IndexTable::new(config.index_entries),
            sabs: StreamAddressBufferSet::new(config.sab),
            scratch_blocks: Vec::new(),
        }
    }
}

/// The PIF prefetcher: one private history, index, and SAB set per core.
#[derive(Debug, Serialize, Deserialize)]
pub struct Pif {
    cores: Vec<PifCore>,
}

impl Pif {
    /// Creates a PIF instance covering `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(config: PifConfig, cores: u16) -> Self {
        assert!(cores > 0, "need at least one core");
        Pif {
            cores: (0..cores).map(|_| PifCore::new(&config)).collect(),
        }
    }
}

fn read_and_advance(
    history: &HistoryBuffer,
    ptr: u32,
    n: usize,
    buf: &mut Vec<SpatialRegion>,
) -> u32 {
    history.read_into(ptr, n, buf);
    history.advance_ptr(ptr, buf.len() as u32)
}

impl InstructionPrefetcher for Pif {
    fn on_access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        hit: bool,
        _llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        if hit {
            return;
        }
        let state = &mut self.cores[core.index()];
        let PifCore {
            history,
            index,
            sabs,
            scratch_blocks,
            ..
        } = state;
        if let Some(ptr) = index.lookup(block) {
            scratch_blocks.clear();
            sabs.allocate(
                ptr,
                &mut |p, n, buf| read_and_advance(history, p, n, buf),
                scratch_blocks,
            );
            out.extend(
                scratch_blocks
                    .iter()
                    .map(|&b| PrefetchCandidate::immediate(b)),
            );
        }
    }

    fn on_retire(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        _llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        let state = &mut self.cores[core.index()];
        let PifCore {
            compactor,
            history,
            index,
            sabs,
            scratch_blocks,
        } = state;

        // Replay: advance any stream this retirement falls into.
        scratch_blocks.clear();
        sabs.on_retire(
            block,
            &mut |p, n, buf| read_and_advance(history, p, n, buf),
            scratch_blocks,
        );
        out.extend(
            scratch_blocks
                .iter()
                .map(|&b| PrefetchCandidate::immediate(b)),
        );

        // Record: fold the retire stream into spatial region records.
        if let Some(record) = compactor.observe(block) {
            let ptr = history.append(record);
            index.update(record.trigger(), ptr);
        }
    }

    fn covers(&self, core: CoreId, block: BlockAddr) -> bool {
        self.cores[core.index()].sabs.covers(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_cache::LlcConfig;

    fn llc() -> NucaLlc {
        NucaLlc::new(LlcConfig::micro13(1))
    }

    fn drive_retires(pif: &mut Pif, core: CoreId, llc: &mut NucaLlc, blocks: &[u64]) {
        let mut out = Vec::new();
        for &b in blocks {
            pif.on_retire(core, BlockAddr::new(b), llc, &mut out);
        }
    }

    #[test]
    fn recorded_stream_is_replayed_on_miss() {
        let mut llc = llc();
        let mut pif = Pif::new(PifConfig::pif_32k(), 1);
        let core = CoreId::new(0);
        // A recurring stream with discontinuities: 100,101,102 → 240,241 → 500.
        let stream = [100, 101, 102, 240, 241, 500, 900, 901];
        for _ in 0..3 {
            drive_retires(&mut pif, core, &mut llc, &stream);
        }
        let mut out = Vec::new();
        pif.on_access(core, BlockAddr::new(100), false, &mut llc, &mut out);
        let blocks: Vec<u64> = out.iter().map(|c| c.block.get()).collect();
        assert!(blocks.contains(&100));
        assert!(blocks.contains(&101));
        assert!(
            blocks.contains(&240),
            "discontinuous target must be predicted: {blocks:?}"
        );
        assert!(pif.covers(core, BlockAddr::new(241)));
    }

    #[test]
    fn hits_do_not_trigger_replay() {
        let mut llc = llc();
        let mut pif = Pif::new(PifConfig::pif_2k(), 1);
        let core = CoreId::new(0);
        drive_retires(&mut pif, core, &mut llc, &[10, 20, 30, 10, 20, 30]);
        let mut out = Vec::new();
        pif.on_access(core, BlockAddr::new(10), true, &mut llc, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn cores_have_private_histories() {
        let mut llc = llc();
        let mut pif = Pif::new(PifConfig::pif_32k(), 2);
        drive_retires(
            &mut pif,
            CoreId::new(0),
            &mut llc,
            &[1, 2, 3, 50, 51, 1, 2, 3, 50],
        );
        // Core 1 never retired anything, so a miss on core 1 finds no stream.
        let mut out = Vec::new();
        pif.on_access(CoreId::new(1), BlockAddr::new(1), false, &mut llc, &mut out);
        assert!(out.is_empty());
        // Core 0 recorded the stream, so the same miss on core 0 replays it.
        pif.on_access(CoreId::new(0), BlockAddr::new(1), false, &mut llc, &mut out);
        assert!(out.contains(&PrefetchCandidate::immediate(BlockAddr::new(2))));
    }

    #[test]
    fn storage_cost_matches_paper_numbers() {
        let per_core = PifConfig::pif_32k().storage().per_core_bytes;
        // 164 KB history + 49 KB index ≈ 213 KB per core.
        assert_eq!(per_core / 1024, 213);
        // PIF_2K: 2 K × 41 bits ≈ 10 KB history + 512 × 45 bits (11-bit
        // pointers) ≈ 3 KB index.
        assert!(PifConfig::pif_2k().storage().per_core_bytes < 16 * 1024);
    }

    #[test]
    fn design_names() {
        assert_eq!(PifConfig::pif_32k().design_name(), "PIF_32K");
        assert_eq!(PifConfig::pif_2k().design_name(), "PIF_2K");
        assert_eq!(
            PifConfig::with_history_records(4096).design_name(),
            "PIF_4K"
        );
    }

    #[test]
    fn with_history_records_keeps_ratio() {
        let cfg = PifConfig::with_history_records(16 * 1024);
        assert_eq!(cfg.history_records, 16 * 1024);
        assert_eq!(cfg.index_entries, 4 * 1024);
    }
}
