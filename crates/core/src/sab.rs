//! Stream address buffers: the per-core replay engines.
//!
//! Each core owns a small set of stream address buffers (four in the paper's
//! design). A buffer holds a queue of spatial region records read from the
//! history buffer (up to twelve) and runs ahead of the core: when an
//! instruction-cache miss starts a new stream, the buffer is filled with a
//! lookahead window of records (five in the paper); as the core retires
//! instructions that fall into buffered regions, the stream advances and
//! further records are read. Prefetch requests are issued for the blocks
//! encoded by newly read records.
//!
//! A buffer's queue and the set's scratch window hold the history's own
//! 8-byte [`SpatialRegion`] words, copied as read: the paper's four
//! 12-record buffers take 384 bytes of records per core.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use shift_types::BlockAddr;

use crate::region::SpatialRegion;

/// Configuration of a stream address buffer set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SabConfig {
    /// Number of concurrent streams per core (4 in the paper).
    pub streams: usize,
    /// Maximum region records held per stream (12 in the paper).
    pub capacity_regions: usize,
    /// Number of records read ahead of the stream position (5 in the paper).
    pub lookahead: usize,
}

impl SabConfig {
    /// The paper's configuration: 4 streams × 12 records, lookahead 5.
    pub fn micro13() -> Self {
        SabConfig {
            streams: 4,
            capacity_regions: 12,
            lookahead: 5,
        }
    }
}

impl Default for SabConfig {
    fn default() -> Self {
        Self::micro13()
    }
}

/// A single stream address buffer.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StreamAddressBuffer {
    regions: VecDeque<SpatialRegion>,
    next_ptr: u32,
    last_use: u64,
    valid: bool,
    /// Coarse presence filter over the buffered regions' accessed blocks
    /// (bit `b & 63` set for every buffered block `b`). Bits are only added
    /// on push and cleared on reset, so the filter is a *superset* of the
    /// buffered blocks: a filter miss proves the block is absent and skips
    /// the region scan, while a stale bit merely costs the scan the code
    /// always performed — match results are unchanged either way.
    filter: u64,
}

impl StreamAddressBuffer {
    /// Returns the index of the buffered region whose *recorded accesses*
    /// include `block`, if any.
    #[inline]
    fn match_index(&self, block: BlockAddr) -> Option<usize> {
        if self.filter & Self::filter_bit(block) == 0 {
            return None;
        }
        self.regions.iter().position(|r| r.contains_access(block))
    }

    #[inline]
    fn filter_bit(block: BlockAddr) -> u64 {
        1u64 << (block.get() & 63)
    }

    fn reset(&mut self, next_ptr: u32, now: u64) {
        self.regions.clear();
        self.next_ptr = next_ptr;
        self.last_use = now;
        self.valid = true;
        self.filter = 0;
    }

    fn push_record(&mut self, record: SpatialRegion, capacity: usize) {
        if self.regions.len() >= capacity {
            self.regions.pop_front();
        }
        for block in record.blocks() {
            self.filter |= Self::filter_bit(block);
        }
        self.regions.push_back(record);
    }
}

/// Callback that reads up to `count` history records starting at `ptr` into
/// the provided scratch buffer (already cleared by the caller) and returns the
/// advanced pointer. The caller performs the read (possibly via the LLC);
/// filling a reused buffer instead of returning a fresh `Vec` keeps
/// steady-state replay free of heap allocation.
pub type HistoryReader<'a> = dyn FnMut(u32, usize, &mut Vec<SpatialRegion>) -> u32 + 'a;

/// A set of stream address buffers for one core.
///
/// # Examples
///
/// ```
/// use shift_core::{HistoryBuffer, SpatialRegion, StreamAddressBufferSet};
/// use shift_core::sab::SabConfig;
/// use shift_types::BlockAddr;
///
/// let mut history = HistoryBuffer::new(64);
/// let ptr = history.append(SpatialRegion::new(BlockAddr::new(100), 8));
/// history.append(SpatialRegion::new(BlockAddr::new(200), 8));
///
/// let mut sabs = StreamAddressBufferSet::new(SabConfig::micro13());
/// let mut candidates = Vec::new();
/// sabs.allocate(
///     ptr,
///     &mut |p, n, buf| {
///         history.read_into(p, n, buf);
///         history.advance_ptr(p, buf.len() as u32)
///     },
///     &mut candidates,
/// );
/// assert!(candidates.contains(&BlockAddr::new(100)));
/// assert!(sabs.covers(BlockAddr::new(200)));
/// ```
#[derive(Debug, Serialize, Deserialize)]
pub struct StreamAddressBufferSet {
    config: SabConfig,
    streams: Vec<StreamAddressBuffer>,
    clock: u64,
    /// Reused window for records handed back by the [`HistoryReader`].
    scratch_records: Vec<SpatialRegion>,
}

impl StreamAddressBufferSet {
    /// Creates an empty set.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero streams, capacity, or lookahead.
    pub fn new(config: SabConfig) -> Self {
        assert!(config.streams > 0, "need at least one stream buffer");
        assert!(
            config.capacity_regions > 0,
            "stream capacity must be positive"
        );
        assert!(config.lookahead > 0, "lookahead must be positive");
        StreamAddressBufferSet {
            config,
            streams: (0..config.streams)
                .map(|_| StreamAddressBuffer::default())
                .collect(),
            clock: 0,
            scratch_records: Vec::new(),
        }
    }

    /// Returns `true` if `block` is among the recorded accesses of any
    /// buffered region — i.e. the prefetcher "predicts" this block. Used both
    /// by replay and by the paper's prediction-only study (Figure 6).
    #[inline]
    pub fn covers(&self, block: BlockAddr) -> bool {
        self.streams
            .iter()
            .filter(|s| s.valid)
            .any(|s| s.match_index(block).is_some())
    }

    /// Allocates a new stream starting at history pointer `start_ptr`,
    /// reading an initial lookahead window through `read_history`. The least
    /// recently used stream is evicted. The prefetch candidate blocks encoded
    /// by the records read are appended to `out`.
    pub fn allocate(
        &mut self,
        start_ptr: u32,
        read_history: &mut HistoryReader<'_>,
        out: &mut Vec<BlockAddr>,
    ) {
        self.clock += 1;
        let now = self.clock;
        let victim = self
            .streams
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| if s.valid { s.last_use } else { 0 })
            .map(|(i, _)| i)
            .expect("at least one stream");
        let mut records = std::mem::take(&mut self.scratch_records);
        records.clear();
        let next_ptr = read_history(start_ptr, self.config.lookahead, &mut records);
        let stream = &mut self.streams[victim];
        stream.reset(next_ptr, now);
        for &record in &records {
            out.extend(record.blocks());
            stream.push_record(record, self.config.capacity_regions);
        }
        self.scratch_records = records;
    }

    /// Observes a retired block. If it falls within a buffered region of some
    /// stream, the stream advances: enough new records are read to keep the
    /// lookahead window ahead of the match point. The prefetch candidates
    /// encoded by the newly read records are appended to `out`.
    pub fn on_retire(
        &mut self,
        block: BlockAddr,
        read_history: &mut HistoryReader<'_>,
        out: &mut Vec<BlockAddr>,
    ) {
        self.clock += 1;
        let now = self.clock;
        let capacity = self.config.capacity_regions;
        let lookahead = self.config.lookahead;

        let matched = self
            .streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.valid)
            .find_map(|(i, s)| s.match_index(block).map(|pos| (i, pos)));

        let Some((stream_idx, pos)) = matched else {
            return;
        };
        let stream = &mut self.streams[stream_idx];
        stream.last_use = now;

        // Keep `lookahead` records buffered beyond the match position.
        let ahead = stream.regions.len().saturating_sub(pos + 1);
        let needed = lookahead.saturating_sub(ahead);
        if needed == 0 {
            return;
        }
        let mut records = std::mem::take(&mut self.scratch_records);
        records.clear();
        let next_ptr = read_history(stream.next_ptr, needed, &mut records);
        let stream = &mut self.streams[stream_idx];
        stream.next_ptr = next_ptr;
        for &record in &records {
            out.extend(record.blocks());
            stream.push_record(record, capacity);
        }
        self.scratch_records = records;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuffer;

    fn region(trigger: u64, extra: &[u64]) -> SpatialRegion {
        let mut r = SpatialRegion::new(BlockAddr::new(trigger), 8);
        for &off in extra {
            assert!(r.try_record(BlockAddr::new(trigger + off)));
        }
        r
    }

    fn history_with(records: &[SpatialRegion]) -> HistoryBuffer {
        let mut h = HistoryBuffer::new(64);
        for &r in records {
            h.append(r);
        }
        h
    }

    fn reader(
        history: &HistoryBuffer,
    ) -> impl FnMut(u32, usize, &mut Vec<SpatialRegion>) -> u32 + '_ {
        move |ptr, n, buf| {
            history.read_into(ptr, n, buf);
            history.advance_ptr(ptr, buf.len() as u32)
        }
    }

    #[test]
    fn allocate_reads_lookahead_window_and_reports_blocks() {
        let records = vec![
            region(100, &[2, 3]),
            region(200, &[1]),
            region(300, &[]),
            region(400, &[]),
            region(500, &[]),
            region(600, &[]),
            region(700, &[]),
        ];
        let history = history_with(&records);
        let mut sabs = StreamAddressBufferSet::new(SabConfig::micro13());
        let mut rd = reader(&history);
        let mut candidates = Vec::new();
        sabs.allocate(0, &mut rd, &mut candidates);
        // Lookahead of 5 records: triggers 100..500 plus recorded extras.
        assert!(candidates.contains(&BlockAddr::new(100)));
        assert!(candidates.contains(&BlockAddr::new(102)));
        assert!(candidates.contains(&BlockAddr::new(500)));
        assert!(!candidates.contains(&BlockAddr::new(600)));
        assert!(sabs.covers(BlockAddr::new(201)));
        assert!(!sabs.covers(BlockAddr::new(601)));
    }

    #[test]
    fn retire_within_stream_advances_and_reads_more() {
        let records: Vec<_> = (0..10).map(|i| region(1000 + i * 16, &[1])).collect();
        let history = history_with(&records);
        let mut sabs = StreamAddressBufferSet::new(SabConfig {
            streams: 2,
            capacity_regions: 6,
            lookahead: 3,
        });
        let mut rd = reader(&history);
        sabs.allocate(0, &mut rd, &mut Vec::new());
        // Retiring a block of the second record keeps the window 3 ahead,
        // pulling in new records and producing their blocks as candidates.
        let mut rd = reader(&history);
        let mut new = Vec::new();
        sabs.on_retire(BlockAddr::new(1000 + 16), &mut rd, &mut new);
        assert!(!new.is_empty());
        assert!(
            new.contains(&BlockAddr::new(1000 + 3 * 16))
                || new.contains(&BlockAddr::new(1000 + 4 * 16))
        );
    }

    #[test]
    fn retire_outside_any_stream_is_a_no_op() {
        let records = vec![region(10, &[]), region(20, &[])];
        let history = history_with(&records);
        let mut sabs = StreamAddressBufferSet::new(SabConfig::micro13());
        let mut rd = reader(&history);
        sabs.allocate(0, &mut rd, &mut Vec::new());
        let last_use: Vec<u64> = sabs.streams.iter().map(|s| s.last_use).collect();
        let mut rd = reader(&history);
        let mut out = Vec::new();
        sabs.on_retire(BlockAddr::new(999), &mut rd, &mut out);
        assert!(out.is_empty());
        let after: Vec<u64> = sabs.streams.iter().map(|s| s.last_use).collect();
        assert_eq!(after, last_use, "no stream may advance");
    }

    #[test]
    fn lru_stream_is_evicted_when_all_are_busy() {
        let records: Vec<_> = (0..30).map(|i| region(10_000 + i * 100, &[])).collect();
        let history = history_with(&records);
        let mut sabs = StreamAddressBufferSet::new(SabConfig {
            streams: 2,
            capacity_regions: 4,
            lookahead: 2,
        });
        // Allocate three streams; the first should be gone afterwards.
        for start in [0u32, 10, 20] {
            let mut rd = reader(&history);
            sabs.allocate(start, &mut rd, &mut Vec::new());
        }
        assert!(
            !sabs.covers(BlockAddr::new(10_000)),
            "oldest stream evicted"
        );
        assert!(sabs.covers(BlockAddr::new(10_000 + 20 * 100)));
    }

    #[test]
    fn stream_capacity_is_bounded() {
        let records: Vec<_> = (0..40).map(|i| region(5_000 + i * 50, &[])).collect();
        let history = history_with(&records);
        let mut sabs = StreamAddressBufferSet::new(SabConfig {
            streams: 1,
            capacity_regions: 4,
            lookahead: 4,
        });
        let mut rd = reader(&history);
        sabs.allocate(0, &mut rd, &mut Vec::new());
        // Walk the stream for a while; the buffer must keep at most 4 regions.
        for i in 0..30u64 {
            let mut rd = reader(&history);
            sabs.on_retire(BlockAddr::new(5_000 + i * 50), &mut rd, &mut Vec::new());
        }
        let buffered: usize = sabs.streams.iter().map(|s| s.regions.len()).sum();
        assert!(buffered <= 4, "buffered {buffered} regions, capacity 4");
    }

    #[test]
    #[should_panic(expected = "lookahead must be positive")]
    fn zero_lookahead_rejected() {
        let _ = StreamAddressBufferSet::new(SabConfig {
            streams: 1,
            capacity_regions: 1,
            lookahead: 0,
        });
    }
}
