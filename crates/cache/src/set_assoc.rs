//! A set-associative cache with per-line metadata and pinning support.
//!
//! # Layout
//!
//! Per-line state lives in parallel packed arrays (`tags`, `last_use`,
//! `meta`) indexed by `set * ways + way`, with per-set occupancy counts and
//! clocks — a struct-of-arrays layout in which the tag scan of a lookup
//! touches only the tag lane instead of striding over full line structs.
//! The scan itself is a branch-light fixed-width loop that builds a hit
//! bitmask (one bit per way) the compiler can autovectorize.
//!
//! A tag is the block's bits above the set index, as a hardware tag array
//! holds it: `block >> log2(sets)` for a power-of-two set count (every
//! configured cache), `block / sets` otherwise, stored as a `u32`. A cache
//! therefore holds blocks below `sets · 2^32`: 2^40 for a 256-set L1, 2^45
//! for a 16-bank LLC of 512-set banks (the bank bits are stripped before the
//! set). A block beyond that range panics. A 16-way set's tags fill one
//! 64-byte line.
//!
//! Recency is a `u8` stamp per line, taken from its set's `u8` clock, which
//! ticks on every hit and fill in the set; a miss writes no stamp and does
//! not tick. Victims are chosen within a set by stamp order alone, so when a
//! set's clock would pass 255, a cold pass renumbers that set's live stamps
//! `1..=len` in recency order and restarts its clock at `len`; every later
//! choice is the one an unbounded clock would make. A set renumbers at most
//! once every `255 - ways` touches: every 239 or more in a 16-way LLC bank,
//! every 253 or more in a 2-way L1.
//!
//! A line costs 5 bytes plus its metadata: 5 in all for an LLC or an L1-D
//! line, which carry none, and 21 for an L1-I line. (The LLC holds
//! virtualized SHIFT's index pointers in a lane of its own, 4 more bytes per
//! line once the first pointer is stored.) A set adds 2 (its length and its
//! clock). Pinned-way bitmasks, 8 bytes per set, are allocated by the
//! cache's first pinned fill, which in a run is virtualized SHIFT reserving
//! its history in the LLC (`NucaLlc::reserve_history_region`): the L1s and
//! every other LLC hold none.
//!
//! Within a set, live lines occupy ways `0..len`: a fill into a free way
//! appends, and an eviction writes the new line into the victim's slot. No
//! result depends on a line's slot, because a block is live at most once
//! per set and live stamps within a set are distinct. Nothing else moves a
//! line, so a resident block keeps its slot until it is evicted: the LLC
//! keys its index pointers by the slot that the crate-private `slot_of`,
//! `access_slot` and `fill_slot` report.

use serde::{Deserialize, Serialize};
use shift_types::BlockAddr;

use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// Result of a lookup through [`SetAssocCache::access`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessResult {
    /// The block was present.
    Hit,
    /// The block was absent.
    Miss,
}

impl AccessResult {
    /// Returns `true` for [`AccessResult::Hit`].
    pub const fn is_hit(self) -> bool {
        matches!(self, AccessResult::Hit)
    }

    /// Returns `true` for [`AccessResult::Miss`].
    pub const fn is_miss(self) -> bool {
        matches!(self, AccessResult::Miss)
    }
}

/// A line evicted by a fill, returned to the caller so bookkeeping (e.g.
/// counting prefetched-but-unused blocks) can be performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictedLine<M> {
    /// The evicted block address.
    pub block: BlockAddr,
    /// The metadata that was stored with the block.
    pub meta: M,
}

/// Computes the hit bitmask of a fixed-width tag row: bit `w` is set iff
/// `tags[w] == target`. Monomorphizing per associativity gives the compiler a
/// compile-time trip count it fully unrolls and autovectorizes.
#[inline(always)]
fn hit_mask_fixed<const W: usize>(tags: &[u32], target: u32) -> u64 {
    let row: &[u32; W] = tags.first_chunk::<W>().expect("set narrower than ways");
    let mut mask = 0u64;
    let mut w = 0;
    while w < W {
        mask |= u64::from(row[w] == target) << w;
        w += 1;
    }
    mask
}

/// Hit-mask scan, specialized for the associativities the simulator actually
/// configures (2-way L1s, 16-way LLC banks, 4/8-way studies).
#[inline(always)]
fn hit_mask(tags: &[u32], target: u32) -> u64 {
    match tags.len() {
        2 => hit_mask_fixed::<2>(tags, target),
        4 => hit_mask_fixed::<4>(tags, target),
        8 => hit_mask_fixed::<8>(tags, target),
        16 => hit_mask_fixed::<16>(tags, target),
        _ => {
            let mut mask = 0u64;
            for (w, &t) in tags.iter().enumerate() {
                mask |= u64::from(t == target) << w;
            }
            mask
        }
    }
}

/// A set-associative LRU cache parameterized by per-line metadata `M`.
///
/// The cache tracks only tags and metadata, never data contents — exactly what
/// a trace-driven simulator needs. Lookups ([`access`](Self::access)) update
/// recency and statistics; [`probe`](Self::probe) checks presence without
/// perturbing either. Fills install blocks and report the victim, and lines
/// can be *pinned* so they are never chosen for eviction (used by the LLC to
/// make the virtualized history buffer non-evictable, as §4.2 requires).
///
/// # Examples
///
/// ```
/// use shift_cache::{CacheConfig, SetAssocCache};
/// use shift_types::BlockAddr;
///
/// let mut cache: SetAssocCache<u32> = SetAssocCache::new(CacheConfig::new(1024, 2, 64, 1));
/// cache.fill(BlockAddr::new(1), 10);
/// assert_eq!(cache.meta(BlockAddr::new(1)), Some(&10));
/// assert!(cache.access(BlockAddr::new(1)).is_hit());
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache<M> {
    config: CacheConfig,
    /// Associativity, hoisted out of `config` for the per-access path.
    ways: usize,
    /// Tag lane: the block's bits above the set index per line slot
    /// (`set * ways + way`). Slots at or beyond a set's occupancy have never
    /// been live; they hold tag 0, which the live-way mask excludes from
    /// every match.
    tags: Vec<u32>,
    /// Recency lane: the set's clock at each line's last touch.
    last_use: Vec<u8>,
    /// Metadata lane.
    meta: Vec<M>,
    /// Number of live ways per set; live lines pack ways `0..len`.
    set_len: Vec<u8>,
    /// Per-set clock: the stamp of the set's latest touch; see
    /// [`tick`](Self::tick).
    set_clock: Vec<u8>,
    /// Per-set bitmask of pinned (non-evictable) ways; empty until the
    /// first pinned fill, see [`pin`](Self::pin).
    pinned: Vec<u64>,
    /// Number of sets, cached so the per-access index computation performs no
    /// division over the configuration.
    set_count: u64,
    /// `log2(set_count)` when the set count is a power of two: splitting a
    /// block into set and tag is then a mask and a shift instead of a modulo
    /// and a division.
    set_bits: Option<u32>,
    stats: CacheStats,
}

impl<M: Default> SetAssocCache<M> {
    /// Creates an empty cache with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 64 (the pinned/live way bitmasks
    /// are single words).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.ways <= 64, "associativity above 64 ways unsupported");
        let sets = config.sets();
        let set_count = sets as u64;
        let slots = sets * config.ways;
        let mut meta = Vec::with_capacity(slots);
        meta.resize_with(slots, M::default);
        SetAssocCache {
            ways: config.ways,
            tags: vec![0; slots],
            last_use: vec![0; slots],
            meta,
            set_len: vec![0; sets],
            set_clock: vec![0; sets],
            pinned: Vec::new(),
            set_count,
            set_bits: set_count
                .is_power_of_two()
                .then(|| set_count.trailing_zeros()),
            stats: CacheStats::default(),
            config,
        }
    }
}

impl<M> SetAssocCache<M> {
    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the hit/miss statistics (e.g. after cache warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of valid blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.set_len.iter().map(|&l| l as usize).sum()
    }

    /// Splits `block` into its set index and its tag.
    ///
    /// # Panics
    ///
    /// Panics if the tag does not fit in 32 bits.
    #[inline]
    fn split(&self, block: BlockAddr) -> (usize, u32) {
        let raw = block.get();
        let (set, tag) = match self.set_bits {
            Some(bits) => (raw & (self.set_count - 1), raw >> bits),
            None => (raw % self.set_count, raw / self.set_count),
        };
        match u32::try_from(tag) {
            Ok(tag) => (set as usize, tag),
            Err(_) => self.beyond_tag_range(block),
        }
    }

    #[cold]
    #[inline(never)]
    fn beyond_tag_range(&self, block: BlockAddr) -> ! {
        panic!(
            "{block} is beyond the cache's tag range: {} sets of 32-bit tags hold blocks below {:#x}",
            self.set_count,
            u128::from(self.set_count) << 32
        )
    }

    /// The block that `tag` stands for in `set`: the inverse of
    /// [`split`](Self::split).
    #[inline]
    fn block_at(&self, set: usize, tag: u32) -> BlockAddr {
        let tag = u64::from(tag);
        BlockAddr::new(match self.set_bits {
            Some(bits) => (tag << bits) | set as u64,
            None => tag * self.set_count + set as u64,
        })
    }

    /// Advances set `idx`'s clock and returns the new stamp.
    #[inline]
    fn tick(&mut self, idx: usize) -> u8 {
        if self.set_clock[idx] == u8::MAX {
            self.renumber_set(idx);
        }
        self.set_clock[idx] += 1;
        self.set_clock[idx]
    }

    /// Renumbers set `idx`'s live stamps `1..=len` in recency order and
    /// restarts its clock at `len`, so every later stamp exceeds every live
    /// one. Victims are chosen within a set by stamp order alone, so no
    /// choice changes.
    #[cold]
    #[inline(never)]
    fn renumber_set(&mut self, idx: usize) {
        let base = idx * self.ways;
        let len = self.set_len[idx];
        let mut order = [(0u8, 0u8); 64];
        let live = &mut order[..len as usize];
        for (w, slot) in live.iter_mut().enumerate() {
            *slot = (self.last_use[base + w], w as u8);
        }
        live.sort_unstable();
        for (rank, &(_, w)) in live.iter().enumerate() {
            self.last_use[base + w as usize] = rank as u8 + 1;
        }
        self.set_clock[idx] = len;
    }

    /// Marks way `w` of set `idx` pinned. The cache's first pinned fill
    /// allocates the pin masks, so a cache that never pins holds none.
    fn pin(&mut self, idx: usize, w: usize) {
        if self.pinned.is_empty() {
            self.pinned = vec![0; self.set_len.len()];
        }
        self.pinned[idx] |= 1 << w;
    }

    /// Finds the live way holding `target` in the set at `base`, if any.
    #[inline(always)]
    fn match_way(&self, base: usize, len: usize, target: u32) -> Option<usize> {
        if len == 0 {
            return None;
        }
        let row = &self.tags[base..base + self.ways];
        let live = hit_mask(row, target) & (u64::MAX >> (64 - len as u32));
        if live == 0 {
            None
        } else {
            Some(live.trailing_zeros() as usize)
        }
    }

    /// The slot (`set * ways + way`) of the line holding `block`, if it is
    /// resident, without updating recency or statistics.
    #[inline]
    pub(crate) fn slot_of(&self, block: BlockAddr) -> Option<usize> {
        let (idx, tag) = self.split(block);
        let base = idx * self.ways;
        self.match_way(base, self.set_len[idx] as usize, tag)
            .map(|w| base + w)
    }

    /// Returns `true` if `block` is resident, without updating recency or
    /// statistics.
    #[inline]
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.slot_of(block).is_some()
    }

    /// Looks up `block` exactly like [`access`](Self::access) and returns
    /// the slot of a hit.
    #[inline]
    pub(crate) fn access_slot(&mut self, block: BlockAddr) -> Option<usize> {
        let (idx, tag) = self.split(block);
        self.stats.accesses += 1;
        let base = idx * self.ways;
        match self.match_way(base, self.set_len[idx] as usize, tag) {
            Some(w) => {
                self.last_use[base + w] = self.tick(idx);
                self.stats.hits += 1;
                Some(base + w)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Looks up `block`, updating recency and statistics. Does **not** fill on
    /// a miss; the caller decides whether and when to call
    /// [`fill`](Self::fill).
    #[inline]
    pub fn access(&mut self, block: BlockAddr) -> AccessResult {
        match self.access_slot(block) {
            Some(_) => AccessResult::Hit,
            None => AccessResult::Miss,
        }
    }

    /// Looks up `block` exactly like [`access`](Self::access) (same recency
    /// and statistics updates) and additionally hands back mutable access to
    /// the line's metadata on a hit, in the same set scan. The
    /// instruction-fetch hot path classifies prefetched lines with it on
    /// every L1-I hit.
    #[inline]
    pub fn access_meta(&mut self, block: BlockAddr) -> (AccessResult, Option<&mut M>) {
        match self.access_slot(block) {
            Some(slot) => (AccessResult::Hit, Some(&mut self.meta[slot])),
            None => (AccessResult::Miss, None),
        }
    }

    /// Installs `block` with `meta`, evicting a victim if the set is full.
    /// If the block is already resident its metadata is replaced and no
    /// eviction occurs.
    ///
    /// Returns the evicted line, if any.
    ///
    /// # Panics
    ///
    /// Panics if every way of the target set is pinned.
    pub fn fill(&mut self, block: BlockAddr, meta: M) -> Option<EvictedLine<M>> {
        self.fill_slot(block, meta, false).1
    }

    /// Installs `block` as a *pinned* (non-evictable) line.
    ///
    /// # Panics
    ///
    /// Panics if every way of the target set is already pinned.
    pub fn fill_pinned(&mut self, block: BlockAddr, meta: M) -> Option<EvictedLine<M>> {
        self.fill_slot(block, meta, true).1
    }

    /// Installs `block` like [`fill_pinned`](Self::fill_pinned) if `pinned`
    /// and like [`fill`](Self::fill) otherwise, and returns the slot the
    /// line now holds beside the evicted line.
    pub(crate) fn fill_slot(
        &mut self,
        block: BlockAddr,
        meta: M,
        pinned: bool,
    ) -> (usize, Option<EvictedLine<M>>) {
        let (idx, tag) = self.split(block);
        let stamp = self.tick(idx);
        self.stats.fills += 1;
        let ways = self.ways;
        let base = idx * ways;
        let len = self.set_len[idx] as usize;

        // Fast path: block already resident → update metadata in place.
        if let Some(w) = self.match_way(base, len, tag) {
            self.meta[base + w] = meta;
            self.last_use[base + w] = stamp;
            if pinned {
                self.pin(idx, w);
            }
            return (base + w, None);
        }

        if len < ways {
            // A free way, never live before, so its pin bit is clear.
            let slot = base + len;
            self.tags[slot] = tag;
            self.meta[slot] = meta;
            self.last_use[slot] = stamp;
            if pinned {
                self.pin(idx, len);
            }
            self.set_len[idx] = (len + 1) as u8;
            return (slot, None);
        }

        // LRU victim selection over the unpinned live ways, directly on the
        // bitmask; fills are on the miss path of every cache level, so this
        // must stay allocation-free.
        let live_mask = u64::MAX >> (64 - len as u32);
        let mut rest = live_mask & !self.pinned.get(idx).copied().unwrap_or(0);
        assert!(
            rest != 0,
            "all ways of set {idx} are pinned; cannot fill {block}"
        );
        let mut victim = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        while rest != 0 {
            let w = rest.trailing_zeros() as usize;
            if self.last_use[base + w] < self.last_use[base + victim] {
                victim = w;
            }
            rest &= rest - 1;
        }
        self.stats.evictions += 1;

        // The new line takes the victim's slot; the victim was unpinned.
        let slot = base + victim;
        let evicted_block = self.block_at(idx, self.tags[slot]);
        self.tags[slot] = tag;
        self.last_use[slot] = stamp;
        if pinned {
            self.pin(idx, victim);
        }
        let evicted = EvictedLine {
            block: evicted_block,
            meta: std::mem::replace(&mut self.meta[slot], meta),
        };
        (slot, Some(evicted))
    }

    /// Returns a reference to the metadata of `block`, if resident.
    #[inline]
    pub fn meta(&self, block: BlockAddr) -> Option<&M> {
        self.slot_of(block).map(|slot| &self.meta[slot])
    }

    /// Applies `f` to the metadata of every resident line (used e.g. to clear
    /// transient bookkeeping after cache warm-up).
    pub fn for_each_meta_mut<F: FnMut(&mut M)>(&mut self, mut f: F) {
        for (idx, &len) in self.set_len.iter().enumerate() {
            let base = idx * self.ways;
            for m in &mut self.meta[base..base + len as usize] {
                f(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache<u8> {
        // 4 sets × 2 ways.
        SetAssocCache::new(CacheConfig::new(512, 2, 64, 1))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let b = BlockAddr::new(5);
        assert!(c.access(b).is_miss());
        assert!(c.fill(b, 1).is_none());
        assert!(c.access(b).is_hit());
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn probe_does_not_touch_stats_or_lru() {
        let mut c = small();
        c.fill(BlockAddr::new(1), 0);
        let before = *c.stats();
        assert!(c.probe(BlockAddr::new(1)));
        assert!(!c.probe(BlockAddr::new(2)));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_set() {
        let mut c = small();
        // Blocks 0, 4, 8 all map to set 0 (4 sets).
        c.fill(BlockAddr::new(0), 0);
        c.fill(BlockAddr::new(4), 4);
        // Touch block 0 so block 4 becomes LRU.
        assert!(c.access(BlockAddr::new(0)).is_hit());
        let evicted = c.fill(BlockAddr::new(8), 8).expect("eviction expected");
        assert_eq!(evicted.block, BlockAddr::new(4));
        assert!(c.probe(BlockAddr::new(0)));
        assert!(c.probe(BlockAddr::new(8)));
    }

    #[test]
    fn refill_of_resident_block_updates_meta_without_eviction() {
        let mut c = small();
        c.fill(BlockAddr::new(3), 1);
        assert!(c.fill(BlockAddr::new(3), 9).is_none());
        assert_eq!(c.meta(BlockAddr::new(3)), Some(&9));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn pinned_lines_are_never_victims() {
        let mut c = small();
        c.fill_pinned(BlockAddr::new(0), 7);
        c.fill(BlockAddr::new(4), 1);
        // Set 0 is now full; filling another block of set 0 must evict the
        // unpinned line even though the pinned one is older.
        let evicted = c.fill(BlockAddr::new(8), 2).expect("eviction expected");
        assert_eq!(evicted.block, BlockAddr::new(4));
        assert!(c.probe(BlockAddr::new(0)));
    }

    #[test]
    #[should_panic(expected = "pinned")]
    fn filling_a_fully_pinned_set_panics() {
        let mut c = small();
        c.fill_pinned(BlockAddr::new(0), 0);
        c.fill_pinned(BlockAddr::new(4), 0);
        let _ = c.fill(BlockAddr::new(8), 0);
    }

    #[test]
    fn capacity_is_bounded_by_config() {
        let mut c = small();
        for i in 0..100 {
            c.fill(BlockAddr::new(i), 0);
        }
        assert!(c.resident_blocks() <= c.config().capacity_blocks());
        assert_eq!(c.resident_blocks(), 8);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut c = small();
        c.access(BlockAddr::new(1));
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn wide_sets_scan_all_ways() {
        // 16-way (the LLC bank shape) exercises the widest fixed scan.
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheConfig::new(2048, 16, 64, 1));
        // 2 sets; fill all 16 ways of set 0.
        for i in 0..16u64 {
            c.fill(BlockAddr::new(i * 2), i as u32);
        }
        for i in 0..16u64 {
            assert!(c.access(BlockAddr::new(i * 2)).is_hit(), "way {i} lost");
            assert_eq!(c.meta(BlockAddr::new(i * 2)), Some(&(i as u32)));
        }
        // One more fill evicts exactly one line.
        let evicted = c.fill(BlockAddr::new(32), 99).expect("set full");
        assert_eq!(evicted.block, BlockAddr::new(0), "LRU way evicted");
    }

    #[test]
    fn empty_ways_never_match_their_zero_tags() {
        // A fresh cache holds tag 0 in every slot, which is block 0's tag in
        // set 0: it must match only once block 0 is filled.
        let mut c = small();
        assert!(c.tags.iter().all(|&t| t == 0));
        assert!(!c.probe(BlockAddr::new(0)), "empty slot matched");
        assert!(c.access(BlockAddr::new(0)).is_miss());
        // One live way in set 0 leaves the other empty with tag 0.
        c.fill(BlockAddr::new(4), 1);
        assert!(!c.probe(BlockAddr::new(0)), "empty way matched");
        assert_eq!(c.meta(BlockAddr::new(0)), None);
        assert!(c.access(BlockAddr::new(0)).is_miss());
    }

    #[test]
    fn a_line_holds_a_four_byte_tag_and_a_one_byte_stamp() {
        fn lane_bytes<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        let c = small();
        assert_eq!(lane_bytes(&c.tags), 4);
        assert_eq!(lane_bytes(&c.last_use), 1);
        assert_eq!(lane_bytes(&c.set_clock), 1);
    }

    #[test]
    fn pin_masks_exist_only_after_a_pinned_fill() {
        let mut c = small();
        for i in 0..1_000u64 {
            let b = BlockAddr::new(i % 13);
            if c.access(b).is_miss() {
                c.fill(b, 0);
            }
        }
        assert_eq!(
            c.pinned.capacity(),
            0,
            "a cache that never pinned holds pin masks"
        );
        // Blocks 2, 6 and 10 share set 2, which is full; 14 and 18 never
        // came.
        c.fill_pinned(BlockAddr::new(2), 1);
        assert_eq!(c.pinned.len(), 4);
        assert_eq!(
            c.pinned.iter().map(|m| m.count_ones()).collect::<Vec<_>>(),
            [0, 0, 1, 0]
        );
        for b in [14, 18] {
            let evicted = c.fill(BlockAddr::new(b), 2).expect("set 2 is full");
            assert_ne!(evicted.block, BlockAddr::new(2));
        }
        assert_eq!(c.meta(BlockAddr::new(2)), Some(&1));
    }

    #[test]
    fn tags_rebuild_blocks_up_to_the_top_of_the_tag_range() {
        // 4 sets: blocks below 4 · 2^32 fit, the top one included.
        let top = (4u64 << 32) - 1;
        let mut c = small();
        c.fill(BlockAddr::new(top), 1);
        c.fill(BlockAddr::new(top - 4), 2);
        assert!(c.probe(BlockAddr::new(top)));
        assert!(!c.probe(BlockAddr::new(top - 8)));
        assert!(c.access(BlockAddr::new(top - 4)).is_hit());
        let evicted = c.fill(BlockAddr::new(3), 3).expect("set 3 is full");
        assert_eq!(evicted.block, BlockAddr::new(top));
        assert!(!c.probe(BlockAddr::new(top)));
        assert_eq!(c.meta(BlockAddr::new(3)), Some(&3));
        assert_eq!(c.meta(BlockAddr::new(top - 4)), Some(&2));
        assert_eq!(c.resident_blocks(), 2);
    }

    #[test]
    fn sets_that_are_not_a_power_of_two_divide_blocks() {
        // 3 sets × 2 ways: set = block % 3, tag = block / 3.
        let mut c: SetAssocCache<u8> = SetAssocCache::new(CacheConfig::new(3 * 2 * 64, 2, 64, 1));
        let top = (3u64 << 32) - 1;
        c.fill(BlockAddr::new(2), 1);
        c.fill(BlockAddr::new(top), 2);
        assert_eq!(c.meta(BlockAddr::new(top)), Some(&2));
        let evicted = c.fill(BlockAddr::new(5), 3).expect("set 2 is full");
        assert_eq!(evicted.block, BlockAddr::new(2));
        assert!(!c.probe(BlockAddr::new(2)));
        assert_eq!(c.meta(BlockAddr::new(top)), Some(&2));
        assert_eq!(c.meta(BlockAddr::new(5)), Some(&3));
        assert_eq!(c.resident_blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "blk:0x400000000 is beyond the cache's tag range: \
                    4 sets of 32-bit tags hold blocks below 0x400000000")]
    fn a_block_beyond_the_tag_range_panics() {
        let mut c = small();
        let _ = c.access(BlockAddr::new(4 << 32));
    }

    #[test]
    fn a_wrapping_clock_makes_the_same_choices() {
        // 4 sets × 16 ways with pinned lines and refills, against a model
        // whose stamps are an unbounded `u64` count. Every 64 operations each
        // set's clock is pushed to five ticks short of renumbering, so every
        // set renumbers hundreds of times.
        let mut c: SetAssocCache<u64> =
            SetAssocCache::new(CacheConfig::new(4 * 16 * 64, 16, 64, 1));
        // Per set: (block, meta, stamp, pinned).
        let mut model: Vec<Vec<(u64, u64, u64, bool)>> = vec![Vec::new(); 4];
        let mut clock = 0u64;
        let mut renumbered = [0u32; 4];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..40_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 96 blocks over 4 sets; only blocks 0..8 are ever pinned, so a
            // set holds at most 2 pinned lines.
            let key = x % 96;
            let block = BlockAddr::new(key);
            let idx = (key % 4) as usize;
            let lines = &mut model[idx];
            let line = lines.iter().position(|l| l.0 == key);
            let before = c.set_clock[idx];
            clock += 1;
            match x >> 61 {
                0..=3 => {
                    if let Some(w) = line {
                        lines[w].2 = clock;
                    }
                    assert_eq!(c.access(block).is_hit(), line.is_some());
                }
                op => {
                    let pinned = op == 6 && key < 8;
                    let victim = if let Some(w) = line {
                        lines[w].1 = i;
                        lines[w].2 = clock;
                        lines[w].3 |= pinned;
                        None
                    } else if lines.len() < 16 {
                        lines.push((key, i, clock, pinned));
                        None
                    } else {
                        let w = (0..16)
                            .filter(|&w| !lines[w].3)
                            .min_by_key(|&w| lines[w].2)
                            .expect("an unpinned way");
                        let old = std::mem::replace(&mut lines[w], (key, i, clock, pinned));
                        Some(EvictedLine {
                            block: BlockAddr::new(old.0),
                            meta: old.1,
                        })
                    };
                    let filled = if pinned {
                        c.fill_pinned(block, i)
                    } else {
                        c.fill(block, i)
                    };
                    assert_eq!(filled, victim, "operation {i}");
                }
            }
            if c.set_clock[idx] < before {
                renumbered[idx] += 1;
            }
            if i % 64 == 0 {
                for set_clock in &mut c.set_clock {
                    *set_clock = (*set_clock).max(u8::MAX - 5);
                }
            }
        }
        assert!(
            renumbered.iter().all(|&n| n > 500),
            "renumbered per set: {renumbered:?}"
        );
        for b in 0..96 {
            let line = model[b as usize % 4].iter().find(|l| l.0 == b);
            assert_eq!(c.meta(BlockAddr::new(b)), line.map(|l| &l.1));
        }
    }

    #[test]
    fn hot_paths_do_not_allocate_after_construction() {
        let mut c: SetAssocCache<u64> = SetAssocCache::new(CacheConfig::new(4096, 4, 64, 1));
        let caps = (
            c.tags.capacity(),
            c.last_use.capacity(),
            c.meta.capacity(),
            c.set_len.capacity(),
            c.set_clock.capacity(),
            c.pinned.capacity(),
        );
        for i in 0..50_000u64 {
            let b = BlockAddr::new(i % 509);
            if c.access(b).is_miss() {
                c.fill(b, i);
            }
        }
        assert_eq!(
            caps,
            (
                c.tags.capacity(),
                c.last_use.capacity(),
                c.meta.capacity(),
                c.set_len.capacity(),
                c.set_clock.capacity(),
                c.pinned.capacity(),
            ),
            "SetAssocCache hot paths must not reallocate"
        );
    }
}
