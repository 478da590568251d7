//! The index table: trigger block address → most recent history position.
//!
//! The index table provides the fast lookup that turns an instruction-cache
//! miss into a pointer at which replay should start. PIF keeps a private,
//! bounded index table per core (8 K entries for the paper's PIF_32K design
//! point); dedicated-storage SHIFT keeps one shared bounded table, and
//! virtualized SHIFT replaces the table entirely with pointer bits appended to
//! LLC tags (modelled in [`crate::shift`], not here).
//!
//! # Layout
//!
//! The table is a bounded, open-addressed hash table over packed parallel
//! arrays plus an intrusive doubly-linked LRU list threaded through `u32`
//! slot indices. Storage grows with the entries inserted: the slot arrays
//! grow by push, and the bucket array starts small and doubles (rehashing
//! from the slot keys) whenever the entries would pass half of it, up to
//! twice the capacity rounded to a power of two. Once the table is full,
//! `update` and `lookup` never allocate. Recency is move-to-front on both
//! `update` and `lookup` hits, and eviction takes the list tail — the same
//! eviction order as a recency-stamp map that refreshes on update and hit and
//! evicts the minimum stamp (covered by the differential proptest in
//! `tests/proptest_core.rs`). Recency lives in the slot lists, not in bucket
//! positions, so growing the bucket array changes no lookup, victim or
//! eviction.

use serde::{Deserialize, Serialize};
use shift_types::BlockAddr;

/// Sentinel slot index marking "no slot" in the LRU list and bucket array.
const NIL: u32 = u32::MAX;

/// Bucket count a new table starts with (or its maximum, if smaller).
const INITIAL_BUCKETS: usize = 16;

/// A bounded, LRU-evicting map from trigger block address to history pointer.
///
/// # Examples
///
/// ```
/// use shift_core::IndexTable;
/// use shift_types::BlockAddr;
///
/// let mut index = IndexTable::new(2);
/// index.update(BlockAddr::new(1), 10);
/// index.update(BlockAddr::new(2), 11);
/// index.update(BlockAddr::new(3), 12); // evicts the LRU entry (block 1)
/// assert_eq!(index.lookup(BlockAddr::new(1)), None);
/// assert_eq!(index.lookup(BlockAddr::new(3)), Some(12));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IndexTable {
    capacity: usize,
    /// Open-addressed bucket array of slot indices (`NIL` = empty): a power of
    /// two at least twice `len`, so linear probes stay short, and at most
    /// twice `capacity` rounded up to a power of two.
    buckets: Vec<u32>,
    /// Bit shift applied to the multiplicative hash to produce a bucket index.
    hash_shift: u32,
    /// Packed per-slot state; slots `0..len` are live.
    keys: Vec<u64>,
    ptrs: Vec<u32>,
    /// Intrusive LRU list: `prev` points toward the MRU head, `next` toward
    /// the LRU tail.
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl IndexTable {
    /// Creates an index table with `capacity` entries.
    ///
    /// The capacity is a bound, not an allocation: it sets when the LRU entry
    /// is evicted, while the table's memory grows with the entries actually
    /// inserted, up to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "index table needs at least one entry");
        assert!(
            capacity < NIL as usize,
            "index table capacity must fit in a u32 slot index"
        );
        // A full table needs `(2 * capacity).next_power_of_two()` buckets;
        // `update` doubles up to that as entries arrive.
        let bucket_count = INITIAL_BUCKETS.min((capacity * 2).next_power_of_two());
        IndexTable {
            capacity,
            buckets: vec![NIL; bucket_count],
            hash_shift: 64 - bucket_count.trailing_zeros(),
            keys: Vec::new(),
            ptrs: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fibonacci multiplicative hash of a block number into a bucket index.
    #[inline(always)]
    fn bucket_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.hash_shift) as usize
    }

    /// Probes for `key`, returning `(bucket, slot)` — `slot == NIL` means the
    /// key is absent and `bucket` is the empty bucket where it would insert.
    #[inline(always)]
    fn probe(&self, key: u64) -> (usize, u32) {
        let mask = self.buckets.len() - 1;
        let mut b = self.bucket_of(key);
        loop {
            let slot = self.buckets[b];
            if slot == NIL || self.keys[slot as usize] == key {
                return (b, slot);
            }
            b = (b + 1) & mask;
        }
    }

    /// Unlinks `slot` from the LRU list.
    #[inline(always)]
    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    /// Links `slot` at the MRU head of the list.
    #[inline(always)]
    fn link_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Moves an already-linked `slot` to the MRU head.
    #[inline(always)]
    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// Doubles the bucket array and reinserts every live slot by its key.
    fn grow_buckets(&mut self) {
        let bucket_count = self.buckets.len() * 2;
        self.buckets.clear();
        self.buckets.resize(bucket_count, NIL);
        self.hash_shift = 64 - bucket_count.trailing_zeros();
        for slot in 0..self.len as u32 {
            let (bucket, _) = self.probe(self.keys[slot as usize]);
            self.buckets[bucket] = slot;
        }
    }

    /// Removes `key` from the bucket array using backward-shift deletion so
    /// probe chains stay tombstone-free. Entry slots are untouched; only the
    /// `u32` indices in the bucket array move.
    fn bucket_remove(&mut self, key: u64) {
        let mask = self.buckets.len() - 1;
        let (mut hole, _) = self.probe(key);
        let mut b = (hole + 1) & mask;
        self.buckets[hole] = NIL;
        loop {
            let slot = self.buckets[b];
            if slot == NIL {
                return;
            }
            let home = self.bucket_of(self.keys[slot as usize]);
            // `slot` can fill the hole iff its home bucket is outside the
            // cyclic range (hole, b], i.e. the probe from `home` would have
            // reached `hole` before `b`.
            let wrapped_home = b.wrapping_sub(home) & mask;
            let wrapped_hole = b.wrapping_sub(hole) & mask;
            if wrapped_home >= wrapped_hole {
                self.buckets[hole] = slot;
                self.buckets[b] = NIL;
                hole = b;
            }
            b = (b + 1) & mask;
        }
    }

    /// Inserts or updates the pointer for `trigger`, evicting the
    /// least-recently-used entry if the table is full.
    #[inline]
    pub fn update(&mut self, trigger: BlockAddr, ptr: u32) {
        let key = trigger.get();
        let (bucket, slot) = self.probe(key);
        if slot != NIL {
            self.ptrs[slot as usize] = ptr;
            self.touch(slot);
            return;
        }
        if self.len < self.capacity {
            let bucket = if (self.len + 1) * 2 > self.buckets.len() {
                self.grow_buckets();
                self.probe(key).0
            } else {
                bucket
            };
            let slot = self.len as u32;
            self.keys.push(key);
            self.ptrs.push(ptr);
            self.prev.push(NIL);
            self.next.push(NIL);
            self.len += 1;
            self.buckets[bucket] = slot;
            self.link_front(slot);
        } else {
            let victim = self.tail;
            self.unlink(victim);
            self.bucket_remove(self.keys[victim as usize]);
            self.keys[victim as usize] = key;
            self.ptrs[victim as usize] = ptr;
            // Re-probe: the backward shift may have moved indices into the
            // bucket the original probe found empty.
            let (bucket, _) = self.probe(key);
            self.buckets[bucket] = victim;
            self.link_front(victim);
        }
    }

    /// Looks up the most recent history pointer for `trigger`, refreshing its
    /// recency on a hit.
    #[inline]
    pub fn lookup(&mut self, trigger: BlockAddr) -> Option<u32> {
        let (_, slot) = self.probe(trigger.get());
        if slot == NIL {
            return None;
        }
        self.touch(slot);
        Some(self.ptrs[slot as usize])
    }

    /// Looks up without updating recency.
    pub fn peek(&self, trigger: BlockAddr) -> Option<u32> {
        let (_, slot) = self.probe(trigger.get());
        if slot == NIL {
            None
        } else {
            Some(self.ptrs[slot as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_then_lookup_round_trips() {
        let mut idx = IndexTable::new(16);
        idx.update(BlockAddr::new(42), 7);
        assert_eq!(idx.lookup(BlockAddr::new(42)), Some(7));
        assert_eq!(idx.peek(BlockAddr::new(42)), Some(7));
        assert_eq!(idx.lookup(BlockAddr::new(43)), None);
    }

    #[test]
    fn update_overwrites_existing_pointer() {
        let mut idx = IndexTable::new(4);
        idx.update(BlockAddr::new(1), 10);
        idx.update(BlockAddr::new(1), 20);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.peek(BlockAddr::new(1)), Some(20));
    }

    #[test]
    fn capacity_is_enforced_with_lru_eviction() {
        let mut idx = IndexTable::new(3);
        for i in 0..3u64 {
            idx.update(BlockAddr::new(i), i as u32);
        }
        // Touch block 0 so block 1 becomes LRU.
        assert!(idx.lookup(BlockAddr::new(0)).is_some());
        idx.update(BlockAddr::new(99), 99);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.peek(BlockAddr::new(1)), None, "LRU entry evicted");
        assert!(idx.peek(BlockAddr::new(0)).is_some());
        assert!(idx.peek(BlockAddr::new(99)).is_some());
    }

    #[test]
    fn heavy_use_never_exceeds_capacity() {
        let mut idx = IndexTable::new(64);
        for i in 0..10_000u64 {
            idx.update(BlockAddr::new(i % 977), (i % 4096) as u32);
            idx.lookup(BlockAddr::new((i * 7) % 977));
        }
        assert!(idx.len() <= 64);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = IndexTable::new(0);
    }

    #[test]
    fn eviction_churn_keeps_probe_chains_consistent() {
        // Force heavy eviction through a small table with colliding keys so
        // the backward-shift deletion path is exercised, then verify every
        // resident key still resolves.
        let mut idx = IndexTable::new(8);
        for i in 0..4_000u64 {
            idx.update(BlockAddr::new(i.wrapping_mul(0x1000)), i as u32);
        }
        // The 8 most recent inserts must all be present and correct.
        for i in 3_992..4_000u64 {
            assert_eq!(
                idx.peek(BlockAddr::new(i.wrapping_mul(0x1000))),
                Some(i as u32),
                "key inserted at i={i} lost"
            );
        }
        assert_eq!(idx.len(), 8);
    }

    #[test]
    fn buckets_grow_with_entries_up_to_the_capacity_bound() {
        let mut idx = IndexTable::new(1 << 20);
        assert_eq!(idx.buckets.len(), INITIAL_BUCKETS);
        for i in 0..100u64 {
            idx.update(BlockAddr::new(i * 64), i as u32);
            assert!(idx.len() * 2 <= idx.buckets.len());
        }
        assert_eq!(idx.buckets.len(), 256);
        for i in 0..100u64 {
            assert_eq!(idx.peek(BlockAddr::new(i * 64)), Some(i as u32));
        }

        let mut small = IndexTable::new(5);
        assert_eq!(small.buckets.len(), 16);
        for i in 0..100u64 {
            small.update(BlockAddr::new(i), i as u32);
        }
        assert_eq!(small.buckets.len(), 16, "never past the eager size");
        let mut one = IndexTable::new(1);
        one.update(BlockAddr::new(1), 1);
        one.update(BlockAddr::new(2), 2);
        assert_eq!(one.buckets.len(), 2);
        assert_eq!(one.peek(BlockAddr::new(2)), Some(2));
    }

    #[test]
    fn hot_paths_do_not_allocate_after_filling() {
        let mut idx = IndexTable::new(256);
        // Fill to capacity first: the growth phase allocates.
        for i in 0..256u64 {
            idx.update(BlockAddr::new(i), i as u32);
        }
        let caps = (
            idx.buckets.capacity(),
            idx.keys.capacity(),
            idx.ptrs.capacity(),
            idx.prev.capacity(),
            idx.next.capacity(),
        );
        for i in 0..50_000u64 {
            idx.update(BlockAddr::new(i % 1021), (i % 4096) as u32);
            idx.lookup(BlockAddr::new((i * 13) % 1021));
        }
        assert_eq!(
            caps,
            (
                idx.buckets.capacity(),
                idx.keys.capacity(),
                idx.ptrs.capacity(),
                idx.prev.capacity(),
                idx.next.capacity(),
            ),
            "IndexTable hot paths must not reallocate"
        );
    }
}
