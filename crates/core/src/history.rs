//! The circular history buffer of spatial region records.
//!
//! The history buffer is logically a circular log (Global History Buffer
//! style \[Nesbit & Smith\]): new records are appended at the write pointer,
//! which wraps around when it reaches the end, overwriting the oldest
//! records. Replay reads a window of consecutive records starting from a
//! pointer obtained from the index table.
//!
//! Each slot is one 8-byte [`SpatialRegion`] word, so a full 32 K-record
//! history (PIF_32K's per-core one, SHIFT's per-workload one) takes 256 KiB.

use serde::{Deserialize, Serialize};

use crate::region::SpatialRegion;

/// A circular buffer of [`SpatialRegion`] records.
///
/// # Examples
///
/// ```
/// use shift_core::{HistoryBuffer, SpatialRegion};
/// use shift_types::BlockAddr;
///
/// let mut history = HistoryBuffer::new(4);
/// let ptr = history.append(SpatialRegion::new(BlockAddr::new(10), 8));
/// history.append(SpatialRegion::new(BlockAddr::new(20), 8));
/// let window = history.read(ptr, 2);
/// assert_eq!(window.len(), 2);
/// assert_eq!(window[0].trigger(), BlockAddr::new(10));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HistoryBuffer {
    /// The written slots. Writes start at slot 0 and go in order, so the
    /// written slots are always the prefix `0..min(total_appends, capacity)`:
    /// the vector grows by push until it reaches the capacity, then the write
    /// pointer overwrites it in place. A slot past its end was never written.
    entries: Vec<SpatialRegion>,
    capacity: u32,
    write_ptr: u32,
    total_appends: u64,
    /// `capacity - 1` when the capacity is a power of two (it is for every
    /// paper design point), so pointer wrapping on the replay hot path is an
    /// AND instead of a modulo.
    wrap_mask: Option<u32>,
}

impl HistoryBuffer {
    /// Creates a history buffer holding up to `capacity` records.
    ///
    /// The capacity is a bound, not an allocation: it sets where the write
    /// pointer wraps and so which record is overwritten, while the buffer's
    /// memory grows with the records actually appended, up to `capacity`
    /// records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds `u32::MAX`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history buffer needs at least one entry");
        assert!(
            capacity <= u32::MAX as usize,
            "capacity exceeds pointer width"
        );
        let capacity = capacity as u32;
        HistoryBuffer {
            entries: Vec::new(),
            capacity,
            write_ptr: 0,
            total_appends: 0,
            wrap_mask: capacity.is_power_of_two().then(|| capacity - 1),
        }
    }

    /// `ptr + n` wrapped at the capacity. The sum is taken in `u64`, so it
    /// cannot overflow for capacities above 2³¹; with a power-of-two capacity
    /// the `u32` sum wraps at 2³², a multiple of the capacity, so the mask
    /// alone is exact.
    #[inline]
    fn wrap_add(&self, ptr: u32, n: u32) -> u32 {
        match self.wrap_mask {
            Some(mask) => ptr.wrapping_add(n) & mask,
            None => ((ptr as u64 + n as u64) % self.capacity as u64) as u32,
        }
    }

    /// Capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Number of records currently stored (saturates at the capacity).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no record has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.total_appends == 0
    }

    /// Total number of records ever appended (including overwritten ones).
    pub fn total_appends(&self) -> u64 {
        self.total_appends
    }

    /// Current write pointer (the slot the *next* record will occupy).
    pub fn write_ptr(&self) -> u32 {
        self.write_ptr
    }

    /// Appends a record, returning the pointer (slot index) where it was
    /// stored. The write pointer then advances, wrapping at the capacity.
    #[inline]
    pub fn append(&mut self, record: SpatialRegion) -> u32 {
        let slot = self.write_ptr;
        if self.entries.len() < self.capacity as usize {
            self.entries.push(record);
        } else {
            self.entries[slot as usize] = record;
        }
        self.write_ptr = self.wrap_add(slot, 1);
        self.total_appends += 1;
        slot
    }

    /// Reads the record at `ptr`, if one has been written there.
    pub fn get(&self, ptr: u32) -> Option<SpatialRegion> {
        self.entries.get(ptr as usize).copied()
    }

    /// Reads up to `count` consecutive records starting at `ptr` (wrapping
    /// around the end of the buffer), skipping slots that were never written.
    /// Reading never passes the write pointer more than once around, so the
    /// window length is also bounded by the buffer length.
    pub fn read(&self, ptr: u32, count: usize) -> Vec<SpatialRegion> {
        let mut out = Vec::with_capacity(count.min(self.len()));
        self.read_into(ptr, count, &mut out);
        out
    }

    /// Allocation-free variant of [`read`](Self::read): appends the window's
    /// records to `out` instead of returning a fresh vector. This is the call
    /// the replay hot path uses — the stream address buffers hand it a reused
    /// scratch buffer, so steady-state replay performs no heap allocation.
    #[inline]
    pub fn read_into(&self, ptr: u32, count: usize, out: &mut Vec<SpatialRegion>) {
        let count = count.min(self.len());
        for i in 0..count as u32 {
            if let Some(&rec) = self.entries.get(self.wrap_add(ptr, i) as usize) {
                out.push(rec);
            }
        }
    }

    /// Advances a pointer by `n` slots, wrapping at the capacity.
    #[inline]
    pub fn advance_ptr(&self, ptr: u32, n: u32) -> u32 {
        self.wrap_add(ptr, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_types::BlockAddr;

    fn rec(trigger: u64) -> SpatialRegion {
        SpatialRegion::new(BlockAddr::new(trigger), 8)
    }

    #[test]
    fn append_returns_consecutive_slots_then_wraps() {
        let mut h = HistoryBuffer::new(3);
        assert_eq!(h.append(rec(1)), 0);
        assert_eq!(h.append(rec(2)), 1);
        assert_eq!(h.append(rec(3)), 2);
        assert_eq!(h.append(rec(4)), 0, "write pointer wraps");
        assert_eq!(h.len(), 3);
        assert_eq!(h.total_appends(), 4);
        // Slot 0 now holds the newest record; the oldest was overwritten.
        assert_eq!(h.get(0).unwrap().trigger(), BlockAddr::new(4));
    }

    #[test]
    fn read_window_wraps_around() {
        let mut h = HistoryBuffer::new(4);
        for i in 0..4 {
            h.append(rec(i));
        }
        let window = h.read(2, 3);
        let triggers: Vec<u64> = window.iter().map(|r| r.trigger().get()).collect();
        assert_eq!(triggers, vec![2, 3, 0]);
    }

    #[test]
    fn read_skips_unwritten_slots() {
        let mut h = HistoryBuffer::new(8);
        h.append(rec(10));
        h.append(rec(11));
        let window = h.read(0, 5);
        assert_eq!(window.len(), 2, "only written slots are returned");
    }

    #[test]
    fn empty_buffer_reads_nothing() {
        let h = HistoryBuffer::new(16);
        assert!(h.is_empty());
        assert!(h.read(3, 4).is_empty());
        assert_eq!(h.get(3), None);
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn read_into_appends_without_clearing() {
        let mut h = HistoryBuffer::new(4);
        for i in 0..4 {
            h.append(rec(i));
        }
        let mut out = vec![rec(99)];
        h.read_into(2, 3, &mut out);
        let triggers: Vec<u64> = out.iter().map(|r| r.trigger().get()).collect();
        assert_eq!(triggers, vec![99, 2, 3, 0]);
        assert_eq!(h.read(2, 3), &out[1..], "read is read_into on a fresh vec");
    }

    #[test]
    fn advance_ptr_wraps() {
        let h = HistoryBuffer::new(10);
        assert_eq!(h.advance_ptr(7, 5), 2);
        assert_eq!(h.advance_ptr(0, 10), 0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = HistoryBuffer::new(0);
    }

    #[test]
    fn memory_grows_with_appends_not_capacity() {
        let mut h = HistoryBuffer::new(1 << 22);
        assert_eq!(h.entries.capacity(), 0);
        for i in 0..100 {
            h.append(rec(i));
        }
        assert_eq!(h.capacity(), 1 << 22);
        assert!(h.entries.capacity() < 1024);
    }

    #[test]
    fn wrapped_buffer_appends_without_reallocating() {
        for capacity in [1000, 1024] {
            let mut h = HistoryBuffer::new(capacity);
            for i in 0..capacity as u64 {
                h.append(rec(i));
            }
            let storage = (h.entries.as_ptr(), h.entries.capacity());
            for i in 0..50_000u64 {
                h.append(rec(i));
            }
            assert_eq!(h.len(), capacity);
            assert_eq!(
                storage,
                (h.entries.as_ptr(), h.entries.capacity()),
                "a wrapped history buffer must overwrite in place"
            );
        }
    }

    /// Pointer sums past `u32::MAX` must wrap at the capacity, not at 2³².
    fn check_wrap_near_u32_max(capacity: u32) {
        let h = HistoryBuffer::new(capacity as usize);
        let last = capacity - 1;
        assert_eq!(h.advance_ptr(last, 1), 0);
        assert_eq!(h.advance_ptr(last, 5), 4);
        let far = ((last - 2) as u64 + u32::MAX as u64) % capacity as u64;
        assert_eq!(h.advance_ptr(last - 2, u32::MAX) as u64, far);
        assert_eq!(h.advance_ptr(0, capacity), 0);
    }

    #[test]
    fn advance_ptr_wraps_at_u32_max_capacity() {
        check_wrap_near_u32_max(u32::MAX);
        check_wrap_near_u32_max(u32::MAX - 1);
    }

    #[test]
    fn read_near_u32_max_capacity_wraps_to_written_slots() {
        for capacity in [u32::MAX, u32::MAX - 1] {
            let mut h = HistoryBuffer::new(capacity as usize);
            for i in 0..3 {
                h.append(rec(i));
            }
            assert_eq!(h.capacity(), capacity as usize);
            // Reading from the last slot covers it and slots 0 and 1; only
            // the slots written so far come back.
            let triggers: Vec<u64> = h
                .read(capacity - 1, 3)
                .iter()
                .map(|r| r.trigger().get())
                .collect();
            assert_eq!(triggers, vec![0, 1]);
            assert_eq!(h.get(capacity - 1), None);
        }
    }
}
