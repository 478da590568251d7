//! Spatial region records and the compactor that produces them.
//!
//! To keep the history compact, the history generator does not log every
//! retired block address individually. Instead it collapses the retire-order
//! stream into *spatial region records*: a trigger block address plus a bit
//! vector marking which of the following blocks in the same region were also
//! accessed before control flow left the region (§4.1, Figure 4a). The paper
//! uses regions of eight blocks (trigger + 7 bit positions).
//!
//! A record is one 64-bit word, the 41 bits the paper stores (§4.2) with
//! room to spare: the trigger block in bits 24..=63 and, in bits 0..=23,
//! the access vector plus an *end marker* at bit `region_blocks - 1`. Every
//! block a run touches lies below 2^40 (the smallest tag range of its
//! caches), so 40 trigger bits hold any of them, and a region spans at most
//! 24 blocks; every design uses 8. The marker is the highest set bit of the
//! vector field, so the region size needs no field of its own (it would be
//! repeated in every record of a history), and the per-fetch tests need no
//! bit scan: offset `off` lies inside the region exactly when `off < 24 &&
//! vector >> off != 0`, the block iterator stops once only the marker is
//! left, and the marker stands in for the trigger when counting accessed
//! blocks.

use std::fmt;

use serde::de::{self, Error};
use serde::{Deserialize, Serialize, Value};
use shift_types::BlockAddr;

/// Default spatial region size (in blocks) used throughout the paper.
pub const DEFAULT_REGION_BLOCKS: u8 = 8;

/// Low bits of a record's word that hold the access vector and its end
/// marker; the trigger takes the 40 bits above them.
const VECTOR_BITS: u32 = 24;
const VECTOR_MASK: u64 = (1 << VECTOR_BITS) - 1;
/// The largest region a record holds: its end marker is the top vector bit.
const MAX_REGION_BLOCKS: u8 = VECTOR_BITS as u8;
/// Triggers must lie below 2^40 to fit above the vector.
const TRIGGER_LIMIT: u64 = 1 << (u64::BITS - VECTOR_BITS);

/// A spatial region record: the trigger block plus a bit vector over the
/// following `region_blocks - 1` blocks.
///
/// # Examples
///
/// ```
/// use shift_core::SpatialRegion;
/// use shift_types::BlockAddr;
///
/// let mut region = SpatialRegion::new(BlockAddr::new(0x100), 8);
/// assert!(region.try_record(BlockAddr::new(0x102)));
/// assert!(!region.try_record(BlockAddr::new(0x200))); // outside the region
/// let blocks: Vec<_> = region.blocks().collect();
/// assert_eq!(blocks, vec![BlockAddr::new(0x100), BlockAddr::new(0x102)]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpatialRegion {
    /// The trigger in bits 24..=63; below them, bit `i` set means block
    /// `trigger + i + 1` was accessed, and the marker at bit
    /// `region_blocks - 1` is the highest set bit of bits 0..=23.
    word: u64,
}

impl SpatialRegion {
    /// Creates a region record anchored at `trigger` spanning `region_blocks`
    /// consecutive blocks (the trigger plus `region_blocks - 1` following).
    ///
    /// # Panics
    ///
    /// Panics if `region_blocks` is not in `2..=24` or `trigger` is at or
    /// above 2^40.
    pub fn new(trigger: BlockAddr, region_blocks: u8) -> Self {
        assert!(
            (2..=MAX_REGION_BLOCKS).contains(&region_blocks),
            "region size must be between 2 and {MAX_REGION_BLOCKS} blocks, got {region_blocks}"
        );
        assert!(
            trigger.get() < TRIGGER_LIMIT,
            "trigger {trigger} is at or above 2^40, beyond a record's 40-bit trigger field"
        );
        SpatialRegion {
            word: trigger.get() << VECTOR_BITS | 1 << (region_blocks - 1),
        }
    }

    /// The trigger (first-accessed) block of the region.
    #[inline]
    pub fn trigger(&self) -> BlockAddr {
        BlockAddr::new(self.word >> VECTOR_BITS)
    }

    /// The access vector with its end marker (bits 0..=23 of the word).
    #[inline]
    fn bits(&self) -> u64 {
        self.word & VECTOR_MASK
    }

    /// The region size in blocks.
    pub fn region_blocks(&self) -> u8 {
        (u64::BITS - self.bits().leading_zeros()) as u8
    }

    /// The raw bit vector (bit `i` set means block `trigger + i + 1` was
    /// accessed).
    pub fn bit_vector(&self) -> u64 {
        self.bits() ^ (1 << (self.region_blocks() - 1))
    }

    /// Whether offset `off` from the trigger lies inside the region: the
    /// marker at bit `region_blocks - 1` is the highest set bit of the
    /// vector, so a shift by `off` leaves it standing exactly when
    /// `off < region_blocks`.
    #[inline]
    fn spans(&self, off: u64) -> bool {
        off < u64::from(VECTOR_BITS) && self.bits() >> off != 0
    }

    /// Returns `true` if `block` falls inside this region's address range.
    pub fn contains_address(&self, block: BlockAddr) -> bool {
        match block.offset_from(self.trigger()) {
            Some(off) => self.spans(off),
            None => false,
        }
    }

    /// Returns `true` if `block` was recorded as accessed (the trigger always
    /// counts as accessed).
    pub fn contains_access(&self, block: BlockAddr) -> bool {
        match block.offset_from(self.trigger()) {
            Some(0) => true,
            Some(off) if self.spans(off) => self.word & (1 << (off - 1)) != 0,
            _ => false,
        }
    }

    /// Records an access to `block` if it falls inside the region, returning
    /// whether it did.
    pub fn try_record(&mut self, block: BlockAddr) -> bool {
        match block.offset_from(self.trigger()) {
            Some(0) => true,
            Some(off) if self.spans(off) => {
                self.word |= 1 << (off - 1);
                true
            }
            _ => false,
        }
    }

    /// Iterates over the accessed blocks encoded by the record (trigger first,
    /// then the set bit positions in ascending address order).
    ///
    /// The bit vector is walked with a `trailing_zeros` bit scan, so the
    /// iteration cost is proportional to the number of *accessed* blocks
    /// rather than the region size — this iterator runs on the replay hot
    /// path for every record a stream buffer reads. The iterator reports an
    /// exact size so `Vec::extend` reserves in one step.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = BlockAddr> + '_ {
        BlockIter {
            trigger: self.trigger(),
            emit_trigger: true,
            bits: self.bits(),
        }
    }

    /// Number of accessed blocks encoded (including the trigger, for which
    /// the end marker stands in).
    pub fn accessed_blocks(&self) -> u32 {
        self.bits().count_ones()
    }

    /// Number of storage bits one record occupies: a block address plus
    /// `region_blocks - 1` bit-vector bits (41 bits for the paper's 8-block
    /// regions and 34-bit block addresses).
    pub fn storage_bits(region_blocks: u8) -> u32 {
        BlockAddr::STORAGE_BITS + (region_blocks as u32 - 1)
    }
}

/// Shows the two fields a record is serialized as.
impl fmt::Debug for SpatialRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpatialRegion")
            .field("trigger", &self.trigger())
            .field("bits", &self.bits())
            .finish()
    }
}

/// Writes the trigger and the vector with its marker as two fields,
/// `trigger` and `bits`.
impl Serialize for SpatialRegion {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("trigger".to_owned(), self.trigger().to_value()),
            ("bits".to_owned(), Value::UInt(self.bits())),
        ])
    }
}

/// Reads the two serialized fields back, refusing a trigger at or above
/// 2^40 and a vector with no end marker at bits 1..=23 (that is, below 2
/// or at or above 2^24): neither fits the word, and the first would be a
/// record of size 0 or 1, which [`SpatialRegion::new`] never makes.
impl Deserialize for SpatialRegion {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let trigger: BlockAddr = de::field(value, "SpatialRegion", "trigger")?;
        let bits: u64 = de::field(value, "SpatialRegion", "bits")?;
        if trigger.get() >= TRIGGER_LIMIT {
            return Err(Error::custom(format!(
                "SpatialRegion.trigger: {} is at or above 2^40",
                trigger.get()
            )));
        }
        if !(2..=VECTOR_MASK).contains(&bits) {
            return Err(Error::custom(format!(
                "SpatialRegion.bits: {bits} has no region-size marker at bits 1..=23"
            )));
        }
        Ok(SpatialRegion {
            word: trigger.get() << VECTOR_BITS | bits,
        })
    }
}

/// Iterator behind [`SpatialRegion::blocks`]: the trigger, then each set bit
/// of the access vector in ascending order via a bit scan, stopping at the
/// end marker.
struct BlockIter {
    trigger: BlockAddr,
    emit_trigger: bool,
    bits: u64,
}

impl Iterator for BlockIter {
    type Item = BlockAddr;

    #[inline]
    fn next(&mut self) -> Option<BlockAddr> {
        if self.emit_trigger {
            self.emit_trigger = false;
            return Some(self.trigger);
        }
        // Only the end marker left.
        if self.bits & self.bits.wrapping_sub(1) == 0 {
            return None;
        }
        let off = self.bits.trailing_zeros() as u64 + 1;
        self.bits &= self.bits - 1;
        Some(self.trigger.offset(off))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.emit_trigger as usize + self.bits.count_ones() as usize - 1;
        (n, Some(n))
    }
}

impl ExactSizeIterator for BlockIter {}

/// Folds a retire-order block stream into spatial region records.
///
/// A record is emitted whenever the stream leaves the current region; the
/// record describes the region that was just left.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpatialRegionCompactor {
    region_blocks: u8,
    current: Option<SpatialRegion>,
}

impl SpatialRegionCompactor {
    /// Creates a compactor producing regions of `region_blocks` blocks.
    pub fn new(region_blocks: u8) -> Self {
        SpatialRegionCompactor {
            region_blocks,
            current: None,
        }
    }

    /// The configured region size.
    pub fn region_blocks(&self) -> u8 {
        self.region_blocks
    }

    /// Observes one retired block. Returns the completed record when the
    /// stream leaves the previous region.
    pub fn observe(&mut self, block: BlockAddr) -> Option<SpatialRegion> {
        if let Some(region) = self.current.as_mut() {
            if region.try_record(block) {
                return None;
            }
        }
        let finished = self.current.take();
        self.current = Some(SpatialRegion::new(block, self.region_blocks));
        finished
    }

    /// The record currently being accumulated, if any.
    pub fn current(&self) -> Option<&SpatialRegion> {
        self.current.as_ref()
    }

    /// Flushes and returns the in-progress record, if any.
    pub fn flush(&mut self) -> Option<SpatialRegion> {
        self.current.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_bits_match_paper_figure4_example() {
        // Figure 4(a): access stream A, A+2, A+3, B → record (A, 0110) with a
        // 5-block region in the figure. Reproduce with the figure's region
        // size.
        let mut compactor = SpatialRegionCompactor::new(5);
        let a = BlockAddr::new(0x1000);
        let b = BlockAddr::new(0x2000);
        assert_eq!(compactor.observe(a), None);
        assert_eq!(compactor.observe(a.offset(2)), None);
        assert_eq!(compactor.observe(a.offset(3)), None);
        let record = compactor.observe(b).expect("leaving region emits record");
        assert_eq!(record.trigger(), a);
        // Bits: offset1→0, offset2→1, offset3→1, offset4→0  = 0b0110.
        assert_eq!(record.bit_vector(), 0b0110);
        let blocks: Vec<_> = record.blocks().collect();
        assert_eq!(blocks, vec![a, a.offset(2), a.offset(3)]);
        assert_eq!(record.accessed_blocks(), 3);
    }

    #[test]
    fn storage_bits_match_paper() {
        // 34-bit block address + 7-bit vector = 41 bits per record.
        assert_eq!(SpatialRegion::storage_bits(8), 41);
    }

    #[test]
    fn blocks_behind_trigger_start_a_new_region() {
        let mut compactor = SpatialRegionCompactor::new(8);
        let a = BlockAddr::new(100);
        compactor.observe(a);
        // An access to a *lower* address is outside the region (regions only
        // extend forward from the trigger).
        let emitted = compactor.observe(BlockAddr::new(99));
        assert!(emitted.is_some());
        assert_eq!(compactor.current().unwrap().trigger(), BlockAddr::new(99));
    }

    #[test]
    fn contains_access_vs_contains_address() {
        let mut region = SpatialRegion::new(BlockAddr::new(10), 8);
        region.try_record(BlockAddr::new(12));
        assert!(region.contains_address(BlockAddr::new(15)));
        assert!(!region.contains_access(BlockAddr::new(15)));
        assert!(region.contains_access(BlockAddr::new(12)));
        assert!(region.contains_access(BlockAddr::new(10)));
        assert!(!region.contains_address(BlockAddr::new(18)));
        assert!(!region.contains_address(BlockAddr::new(9)));
    }

    #[test]
    fn revisiting_the_trigger_does_not_emit() {
        let mut compactor = SpatialRegionCompactor::new(8);
        let a = BlockAddr::new(50);
        compactor.observe(a);
        compactor.observe(a.offset(1));
        assert_eq!(
            compactor.observe(a),
            None,
            "trigger revisit stays in region"
        );
    }

    #[test]
    fn flush_returns_pending_record() {
        let mut compactor = SpatialRegionCompactor::new(8);
        assert!(compactor.flush().is_none());
        compactor.observe(BlockAddr::new(7));
        let flushed = compactor.flush().expect("pending record");
        assert_eq!(flushed.trigger(), BlockAddr::new(7));
        assert!(compactor.current().is_none());
    }

    #[test]
    fn full_region_encodes_all_blocks() {
        let mut region = SpatialRegion::new(BlockAddr::new(0), 8);
        for i in 1..8 {
            region.try_record(BlockAddr::new(i));
        }
        assert_eq!(region.accessed_blocks(), 8);
        assert_eq!(region.blocks().count(), 8);
        assert_eq!(region.bit_vector(), 0x7f);
    }

    #[test]
    #[should_panic(expected = "between 2 and 24")]
    fn degenerate_region_size_rejected() {
        let _ = SpatialRegion::new(BlockAddr::new(0), 1);
    }

    #[test]
    #[should_panic(expected = "between 2 and 24 blocks, got 25")]
    fn a_region_past_the_vector_field_is_rejected() {
        let _ = SpatialRegion::new(BlockAddr::new(0), 25);
    }

    #[test]
    #[should_panic(expected = "at or above 2^40")]
    fn a_trigger_past_the_trigger_field_is_rejected() {
        let _ = SpatialRegion::new(BlockAddr::new(1 << 40), 8);
    }

    #[test]
    fn the_widest_record_keeps_its_fields_apart() {
        let top = BlockAddr::new((1 << 40) - 1);
        let mut region = SpatialRegion::new(top, 24);
        assert!(region.try_record(top.offset(23)));
        assert!(!region.try_record(top.offset(24)));
        assert_eq!(region.trigger(), top);
        assert_eq!(region.region_blocks(), 24);
        assert_eq!(region.bit_vector(), 1 << 22);
        assert_eq!(region.blocks().collect::<Vec<_>>(), [top, top.offset(23)]);
    }

    #[test]
    fn a_record_is_one_word() {
        assert_eq!(std::mem::size_of::<SpatialRegion>(), 8);
    }

    #[test]
    fn a_serialized_record_outside_the_word_is_an_error() {
        for (trigger, bits, reason) in [
            (7, 0, "marker"),
            (7, 1, "marker"),
            (7, 1 << 24, "marker"),
            (1 << 40, 0x80, "2^40"),
        ] {
            let value = Value::Map(vec![
                ("trigger".to_owned(), Value::UInt(trigger)),
                ("bits".to_owned(), Value::UInt(bits)),
            ]);
            let err = SpatialRegion::from_value(&value).expect_err("outside the word");
            assert!(err.message().contains(reason), "{err}");
        }
    }
}
