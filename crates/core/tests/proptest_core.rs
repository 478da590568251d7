//! Differential property tests for the core data structures.
//!
//! The array-backed [`IndexTable`] replaced a `HashMap` + `BTreeMap`
//! recency-stamp LRU. This test keeps that earlier structure alive as an
//! executable reference model and drives both with random operation
//! sequences: every lookup and peek must agree, and after any sequence both
//! must hold exactly the same entries.
//!
//! The [`HistoryBuffer`] grows with the records appended to it; it replaced a
//! buffer that allocated one `Option` slot per record of capacity up front.
//! That eager buffer is kept alive the same way, as `ModelHistory`.
//!
//! Both structures are also snapshotted through the serde data model (as the
//! benchmark's traced replay snapshots a `Shift`): the copy must behave
//! exactly like the original.
//!
//! The [`SpatialRegion`] records those structures hold are pinned against a
//! scalar model too (`ModelRegion`: the region size plus the sorted set of
//! recorded offsets), for every region size 2..=24 and triggers below 2^40,
//! so a change to how a record is stored cannot change what it answers.
//! Arbitrary serialized fields read back as a record or a typed error.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use shift_core::{HistoryBuffer, IndexTable, SpatialRegion, SpatialRegionCompactor};
use shift_types::BlockAddr;

/// Reference model: a bounded LRU map built from a recency-stamp `BTreeMap`.
///
/// Stamps come from a shared logical clock, refresh on `update` and on
/// `lookup` hits, and eviction removes the minimum stamp — the semantics the
/// intrusive-list `IndexTable` claims to preserve.
struct ModelIndex {
    capacity: usize,
    clock: u64,
    by_key: HashMap<u64, (u32, u64)>,
    by_stamp: BTreeMap<u64, u64>,
}

impl ModelIndex {
    fn new(capacity: usize) -> Self {
        ModelIndex {
            capacity,
            clock: 0,
            by_key: HashMap::new(),
            by_stamp: BTreeMap::new(),
        }
    }

    fn update(&mut self, key: u64, ptr: u32) {
        self.clock += 1;
        if let Some((stored, stamp)) = self.by_key.get_mut(&key) {
            *stored = ptr;
            self.by_stamp.remove(stamp);
            *stamp = self.clock;
            self.by_stamp.insert(self.clock, key);
            return;
        }
        if self.by_key.len() == self.capacity {
            let (&victim_stamp, &victim) = self.by_stamp.iter().next().expect("full model");
            self.by_stamp.remove(&victim_stamp);
            self.by_key.remove(&victim);
        }
        self.by_key.insert(key, (ptr, self.clock));
        self.by_stamp.insert(self.clock, key);
    }

    fn lookup(&mut self, key: u64) -> Option<u32> {
        self.clock += 1;
        let (ptr, stamp) = self.by_key.get_mut(&key)?;
        self.by_stamp.remove(stamp);
        *stamp = self.clock;
        self.by_stamp.insert(self.clock, key);
        Some(*ptr)
    }

    fn peek(&self, key: u64) -> Option<u32> {
        self.by_key.get(&key).map(|&(ptr, _)| ptr)
    }
}

proptest! {
    /// The open-addressed + intrusive-LRU `IndexTable` is observationally
    /// identical to the recency-stamp map model under any interleaving of
    /// updates, lookups, and peeks — including identical eviction victims,
    /// which a single diverging `lookup(evicted) == Some(_)` would expose.
    #[test]
    fn index_table_matches_recency_stamp_model(
        capacity in 1usize..24,
        ops in proptest::collection::vec((0u8..3, 0u64..48, 0u32..1_000), 1..400),
    ) {
        let mut table = IndexTable::new(capacity);
        let mut model = ModelIndex::new(capacity);
        for &(op, key, ptr) in &ops {
            let block = BlockAddr::new(key);
            match op {
                0 => {
                    table.update(block, ptr);
                    model.update(key, ptr);
                }
                1 => prop_assert_eq!(table.lookup(block), model.lookup(key)),
                _ => prop_assert_eq!(table.peek(block), model.peek(key)),
            }
            prop_assert_eq!(table.len(), model.by_key.len());
            prop_assert!(table.len() <= capacity);
        }
        // Final membership over the whole key domain must agree exactly.
        for key in 0..48u64 {
            prop_assert_eq!(table.peek(BlockAddr::new(key)), model.peek(key));
        }
    }
}

/// Reference model: the eager history buffer, one `Option` slot per record
/// of capacity, allocated up front; `None` marks a never-written slot.
struct ModelHistory {
    entries: Vec<Option<SpatialRegion>>,
    write_ptr: u32,
    total_appends: u64,
}

impl ModelHistory {
    fn new(capacity: usize) -> Self {
        ModelHistory {
            entries: vec![None; capacity],
            write_ptr: 0,
            total_appends: 0,
        }
    }

    fn wrap(&self, ptr: u32, n: u32) -> u32 {
        ((ptr as u64 + n as u64) % self.entries.len() as u64) as u32
    }

    fn len(&self) -> usize {
        self.total_appends.min(self.entries.len() as u64) as usize
    }

    fn append(&mut self, record: SpatialRegion) -> u32 {
        let slot = self.write_ptr;
        self.entries[slot as usize] = Some(record);
        self.write_ptr = self.wrap(slot, 1);
        self.total_appends += 1;
        slot
    }

    fn get(&self, ptr: u32) -> Option<SpatialRegion> {
        self.entries.get(ptr as usize).copied().flatten()
    }

    fn read(&self, ptr: u32, count: usize) -> Vec<SpatialRegion> {
        (0..count.min(self.len()) as u32)
            .filter_map(|i| self.entries[self.wrap(ptr, i) as usize])
            .collect()
    }
}

fn record(n: u64) -> SpatialRegion {
    SpatialRegion::new(BlockAddr::new(n * 8), 8)
}

/// Checks every observation of `history` against `model`, reading the
/// window at `ptr`.
fn assert_history_agrees(history: &HistoryBuffer, model: &ModelHistory, ptr: u32, count: usize) {
    assert_eq!(history.len(), model.len());
    assert_eq!(history.is_empty(), model.total_appends == 0);
    assert_eq!(history.total_appends(), model.total_appends);
    assert_eq!(history.write_ptr(), model.write_ptr);
    assert_eq!(history.capacity(), model.entries.len());
    assert_eq!(history.get(ptr), model.get(ptr));
    let window = history.read(ptr, count);
    assert_eq!(window, model.read(ptr, count));
    // A trigger just below 2^40 that no append reaches.
    let mut into = vec![record((1 << 37) - 1)];
    history.read_into(ptr, count, &mut into);
    assert_eq!(&into[1..], &window[..]);
    assert_eq!(
        history.advance_ptr(ptr, count as u32),
        model.wrap(ptr, count as u32)
    );
}

/// A capacity in 1..=4096: a power of two or an arbitrary size.
fn capacity_of(power_of_two: bool, exponent: u32, raw: usize) -> usize {
    if power_of_two {
        1 << exponent
    } else {
        raw
    }
}

/// Copies `value` through the serde data model.
fn round_trip<T: Serialize + Deserialize>(value: &T) -> T {
    T::from_value(&value.to_value()).expect("a serialized value deserializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The history buffer that grows with its appends is observationally
    /// identical to the eager buffer, at every step, for appends far below
    /// and far beyond the capacity: slots returned by `append`, `get`,
    /// `read`/`read_into` windows (including never-written slots and
    /// pointers past the capacity), `len` and `advance_ptr`.
    #[test]
    fn history_buffer_matches_eager_model(
        shape in (any::<bool>(), 0u32..13, 1usize..=4096),
        ops in proptest::collection::vec((0u8..3, 0u32..u32::MAX, 0usize..64), 1..48),
    ) {
        let capacity = capacity_of(shape.0, shape.1, shape.2);
        let mut history = HistoryBuffer::new(capacity);
        let mut model = ModelHistory::new(capacity);
        let mut next = 0u64;
        for &(op, a, b) in &ops {
            let ptr = a % (capacity as u32 + 8);
            match op {
                // A burst of appends: up to twice the capacity, or a few.
                0 => {
                    let burst = 1 + a as usize % (2 * capacity);
                    for _ in 0..burst {
                        prop_assert_eq!(history.append(record(next)), model.append(record(next)));
                        next += 1;
                    }
                }
                1 => {
                    for _ in 0..b {
                        prop_assert_eq!(history.append(record(next)), model.append(record(next)));
                        next += 1;
                    }
                }
                _ => {}
            }
            assert_history_agrees(&history, &model, ptr, b);
        }
    }

    /// The index table with a capacity far above the keys it sees grows its
    /// bucket array and rehashes many times; lookups, peeks and final
    /// membership must still agree with the recency-stamp model.
    #[test]
    fn growing_index_table_matches_recency_stamp_model(
        capacity in 1usize..=8192,
        ops in proptest::collection::vec((0u8..3, 0u64..2048, 0u32..1_000_000), 1..3000),
    ) {
        let mut table = IndexTable::new(capacity);
        let mut model = ModelIndex::new(capacity);
        for &(op, key, ptr) in &ops {
            let block = BlockAddr::new(key);
            match op {
                0 => {
                    table.update(block, ptr);
                    model.update(key, ptr);
                }
                1 => prop_assert_eq!(table.lookup(block), model.lookup(key)),
                _ => prop_assert_eq!(table.peek(block), model.peek(key)),
            }
            prop_assert_eq!(table.len(), model.by_key.len());
        }
        for key in 0..2048u64 {
            prop_assert_eq!(table.peek(BlockAddr::new(key)), model.peek(key));
        }
    }

    /// A partly filled (or wrapped) history buffer and index table copied
    /// through `to_value`/`from_value` behave exactly like the originals
    /// under any continuation.
    #[test]
    fn serde_copies_behave_like_the_originals(
        shape in (any::<bool>(), 0u32..13, 1usize..=4096),
        prefill in 0usize..6000,
        ops in proptest::collection::vec((0u8..3, 0u64..512, 0u32..u32::MAX), 1..400),
    ) {
        let capacity = capacity_of(shape.0, shape.1, shape.2);
        let mut history = HistoryBuffer::new(capacity);
        let mut table = IndexTable::new(capacity);
        for n in 0..prefill as u64 {
            let ptr = history.append(record(n));
            table.update(BlockAddr::new(n % 512), ptr);
        }
        let mut history_copy = round_trip(&history);
        let mut table_copy = round_trip(&table);
        let mut next = prefill as u64;
        for &(op, key, a) in &ops {
            let block = BlockAddr::new(key);
            let ptr = a % capacity as u32;
            match op {
                0 => {
                    let slot = history.append(record(next));
                    prop_assert_eq!(history_copy.append(record(next)), slot);
                    table.update(block, slot);
                    table_copy.update(block, slot);
                    next += 1;
                }
                1 => prop_assert_eq!(table_copy.lookup(block), table.lookup(block)),
                _ => prop_assert_eq!(table_copy.peek(block), table.peek(block)),
            }
            prop_assert_eq!(history_copy.read(ptr, 16), history.read(ptr, 16));
            prop_assert_eq!(history_copy.get(ptr), history.get(ptr));
            prop_assert_eq!(history_copy.len(), history.len());
            prop_assert_eq!(history_copy.write_ptr(), history.write_ptr());
            prop_assert_eq!(table_copy.len(), table.len());
        }
        for key in 0..512u64 {
            prop_assert_eq!(table_copy.peek(BlockAddr::new(key)), table.peek(BlockAddr::new(key)));
        }
    }
}

/// Reference model of one spatial region record: the trigger, the region
/// size and the sorted offsets (past the trigger) recorded as accessed.
#[derive(Clone, Debug)]
struct ModelRegion {
    trigger: u64,
    region_blocks: u8,
    offsets: BTreeSet<u64>,
}

impl ModelRegion {
    fn new(trigger: u64, region_blocks: u8) -> Self {
        ModelRegion {
            trigger,
            region_blocks,
            offsets: BTreeSet::new(),
        }
    }

    /// The offset of `block` from the trigger when it lies inside the region.
    fn offset_of(&self, block: u64) -> Option<u64> {
        block
            .checked_sub(self.trigger)
            .filter(|&off| off < u64::from(self.region_blocks))
    }
}

/// Reference model of the compactor: leaving the current region emits it.
struct ModelCompactor {
    region_blocks: u8,
    current: Option<ModelRegion>,
}

impl ModelCompactor {
    fn observe(&mut self, block: u64) -> Option<ModelRegion> {
        if let Some(region) = self.current.as_mut() {
            if let Some(off) = region.offset_of(block) {
                if off > 0 {
                    region.offsets.insert(off);
                }
                return None;
            }
        }
        self.current
            .replace(ModelRegion::new(block, self.region_blocks))
    }
}

/// Checks every observation of `record` against `model`.
fn assert_record_agrees(record: &SpatialRegion, model: &ModelRegion) {
    assert_eq!(record.trigger(), BlockAddr::new(model.trigger));
    assert_eq!(record.region_blocks(), model.region_blocks);
    let vector = model.offsets.iter().fold(0u64, |v, off| v | 1 << (off - 1));
    assert_eq!(record.bit_vector(), vector);
    assert_eq!(record.accessed_blocks() as usize, 1 + model.offsets.len());
    let expected: Vec<BlockAddr> = std::iter::once(0)
        .chain(model.offsets.iter().copied())
        .map(|off| BlockAddr::new(model.trigger + off))
        .collect();
    assert_eq!(record.blocks().len(), expected.len());
    assert_eq!(record.blocks().collect::<Vec<_>>(), expected);
    for off in -1i64..=65 {
        let Some(block) = model.trigger.checked_add_signed(off) else {
            continue;
        };
        let inside = model.offset_of(block);
        assert_eq!(
            record.contains_address(BlockAddr::new(block)),
            inside.is_some(),
            "contains_address at offset {off}"
        );
        let accessed = inside.is_some_and(|o| o == 0 || model.offsets.contains(&o));
        assert_eq!(
            record.contains_access(BlockAddr::new(block)),
            accessed,
            "contains_access at offset {off}"
        );
    }
    assert_eq!(&round_trip(record), record);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Every record the compactor emits (and the one a flush returns), for
    /// every region size in 2..=24, answers like the scalar model: trigger,
    /// size, bit vector, accessed-block count, the block iterator, address
    /// and access containment at offsets −1..=65, and a serde round trip.
    /// The stream mixes steps inside the current region (including its
    /// last block and the trigger), steps just past it, single steps back
    /// and jumps to fresh triggers. Every block stays below 2^40, the
    /// smallest tag range of the caches a run fills, which every block a
    /// run touches lies below.
    #[test]
    fn compacted_records_match_a_scalar_model(
        region_blocks in 2u8..=24,
        trigger in 0u64..(1 << 40),
        steps in proptest::collection::vec((0u8..8, 0u64..66, 0u64..(1 << 40)), 1..160),
    ) {
        let mut compactor = SpatialRegionCompactor::new(region_blocks);
        let mut model = ModelCompactor { region_blocks, current: None };
        let mut emitted = 0usize;
        let mut observe = |block: u64| {
            let got = compactor.observe(BlockAddr::new(block));
            let want = model.observe(block);
            assert_eq!(got.is_some(), want.is_some(), "emission at block {block}");
            if let (Some(got), Some(want)) = (got, want) {
                assert_record_agrees(&got, &want);
                emitted += 1;
            }
            let current = model.current.as_ref().expect("a block was observed");
            (current.trigger, compactor.current().copied())
        };
        let (mut base, _) = observe(trigger);
        for &(kind, off, fresh) in &steps {
            let block = match kind {
                // Mostly inside the region, sometimes at its last block.
                0..=3 => base + off % u64::from(region_blocks),
                4 => base + u64::from(region_blocks) - 1,
                5 => base + off,
                6 => base.saturating_sub(1),
                _ => fresh,
            }
            .min((1 << 40) - 1);
            let (next_base, current) = observe(block);
            base = next_base;
            let current = current.expect("the compactor holds a record");
            prop_assert_eq!(current.trigger(), BlockAddr::new(base));
        }
        let flushed = compactor.flush().expect("a pending record");
        let pending = model.current.take().expect("a pending model record");
        assert_record_agrees(&flushed, &pending);
        prop_assert!(compactor.flush().is_none());
        prop_assert!(emitted <= steps.len());
    }
}

/// The low `width` bits of `raw`: drawn this way, values of every magnitude
/// come up, those around each field's bound included.
fn of_width(width: u32, raw: u64) -> u64 {
    raw.checked_shr(u64::BITS - width).unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Arbitrary serialized `{trigger, bits}` fields read back as a record
    /// that serializes to the same value, or as a typed error, and never
    /// panic: a record exactly when the trigger is below 2^40 and the
    /// highest set bit of `bits`, the region-size marker, is at 1..=23.
    #[test]
    fn arbitrary_serialized_records_read_back_or_fail_typed(
        trigger in (0u32..=64, 0u64..=u64::MAX),
        bits in (0u32..=64, 0u64..=u64::MAX),
    ) {
        let (trigger, bits) = (of_width(trigger.0, trigger.1), of_width(bits.0, bits.1));
        let fits = trigger < 1 << 40 && (2..1 << 24).contains(&bits);
        let value = Value::Map(vec![
            ("trigger".to_owned(), Value::UInt(trigger)),
            ("bits".to_owned(), Value::UInt(bits)),
        ]);
        match SpatialRegion::from_value(&value) {
            Ok(record) => {
                prop_assert!(fits, "{trigger:#x}/{bits:#x} read back as {record:?}");
                prop_assert_eq!(record.to_value(), value);
            }
            Err(err) => prop_assert!(!fits, "{trigger:#x}/{bits:#x} refused: {err}"),
        }
    }
}
