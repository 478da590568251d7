//! Property tests for the cache substrates.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use shift_cache::{CacheConfig, LlcConfig, NucaLlc, SetAssocCache};
use shift_types::{AccessClass, BlockAddr};

proptest! {
    /// LRU property: after a fill of a full set, the most recently used block
    /// is always still resident.
    #[test]
    fn most_recently_used_block_survives(fillers in proptest::collection::vec(0u64..64, 1..200)) {
        // Single-set cache: 4 ways of 64-byte blocks.
        let mut cache: SetAssocCache<()> =
            SetAssocCache::new(CacheConfig::new(4 * 64, 4, 64, 1));
        let mut last = None;
        for &f in &fillers {
            // Map every block to set 0 by multiplying by the set count (1).
            let block = BlockAddr::new(f);
            cache.fill(block, ());
            cache.access(block);
            last = Some(block);
        }
        prop_assert!(cache.probe(last.unwrap()));
    }

    /// The LLC never loses pinned (history) blocks no matter the traffic.
    #[test]
    fn llc_pinned_blocks_survive_any_traffic(traffic in proptest::collection::vec(0u64..100_000, 1..2_000)) {
        let mut llc = NucaLlc::new(LlcConfig {
            total_bytes: 64 * 1024,
            ways: 4,
            banks: 4,
            block_bytes: 64,
            hit_latency: 5,
            memory_latency: 90,
            index_pointer_bits: 15,
        });
        let history_start = BlockAddr::new(200_000);
        llc.reserve_history_region(history_start, 32);
        for &t in &traffic {
            llc.access(BlockAddr::new(t), AccessClass::Demand);
        }
        for i in 0..32 {
            prop_assert!(llc.probe(history_start.offset(i)));
        }
    }

    /// An LLC line's index pointer lives and dies with the line: a block
    /// keeps the pointer last stored for it exactly while `probe` says it
    /// is resident, and a block filled again starts with none — never the
    /// pointer of the line it replaced. Four banks of four sets, 2–4 ways,
    /// one way of every set pinned by the history region, and 96 demand
    /// blocks six to a set, so every set evicts.
    #[test]
    fn index_pointers_live_and_die_with_their_lines(
        ways in 2usize..=4,
        ops in proptest::collection::vec((0u8..6, 0u64..112, 0u32..1_000), 3_000..4_000),
    ) {
        const BANKS: u64 = 4;
        const SETS: u64 = 4;
        let mut llc = NucaLlc::new(LlcConfig {
            total_bytes: (BANKS * SETS) as usize * ways * 64,
            ways,
            banks: BANKS as usize,
            block_bytes: 64,
            hit_latency: 5,
            memory_latency: 90,
            index_pointer_bits: 15,
        });
        // Sixteen consecutive blocks take one way of each of the sixteen
        // (bank, set) pairs. Keys 96..112 name them.
        let region = BlockAddr::new(1 << 20);
        llc.reserve_history_region(region, BANKS * SETS);
        let block_of = |key: u64| {
            if key < 96 { BlockAddr::new(key) } else { region.offset(key - 96) }
        };
        let set_of = |block: BlockAddr| (block.get() % (BANKS * SETS)) as usize;

        let mut resident: HashSet<u64> = (96..112).collect();
        let mut pointers: HashMap<u64, u32> = HashMap::new();
        let mut evictions = [0u32; (BANKS * SETS) as usize];
        for &(op, key, ptr) in &ops {
            let block = block_of(key);
            match op {
                0..=2 => {
                    let class = [
                        AccessClass::Demand,
                        AccessClass::PrefetchUseful,
                        AccessClass::HistoryRead,
                        AccessClass::HistoryWrite,
                    ][(ptr % 4) as usize];
                    let outcome = llc.access(block, class);
                    prop_assert_eq!(outcome.hit, resident.contains(&key));
                    prop_assert_eq!(outcome.index_ptr, pointers.get(&key).copied());
                    if !outcome.hit {
                        resident.insert(key);
                        resident.retain(|&k| {
                            let kept = llc.probe(block_of(k));
                            if !kept {
                                evictions[set_of(block_of(k))] += 1;
                            }
                            kept
                        });
                        pointers.retain(|k, _| resident.contains(k));
                    }
                }
                3 | 4 => {
                    let stored = llc.update_index_ptr(block, ptr);
                    prop_assert_eq!(stored, resident.contains(&key));
                    if stored {
                        pointers.insert(key, ptr);
                    }
                }
                _ => {
                    prop_assert_eq!(llc.probe(block), resident.contains(&key));
                    prop_assert_eq!(llc.index_ptr(block), pointers.get(&key).copied());
                }
            }
        }
        for key in 0..112 {
            prop_assert_eq!(llc.index_ptr(block_of(key)), pointers.get(&key).copied());
        }
        prop_assert!(evictions.iter().all(|&e| e > 0), "evictions per set: {evictions:?}");
    }

    /// The packed-tag-array `SetAssocCache` is observationally identical to a
    /// scalar per-set model under any interleaving of accesses and fills —
    /// same hit/miss outcomes, same eviction victims, same resident sets.
    /// This pins the SoA layout's branch-light scan and bitmask victim
    /// selection to the straightforward AoS semantics it replaced. Every
    /// case runs thousands of operations over four sets, so each set sees
    /// hundreds of touches: more than an 8-bit stamp counts.
    #[test]
    fn packed_tag_scan_matches_scalar_model(
        ops in proptest::collection::vec((0u8..2, 0u64..32), 6_000..8_000),
    ) {
        const SETS: u64 = 4;
        const WAYS: usize = 4;
        let mut cache: SetAssocCache<u64> =
            SetAssocCache::new(CacheConfig::new(SETS as usize * WAYS * 64, WAYS, 64, 1));

        // Scalar reference model: per-set Vec of (block, meta, last_use) with
        // a `u64` clock that ticks on every access and fill. Only the order
        // of the touches within a set decides its LRU victim.
        let mut model: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); SETS as usize];
        let mut touches = [0u32; SETS as usize];
        let mut clock = 0u64;

        for (i, &(op, key)) in ops.iter().enumerate() {
            let block = BlockAddr::new(key);
            let set = &mut model[(key % SETS) as usize];
            match op {
                0 => {
                    clock += 1;
                    let model_hit = match set.iter_mut().find(|l| l.0 == key) {
                        Some(line) => {
                            line.2 = clock;
                            touches[(key % SETS) as usize] += 1;
                            true
                        }
                        None => false,
                    };
                    prop_assert_eq!(cache.access(block).is_hit(), model_hit);
                }
                _ => {
                    clock += 1;
                    touches[(key % SETS) as usize] += 1;
                    let meta = i as u64;
                    let model_victim = if let Some(line) = set.iter_mut().find(|l| l.0 == key) {
                        line.1 = meta;
                        line.2 = clock;
                        None
                    } else if set.len() < WAYS {
                        set.push((key, meta, clock));
                        None
                    } else {
                        let victim = (0..set.len())
                            .min_by_key(|&w| set[w].2)
                            .expect("full set");
                        let evicted = set.remove(victim);
                        set.push((key, meta, clock));
                        Some((evicted.0, evicted.1))
                    };
                    let evicted = cache.fill(block, meta).map(|e| (e.block.get(), e.meta));
                    prop_assert_eq!(evicted, model_victim);
                }
            }
        }

        // Final residency over the whole block domain must agree exactly.
        let resident: usize = model.iter().map(Vec::len).sum();
        prop_assert_eq!(cache.resident_blocks(), resident);
        for key in 0..32u64 {
            let in_model = model[(key % SETS) as usize].iter().any(|l| l.0 == key);
            prop_assert_eq!(cache.probe(BlockAddr::new(key)), in_model);
        }
        // Hits and fills touch a line; every set saw hundreds of them.
        prop_assert!(touches.iter().all(|&t| t > 2 * 255), "touches per set: {touches:?}");
    }

    /// The two cache shapes the simulator configures (a 256-set × 2-way L1
    /// and a 512-set × 16-way LLC bank) behave like a scalar per-set LRU
    /// model over the whole tag range: blocks `set + sets·t` with `t` small,
    /// around 2^31 and just below 2^32, under accesses, fills, pinned fills
    /// and probes. The model's clock is a `u64`, and every case runs
    /// thousands of operations over four sets, so each set sees hundreds of
    /// touches: more than an 8-bit stamp counts.
    #[test]
    fn lru_choices_hold_across_the_tag_range(
        shape in 0u8..2,
        ops in proptest::collection::vec((0u8..4, 0usize..4, 0u8..3, 0u64..8), 6_000..8_000),
    ) {
        let (sets, ways) = if shape == 0 { (256u64, 2usize) } else { (512, 16) };
        let mut cache: SetAssocCache<u64> =
            SetAssocCache::new(CacheConfig::new(sets as usize * ways * 64, ways, 64, 1));
        let set_of = [0, 1, sets / 2, sets - 1];
        let block_of = |set_pick: usize, band: u8, offset: u64| {
            let t = match band {
                0 => offset,
                1 => (1u64 << 31) - 4 + offset,
                _ => (1u64 << 32) - 8 + offset,
            };
            set_of[set_pick] + sets * t
        };

        // Per set: (block, meta, last use, pinned), in no particular order.
        let mut model: Vec<Vec<(u64, u64, u64, bool)>> = vec![Vec::new(); set_of.len()];
        let mut touches = [0u32; 4];
        let mut clock = 0u64;

        for (i, &(op, set_pick, band, offset)) in ops.iter().enumerate() {
            let key = block_of(set_pick, band, offset);
            let block = BlockAddr::new(key);
            let set = &mut model[set_pick];
            let line = set.iter().position(|l| l.0 == key);
            match op {
                0 => {
                    clock += 1;
                    if let Some(w) = line {
                        set[w].2 = clock;
                        touches[set_pick] += 1;
                    }
                    prop_assert_eq!(cache.access(block).is_hit(), line.is_some());
                }
                1 | 2 => {
                    // Only the first two sets pin, each at most half its
                    // ways: a fill always finds a victim, and the unpinned
                    // ways keep a real LRU choice. A pinned fill past that
                    // is a plain fill.
                    let pins = set.iter().filter(|l| l.3).count();
                    let already = line.is_some_and(|w| set[w].3);
                    let pinned = op == 2 && set_pick < 2 && (already || pins < ways / 2);
                    clock += 1;
                    touches[set_pick] += 1;
                    let meta = i as u64;
                    let model_victim = if let Some(w) = line {
                        set[w].1 = meta;
                        set[w].2 = clock;
                        set[w].3 |= pinned;
                        None
                    } else if set.len() < ways {
                        set.push((key, meta, clock, pinned));
                        None
                    } else {
                        let victim = (0..set.len())
                            .filter(|&w| !set[w].3)
                            .min_by_key(|&w| set[w].2)
                            .expect("an unpinned way");
                        let evicted = set.swap_remove(victim);
                        set.push((key, meta, clock, pinned));
                        Some((evicted.0, evicted.1))
                    };
                    let filled = if pinned {
                        cache.fill_pinned(block, meta)
                    } else {
                        cache.fill(block, meta)
                    };
                    prop_assert_eq!(filled.map(|e| (e.block.get(), e.meta)), model_victim);
                }
                _ => {
                    prop_assert_eq!(cache.probe(block), line.is_some());
                    prop_assert_eq!(cache.meta(block).copied(), line.map(|w| set[w].1));
                }
            }
        }

        let resident: usize = model.iter().map(Vec::len).sum();
        prop_assert_eq!(cache.resident_blocks(), resident);
        for (set_pick, set) in model.iter().enumerate() {
            for band in 0..3 {
                for offset in 0..8 {
                    let key = block_of(set_pick, band, offset);
                    let meta = set.iter().find(|l| l.0 == key).map(|l| l.1);
                    prop_assert_eq!(cache.probe(BlockAddr::new(key)), meta.is_some());
                    prop_assert_eq!(cache.meta(BlockAddr::new(key)).copied(), meta);
                }
            }
        }
        // Hits and fills touch a line; every set saw hundreds of them.
        prop_assert!(touches.iter().all(|&t| t > 2 * 255), "touches per set: {touches:?}");
    }
}
