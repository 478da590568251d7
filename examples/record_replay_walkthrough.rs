//! A mechanism walkthrough of Figures 4 and 5: how the history generator core
//! folds its retire-order access stream into spatial region records, how the
//! shared history and the LLC-embedded index are updated, and how another
//! core replays the stream after a miss.
//!
//! ```text
//! cargo run --example record_replay_walkthrough
//! ```

use shift::cache::{LlcConfig, NucaLlc};
use shift::prefetch::{InstructionPrefetcher, Shift, ShiftConfig};
use shift::types::{AccessClass, BlockAddr, CoreId};

fn main() {
    let mut llc = NucaLlc::new(LlcConfig::micro13(2));
    let config = ShiftConfig::virtualized_micro13(CoreId::new(0), BlockAddr::new(0x40_0000));
    let mut shift = Shift::new(config, 2);

    // The access stream of Figure 4(a): A, A+2, A+3, B, ... with A = 0x1000.
    let a = 0x1000u64;
    let b = 0x2000u64;
    let stream: Vec<u64> = vec![a, a + 2, a + 3, b, b + 1, a + 64, a, a + 2, a + 3, b];

    // Warm the LLC with the instruction blocks so index updates can attach to
    // their tags (in a real system they are resident from earlier demand
    // fetches).
    for &blk in &stream {
        llc.access(BlockAddr::new(blk), AccessClass::Demand);
    }

    println!("== Recording (history generator = core 0) ==");
    let mut out = Vec::new();
    for _ in 0..3 {
        for &blk in &stream {
            shift.on_retire(CoreId::new(0), BlockAddr::new(blk), &mut llc, &mut out);
        }
    }
    // The last pass ends in B's region, whose record stays open until the
    // stream leaves it: retire one block outside it so B's record reaches the
    // history too.
    shift.on_retire(CoreId::new(0), BlockAddr::new(a + 64), &mut llc, &mut out);
    // Every spatial region record sends one index update to the LLC tags;
    // every twelfth fills the cache-block buffer, which is flushed to the
    // history window in the LLC.
    let traffic = llc.traffic();
    println!(
        "index updates sent to LLC tags : {}",
        traffic.count(AccessClass::IndexUpdate)
    );
    println!(
        "history blocks flushed (CBB)   : {}",
        traffic.count(AccessClass::HistoryWrite)
    );
    println!("LLC blocks pinned for history  : {}", llc.pinned_blocks());

    println!();
    println!("== Replay (core 1 misses on the stream head A) ==");
    out.clear();
    shift.on_access(CoreId::new(1), BlockAddr::new(a), false, &mut llc, &mut out);
    println!("prefetch candidates after the miss on A:");
    for cand in &out {
        println!(
            "  block {:#x} (ready after {} extra cycles of history-read latency)",
            cand.block.get(),
            cand.ready_delay
        );
    }
    println!();
    let predicts_a2 = shift.covers(CoreId::new(1), BlockAddr::new(a + 2));
    let predicts_b = shift.covers(CoreId::new(1), BlockAddr::new(b));
    println!(
        "core 1 now predicts A+2: {predicts_a2} (the discontinuity to B is predicted too: {predicts_b})"
    );
    assert!(predicts_a2, "the replay must predict A+2");
    assert!(predicts_b, "the replay must cross the discontinuity to B");
}
