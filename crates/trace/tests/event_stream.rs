//! Pins the trace layer's output on its own: the first 200,000 events of
//! cores 0 and 15 of every paper workload and of `presets::tiny()`, at seed
//! 42, reduced to one 64-bit FNV-1a digest per stream.
//!
//! The simulator's goldens see the trace only through whole runs, so a
//! change to how the generator buffers or the layout stores its fragments
//! must leave every digest here unchanged: same events, same order, same
//! RNG draws.

use shift_trace::{presets, CoreTraceGenerator, TraceEvent};
use shift_types::{AccessKind, CoreId};

const EVENTS: usize = 200_000;
const SEED: u64 = 42;

/// 64-bit FNV-1a over each event's kind, block and instruction count (fetch)
/// or access kind (data).
fn stream_digest(generator: &mut CoreTraceGenerator) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for _ in 0..EVENTS {
        match generator.next_event() {
            TraceEvent::Fetch(f) => {
                feed(&[0]);
                feed(&f.block.get().to_le_bytes());
                feed(&[f.instructions]);
            }
            TraceEvent::Data(d) => {
                feed(&[1]);
                feed(&d.block.get().to_le_bytes());
                feed(&[match d.kind {
                    AccessKind::Load => 0,
                    AccessKind::Store => 1,
                    AccessKind::InstructionFetch => unreachable!("data event carries a fetch"),
                }]);
            }
        }
    }
    hash
}

#[test]
fn first_events_of_every_workload_are_pinned() {
    // (workload, core 0 digest, core 15 digest).
    let pinned: [(&str, u64, u64); 8] = [
        ("OLTP DB2", 0x05b1_2743_702e_f469, 0xb8d6_b8c2_705f_df2a),
        ("OLTP Oracle", 0x5332_9e41_bcaf_d2ef, 0x31ad_9dde_5bb5_8321),
        ("DSS Qry 2", 0x31e6_1476_f0d4_a411, 0x4e8b_f6aa_21fd_0b0a),
        ("DSS Qry 17", 0xe0ae_520d_4983_4b5e, 0x75f7_b53c_3616_4b71),
        (
            "Media Streaming",
            0xe11b_2aae_6be4_d5ff,
            0xe39a_e4a4_f835_06de,
        ),
        ("Web Frontend", 0xdc87_c137_95d9_1a7a, 0xbfb2_02ae_5fb6_3a72),
        ("Web Search", 0x9e8c_c930_4a11_080e, 0xcb28_a127_e989_d6e0),
        ("Tiny", 0xa1c3_3a8c_74a4_8757, 0x756d_f863_4d95_4d74),
    ];
    let mut specs = presets::paper_suite();
    specs.push(presets::tiny());
    let measured: Vec<(&str, u64, u64)> = specs
        .iter()
        .map(|spec| {
            let digest =
                |core| stream_digest(&mut CoreTraceGenerator::new(spec, CoreId::new(core), SEED));
            (spec.name.as_str(), digest(0), digest(15))
        })
        .collect();
    assert_eq!(measured, pinned);
}
