//! Property tests for address arithmetic.

use proptest::prelude::*;
use shift_types::{Addr, BlockAddr, BLOCK_BYTES};

proptest! {
    #[test]
    fn block_base_is_aligned_and_contains_addr(raw in 0u64..(1 << 40)) {
        let addr = Addr::new(raw);
        let base = addr.block().base_addr();
        prop_assert_eq!(base.get() % BLOCK_BYTES as u64, 0);
        prop_assert!(base.get() <= raw);
        prop_assert!(raw - base.get() < BLOCK_BYTES as u64);
    }

    #[test]
    fn block_offsets_compose(block in 0u64..(1 << 30), a in 0u64..1_000, b in 0u64..1_000) {
        let base = BlockAddr::new(block);
        prop_assert_eq!(base.offset(a).offset(b), base.offset(a + b));
        prop_assert_eq!(base.offset(a).offset_from(base), Some(a));
    }
}
