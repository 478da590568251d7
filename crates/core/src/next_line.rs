//! The next-line (sequential) prefetcher.
//!
//! The ubiquitous baseline design: on every instruction-cache access to block
//! `B`, prefetch the following `degree` blocks. It captures sequential
//! fall-through misses but none of the misses caused by control-flow
//! discontinuities, which is why the paper measures only ≈35 % miss coverage
//! and ≈9 % speedup for it.

use serde::{Deserialize, Serialize};
use shift_cache::NucaLlc;
use shift_types::{BlockAddr, CoreId};

use crate::prefetcher::{InstructionPrefetcher, PrefetchCandidate};

/// A per-core next-line prefetcher of configurable degree.
///
/// # Examples
///
/// ```
/// use shift_core::{InstructionPrefetcher, NextLinePrefetcher};
/// use shift_cache::{LlcConfig, NucaLlc};
/// use shift_types::{BlockAddr, CoreId};
///
/// let mut llc = NucaLlc::new(LlcConfig::micro13(1));
/// let mut nl = NextLinePrefetcher::new(1, 1);
/// let mut out = Vec::new();
/// nl.on_access(CoreId::new(0), BlockAddr::new(100), false, &mut llc, &mut out);
/// assert_eq!(out[0].block, BlockAddr::new(101));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NextLinePrefetcher {
    degree: u64,
    last_access: Vec<Option<BlockAddr>>,
}

impl NextLinePrefetcher {
    /// Creates a next-line prefetcher of the given `degree` (how many
    /// sequential blocks are prefetched per access) for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `degree` or `cores` is zero.
    pub fn new(degree: u64, cores: u16) -> Self {
        assert!(degree > 0, "prefetch degree must be positive");
        assert!(cores > 0, "need at least one core");
        NextLinePrefetcher {
            degree,
            last_access: vec![None; cores as usize],
        }
    }
}

impl InstructionPrefetcher for NextLinePrefetcher {
    fn on_access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        _hit: bool,
        _llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        self.last_access[core.index()] = Some(block);
        for i in 1..=self.degree {
            out.push(PrefetchCandidate::immediate(block.offset(i)));
        }
    }

    fn on_retire(
        &mut self,
        _core: CoreId,
        _block: BlockAddr,
        _llc: &mut NucaLlc,
        _out: &mut Vec<PrefetchCandidate>,
    ) {
    }

    fn covers(&self, core: CoreId, block: BlockAddr) -> bool {
        match self.last_access[core.index()] {
            Some(last) => match block.offset_from(last) {
                Some(delta) => delta >= 1 && delta <= self.degree,
                None => false,
            },
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_cache::LlcConfig;

    fn llc() -> NucaLlc {
        NucaLlc::new(LlcConfig::micro13(1))
    }

    #[test]
    fn prefetches_following_blocks_on_every_access() {
        let mut llc = llc();
        let mut nl = NextLinePrefetcher::new(2, 2);
        let mut out = Vec::new();
        nl.on_access(CoreId::new(1), BlockAddr::new(50), true, &mut llc, &mut out);
        let blocks: Vec<_> = out.iter().map(|c| c.block).collect();
        assert_eq!(blocks, vec![BlockAddr::new(51), BlockAddr::new(52)]);
        assert!(out.iter().all(|c| c.ready_delay == 0));
    }

    #[test]
    fn covers_only_the_sequential_successors_of_the_last_access() {
        let mut llc = llc();
        let mut nl = NextLinePrefetcher::new(1, 1);
        let core = CoreId::new(0);
        assert!(!nl.covers(core, BlockAddr::new(11)));
        let mut out = Vec::new();
        nl.on_access(core, BlockAddr::new(10), false, &mut llc, &mut out);
        assert!(nl.covers(core, BlockAddr::new(11)));
        assert!(!nl.covers(core, BlockAddr::new(12)));
        assert!(!nl.covers(core, BlockAddr::new(10)));
        assert!(!nl.covers(core, BlockAddr::new(9)));
    }

    #[test]
    fn per_core_state_is_independent() {
        let mut llc = llc();
        let mut nl = NextLinePrefetcher::new(1, 2);
        let mut out = Vec::new();
        nl.on_access(
            CoreId::new(0),
            BlockAddr::new(10),
            false,
            &mut llc,
            &mut out,
        );
        assert!(nl.covers(CoreId::new(0), BlockAddr::new(11)));
        assert!(!nl.covers(CoreId::new(1), BlockAddr::new(11)));
    }

    #[test]
    #[should_panic(expected = "degree must be positive")]
    fn zero_degree_rejected() {
        let _ = NextLinePrefetcher::new(0, 1);
    }
}
