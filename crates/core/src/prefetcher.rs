//! The common instruction-prefetcher interface.

use serde::{Deserialize, Serialize};
use shift_cache::NucaLlc;
use shift_types::{BlockAddr, CoreId};

/// A prefetch request produced by a prefetcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrefetchCandidate {
    /// The instruction block to prefetch.
    pub block: BlockAddr,
    /// Extra cycles before the prefetch can even be issued — for virtualized
    /// SHIFT this is the latency of fetching the history-buffer block from
    /// the LLC before the stream can be replayed.
    pub ready_delay: u64,
}

impl PrefetchCandidate {
    /// A candidate that can be issued immediately.
    pub fn immediate(block: BlockAddr) -> Self {
        PrefetchCandidate {
            block,
            ready_delay: 0,
        }
    }

    /// A candidate that becomes issuable after `delay` cycles.
    pub fn delayed(block: BlockAddr, delay: u64) -> Self {
        PrefetchCandidate {
            block,
            ready_delay: delay,
        }
    }
}

/// Interface every instruction prefetcher implements.
///
/// A single prefetcher object manages the state of *all* cores of the CMP (or
/// of one workload, under consolidation); per-core structures are kept
/// internally and selected by the [`CoreId`] arguments. The shared LLC is
/// passed in because virtualized SHIFT stores its history and index there;
/// other designs simply ignore it.
pub trait InstructionPrefetcher {
    /// Called for every L1-I access with its hit/miss outcome, *before* the
    /// miss (if any) is sent to the LLC. Prefetch candidates are appended to
    /// `out`.
    fn on_access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        hit: bool,
        llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    );

    /// Called for every retired instruction-block visit (the retire-order
    /// stream the history is built from). Prefetch candidates produced by
    /// stream advancement are appended to `out`.
    fn on_retire(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    );

    /// Returns `true` if the prefetcher currently predicts `block` for
    /// `core` — i.e. the block is part of an actively replayed stream. Used
    /// by the prediction-only study of Figure 6.
    fn covers(&self, core: CoreId, block: BlockAddr) -> bool;
}

/// The no-prefetching baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NullPrefetcher;

impl NullPrefetcher {
    /// Creates the baseline prefetcher.
    pub fn new() -> Self {
        NullPrefetcher
    }
}

impl InstructionPrefetcher for NullPrefetcher {
    fn on_access(
        &mut self,
        _core: CoreId,
        _block: BlockAddr,
        _hit: bool,
        _llc: &mut NucaLlc,
        _out: &mut Vec<PrefetchCandidate>,
    ) {
    }

    fn on_retire(
        &mut self,
        _core: CoreId,
        _block: BlockAddr,
        _llc: &mut NucaLlc,
        _out: &mut Vec<PrefetchCandidate>,
    ) {
    }

    fn covers(&self, _core: CoreId, _block: BlockAddr) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_cache::LlcConfig;

    #[test]
    fn null_prefetcher_never_prefetches() {
        let mut llc = NucaLlc::new(LlcConfig::micro13(1));
        let mut p = NullPrefetcher::new();
        let mut out = Vec::new();
        p.on_access(CoreId::new(0), BlockAddr::new(1), false, &mut llc, &mut out);
        p.on_retire(CoreId::new(0), BlockAddr::new(1), &mut llc, &mut out);
        assert!(out.is_empty());
        assert!(!p.covers(CoreId::new(0), BlockAddr::new(1)));
    }

    #[test]
    fn candidate_constructors() {
        let a = PrefetchCandidate::immediate(BlockAddr::new(4));
        assert_eq!(a.ready_delay, 0);
        let b = PrefetchCandidate::delayed(BlockAddr::new(4), 11);
        assert_eq!(b.ready_delay, 11);
        assert_eq!(a.block, b.block);
    }
}
