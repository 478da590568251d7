//! Composed ("hybrid") prefetcher designs — beyond the paper.
//!
//! The paper evaluates SHIFT, PIF, and next-line in isolation; this module
//! provides the composition layer ROADMAP item 4 calls for, so the designs
//! the paper could not evaluate run through the same simulator and
//! scoreboard machinery:
//!
//! * [`FallbackPrefetcher`] — a primary design backed by a secondary that
//!   fires only on fetches where the primary produced no candidates
//!   (e.g. SHIFT with a next-line fallback for unindexed sequential runs).
//! * [`ConfidenceGatedPrefetcher`] — wraps any design and suppresses its
//!   candidates while a per-core stream-confidence counter sits below a
//!   threshold, trading coverage for discard traffic.
//! * [`AdaptivePrefetcher`] — per-core dynamic selection: every core observes
//!   its own miss rate over a warm-up window and then commits to one of two
//!   wrapped designs.
//! * [`ThrottledPrefetcher`] — models a bandwidth-limited shared history
//!   port: prefetch candidates beyond a per-window budget are dropped, the
//!   degradation-under-contention scenario of the `hybrid_shootout`
//!   experiment.
//!
//! All four wrappers are generic over the wrapped
//! [`InstructionPrefetcher`] type(s), so the simulation engine can
//! monomorphize its stepping loop per composition exactly as it does for the
//! base designs — no dynamic dispatch on the hot path. A wrapper is its three
//! hooks and the state they need; its name and storage cost come from its
//! configuration (`shift_sim::PrefetcherConfig::{label, storage}`), where a
//! next-line side, a gate and a port cost nothing.
//!
//! Composition semantics are locked by differential property tests
//! (`tests/proptest_hybrid.rs`): `FallbackPrefetcher(A, Null)` is
//! candidate-for-candidate identical to `A`, `FallbackPrefetcher(Null, B)`
//! to `B`, and a confidence gate with threshold 0 to its un-gated inner
//! design.
//!
//! # Example: SHIFT-style stream design with a next-line fallback
//!
//! ```
//! use shift_core::hybrid::FallbackPrefetcher;
//! use shift_core::{InstructionPrefetcher, NextLinePrefetcher, Pif, PifConfig};
//! use shift_cache::{LlcConfig, NucaLlc};
//! use shift_types::{BlockAddr, CoreId};
//!
//! let mut llc = NucaLlc::new(LlcConfig::micro13(1));
//! let mut hybrid = FallbackPrefetcher::new(
//!     Pif::new(PifConfig::pif_32k(), 1),
//!     NextLinePrefetcher::new(1, 1),
//! );
//! // The PIF history is cold, so the next-line fallback serves the access.
//! let mut out = Vec::new();
//! hybrid.on_access(CoreId::new(0), BlockAddr::new(100), false, &mut llc, &mut out);
//! assert_eq!(out[0].block, BlockAddr::new(101));
//! ```

use serde::{Deserialize, Serialize};
use shift_cache::NucaLlc;
use shift_types::{BlockAddr, CoreId};

use crate::prefetcher::{InstructionPrefetcher, PrefetchCandidate};

/// A primary prefetcher with a secondary fallback.
///
/// Both designs observe the full access and retire streams (their internal
/// state is identical to standalone operation), but the secondary's
/// candidates are issued only on hook invocations where the primary produced
/// none — the secondary covers the primary's blind spots without competing
/// for prefetch bandwidth when the primary has a stream to replay.
#[derive(Debug, Serialize, Deserialize)]
pub struct FallbackPrefetcher<P, S> {
    primary: P,
    secondary: S,
}

impl<P, S> FallbackPrefetcher<P, S> {
    /// Composes `primary` with a `secondary` fallback.
    pub fn new(primary: P, secondary: S) -> Self {
        FallbackPrefetcher { primary, secondary }
    }
}

impl<P: InstructionPrefetcher, S: InstructionPrefetcher> InstructionPrefetcher
    for FallbackPrefetcher<P, S>
{
    fn on_access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        hit: bool,
        llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        let before = out.len();
        self.primary.on_access(core, block, hit, llc, out);
        let mark = out.len();
        self.secondary.on_access(core, block, hit, llc, out);
        if mark > before {
            // The primary fired: drop the secondary's candidates.
            out.truncate(mark);
        }
    }

    fn on_retire(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        let before = out.len();
        self.primary.on_retire(core, block, llc, out);
        let mark = out.len();
        self.secondary.on_retire(core, block, llc, out);
        if mark > before {
            // The primary fired: drop the secondary's candidates.
            out.truncate(mark);
        }
    }

    fn covers(&self, core: CoreId, block: BlockAddr) -> bool {
        self.primary.covers(core, block) || self.secondary.covers(core, block)
    }
}

/// Parameters of a per-core stream-confidence gate.
///
/// The counter saturates at `max`; a miss the wrapped design *would have*
/// covered increments it, a miss it would not decrements it, and candidates
/// issue only while the counter is at least `threshold`. Threshold 0 makes
/// the gate transparent (every counter value passes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GateConfig {
    /// Minimum confidence at which candidates pass the gate.
    pub threshold: u32,
    /// Saturation ceiling of the confidence counter.
    pub max: u32,
    /// Confidence each core starts with.
    pub initial: u32,
}

impl GateConfig {
    /// The default gate: 3-bit counter starting at the midpoint, open from
    /// confidence 2 upward.
    pub fn default_gate() -> Self {
        GateConfig {
            threshold: 2,
            max: 7,
            initial: 4,
        }
    }

    /// A gate with threshold 0 — provably transparent (the differential
    /// property tests lock it candidate-for-candidate identical to the
    /// un-gated design).
    pub fn transparent() -> Self {
        GateConfig {
            threshold: 0,
            ..Self::default_gate()
        }
    }
}

/// Wraps a prefetcher and suppresses its candidates while the issuing core's
/// stream-confidence counter is below the gate threshold.
///
/// Confidence tracks how well the wrapped design's active streams predict
/// the core's actual misses: on every L1-I miss the wrapper asks
/// [`covers`](InstructionPrefetcher::covers) *before* the design reacts, and
/// counts a hit as evidence for (increment) or against (decrement) the
/// replayed streams. Cores whose streams are stale stop issuing prefetches
/// — and stop paying discard traffic — until confidence recovers.
#[derive(Debug, Serialize, Deserialize)]
pub struct ConfidenceGatedPrefetcher<P> {
    inner: P,
    gate: GateConfig,
    confidence: Vec<u32>,
}

impl<P> ConfidenceGatedPrefetcher<P> {
    /// Gates `inner` with the given configuration for a CMP with `cores`
    /// cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or the gate's `threshold`/`initial` exceed
    /// its `max`.
    pub fn new(inner: P, gate: GateConfig, cores: u16) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(
            gate.threshold <= gate.max,
            "gate threshold above saturation"
        );
        assert!(gate.initial <= gate.max, "gate initial above saturation");
        ConfidenceGatedPrefetcher {
            inner,
            gate,
            confidence: vec![gate.initial; cores as usize],
        }
    }

    /// Current confidence of `core`'s gate.
    pub fn confidence(&self, core: CoreId) -> u32 {
        self.confidence[core.index()]
    }

    /// Drops the candidates past `mark` while `core`'s gate is closed.
    fn apply_gate(&self, core: CoreId, out: &mut Vec<PrefetchCandidate>, mark: usize) {
        if self.confidence[core.index()] < self.gate.threshold {
            out.truncate(mark);
        }
    }
}

impl<P: InstructionPrefetcher> InstructionPrefetcher for ConfidenceGatedPrefetcher<P> {
    fn on_access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        hit: bool,
        llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        if !hit {
            // Query coverage before the inner design reacts to the miss, so
            // the counter scores the streams as they stood when the miss hit.
            let covered = self.inner.covers(core, block);
            let c = &mut self.confidence[core.index()];
            if covered {
                *c = (*c + 1).min(self.gate.max);
            } else {
                *c = c.saturating_sub(1);
            }
        }
        let mark = out.len();
        self.inner.on_access(core, block, hit, llc, out);
        self.apply_gate(core, out, mark);
    }

    fn on_retire(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        let mark = out.len();
        self.inner.on_retire(core, block, llc, out);
        self.apply_gate(core, out, mark);
    }

    fn covers(&self, core: CoreId, block: BlockAddr) -> bool {
        // Prediction (the Figure 6 methodology) is unaffected by the issue
        // gate: the streams still predict the block either way.
        self.inner.covers(core, block)
    }
}

/// Parameters of per-core adaptive design selection.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdaptConfig {
    /// L1-I accesses each core observes before committing to a design.
    pub warmup_accesses: u64,
    /// Observed miss rate at or above which the core selects the second
    /// (aggressive) design; below it the first (conservative) design.
    pub miss_rate_threshold: f64,
}

impl AdaptConfig {
    /// The default adaptation window: 4 K observed accesses, 5 % miss rate.
    pub fn default_adapt() -> Self {
        AdaptConfig {
            warmup_accesses: 4096,
            miss_rate_threshold: 0.05,
        }
    }
}

/// Which design a core has committed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Selection {
    /// Still observing the warm-up window (the conservative design issues).
    Warming,
    /// Committed to the first (conservative) design.
    Low,
    /// Committed to the second (aggressive) design.
    High,
}

/// Per-core dynamic selection between two wrapped designs.
///
/// Every core counts its own L1-I misses over the first
/// [`warmup_accesses`](AdaptConfig::warmup_accesses) accesses it performs,
/// then commits: a miss rate below the threshold selects the conservative
/// `low` design (cheap sequential misses dominate), at or above it the
/// aggressive `high` design (discontinuity-heavy streams need history
/// replay). Both designs observe the full event stream throughout — exactly
/// as both structures would in hardware — so the non-selected design stays
/// warm; only its candidates are discarded. During warm-up the `low` design
/// issues.
#[derive(Debug, Serialize, Deserialize)]
pub struct AdaptivePrefetcher<A, B> {
    low: A,
    high: B,
    adapt: AdaptConfig,
    accesses: Vec<u64>,
    misses: Vec<u64>,
    selected: Vec<Selection>,
}

impl<A, B> AdaptivePrefetcher<A, B> {
    /// Composes the conservative `low` and aggressive `high` designs for a
    /// CMP with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `adapt.warmup_accesses` is zero, or the miss-rate
    /// threshold is outside `[0, 1]`.
    pub fn new(low: A, high: B, adapt: AdaptConfig, cores: u16) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(adapt.warmup_accesses > 0, "warm-up window must be positive");
        assert!(
            (0.0..=1.0).contains(&adapt.miss_rate_threshold),
            "miss-rate threshold must be in [0, 1]"
        );
        AdaptivePrefetcher {
            low,
            high,
            adapt,
            accesses: vec![0; cores as usize],
            misses: vec![0; cores as usize],
            selected: vec![Selection::Warming; cores as usize],
        }
    }

    /// What `core` has committed to so far.
    pub fn selection(&self, core: CoreId) -> Selection {
        self.selected[core.index()]
    }

    fn use_low(&self, core: CoreId) -> bool {
        !matches!(self.selected[core.index()], Selection::High)
    }
}

impl<A: InstructionPrefetcher, B: InstructionPrefetcher> InstructionPrefetcher
    for AdaptivePrefetcher<A, B>
{
    fn on_access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        hit: bool,
        llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        let idx = core.index();
        if self.selected[idx] == Selection::Warming {
            self.accesses[idx] += 1;
            if !hit {
                self.misses[idx] += 1;
            }
            if self.accesses[idx] >= self.adapt.warmup_accesses {
                let rate = self.misses[idx] as f64 / self.accesses[idx] as f64;
                self.selected[idx] = if rate >= self.adapt.miss_rate_threshold {
                    Selection::High
                } else {
                    Selection::Low
                };
            }
        }
        let use_low = self.use_low(core);
        let mark = out.len();
        self.low.on_access(core, block, hit, llc, out);
        if !use_low {
            out.truncate(mark);
        }
        let mark = out.len();
        self.high.on_access(core, block, hit, llc, out);
        if use_low {
            out.truncate(mark);
        }
    }

    fn on_retire(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        let use_low = self.use_low(core);
        let mark = out.len();
        self.low.on_retire(core, block, llc, out);
        if !use_low {
            out.truncate(mark);
        }
        let mark = out.len();
        self.high.on_retire(core, block, llc, out);
        if use_low {
            out.truncate(mark);
        }
    }

    fn covers(&self, core: CoreId, block: BlockAddr) -> bool {
        if self.use_low(core) {
            self.low.covers(core, block)
        } else {
            self.high.covers(core, block)
        }
    }
}

/// Bandwidth of a shared history port, as a candidate budget per window of
/// L1-I accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HistoryPortConfig {
    /// Prefetch candidates the port can deliver per window.
    pub candidates_per_window: u32,
    /// Window length in L1-I accesses (across all cores — the port is
    /// shared, which is exactly what makes it a contention model).
    pub window_accesses: u32,
}

impl HistoryPortConfig {
    /// A port delivering `candidates_per_window` candidates per 64-access
    /// window — the bandwidth axis of the degradation-under-contention sweep.
    pub fn per_64_accesses(candidates_per_window: u32) -> Self {
        HistoryPortConfig {
            candidates_per_window,
            window_accesses: 64,
        }
    }
}

/// Wraps a prefetcher behind a bandwidth-throttled shared history port.
///
/// The port grants a fixed candidate budget per window of L1-I accesses
/// (counted across all cores); candidates produced beyond the budget are
/// dropped, modelling replay requests a saturated history port cannot
/// serve. Shrinking the budget degrades coverage monotonically — the
/// degradation-under-contention scenario of the `hybrid_shootout`
/// experiment.
#[derive(Debug, Serialize, Deserialize)]
pub struct ThrottledPrefetcher<P> {
    inner: P,
    port: HistoryPortConfig,
    window_accesses_seen: u32,
    window_budget_left: u32,
}

impl<P> ThrottledPrefetcher<P> {
    /// Throttles `inner` behind the given history port.
    ///
    /// # Panics
    ///
    /// Panics if the port window is zero accesses long.
    pub fn new(inner: P, port: HistoryPortConfig) -> Self {
        assert!(port.window_accesses > 0, "port window must be positive");
        ThrottledPrefetcher {
            inner,
            port,
            window_accesses_seen: 0,
            window_budget_left: port.candidates_per_window,
        }
    }

    /// Keeps the candidates past `mark` that the window budget still
    /// allows and drops the rest.
    fn throttle(&mut self, out: &mut Vec<PrefetchCandidate>, mark: usize) {
        let keep = (self.window_budget_left as usize).min(out.len() - mark);
        self.window_budget_left -= keep as u32;
        out.truncate(mark + keep);
    }
}

impl<P: InstructionPrefetcher> InstructionPrefetcher for ThrottledPrefetcher<P> {
    fn on_access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        hit: bool,
        llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        // The window advances on accesses; the budget refills when a new
        // window begins.
        if self.window_accesses_seen >= self.port.window_accesses {
            self.window_accesses_seen = 0;
            self.window_budget_left = self.port.candidates_per_window;
        }
        self.window_accesses_seen += 1;
        let mark = out.len();
        self.inner.on_access(core, block, hit, llc, out);
        self.throttle(out, mark);
    }

    fn on_retire(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        llc: &mut NucaLlc,
        out: &mut Vec<PrefetchCandidate>,
    ) {
        let mark = out.len();
        self.inner.on_retire(core, block, llc, out);
        self.throttle(out, mark);
    }

    fn covers(&self, core: CoreId, block: BlockAddr) -> bool {
        // Prediction quality is a property of the streams, not the port.
        self.inner.covers(core, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::next_line::NextLinePrefetcher;
    use crate::pif::{Pif, PifConfig};
    use crate::prefetcher::NullPrefetcher;
    use shift_cache::LlcConfig;

    fn llc() -> NucaLlc {
        NucaLlc::new(LlcConfig::micro13(4))
    }

    const CORE: CoreId = CoreId::new(0);

    /// Drives the PIF history hot enough that a miss on block 100 replays.
    fn warm_pif(pif: &mut Pif, llc: &mut NucaLlc) {
        let stream: Vec<u64> = vec![100, 101, 102, 240, 241, 500, 100, 101, 102, 240];
        let mut out = Vec::new();
        for _ in 0..2 {
            for &b in &stream {
                pif.on_retire(CORE, BlockAddr::new(b), llc, &mut out);
            }
        }
    }

    #[test]
    fn fallback_suppresses_secondary_when_primary_fires() {
        let mut llc = llc();
        let mut pif = Pif::new(PifConfig::pif_32k(), 1);
        warm_pif(&mut pif, &mut llc);
        let mut standalone = Pif::new(PifConfig::pif_32k(), 1);
        warm_pif(&mut standalone, &mut llc);
        let mut hybrid = FallbackPrefetcher::new(pif, NextLinePrefetcher::new(1, 1));

        // Cold stream head: PIF has a stream for block 100, so the fallback
        // must emit exactly PIF's candidates (no next-line 101 appended by
        // the secondary).
        let mut out = Vec::new();
        hybrid.on_access(CORE, BlockAddr::new(100), false, &mut llc, &mut out);
        let mut alone = Vec::new();
        standalone.on_access(CORE, BlockAddr::new(100), false, &mut llc, &mut alone);
        assert!(!alone.is_empty());
        assert_eq!(out, alone);

        // A block PIF never recorded: the primary is silent, the next-line
        // fallback fires.
        out.clear();
        hybrid.on_access(CORE, BlockAddr::new(9_000), false, &mut llc, &mut out);
        assert_eq!(out, [PrefetchCandidate::immediate(BlockAddr::new(9_001))]);
    }

    #[test]
    fn fallback_covers_the_union_of_both_designs() {
        let mut llc = llc();
        let pif = Pif::new(PifConfig::pif_32k(), 2);
        let mut hybrid = FallbackPrefetcher::new(pif, NextLinePrefetcher::new(1, 2));

        // covers() is the union: after an access, the next-line side covers
        // the successor even though PIF has no streams.
        let mut out = Vec::new();
        hybrid.on_access(
            CoreId::new(1),
            BlockAddr::new(50),
            false,
            &mut llc,
            &mut out,
        );
        assert!(hybrid.covers(CoreId::new(1), BlockAddr::new(51)));
    }

    #[test]
    fn gate_suppresses_until_confidence_recovers() {
        let mut llc = llc();
        let gate = GateConfig {
            threshold: 4,
            max: 7,
            initial: 0,
        };
        let mut gated = ConfidenceGatedPrefetcher::new(NextLinePrefetcher::new(1, 1), gate, 1);
        assert_eq!(gated.confidence(CORE), 0);

        // Sequential misses: each miss is covered by the previous access's
        // next-line window, so confidence climbs 0 → 3 over four misses
        // (the first miss has no prior access and decrements nothing: the
        // counter is already at the floor). Below threshold, every miss's
        // candidates are suppressed.
        let mut out = Vec::new();
        for b in 100..104u64 {
            out.clear();
            gated.on_access(CORE, BlockAddr::new(b), false, &mut llc, &mut out);
            assert!(out.is_empty(), "miss on {b} passed a closed gate");
        }

        // One more sequential miss reaches threshold 4: candidates pass.
        out.clear();
        gated.on_access(CORE, BlockAddr::new(104), false, &mut llc, &mut out);
        assert_eq!(out[0].block, BlockAddr::new(105));

        // A burst of random (uncovered) misses drains confidence and closes
        // the gate again.
        for b in [9_000u64, 20_000, 31_000, 42_000, 53_000] {
            out.clear();
            gated.on_access(CORE, BlockAddr::new(b), false, &mut llc, &mut out);
        }
        assert!(out.is_empty(), "gate must close after uncovered misses");
    }

    #[test]
    fn transparent_gate_has_threshold_zero() {
        assert_eq!(
            GateConfig::transparent().threshold,
            0,
            "transparent gate must have threshold 0"
        );
    }

    #[test]
    #[should_panic(expected = "threshold above saturation")]
    fn gate_threshold_above_max_rejected() {
        let bad = GateConfig {
            threshold: 9,
            max: 7,
            initial: 0,
        };
        let _ = ConfidenceGatedPrefetcher::new(NullPrefetcher::new(), bad, 1);
    }

    #[test]
    fn adaptive_commits_per_core_on_observed_miss_rate() {
        let mut llc = llc();
        let adapt = AdaptConfig {
            warmup_accesses: 8,
            miss_rate_threshold: 0.5,
        };
        let mut adaptive = AdaptivePrefetcher::new(
            NextLinePrefetcher::new(1, 2),
            NextLinePrefetcher::new(4, 2),
            adapt,
            2,
        );
        assert_eq!(adaptive.selection(CORE), Selection::Warming);

        let mut out = Vec::new();
        // Core 0: all hits → low miss rate → commits to the low design
        // (degree 1).
        for b in 0..8u64 {
            out.clear();
            adaptive.on_access(CORE, BlockAddr::new(b), true, &mut llc, &mut out);
        }
        assert_eq!(adaptive.selection(CORE), Selection::Low);
        out.clear();
        adaptive.on_access(CORE, BlockAddr::new(100), true, &mut llc, &mut out);
        assert_eq!(out.len(), 1, "low design has degree 1");

        // Core 1: all misses → commits to the high design (degree 4).
        let core1 = CoreId::new(1);
        for b in 0..8u64 {
            out.clear();
            adaptive.on_access(core1, BlockAddr::new(b), false, &mut llc, &mut out);
        }
        assert_eq!(adaptive.selection(core1), Selection::High);
        out.clear();
        adaptive.on_access(core1, BlockAddr::new(100), false, &mut llc, &mut out);
        assert_eq!(out.len(), 4, "high design has degree 4");
        // Core 0's commitment is unaffected by core 1's.
        assert_eq!(adaptive.selection(CORE), Selection::Low);
    }

    #[test]
    fn throttle_drops_candidates_beyond_the_window_budget() {
        let mut llc = llc();
        let port = HistoryPortConfig {
            candidates_per_window: 2,
            window_accesses: 4,
        };
        let mut throttled = ThrottledPrefetcher::new(NextLinePrefetcher::new(1, 1), port);

        let mut out = Vec::new();
        let mut kept = 0usize;
        for b in 0..4u64 {
            out.clear();
            throttled.on_access(CORE, BlockAddr::new(b * 100), false, &mut llc, &mut out);
            kept += out.len();
        }
        // Four accesses each produced one candidate; the 2-candidate budget
        // kept exactly two.
        assert_eq!(kept, 2);

        // The next window refills the budget.
        out.clear();
        throttled.on_access(CORE, BlockAddr::new(9_000), false, &mut llc, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn wider_port_keeps_weakly_more_candidates() {
        // The monotonicity the degradation scenario relies on, at the unit
        // level: on an identical stream, a wider port never keeps fewer
        // candidates.
        let stream: Vec<u64> = (0..64).map(|i| i * 100).collect();
        let mut issued = Vec::new();
        for bw in [1u32, 2, 4, 8, 16] {
            let mut llc = llc();
            let mut throttled = ThrottledPrefetcher::new(
                NextLinePrefetcher::new(2, 1),
                HistoryPortConfig::per_64_accesses(bw),
            );
            let mut out = Vec::new();
            for &b in &stream {
                throttled.on_access(CORE, BlockAddr::new(b), false, &mut llc, &mut out);
            }
            issued.push(out.len());
        }
        assert!(
            issued.windows(2).all(|w| w[0] <= w[1]),
            "issued candidates must be monotone in bandwidth: {issued:?}"
        );
    }
}
