//! SHIFT and baseline instruction prefetchers — the paper's contribution.
//!
//! This crate implements the complete prefetcher family the paper evaluates:
//!
//! * [`NextLinePrefetcher`] — the ubiquitous sequential prefetcher, the
//!   paper's low-cost baseline (≈35 % miss coverage).
//! * [`Pif`] — Proactive Instruction Fetch \[Ferdman et al., MICRO-44\], the
//!   state-of-the-art per-core stream prefetcher SHIFT is compared against.
//!   Both the paper's design points are expressible: `PIF_32K` (32 K-record
//!   history + 8 K-entry index per core) and the equal-storage `PIF_2K`.
//! * [`Shift`] — the paper's proposal: a *single shared* instruction history
//!   written by one history-generator core and replayed by every core running
//!   the workload, with three variants: a dedicated-storage baseline (§4.1),
//!   an idealized zero-latency variant, and the virtualized design (§4.2)
//!   that embeds the history buffer in LLC data blocks and the index table in
//!   LLC tags.
//! * [`hybrid`] — composed designs beyond the paper: fallback pairs,
//!   confidence gating, per-core adaptive selection, and a
//!   bandwidth-throttled history port, all generic wrappers over the designs
//!   above.
//!
//! Every design is exactly the three simulation hooks of
//! [`InstructionPrefetcher`] — `on_access`, `on_retire` and `covers` — plus
//! the state they need. A configured design is named and costed in one
//! place, `shift_sim::PrefetcherConfig` (`label` and `storage`), from
//! [`PifConfig::storage`] and [`ShiftConfig::storage`]. The types keep no
//! counters of their own: a run's history and index traffic is counted by
//! the LLC's traffic classes.
//!
//! The shared building blocks mirror the hardware structures of the paper:
//! [`SpatialRegion`] records (trigger block + bit vector over eight blocks),
//! the [`SpatialRegionCompactor`] that folds the retire-order access stream
//! into records, the circular [`HistoryBuffer`], the [`IndexTable`], and the
//! per-core [`StreamAddressBufferSet`] that replays streams and issues
//! prefetch requests.
//!
//! # Example: recording and replaying a stream
//!
//! ```
//! use shift_core::{Pif, PifConfig, InstructionPrefetcher};
//! use shift_cache::{LlcConfig, NucaLlc};
//! use shift_types::{BlockAddr, CoreId};
//!
//! let mut llc = NucaLlc::new(LlcConfig::micro13(1));
//! let mut pif = Pif::new(PifConfig::pif_32k(), 1);
//! let core = CoreId::new(0);
//! let stream: Vec<u64> = vec![100, 101, 102, 240, 241, 500, 100, 101, 102, 240];
//!
//! // First pass: record.
//! let mut out = Vec::new();
//! for &b in &stream {
//!     pif.on_retire(core, BlockAddr::new(b), &mut llc, &mut out);
//! }
//! // Second pass: a miss on the stream head triggers replay.
//! out.clear();
//! pif.on_access(core, BlockAddr::new(100), false, &mut llc, &mut out);
//! assert!(!out.is_empty(), "replay should produce prefetch candidates");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod history;
pub mod hybrid;
pub mod index;
pub mod next_line;
pub mod pif;
pub mod prefetcher;
pub mod region;
pub mod sab;
pub mod shift;
pub mod storage;

pub use history::HistoryBuffer;
pub use hybrid::{
    AdaptConfig, AdaptivePrefetcher, ConfidenceGatedPrefetcher, FallbackPrefetcher, GateConfig,
    HistoryPortConfig, Selection, ThrottledPrefetcher,
};
pub use index::IndexTable;
pub use next_line::NextLinePrefetcher;
pub use pif::{Pif, PifConfig};
pub use prefetcher::{InstructionPrefetcher, NullPrefetcher, PrefetchCandidate};
pub use region::{SpatialRegion, SpatialRegionCompactor};
pub use sab::{StreamAddressBuffer, StreamAddressBufferSet};
pub use shift::{Shift, ShiftConfig, ShiftMode};
pub use storage::StorageCost;
