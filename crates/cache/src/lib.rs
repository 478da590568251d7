//! Cache hierarchy models for the SHIFT reproduction.
//!
//! This crate provides the storage substrates the simulated CMP is built
//! from:
//!
//! * [`SetAssocCache`] — a set-associative LRU cache with per-line user
//!   metadata and optional *pinned* (non-evictable) lines. The L1
//!   instruction and data caches and every LLC bank are instances of it.
//! * [`NucaLlc`] — the shared, banked last-level cache. It supports the two
//!   extensions virtualized SHIFT needs: an index pointer beside each tag
//!   (the paper's embedded index table), held only once one is stored, and a
//!   non-evictable address window that holds the virtualized history buffer.
//! * [`CacheStats`] / [`TrafficStats`] — hit/miss and per-class traffic
//!   accounting used to reproduce the paper's LLC-overhead results (Fig. 9).
//!
//! # Examples
//!
//! ```
//! use shift_cache::{CacheConfig, SetAssocCache};
//! use shift_types::BlockAddr;
//!
//! // The paper's 32 KB, 2-way, 64 B-block L1-I cache.
//! let mut l1i: SetAssocCache<()> = SetAssocCache::new(CacheConfig::l1i_micro13());
//! let block = BlockAddr::new(0x400);
//! assert!(!l1i.access(block).is_hit());
//! l1i.fill(block, ());
//! assert!(l1i.access(block).is_hit());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod config;
pub mod llc;
pub mod set_assoc;
pub mod stats;

pub use config::{CacheConfig, LlcConfig};
pub use llc::{LlcAccessOutcome, NucaLlc};
pub use set_assoc::{AccessResult, EvictedLine, SetAssocCache};
pub use stats::{CacheStats, TrafficStats};
