//! Fundamental types shared by every crate of the SHIFT reproduction.
//!
//! The paper (Kaynak et al., MICRO-46 2013) models a 16-core server CMP with
//! 64-byte cache blocks and a 40-bit physical address space. The types in
//! this crate give those quantities distinct, misuse-resistant representations:
//!
//! * [`Addr`] — a byte-granularity physical address.
//! * [`BlockAddr`] — a cache-block-granularity address (an [`Addr`] shifted
//!   right by [`BLOCK_SHIFT`]). Instruction prefetchers in this repository
//!   operate exclusively on block addresses, exactly as the hardware proposals
//!   do.
//! * [`CoreId`] / [`WorkloadId`] — identifiers for cores and consolidated
//!   workloads.
//!
//! # Examples
//!
//! ```
//! use shift_types::{Addr, BlockAddr, BLOCK_BYTES};
//!
//! let pc = Addr::new(0x4_0000_1040);
//! let block = pc.block();
//! assert_eq!(block.base_addr().get(), 0x4_0000_1040 & !(BLOCK_BYTES as u64 - 1));
//! assert_eq!(block.next(), BlockAddr::new(block.get() + 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod access;
pub mod addr;
pub mod ids;

pub use access::{AccessClass, AccessKind};
pub use addr::{Addr, BlockAddr, BLOCK_BYTES, BLOCK_SHIFT, PHYS_ADDR_BITS};
pub use ids::{CoreId, WorkloadId};
