//! Synthetic server-workload trace generation for the SHIFT reproduction.
//!
//! The original paper evaluates SHIFT with Flexus/Simics full-system traces of
//! commercial server stacks (TPC-C on DB2 and Oracle, TPC-H, SPECweb99, Darwin
//! streaming, Nutch web search). Those software stacks and traces are not
//! available here, so this crate provides the closest synthetic equivalent:
//! a parameterized generator that reproduces the *statistical structure* the
//! prefetchers in the paper rely on:
//!
//! * **Multi-megabyte instruction working sets** — a workload's code layout
//!   consists of hundreds to thousands of functions, each several cache blocks
//!   long, laid out in a dedicated region of the physical address space.
//! * **Recurring temporal streams** — work arrives as *requests*; each request
//!   type has a fixed call path through the code layout, so the instruction
//!   block sequence of a request recurs every time that request type is served.
//! * **Small control-flow variation** — individual fragments of a function can
//!   be skipped probabilistically (data-dependent branches), and operating
//!   system handlers are injected at a configurable rate, fragmenting streams
//!   exactly as §6.1 of the paper describes.
//! * **Cross-core commonality** — all cores of a workload share the same code
//!   layout and request types but draw independent request interleavings, so
//!   their access streams are highly similar but not identical (Figure 3).
//! * **Data references** — a simple hot/cold data model produces L1-D misses
//!   and the baseline LLC data traffic against which Figure 9 normalizes.
//!
//! # Quick start
//!
//! ```
//! use shift_trace::{presets, CoreTraceGenerator, TraceEvent};
//! use shift_types::CoreId;
//!
//! let spec = presets::web_frontend().scaled_footprint(0.05);
//! let mut generator = CoreTraceGenerator::new(&spec, CoreId::new(0), 42);
//! let code = generator.program().layout().code_region();
//! let os = generator.program().layout().os_region();
//! let mut fetches = 0usize;
//! for event in generator.by_ref().take(10_000) {
//!     if let TraceEvent::Fetch(f) = event {
//!         assert!(code.contains(f.block) || os.contains(f.block));
//!         fetches += 1;
//!     }
//! }
//! assert!(fetches > 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod consolidation;
pub mod event;
pub mod generator;
pub mod layout;
pub mod presets;
pub mod request;
pub mod stats;
pub mod workload;

pub use consolidation::{ConsolidationSpec, CoreAssignment};
pub use event::{DataEvent, FetchEvent, TraceEvent};
pub use generator::CoreTraceGenerator;
pub use layout::{AddressRegion, CodeLayout, Fragment, Function};
pub use request::{CallStep, RequestType};
pub use stats::TraceStats;
pub use workload::{Scale, WorkloadSpec};
