//! Frequent value locality analyses — Section 2 of the paper.
//!
//! Every analysis is an [`fvl_mem::AccessSink`], so it can run live
//! against a [`fvl_mem::TracedMemory`] or over a recorded
//! [`fvl_mem::Trace`]:
//!
//! * [`ValueCounter`] — frequently *accessed* values (Figure 1 right,
//!   Table 1 "accessed" columns).
//! * [`OccurrenceSampler`] — frequently *occurring* values from periodic
//!   live-memory snapshots (Figure 1 left, Table 1 "occurring" columns).
//! * [`TimelineRecorder`] — per-snapshot coverage curves (Figure 3).
//! * [`StabilityAnalyzer`] — when the top-k ranking stops changing
//!   (Table 3).
//! * [`ConstancyAnalyzer`] — referenced addresses whose contents never
//!   change (Table 4).
//! * [`SpatialAnalyzer`] — frequent values per 8-word line across
//!   800-word blocks of referenced memory (Figure 5).
//! * [`MissAttribution`] — the share of cache misses involving the top
//!   frequent values (Figure 4).
//! * [`ReuseProfiler`] — the full miss-rate-vs-cache-size curve in one
//!   streaming pass, from one exact LRU stack binned by log2 depth.
//! * [`overlap_top`] — ranking overlap across program inputs (Table 2).
//!
//! # Example
//!
//! ```
//! use fvl_mem::{Access, AccessSink};
//! use fvl_profile::ValueCounter;
//!
//! let mut counter = ValueCounter::new();
//! for v in [0, 0, 0, 7, 7, 3] {
//!     counter.on_access(Access::load(0x100, v));
//! }
//! assert_eq!(counter.ranking()[0], 0);
//! assert!((counter.coverage(1) - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod attribution;
mod constancy;
mod counter;
mod hash;
mod occurrence;
mod ranking;
mod reuse;
mod sensitivity;
mod spatial;
mod stability;
mod timeline;

pub use attribution::MissAttribution;
pub use constancy::ConstancyAnalyzer;
pub use counter::ValueCounter;
pub use occurrence::OccurrenceSampler;
pub use ranking::{rank_by_count, top_by_count};
pub use reuse::{CurvePoint, MissCurve, ReuseProfiler, DEFAULT_LINE_BYTES, TOWER_LEVELS};
pub use sensitivity::{overlap_report, overlap_top, OverlapReport};
pub use spatial::{SpatialAnalyzer, SpatialProfile};
pub use stability::{StabilityAnalyzer, StabilityReport};
pub use timeline::{TimelinePoint, TimelineRecorder};
