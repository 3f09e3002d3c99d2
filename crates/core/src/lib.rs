//! The Frequent Value Cache (FVC) — the primary contribution of
//! *Frequent Value Locality and Value-Centric Data Cache Design*
//! (Zhang, Yang, Gupta; ASPLOS 2000).
//!
//! A conventional direct-mapped cache (DMC) is augmented with a small
//! *value-centric* cache that retains, for recently evicted lines, only
//! the words holding one of a handful of *frequent values* — stored not
//! as 32-bit words but as 1/2/3-bit codes. Because roughly half of all
//! accesses in value-local programs involve those few values, the FVC
//! turns a disproportionate share of would-be misses back into hits at a
//! fraction of the SRAM cost.
//!
//! * [`FrequentValueSet`] — the ≤127 frequent values and their encoding.
//! * [`CodeArray`] — a bit-packed per-word code vector (a compressed
//!   line: 8 words × 3 bits = 24 bits, the paper's Figure 7).
//! * [`Fvc`] — the value-centric cache structure itself.
//! * [`HybridCache`] — the DMC+FVC controller with the paper's exact
//!   transfer policy (Section 3).
//! * [`VictimHybrid`] — a DMC+victim-cache controller, the Figure 15
//!   baseline.
//!
//! # Example
//!
//! ```
//! use fvl_cache::{CacheGeometry, Simulator};
//! use fvl_core::{FrequentValueSet, HybridCache, HybridConfig};
//! use fvl_mem::{Access, AccessSink};
//!
//! let values = FrequentValueSet::new(vec![0, u32::MAX, 1])?;
//! let config = HybridConfig::new(CacheGeometry::new(16 * 1024, 32, 1)?, 512, values);
//! let mut hybrid = HybridCache::new(config);
//! hybrid.on_access(Access::store(0x1000, 0)); // a frequent value
//! hybrid.on_finish();
//! assert_eq!(hybrid.stats().accesses(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod code_array;
mod compressed;
mod config;
mod fvc;
mod hybrid;
mod hybrid_stats;
mod online;
mod value_set;
mod victim_hybrid;

pub use code_array::CodeArray;
pub use compressed::CompressedCache;
pub use config::HybridConfig;
pub use fvc::{Fvc, FvcLine};
pub use hybrid::HybridCache;
pub use hybrid_stats::HybridStats;
pub use online::{OnlineHybrid, ValueSketch, ALWAYS_RESIDENT};
pub use value_set::{FrequentValueSet, ValueSetError};
pub use victim_hybrid::VictimHybrid;
