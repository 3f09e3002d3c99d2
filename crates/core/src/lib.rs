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
//! * [`FrequentValueSet`] — the ≤127 frequent values and their encoding
//!   (a line of 8 words × 3 bits = 24 bits, the paper's Figure 7).
//! * [`Fvc`] — the value-centric cache structure itself, one code per
//!   word in a flat arena.
//! * [`HybridCache`] — the DMC+FVC controller with the paper's exact
//!   transfer policy (Section 3).
//! * [`VictimHybrid`] — a DMC+victim-cache controller on two
//!   `DataCache`s, the Figure 15 baseline.
//! * [`CompressedCache`] — frames holding one line or two compressed
//!   ones, in flat arrays (the paper's reference \[11\], ext2).
//!
//! Every cache model keeps its resident lines in one store and fills,
//! swaps and flushes them in place: no miss, swap or flush allocates.
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

mod compressed;
mod config;
mod fvc;
mod hybrid;
mod hybrid_stats;
mod online;
mod value_set;
mod victim_hybrid;

pub use compressed::CompressedCache;
pub use config::HybridConfig;
pub use fvc::Fvc;
pub use hybrid::HybridCache;
pub use hybrid_stats::HybridStats;
pub use online::{OnlineHybrid, ValueSketch, ALWAYS_RESIDENT};
pub use value_set::{FrequentValueSet, ValueSetError};
pub use victim_hybrid::VictimHybrid;
