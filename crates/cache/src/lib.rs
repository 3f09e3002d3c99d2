//! Conventional trace-driven cache simulator substrate.
//!
//! This crate reimplements the (unnamed) write-back cache simulator the
//! ASPLOS 2000 FVC paper ran its evaluation on:
//!
//! * [`CacheGeometry`] — size / line size / associativity arithmetic.
//! * [`DataCache`] — a set-associative cache that stores real line
//!   *data* (the frequent value cache needs values, not just tags) in
//!   flat per-line arrays, filling misses in place.
//! * [`replacement`] — the replacement-policy zoo ([`ReplacementKind`]:
//!   true LRU, seeded random, SHiP-lite RRIP, value-pinned LRU).
//! * [`MainMemory`] — backing store with word-level traffic accounting.
//! * [`VictimCache`] — Jouppi's fully-associative swap-on-hit buffer
//!   (the Figure 15 baseline).
//! * [`MissClassifier`] — compulsory / capacity / conflict attribution
//!   (the Figure 14 discussion).
//! * [`CacheSim`] — an [`fvl_mem::AccessSink`] driving one conventional
//!   write-back, write-allocate cache; the paper's baseline DMC when
//!   associativity is 1.
//!
//! # Example
//!
//! ```
//! use fvl_cache::{CacheGeometry, CacheSim};
//! use fvl_mem::{Access, AccessSink};
//!
//! let geom = CacheGeometry::new(16 * 1024, 32, 1)?; // the paper's 16KB DMC
//! let mut sim = CacheSim::new(geom);
//! sim.on_access(Access::store(0x1000, 7));
//! sim.on_access(Access::load(0x1000, 7));
//! assert_eq!(sim.stats().hits(), 1);
//! assert_eq!(sim.stats().misses(), 1);
//! # Ok::<(), fvl_cache::GeometryError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod backing;
mod classify;
mod data_cache;
mod geometry;
pub mod replacement;
mod sim;
mod simulator;
mod stats;
mod victim;

pub use backing::MainMemory;
pub use classify::{MissClass, MissClassifier};
pub use data_cache::{DataCache, EvictedLine, LineRef, Victim};
pub use geometry::{CacheGeometry, GeometryError};
pub use replacement::{Replacement, ReplacementKind, ReplacementPolicy};
pub use sim::{CacheSim, WritePolicy};
pub use simulator::Simulator;
pub use stats::CacheStats;
pub use victim::VictimCache;
