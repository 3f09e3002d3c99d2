//! # fvl — Frequent Value Locality and the Frequent Value Cache
//!
//! A from-scratch Rust reproduction of *Frequent Value Locality and
//! Value-Centric Data Cache Design* (Zhang, Yang, Gupta; ASPLOS 2000):
//! the frequent-value locality study, the compressed value-centric
//! frequent value cache (FVC), and every substrate the paper's
//! evaluation rests on — a traced simulated memory, synthetic SPEC95-like
//! workloads, a conventional cache simulator, a victim cache, and a
//! CACTI-style timing model.
//!
//! This facade crate re-exports the workspace members, each mapped to
//! the part of the paper it reproduces:
//!
//! * [`mem`] — simulated 32-bit memory, tracing bus, allocators (the
//!   paper's instrumented-execution substrate, Section 2.1).
//! * [`workloads`] — SPEC95-like benchmark programs (the paper's
//!   benchmark suite, Table 1 / Section 2).
//! * [`cache`] — conventional set-associative/victim cache simulator
//!   (the paper's baseline DMC and Figure 15's victim cache).
//! * [`core`] — the FVC and the DMC+FVC hybrid controller (Section 3,
//!   the paper's contribution).
//! * [`profile`] — the Section 2 locality analyses (Figures 1–5,
//!   Tables 2–4).
//! * [`timing`] — the Figure 9 access-time model (CACTI-style).
//! * [`runner`] — the worker pool that shards (workload × config)
//!   simulation cells for the evaluation sweeps (infrastructure; no
//!   paper counterpart).
//! * [`obs`] — the JSON and CSV writers behind the
//!   `experiments --metrics` export (infrastructure).
//!
//! The experiment harness regenerating every figure and table lives in
//! the separate `fvl-bench` crate (binary: `experiments`); see
//! `EXPERIMENTS.md` for the full reproduction matrix.
//!
//! # Quickstart
//!
//! Profile a workload, build an FVC from its top-7 values, and compare
//! miss rates against the plain cache:
//!
//! ```
//! use fvl::cache::{CacheGeometry, CacheSim, Simulator};
//! use fvl::core::{FrequentValueSet, HybridCache, HybridConfig};
//! use fvl::mem::{TraceBuffer, TracedMemory};
//! use fvl::profile::ValueCounter;
//! use fvl::workloads::{InputSize, LiLike, Workload};
//!
//! // 1. Run the workload once, recording its trace.
//! let mut buf = TraceBuffer::new();
//! {
//!     let mut mem = TracedMemory::new(&mut buf);
//!     LiLike::new(InputSize::Test, 1).run(&mut mem);
//!     mem.finish();
//! }
//! let trace = buf.into_trace();
//!
//! // 2. Profile the frequently accessed values.
//! let mut counter = ValueCounter::new();
//! trace.replay(&mut counter);
//! let values = FrequentValueSet::from_ranking(&counter.ranking(), 7)?;
//!
//! // 3. Simulate DMC vs DMC+FVC on the same trace.
//! let geom = CacheGeometry::new(16 * 1024, 32, 1)?;
//! let mut dmc = CacheSim::new(geom);
//! trace.replay(&mut dmc);
//! let mut hybrid = HybridCache::new(HybridConfig::new(geom, 512, values));
//! trace.replay(&mut hybrid);
//! assert!(hybrid.stats().miss_rate() <= dmc.stats().miss_rate());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use fvl_cache as cache;
pub use fvl_core as core;
pub use fvl_mem as mem;
pub use fvl_obs as obs;
pub use fvl_profile as profile;
pub use fvl_runner as runner;
pub use fvl_timing as timing;
pub use fvl_workloads as workloads;
