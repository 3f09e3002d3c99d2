//! Per-capture simulation memo.
//!
//! The paper's method is to record each program once and replay the
//! trace into many caches. Several runners ask for the same cache on
//! the same capture — Figure 13 re-runs cells of Figure 12's grid, and
//! `verify` re-runs Figures 10–15 — so every [`WorkloadData`] keeps a
//! memo from a [`SimSpec`] (the knobs the runners vary) to the final
//! [`SimResult`] they read. [`WorkloadData::simulate`] is the lookup.
//!
//! The memo lives on the capture, so it has the capture's key and
//! lifetime: the [`crate::TraceStore`] already shares one capture per
//! `(name, input, seed, max_refs)`, and each distinct spec replays once
//! per capture — within a CLI run, and across daemon sessions that
//! share the store. Concurrent requests for one spec block on one
//! execution through the same once-map the store uses.
//!
//! Each execution is one monomorphized replay of the trace into a
//! fresh `CacheSim` or `HybridCache` with its load-value check on, so a
//! served result is the output of a checked run. Only the two kinds of
//! cache the runners repeat are memoized; online, compressed and victim
//! caches, the ablation variants, classified replays and ext6's
//! cross-check stay direct replays.
//!
//! A direct-mapped cache has one way to evict, so its replacement
//! policy cannot change a result; 1-way specs of every policy share the
//! LRU spec's entry.
//!
//! Memoizing changes nothing a run reports: cells charge the
//! references they stand for whether their results were replayed or
//! served. The memo's own counts ([`MemoStats`]) appear only in the
//! timing-gated `trace_store` block of the metrics export and on the
//! `experiments` binary's stderr.
//!
//! # Example
//!
//! ```
//! use fvl_bench::sim::SimSpec;
//! use fvl_bench::ExperimentContext;
//! use fvl_cache::CacheGeometry;
//!
//! let data = ExperimentContext::smoke().capture("li");
//! let dmc = CacheGeometry::new(16 * 1024, 32, 1)?;
//! let first = data.simulate(SimSpec::hybrid(dmc, 512, 7));
//! let again = data.simulate(SimSpec::hybrid(dmc, 512, 7));
//! assert_eq!(first, again);
//! let memo = data.memo_stats();
//! assert_eq!((memo.distinct, memo.executed, memo.served), (1, 1, 1));
//! # Ok::<(), fvl_cache::GeometryError>(())
//! ```

use crate::data::WorkloadData;
use fvl_cache::{CacheGeometry, CacheSim, CacheStats, ReplacementKind, Simulator};
use fvl_core::{FrequentValueSet, HybridCache, HybridConfig, HybridStats};
use std::iter::Sum;

/// One cache the runners simulate on a capture: the memo's key.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum SimSpec {
    /// A conventional write-back, write-allocate cache (`CacheSim`).
    Dmc {
        /// Size, line size and associativity.
        geometry: CacheGeometry,
        /// Replacement policy.
        replacement: ReplacementKind,
    },
    /// The paper's DMC+FVC hybrid with its default policies, the FVC
    /// coding the capture's top-`top_k` accessed values.
    Hybrid {
        /// The DMC's size, line size and associativity.
        geometry: CacheGeometry,
        /// The DMC's replacement policy.
        dmc_replacement: ReplacementKind,
        /// FVC entries (lines).
        fvc_entries: u32,
        /// How many of the most frequently accessed values the FVC codes.
        top_k: usize,
    },
}

impl SimSpec {
    /// A true-LRU conventional cache.
    pub fn dmc(geometry: CacheGeometry) -> Self {
        SimSpec::Dmc {
            geometry,
            replacement: ReplacementKind::Lru,
        }
    }

    /// A hybrid on a true-LRU DMC.
    pub fn hybrid(geometry: CacheGeometry, fvc_entries: u32, top_k: usize) -> Self {
        SimSpec::Hybrid {
            geometry,
            dmc_replacement: ReplacementKind::Lru,
            fvc_entries,
            top_k,
        }
    }

    /// The memo key of this spec. A direct-mapped cache has one way to
    /// evict, so every replacement policy yields the LRU result: a
    /// 1-way spec of any policy shares the LRU spec's entry.
    fn canonical(self) -> Self {
        match self {
            SimSpec::Dmc { geometry, .. } if geometry.associativity() == 1 => {
                SimSpec::dmc(geometry)
            }
            SimSpec::Hybrid {
                geometry,
                fvc_entries,
                top_k,
                ..
            } if geometry.associativity() == 1 => SimSpec::hybrid(geometry, fvc_entries, top_k),
            spec => spec,
        }
    }

    /// Replays `data`'s trace into a fresh simulator of this spec.
    ///
    /// # Panics
    ///
    /// Panics if a load reads a value the program did not store (the
    /// simulators' load-value check), or if a hybrid is asked of a
    /// capture with no accessed values.
    fn run(self, data: &WorkloadData) -> SimResult {
        match self {
            SimSpec::Dmc {
                geometry,
                replacement,
            } => {
                let mut sim = CacheSim::new(geometry).with_replacement(replacement);
                data.trace.replay_into(&mut sim);
                SimResult {
                    stats: *sim.stats(),
                    hybrid: None,
                    traffic_words: sim.traffic_words(),
                    fvc_data_bytes: 0.0,
                }
            }
            SimSpec::Hybrid {
                geometry,
                dmc_replacement,
                fvc_entries,
                top_k,
            } => {
                let values = FrequentValueSet::from_ranking(&data.counter.ranking(), top_k)
                    .expect("profiled workloads have at least one value");
                let mut sim = HybridCache::new(
                    HybridConfig::new(geometry, fvc_entries, values)
                        .dmc_replacement(dmc_replacement),
                );
                data.trace.replay_into(&mut sim);
                let hybrid = sim.hybrid_stats().clone();
                SimResult {
                    stats: hybrid.overall,
                    hybrid: Some(hybrid),
                    traffic_words: sim.traffic_words(),
                    fvc_data_bytes: sim.fvc_data_bytes(),
                }
            }
        }
    }
}

/// What a finished simulation leaves for the runners.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Hit, miss, fetch and write-back counts (a hybrid's combined
    /// counts).
    pub stats: CacheStats,
    /// The hybrid's breakdown; `None` for a [`SimSpec::Dmc`].
    pub hybrid: Option<HybridStats>,
    /// Words moved to and from memory, write-backs included.
    pub traffic_words: u64,
    /// Size of the FVC's encoded data array in bytes; 0 for a DMC.
    pub fvc_data_bytes: f64,
}

impl SimResult {
    /// The hybrid's breakdown counters.
    ///
    /// # Panics
    ///
    /// Panics if the result came from a [`SimSpec::Dmc`].
    pub fn hybrid_stats(&self) -> &HybridStats {
        self.hybrid
            .as_ref()
            .expect("only a hybrid spec has hybrid stats")
    }
}

/// Request counts of one capture's simulation memo, or their sum over
/// several captures ([`crate::TraceStore::sim_totals`]).
#[derive(Copy, Clone, Default, Eq, PartialEq, Debug)]
pub struct MemoStats {
    /// Distinct specs requested.
    pub distinct: u64,
    /// Requests that replayed the trace (one per distinct spec).
    pub executed: u64,
    /// Requests served from the memo.
    pub served: u64,
    /// Accesses replayed by the executed requests.
    pub executed_accesses: u64,
    /// Accesses the served requests stand for.
    pub served_accesses: u64,
}

impl Sum for MemoStats {
    fn sum<I: Iterator<Item = MemoStats>>(iter: I) -> MemoStats {
        iter.fold(MemoStats::default(), |a, b| MemoStats {
            distinct: a.distinct + b.distinct,
            executed: a.executed + b.executed,
            served: a.served + b.served,
            executed_accesses: a.executed_accesses + b.executed_accesses,
            served_accesses: a.served_accesses + b.served_accesses,
        })
    }
}

impl WorkloadData {
    /// The result of simulating `spec` on this capture, replaying the
    /// trace only on the first request for the spec (see the
    /// [module docs](self)). Direct-mapped specs of every replacement
    /// policy share one entry.
    pub fn simulate(&self, spec: SimSpec) -> SimResult {
        let spec = spec.canonical();
        self.sims.get_or_init(spec, || spec.run(self))
    }

    /// Request counts of this capture's simulation memo.
    pub fn memo_stats(&self) -> MemoStats {
        let accesses = self.trace.accesses();
        self.sims
            .entries()
            .into_iter()
            .map(|entry| MemoStats {
                distinct: 1,
                executed: entry.misses,
                served: entry.hits,
                executed_accesses: entry.misses * accesses,
                served_accesses: entry.hits * accesses,
            })
            .sum()
    }
}
