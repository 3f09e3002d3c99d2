//! Differential conformance harness for the FVL simulation stack.
//!
//! Four PRs of aggressive optimization (devirtualized replay, packed
//! SoA traces, branchless encode, lock-free sweeps) left the repo with
//! one blind spot: every CI check diffs our *own* fast paths against
//! each other, so a bug shared by both representations passes silently.
//! This crate closes the loop with independent machinery:
//!
//! * **Reference oracles** ([`OracleCache`], [`LinearScanEncoder`],
//!   [`scalar_replay`], [`OracleReuse`], [`OracleHybrid`]) —
//!   deliberately naive, obviously-correct reimplementations of the
//!   cache simulator, the frequent-value encoder, the trace replayer,
//!   the reuse-distance profiler, and the DMC+FVC hybrid. Written for
//!   readability, not speed, and sharing no code with the optimized
//!   paths.
//! * A **deterministic trace generator** ([`generate`], [`corpus`]) —
//!   seeded, wall-clock-free, producing adversarial access patterns:
//!   DMC index aliasing, values at the frequent/non-frequent boundary,
//!   alloc/free storms that stress `RegionEvent` hoisting, and traces
//!   sized exactly at `with_access_limit` budgets.
//! * A **greedy shrinker** ([`shrink`]) that minimizes any failing
//!   trace before it is reported, keeping load values consistent while
//!   deleting events.
//! * **Differential runners** ([`diff`]) replaying every generated
//!   trace through oracle-vs-optimized pairs — `Trace` vs `PackedTrace`
//!   replay, array vs linear-scan encode, `OnlineHybrid` vs an
//!   offline-profiled hybrid, `HybridCache` vs the decoded-word
//!   `OracleHybrid`, a parallel sweep on the engine's pool vs a serial
//!   oracle sweep, the mapped v2.2 reader vs resident replay, the
//!   bucketed `ReuseProfiler` stack vs a `Vec` stack —
//!   asserting stat-for-stat equality.
//!
//! The `conformance` binary runs the fixed-seed corpus and writes a
//! shrunk repro trace to `target/conformance/repro.fvltrc` on failure;
//! with `--serve` it instead runs the serve corpus ([`run_serve_corpus`]),
//! diffing the `fvl-serve` wire path — frame-codec byte round-trips and
//! loopback daemon sessions — against in-process execution.
//! `tests/mutation_smoke.rs` (behind the `mutation` feature) proves the
//! net has teeth by catching seven deliberately seeded simulator bugs.
//!
//! # Example
//!
//! ```
//! use fvl_check::{corpus, diff, Pattern};
//!
//! let trace = fvl_check::generate(7, Pattern::DmcAliasing, 200);
//! # #[cfg(not(feature = "mutation"))] // under `mutation` the optimized paths are seeded with bugs
//! assert!(diff::check_trace(&trace).is_empty(), "optimized == oracle");
//! assert_eq!(corpus(4, 100).len(), 4);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod diff;
mod gen;
mod oracle_cache;
mod oracle_encode;
mod oracle_hybrid;
mod oracle_replay;
mod oracle_reuse;
mod rng;
mod runner;
mod shrink;

pub use gen::{corpus, generate, Pattern};
pub use oracle_cache::{OracleCache, OraclePolicy, OracleReplacement, OracleStats};
pub use oracle_encode::LinearScanEncoder;
pub use oracle_hybrid::{OracleHybrid, OracleHybridOptions, OracleHybridStats};
pub use oracle_replay::{scalar_replay, DigestSink};
pub use oracle_reuse::OracleReuse;
pub use rng::SplitMix64;
pub use runner::{
    run_boundary_corpus, run_corpus, run_policy_corpus, run_serve_corpus, CaseFailure,
    CorpusReport, BOUNDARY_ACCESS_COUNTS, DEFAULT_CASES, DEFAULT_TRACE_ACCESSES, POLICY_GEOMETRIES,
    SERVE_CASES,
};
pub use shrink::{normalize_events, shrink};
