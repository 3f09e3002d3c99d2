//! FVC instrumentation, compiled only under the `metrics` feature.
//!
//! Global hot-path counters for the paper's contribution: how often the
//! value-centric structures are exercised (FVC probes, line
//! encode/decode operations, hybrid-controller dispatches). They
//! aggregate across every cache instance in the process and feed the
//! `hotpath` block of the experiment metrics export; per-instance miss
//! accounting stays in [`crate::HybridStats`]. Totals are sums of
//! relaxed atomic increments, so their final values are identical for
//! any worker interleaving.

use fvl_obs::{Counter, Sample};

/// Probes of an [`crate::Fvc`] (direct-mapped or set-associative).
pub static FVC_LOOKUPS: Counter = Counter::new();

/// Full lines encoded into codes: each DMC victim the hybrid encodes
/// for its FVC, and each [`crate::FvcLine::encode`].
pub static LINES_ENCODED: Counter = Counter::new();

/// Encoded lines merged back into word data: each line the hybrid
/// moves from its FVC to its DMC, and each
/// [`crate::FvcLine::merge_into`].
pub static LINES_DECODED: Counter = Counter::new();

/// Accesses dispatched through the DMC+FVC hybrid controller.
pub static HYBRID_DISPATCHES: Counter = Counter::new();

/// Accesses dispatched through the DMC+victim-cache controller (the
/// Figure 15 baseline).
pub static VICTIM_HYBRID_DISPATCHES: Counter = Counter::new();

/// Reads every FVC instrument.
pub fn snapshot() -> Vec<Sample> {
    vec![
        Sample::new("core_fvc_lookups", FVC_LOOKUPS.get()),
        Sample::new("core_lines_encoded", LINES_ENCODED.get()),
        Sample::new("core_lines_decoded", LINES_DECODED.get()),
        Sample::new("core_hybrid_dispatches", HYBRID_DISPATCHES.get()),
        Sample::new(
            "core_victim_hybrid_dispatches",
            VICTIM_HYBRID_DISPATCHES.get(),
        ),
    ]
}

/// Zeroes every FVC instrument (between experiment batches).
pub fn reset() {
    FVC_LOOKUPS.reset();
    LINES_ENCODED.reset();
    LINES_DECODED.reset();
    HYBRID_DISPATCHES.reset();
    VICTIM_HYBRID_DISPATCHES.reset();
}
