//! Metrics and instrumentation primitives for the FVL experiment stack.
//!
//! The paper's deliverables (Figures 1–15, Tables 1–4) are *numbers* —
//! miss rates, access times, traffic counts — yet a simulator that only
//! prints human-oriented tables gives later sessions nothing machine
//! readable to compare against. This crate is the observability
//! substrate the rest of the workspace builds on:
//!
//! * [`Counter`] — a monotonic `u64` event counter ([`AtomicU64`]
//!   relaxed increments; `const`-constructible so it can back `static`
//!   hot-path probes).
//! * [`Gauge`] — a last-value / high-watermark gauge.
//! * [`Timer`] — accumulated wall-clock nanoseconds with a scoped
//!   [`TimerGuard`].
//! * [`Json`] — a minimal, deterministic JSON document model (objects
//!   preserve insertion order; no floating-point formatting surprises),
//!   so exported metrics are byte-identical run to run.
//! * [`csv_row`] / [`csv_field`] — RFC 4180-style CSV escaping for the
//!   spreadsheet export path.
//!
//! Everything here is dependency free and `std`-only, matching the
//! workspace's offline build constraint. Hot-path probes in the
//! simulation crates (`fvl-cache`, `fvl-core`, `fvl-runner`) compile
//! only under their `metrics` cargo feature, so the default (tier-1)
//! build pays nothing; this crate itself is tiny and always available
//! to the experiment harness for report generation.
//!
//! [`AtomicU64`]: std::sync::atomic::AtomicU64
//!
//! # Example
//!
//! ```
//! use fvl_obs::{Counter, Json, Timer};
//!
//! static LOOKUPS: Counter = Counter::new();
//!
//! let timer = Timer::new();
//! {
//!     let _guard = timer.start();
//!     for _ in 0..3 {
//!         LOOKUPS.incr();
//!     }
//! }
//! assert_eq!(LOOKUPS.get(), 3);
//!
//! let doc = Json::object([
//!     ("lookups", Json::U64(LOOKUPS.get())),
//!     ("timed", Json::Bool(timer.nanos() > 0)),
//! ]);
//! assert_eq!(doc.render(), r#"{"lookups":3,"timed":true}"#);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod csv;
mod instruments;
mod json;

pub use csv::{csv_field, csv_row};
pub use instruments::{Counter, Gauge, Timer, TimerGuard};
pub use json::Json;

/// A named instrument reading, as returned by the per-crate
/// `metrics::snapshot()` functions of the instrumented simulation
/// crates.
///
/// ```
/// use fvl_obs::Sample;
///
/// let s = Sample::new("fvc_lookups", 42);
/// assert_eq!(s.name, "fvc_lookups");
/// assert_eq!(s.value, 42);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Instrument name, `snake_case`, unique within its crate.
    pub name: &'static str,
    /// The reading at snapshot time.
    pub value: u64,
}

impl Sample {
    /// Builds a named reading.
    pub const fn new(name: &'static str, value: u64) -> Self {
        Sample { name, value }
    }
}
