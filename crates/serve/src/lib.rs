//! `fvl-serve`: a streaming simulation service over the FVL engine.
//!
//! The ROADMAP's production framing made concrete: a long-running,
//! zero-dependency daemon that multiplexes client sessions onto the
//! repo's existing machinery — the experiment registry, the serial
//! per-session [`Engine`], and the capture-once [`TraceStore`] that
//! deduplicates workload captures *across tenants* (two sessions
//! asking for the same `(workload, input, seed, refs)` cell share one
//! execution).
//!
//! The crate divides along the service's three concerns:
//!
//! * [`daemon`] — listener (TCP or Unix socket), shared state,
//!   graceful drain, the `fvl-serve` binary's engine room.
//! * `session` (private) — the per-connection state machine:
//!   hello/welcome handshake, jobs, trace uploads, ad-hoc cache
//!   simulations, metrics export.
//! * [`admission`] — who gets in ([`ErrorCode::Busy`]) and how much
//!   work each tenant may buy ([`ErrorCode::OverBudget`]).
//! * [`fault`] — deterministic response-frame fault injection
//!   (`FVL_SERVE_FAULT`), the daemon-side half of the client
//!   retry/timeout tests.
//!
//! The wire format itself — frame grammar, hostile-length discipline,
//! typed error codes — lives in [`fvl_mem::frame`], next to the trace
//! readers whose validation style it follows. The client side lives in
//! `fvl_bench::remote`, so the `experiments`/`corpus` binaries can
//! speak the protocol without this crate in their dependency graph.
//!
//! # Quick start
//!
//! ```no_run
//! use fvl_serve::{Daemon, ServeConfig};
//!
//! let handle = Daemon::builder("127.0.0.1:0")
//!     .config(ServeConfig::default())
//!     .spawn()
//!     .unwrap();
//! println!("serving on {}", handle.local_addr());
//! handle.shutdown(); // graceful drain
//! ```
//!
//! [`Engine`]: fvl_bench::Engine
//! [`TraceStore`]: fvl_bench::TraceStore
//! [`ErrorCode::Busy`]: fvl_mem::frame::ErrorCode::Busy
//! [`ErrorCode::OverBudget`]: fvl_mem::frame::ErrorCode::OverBudget

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod admission;
pub mod daemon;
pub mod fault;
mod session;

pub use admission::{Admission, Refusal, SessionPermit};
pub use daemon::{Daemon, DaemonBuilder, DaemonHandle, ServeConfig};
pub use fault::{FaultClause, FaultKind, FaultPlan};
