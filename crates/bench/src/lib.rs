//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `figNN`/`tableN` module produces a typed result that renders to
//! the same rows/series the paper reports. The `experiments` binary
//! exposes them as subcommands:
//!
//! ```text
//! cargo run --release -p fvl-bench --bin experiments -- fig10
//! cargo run --release -p fvl-bench --bin experiments -- all
//! ```
//!
//! Absolute numbers differ from the paper (the workloads are the
//! synthetic SPEC95 analogues described in `DESIGN.md`), but each
//! experiment's *shape* — who wins, by roughly what factor, where the
//! crossovers fall — is the reproduction target, recorded in
//! `EXPERIMENTS.md`.
//!
//! Beyond the human-oriented reports, every simulation cell leaves a
//! machine-readable record in the [`engine`]'s metrics log; the
//! [`metrics`] module exports it as a versioned JSON/CSV document via
//! `experiments --metrics <path>` (deterministic across `--jobs`
//! counts; see that module's docs for the schema).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod corpus;
pub mod data;
pub mod engine;
pub mod experiments;
pub mod metrics;
pub mod remote;
pub mod sim;
pub mod store;
pub mod table;

pub use data::{EngineCore, ExperimentContext, WorkloadData};
pub use engine::Engine;
pub use sim::{SimResult, SimSpec};
pub use store::{TraceKey, TraceStore};
pub use table::Table;
