//! Metrics export primitives for the FVL experiment stack.
//!
//! The paper's deliverables (Figures 1–15, Tables 1–4) are *numbers* —
//! miss rates, access times, traffic counts — yet a simulator that only
//! prints human-oriented tables gives later sessions nothing machine
//! readable to compare against. This crate holds the writers the
//! metrics export is built from:
//!
//! * [`Json`] — a minimal, deterministic JSON document model (objects
//!   preserve insertion order; no floating-point formatting surprises),
//!   so exported metrics are byte-identical run to run.
//! * [`csv_row`] / [`csv_field`] — RFC 4180-style CSV escaping for the
//!   spreadsheet export path.
//!
//! Everything here is dependency free and `std`-only, matching the
//! workspace's offline build constraint.
//!
//! # Example
//!
//! ```
//! use fvl_obs::{csv_row, Json};
//!
//! let doc = Json::object([("workload", Json::from("li")), ("misses", Json::U64(3))]);
//! assert_eq!(doc.render(), r#"{"workload":"li","misses":3}"#);
//! assert_eq!(csv_row(&["li", "dm-8k", "3"]), "li,dm-8k,3");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod csv;
mod json;

pub use csv::{csv_field, csv_row};
pub use json::Json;
