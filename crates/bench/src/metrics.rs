//! Machine-readable metrics export for the experiment engine.
//!
//! The `experiments` binary prints human-oriented tables on stdout;
//! this module is the *other* output path: a stable, versioned JSON
//! document (plus a CSV flattening for spreadsheets) built from the
//! engine's per-cell record log — miss rates per (workload,
//! configuration) cell, per-experiment aggregates, and the engine's
//! aggregate throughput. CI writes it as the `BENCH_fvl.json` artifact
//! so every PR leaves a perf trajectory behind.
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "generator": "fvl-experiments",
//!   "run": { "input": "test", "seed": 1, "smoke": true },
//!   "experiments": [
//!     { "experiment": "fig10", "cells": 48, "references": 48000,
//!       "records": [
//!         { "workload": "go", "config": "512 entries", "references": 1000,
//!           "classes": [
//!             { "class": "dmc", "hits": 990, "misses": 10, "miss_rate": 0.01 }
//!           ] } ] } ],
//!   "engine": { "cells": 48, "references": 48000 }
//! }
//! ```
//!
//! Two invariants the schema guarantees:
//!
//! * **Determinism by default.** Everything above is a pure function of
//!   the simulated work, so the file is byte-identical across
//!   `--serial` and `--jobs N`, which CI diffs. Fields that legitimately
//!   differ between such runs (`wall_ns` per record; `jobs`,
//!   `elapsed_ns`, `cells_per_sec`, `refs_per_sec` in the `engine`
//!   block; the `trace_store` block
//!   with per-key capture hit/miss counts and simulation-memo counts)
//!   appear only when timing is requested (`--metrics-timing`).
//! * **Versioning.** Any field removal or meaning change bumps
//!   [`SCHEMA_VERSION`]; additions keep it.
//!
//! # Example
//!
//! ```
//! use fvl_bench::engine::{CellId, Completed, Engine};
//! use fvl_bench::metrics::{self, RunInfo};
//!
//! let engine = Engine::serial();
//! engine.cells(vec![0u32], |_| {
//!     Completed::new((), 100)
//!         .at(CellId::new("fig10", "go", "512 entries"))
//!         .class("dmc", 90, 10)
//! });
//! let run = RunInfo::new("test", 1, true);
//! let json = metrics::json_report(&engine, &run, false).render();
//! assert!(json.contains("\"schema_version\":1"));
//! assert!(json.contains("\"miss_rate\":0.1"));
//! ```

use crate::engine::{CellRecord, Engine};
use crate::sim::MemoStats;
use crate::store::{ProfileStats, TraceStore};
use fvl_obs::{csv_row, Json};

/// Version of the exported JSON schema. Bumped on any breaking change
/// to field names or meanings; pure additions keep it.
pub const SCHEMA_VERSION: u64 = 1;

/// Identifies one run of the `experiments` binary in the export.
#[derive(Clone, Debug)]
pub struct RunInfo {
    /// Input size label (`"test"`, `"train"`, `"reference"`).
    pub input: String,
    /// Base deterministic seed.
    pub seed: u64,
    /// Whether traces were truncated to the smoke budget.
    pub smoke: bool,
}

impl RunInfo {
    /// Builds run metadata for the export header.
    pub fn new(input: impl Into<String>, seed: u64, smoke: bool) -> Self {
        RunInfo {
            input: input.into(),
            seed,
            smoke,
        }
    }
}

/// Builds the versioned JSON document from the engine's record log.
///
/// With `timing == false` (the default for `--metrics`) the document
/// contains only deterministic fields; with `timing == true` it adds
/// wall-clock and scheduling data (see the module docs).
pub fn json_report(engine: &Engine, run: &RunInfo, timing: bool) -> Json {
    json_report_full(engine, run, None, timing)
}

/// Like [`json_report`], additionally describing the run's
/// [`TraceStore`] when one is supplied.
///
/// The `trace_store` block (distinct keys, per-key capture
/// hits/misses, resident footprint, simulation-memo counts) is emitted
/// only in timing mode: it describes the caches of captures and
/// results rather than the simulated work, and a daemon's store,
/// shared across sessions, counts differently from a local run's.
pub fn json_report_full(
    engine: &Engine,
    run: &RunInfo,
    store: Option<&TraceStore>,
    timing: bool,
) -> Json {
    json_report_with_extra(engine, run, store, timing, None)
}

/// Like [`json_report_full`], with one caller-supplied named block
/// (used by the `corpus` binary for residency-budget accounting).
///
/// The extra block is appended only in timing mode, for the same
/// reason the trace-store block is: residency peaks and wait counts
/// are scheduling-dependent, and the plain `--metrics` export must
/// stay byte-identical across worker counts and replay modes.
pub fn json_report_with_extra(
    engine: &Engine,
    run: &RunInfo,
    store: Option<&TraceStore>,
    timing: bool,
    extra: Option<(&'static str, Json)>,
) -> Json {
    let records = engine.cell_records();
    let mut doc = vec![
        ("schema_version".to_string(), Json::U64(SCHEMA_VERSION)),
        ("generator".to_string(), Json::from("fvl-experiments")),
        (
            "run".to_string(),
            Json::object([
                ("input", Json::Str(run.input.clone())),
                ("seed", Json::U64(run.seed)),
                ("smoke", Json::Bool(run.smoke)),
            ]),
        ),
        (
            "experiments".to_string(),
            Json::Array(group_by_experiment(&records, timing)),
        ),
        ("engine".to_string(), engine_block(engine, timing)),
    ];
    if timing {
        if let Some(store) = store {
            doc.push(("trace_store".to_string(), trace_store_block(store)));
        }
        if let Some((name, block)) = extra {
            doc.push((name.to_string(), block));
        }
    }
    Json::Object(doc)
}

/// Capture-cache statistics: distinct key count, per-key hit/miss
/// counters of the trace latch with the executions the key's budget
/// ended (`stopped`; keys sorted, so the block itself is
/// deterministic for a fixed run configuration), the resident footprint
/// of the cached traces — events, bytes and bytes/event — the
/// simulation-memo counts (`sims`), in total and per capture, and the
/// profile latch's counts (`profiles`).
///
/// `enabled`, `repr` and `simd` are constants (the store always
/// memoizes, captures have one layout and replay has one kernel), kept
/// so schema v1 keeps its keys; `repr` reads `"none"` until the store
/// holds a capture.
fn trace_store_block(store: &TraceStore) -> Json {
    let stats = store.stats();
    let sims = stats.iter().map(|s| s.sims).sum();
    let events = store.resident_events();
    let bytes = store.resident_trace_bytes();
    Json::object([
        ("enabled", Json::Bool(true)),
        ("distinct_keys", Json::U64(stats.len() as u64)),
        ("hits", Json::U64(stats.iter().map(|s| s.hits).sum())),
        ("misses", Json::U64(stats.iter().map(|s| s.misses).sum())),
        (
            "repr",
            Json::from(if store.cached().next().is_some() {
                "packed"
            } else {
                "none"
            }),
        ),
        ("simd", Json::from("scalar")),
        ("resident_events", Json::U64(events)),
        ("resident_bytes", Json::U64(bytes)),
        (
            "bytes_per_event",
            Json::F64(if events == 0 {
                0.0
            } else {
                bytes as f64 / events as f64
            }),
        ),
        ("sims", memo_block(sims)),
        (
            "keys",
            Json::Array(
                stats
                    .iter()
                    .map(|s| {
                        Json::object([
                            ("key", Json::Str(s.key.to_string())),
                            ("hits", Json::U64(s.hits)),
                            ("misses", Json::U64(s.misses)),
                            ("stopped", Json::U64(s.stopped)),
                            ("sims", memo_block(s.sims)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("profiles", profiles_block(&store.profile_stats())),
    ])
}

/// The profile latch's counts: every key with latched profiles, with
/// the profile requests each served (`hits`) or ran (`misses`) and the
/// runs its budget ended (`stopped`).
fn profiles_block(stats: &[ProfileStats]) -> Json {
    Json::object([
        ("distinct_keys", Json::U64(stats.len() as u64)),
        ("hits", Json::U64(stats.iter().map(|s| s.hits).sum())),
        ("misses", Json::U64(stats.iter().map(|s| s.misses).sum())),
        (
            "keys",
            Json::Array(
                stats
                    .iter()
                    .map(|s| {
                        Json::object([
                            ("key", Json::Str(s.key.to_string())),
                            ("hits", Json::U64(s.hits)),
                            ("misses", Json::U64(s.misses)),
                            ("stopped", Json::U64(s.stopped)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A simulation memo's request counts.
fn memo_block(sims: MemoStats) -> Json {
    Json::object([
        ("distinct", Json::U64(sims.distinct)),
        ("executed", Json::U64(sims.executed)),
        ("served", Json::U64(sims.served)),
        ("executed_accesses", Json::U64(sims.executed_accesses)),
        ("served_accesses", Json::U64(sims.served_accesses)),
    ])
}

/// Flattens the record log to CSV: one row per (cell, cache class),
/// plus a classless row for cells that reported no cache statistics.
/// Header: `experiment,workload,config,class,hits,misses,miss_rate,references`.
pub fn csv_report(engine: &Engine) -> String {
    let mut out =
        String::from("experiment,workload,config,class,hits,misses,miss_rate,references\n");
    for record in engine.cell_records() {
        let base = [
            record.id.experiment.to_string(),
            record.id.workload.clone(),
            record.id.config.clone(),
        ];
        if record.classes.is_empty() {
            let mut row = base.to_vec();
            row.extend([
                "".into(),
                "".into(),
                "".into(),
                record.references.to_string(),
            ]);
            out.push_str(&csv_row(&row));
            out.push('\n');
            continue;
        }
        for class in &record.classes {
            let mut row = base.to_vec();
            row.extend([
                class.class.to_string(),
                class.hits.to_string(),
                class.misses.to_string(),
                format!("{}", class.miss_rate()),
                record.references.to_string(),
            ]);
            out.push_str(&csv_row(&row));
            out.push('\n');
        }
    }
    out
}

/// Groups records by experiment, preserving first-appearance order (the
/// order experiments ran), and aggregates cells/references per group.
fn group_by_experiment(records: &[CellRecord], timing: bool) -> Vec<Json> {
    let mut order: Vec<&'static str> = Vec::new();
    for r in records {
        if !order.contains(&r.id.experiment) {
            order.push(r.id.experiment);
        }
    }
    order
        .into_iter()
        .map(|experiment| {
            let group: Vec<&CellRecord> = records
                .iter()
                .filter(|r| r.id.experiment == experiment)
                .collect();
            let references: u64 = group.iter().map(|r| r.references).sum();
            Json::object([
                ("experiment", Json::from(experiment)),
                ("cells", Json::U64(group.len() as u64)),
                ("references", Json::U64(references)),
                (
                    "records",
                    Json::Array(group.iter().map(|r| record_json(r, timing)).collect()),
                ),
            ])
        })
        .collect()
}

fn record_json(record: &CellRecord, timing: bool) -> Json {
    let mut fields = vec![
        (
            "workload".to_string(),
            Json::Str(record.id.workload.clone()),
        ),
        ("config".to_string(), Json::Str(record.id.config.clone())),
        ("references".to_string(), Json::U64(record.references)),
        (
            "classes".to_string(),
            Json::Array(
                record
                    .classes
                    .iter()
                    .map(|c| {
                        Json::object([
                            ("class", Json::from(c.class)),
                            ("hits", Json::U64(c.hits)),
                            ("misses", Json::U64(c.misses)),
                            ("miss_rate", Json::F64(c.miss_rate())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if timing {
        fields.push(("wall_ns".to_string(), Json::U64(record.wall_nanos)));
    }
    Json::Object(fields)
}

fn engine_block(engine: &Engine, timing: bool) -> Json {
    let throughput = engine.throughput();
    let mut fields = vec![
        ("cells".to_string(), Json::U64(throughput.cells)),
        ("references".to_string(), Json::U64(throughput.references)),
    ];
    if timing {
        fields.push(("jobs".to_string(), Json::U64(engine.jobs() as u64)));
        fields.push((
            "elapsed_ns".to_string(),
            Json::U64(u64::try_from(throughput.elapsed.as_nanos()).unwrap_or(u64::MAX)),
        ));
        fields.push((
            "cells_per_sec".to_string(),
            Json::F64(throughput.cells_per_sec()),
        ));
        fields.push((
            "refs_per_sec".to_string(),
            Json::F64(throughput.refs_per_sec()),
        ));
    }
    Json::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CellId, Completed};

    fn engine_with_two_cells() -> Engine {
        let engine = Engine::serial();
        engine.cells(vec![0u32, 1], |i| {
            Completed::new((), 500)
                .at(CellId::new("fig10", format!("w{i}"), "512 entries"))
                .class("dmc", 400, 100)
                .class("dmc+fvc", 450, 50)
        });
        engine
    }

    #[test]
    fn json_groups_and_aggregates() {
        let engine = engine_with_two_cells();
        let run = RunInfo::new("test", 1, true);
        let json = json_report(&engine, &run, false).render();
        assert!(json.contains("\"schema_version\":1"));
        assert!(json.contains("\"experiment\":\"fig10\""));
        assert!(json.contains("\"cells\":2"));
        assert!(json.contains("\"references\":1000"));
        assert!(json.contains("\"miss_rate\":0.2"));
        assert!(json.contains("\"miss_rate\":0.1"));
        // Deterministic exports carry no wall-clock fields.
        assert!(!json.contains("wall_ns"));
        assert!(!json.contains("elapsed_ns"));
        assert!(!json.contains("jobs"));
    }

    #[test]
    fn timing_mode_adds_wall_clock_fields() {
        let engine = engine_with_two_cells();
        let run = RunInfo::new("test", 1, true);
        let json = json_report(&engine, &run, true).render();
        assert!(json.contains("wall_ns"));
        assert!(json.contains("\"jobs\":1"));
        assert!(json.contains("cells_per_sec"));
    }

    #[test]
    fn trace_store_block_appears_only_in_timing_mode() {
        let engine = engine_with_two_cells();
        let run = RunInfo::new("test", 1, true);
        let store = TraceStore::new();
        let plain = json_report_full(&engine, &run, Some(&store), false).render();
        assert!(
            !plain.contains("trace_store"),
            "deterministic export must not carry cache counters"
        );
        let timed = json_report_full(&engine, &run, Some(&store), true).render();
        assert!(timed.contains("\"trace_store\":{\"enabled\":true,\"distinct_keys\":0"));
        assert!(timed.contains("\"repr\":\"none\""));
        assert!(timed.contains("\"simd\":\"scalar\""));
        let key = crate::TraceKey::new("li", fvl_workloads::InputSize::Test, 1, Some(100));
        store.get_or_capture(key, || {
            let li = fvl_workloads::by_name("li", fvl_workloads::InputSize::Test, 1)
                .expect("li is a workload");
            crate::WorkloadData::capture_limited(li, Some(100))
        });
        let timed = json_report_full(&engine, &run, Some(&store), true).render();
        assert!(timed.contains("\"repr\":\"packed\""));
        // li runs longer than 100 accesses, so the budget stopped its
        // one execution.
        assert!(timed.contains(
            "{\"key\":\"li/test/seed1/cap100\",\"hits\":0,\"misses\":1,\"stopped\":1,\"sims\""
        ));
        // The capture filled its key's profile latch without a profile
        // request.
        assert!(timed.contains("\"profiles\":{\"distinct_keys\":1,\"hits\":0,\"misses\":0"));
        assert!(timed.contains(
            "\"keys\":[{\"key\":\"li/test/seed1/cap100\",\"hits\":0,\"misses\":0,\"stopped\":0}]"
        ));
    }

    #[test]
    fn csv_flattens_one_row_per_class() {
        let engine = engine_with_two_cells();
        let csv = csv_report(&engine);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "experiment,workload,config,class,hits,misses,miss_rate,references"
        );
        assert_eq!(lines.len(), 1 + 4, "2 cells x 2 classes");
        assert_eq!(lines[1], "fig10,w0,512 entries,dmc,400,100,0.2,500");
    }

    #[test]
    fn classless_records_still_appear_in_csv() {
        let engine = Engine::serial();
        engine.cells(vec![()], |_| {
            Completed::new((), 10).at(CellId::new("fig1", "go", "capture"))
        });
        let csv = csv_report(&engine);
        assert!(csv.lines().any(|l| l == "fig1,go,capture,,,,10"));
    }
}
