//! One module per table/figure of the paper.

pub mod ext1;
pub mod ext2;
pub mod ext3;
pub mod ext4;
pub mod ext5;
pub mod ext6;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod verify;

use crate::data::{ExperimentContext, WorkloadData};
use crate::engine::{CellId, ClassStats, Completed};
use crate::sim::{SimResult, SimSpec};
use crate::table::Table;
use fvl_cache::{CacheGeometry, CacheStats};
use std::fmt;
use std::sync::Arc;

/// The quick context every experiment unit test in this test binary
/// shares, so each test-input capture and simulation runs once, through
/// the store's latches and memo, however many tests request it. A test
/// that inspects engine records or store counters builds its own.
#[cfg(test)]
pub(crate) fn quick_context() -> &'static ExperimentContext {
    static QUICK: std::sync::OnceLock<ExperimentContext> = std::sync::OnceLock::new();
    QUICK.get_or_init(ExperimentContext::quick)
}

/// A rendered experiment: identification, result tables, and notes.
#[derive(Debug)]
pub struct Report {
    /// Paper artifact id, e.g. `"Figure 10"`.
    pub id: &'static str,
    /// What the experiment measures.
    pub title: String,
    /// Captioned result tables.
    pub tables: Vec<(String, Table)>,
    /// Observations/caveats recorded with the results.
    pub notes: Vec<String>,
    /// Whether a check in this experiment failed: a cross-check
    /// between two independent computations disagreed (ext6: the
    /// one-pass tower against `CacheSim`), or a headline claim failed
    /// on uncapped captures (`verify`; smoke-capped captures are exempt,
    /// since several claims fail there by construction). Not rendered;
    /// the `experiments` binary exits nonzero after printing every
    /// report when any has it set.
    pub cross_check_failed: bool,
}

impl Report {
    fn new(id: &'static str, title: impl Into<String>) -> Self {
        Report {
            id,
            title: title.into(),
            tables: Vec::new(),
            notes: Vec::new(),
            cross_check_failed: false,
        }
    }

    fn table(&mut self, caption: impl Into<String>, table: Table) -> &mut Self {
        self.tables.push((caption.into(), table));
        self
    }

    fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {} — {}", self.id, self.title)?;
        for (caption, table) in &self.tables {
            writeln!(f, "\n**{caption}**\n")?;
            write!(f, "{table}")?;
        }
        if !self.notes.is_empty() {
            writeln!(f)?;
            for note in &self.notes {
                writeln!(f, "- {note}")?;
            }
        }
        Ok(())
    }
}

/// An experiment entry point.
pub type Runner = fn(&ExperimentContext) -> Report;

/// All experiments in paper order, as `(cli-name, runner)` pairs.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("fig1", fig01::run as Runner),
        ("fig2", fig02::run),
        ("fig3", fig03::run),
        ("fig4", fig04::run),
        ("fig5", fig05::run),
        ("table1", table1::run),
        ("table2", table2::run),
        ("table3", table3::run),
        ("table4", table4::run),
        ("fig9", fig09::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
        ("fig14", fig14::run),
        ("fig15", fig15::run),
        ("ext1", ext1::run),
        ("ext2", ext2::run),
        ("ext3", ext3::run),
        ("ext4", ext4::run),
        ("ext5", ext5::run),
        ("ext6", ext6::run),
        ("verify", verify::run),
    ]
}

// ---- shared simulation helpers -------------------------------------------

pub(crate) fn geom(kb: u64, line_bytes: u32, assoc: u32) -> CacheGeometry {
    CacheGeometry::new(kb * 1024, line_bytes, assoc)
        .expect("experiment geometries are valid by construction")
}

/// The true-LRU conventional cache `geometry` on the capture, from its
/// simulation memo.
pub(crate) fn baseline(data: &WorkloadData, geometry: CacheGeometry) -> CacheStats {
    data.simulate(SimSpec::dmc(geometry)).stats
}

/// The DMC+FVC hybrid on the capture's top-`k` frequently accessed
/// values, from its simulation memo.
pub(crate) fn hybrid(
    data: &WorkloadData,
    geometry: CacheGeometry,
    fvc_entries: u32,
    top_k: usize,
) -> SimResult {
    data.simulate(SimSpec::hybrid(geometry, fvc_entries, top_k))
}

/// Percentage reduction of `new` vs `base` miss rates.
pub(crate) fn reduction(base: &CacheStats, new: &CacheStats) -> f64 {
    new.miss_reduction_vs(base)
}

/// Runs one engine cell per captured workload, borrowing the shared
/// data slice. `replays` is how many full trace passes each cell
/// stands for, replayed or served from the simulation memo (for the
/// engine's reference-throughput accounting).
/// Results come back in `datas` order; each cell leaves a
/// `(experiment, workload, config)` record in the engine's metrics log.
pub(crate) fn per_workload<R, F>(
    ctx: &ExperimentContext,
    experiment: &'static str,
    config: &'static str,
    datas: &[Arc<WorkloadData>],
    replays: u64,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&WorkloadData) -> R + Sync,
{
    per_workload_stats(ctx, experiment, config, datas, replays, |data| {
        (f(data), Vec::new())
    })
}

/// Like [`per_workload`], but the closure also reports per-cache-class
/// hit/miss counters which land in the cell's metrics record.
pub(crate) fn per_workload_stats<R, F>(
    ctx: &ExperimentContext,
    experiment: &'static str,
    config: &'static str,
    datas: &[Arc<WorkloadData>],
    replays: u64,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&WorkloadData) -> (R, Vec<ClassStats>) + Sync,
{
    ctx.cells((0..datas.len()).collect(), |i| {
        let data = datas[i].as_ref();
        let (output, classes) = f(data);
        let mut done = Completed::new(output, replays * data.trace.accesses()).at(CellId::new(
            experiment,
            data.name.clone(),
            config,
        ));
        done.classes = classes;
        done
    })
}
