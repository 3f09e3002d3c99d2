//! The unit of schedulable work: one simulation cell.

use super::record::ClassStats;
use fvl_cache::CacheStats;

/// Identifies one cell for diagnostics: which experiment enqueued it,
/// which workload it replays, and which configuration it simulates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellId {
    /// Paper artifact that owns the cell (e.g. `"fig10"`).
    pub experiment: &'static str,
    /// Workload the cell replays (e.g. `"m88ksim"`), if any.
    pub workload: String,
    /// Free-form configuration label (e.g. `"512 entries, top-7"`).
    pub config: String,
}

impl CellId {
    /// Builds a cell id.
    pub fn new(
        experiment: &'static str,
        workload: impl Into<String>,
        config: impl Into<String>,
    ) -> Self {
        CellId {
            experiment,
            workload: workload.into(),
            config: config.into(),
        }
    }
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.experiment, self.workload, self.config)
    }
}

/// A completed cell: its output plus the number of trace references
/// the cell charges (for the engine's aggregate throughput counters)
/// and, optionally, a label and per-cache-class counters for the
/// engine's per-cell metrics log.
///
/// ```
/// use fvl_bench::engine::{CellId, Completed};
///
/// let done = Completed::new(42u32, 1000)
///     .at(CellId::new("fig10", "go", "512 entries"))
///     .class("dmc", 900, 100);
/// assert_eq!(done.output, 42);
/// assert_eq!(done.classes[0].misses, 100);
/// ```
#[derive(Clone, Debug)]
pub struct Completed<R> {
    /// The cell's result.
    pub output: R,
    /// References the cell stands for: the ones it replayed, or the
    /// ones a memoized simulation result it read stands for.
    pub references: u64,
    /// Cell identity for the engine's metrics log. Cells produced by a
    /// [`Job`] are identified by [`Job::id`] instead; anonymous
    /// closure cells without a label are counted in the aggregate
    /// throughput but leave no per-cell record.
    pub cell: Option<CellId>,
    /// Per-cache-class hit/miss counters measured inside the cell.
    pub classes: Vec<ClassStats>,
}

impl<R> Completed<R> {
    /// A completed cell that charges `references` trace references.
    pub fn new(output: R, references: u64) -> Self {
        Completed {
            output,
            references,
            cell: None,
            classes: Vec::new(),
        }
    }

    /// Labels the cell so the engine logs a per-cell metrics record.
    pub fn at(mut self, id: CellId) -> Self {
        self.cell = Some(id);
        self
    }

    /// Attaches raw hit/miss counters for one cache class.
    pub fn class(mut self, class: &'static str, hits: u64, misses: u64) -> Self {
        self.classes.push(ClassStats::new(class, hits, misses));
        self
    }

    /// Attaches a simulator's [`CacheStats`] as one cache class.
    pub fn class_stats(mut self, class: &'static str, stats: &CacheStats) -> Self {
        self.classes.push(ClassStats::from_stats(class, stats));
        self
    }
}

/// One (workload, cache-config) simulation cell, schedulable by the
/// engine. Implementations are consumed by [`run`](Job::run); the
/// engine guarantees each job runs exactly once and its output lands
/// at the job's submission index, so a batch's results are in
/// canonical order regardless of worker interleaving.
pub trait Job: Send {
    /// The cell's result type.
    type Output: Send;

    /// Identifies the cell (used in diagnostics).
    fn id(&self) -> CellId;

    /// Executes the cell.
    fn run(self) -> Completed<Self::Output>;
}

/// A [`Job`] built from a closure, used by the engine's `map`-style
/// conveniences.
pub struct FnJob<F> {
    id: CellId,
    f: F,
}

impl<F> FnJob<F> {
    /// Wraps `f` as a job.
    pub fn new<R>(id: CellId, f: F) -> Self
    where
        F: FnOnce() -> Completed<R> + Send,
        R: Send,
    {
        FnJob { id, f }
    }
}

impl<R: Send, F: FnOnce() -> Completed<R> + Send> Job for FnJob<F> {
    type Output = R;

    fn id(&self) -> CellId {
        self.id.clone()
    }

    fn run(self) -> Completed<R> {
        (self.f)()
    }
}
