//! The parallel experiment engine.
//!
//! Every figure/table/extension experiment decomposes into independent
//! *cells* — one (workload, cache-configuration) simulation each. The
//! engine shards a batch of cells across a scoped worker pool
//! ([`fvl_runner::Pool`]) and merges the results back **in submission
//! order**, so everything downstream (aggregation, table formatting)
//! sees exactly the sequence a serial run would have produced and the
//! rendered output is bit-identical for any `--jobs` count.
//!
//! Cells report how many trace references they charge — the ones they
//! replayed, or the ones a memoized simulation result stands for (see
//! [`crate::sim`]); the engine accumulates aggregate throughput
//! ([`Throughput`]: cells/sec and references charged/sec) across every
//! batch it schedules, which the `experiments` binary prints at the end
//! of a run.
//!
//! Nesting is safe by construction: when the `experiments` binary runs
//! several experiments concurrently, each experiment's own cell
//! batches draw from the same worker-token budget and degrade to
//! inline execution once the budget is saturated (see `fvl-runner`).
//!
//! # Example
//!
//! ```
//! use fvl_bench::engine::{Completed, Engine};
//!
//! let engine = Engine::new(4);
//! let squares = engine.cells((0u64..10).collect(), |n| Completed::new(n * n, 1));
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
//! assert_eq!(engine.throughput().cells, 10);
//! ```

mod job;
mod record;
mod stats;

pub use job::{CellId, Completed, FnJob, Job};
pub use record::{CellRecord, ClassStats};
pub use stats::Throughput;

use fvl_runner::Pool;
use stats::Counters;
use std::sync::Mutex;
use std::time::Instant;

/// Schedules simulation cells across a worker pool, deterministically.
#[derive(Debug)]
pub struct Engine {
    pool: Pool,
    counters: Counters,
    records: Mutex<Vec<CellRecord>>,
    started: Instant,
}

impl Engine {
    /// An engine running at most `jobs` cells concurrently.
    pub fn new(jobs: usize) -> Self {
        Engine {
            pool: Pool::new(jobs),
            counters: Counters::default(),
            records: Mutex::new(Vec::new()),
            started: Instant::now(),
        }
    }

    /// A single-threaded engine: cells run inline, in order.
    pub fn serial() -> Self {
        Engine::new(1)
    }

    /// An engine sized to the machine.
    pub fn auto() -> Self {
        Engine {
            pool: Pool::auto(),
            counters: Counters::default(),
            records: Mutex::new(Vec::new()),
            started: Instant::now(),
        }
    }

    /// The configured concurrency ceiling.
    pub fn jobs(&self) -> usize {
        self.pool.jobs()
    }

    /// Whether this engine runs everything inline.
    pub fn is_serial(&self) -> bool {
        self.jobs() == 1
    }

    /// Runs a batch of [`Job`]s, returning their outputs in submission
    /// order. Every job leaves a [`CellRecord`] (identified by
    /// [`Job::id`]) in the engine's metrics log.
    pub fn run_jobs<J: Job>(&self, jobs: Vec<J>) -> Vec<J::Output> {
        let done = self.pool.map(jobs, |job| {
            let id = job.id();
            let begun = Instant::now();
            let done = job.run();
            let wall = begun.elapsed();
            self.counters.record(done.references);
            let record = CellRecord {
                id,
                references: done.references,
                wall_nanos: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
                classes: done.classes,
            };
            (done.output, Some(record))
        });
        self.merge(done)
    }

    /// Runs one closure-shaped cell per item, returning outputs in
    /// input order. The closure reports each cell's replayed reference
    /// count via [`Completed`]; cells labeled with [`Completed::at`]
    /// additionally leave a [`CellRecord`] in the metrics log.
    pub fn cells<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> Completed<R> + Sync,
    {
        let done = self.pool.map(items, |item| {
            let begun = Instant::now();
            let done = f(item);
            let wall = begun.elapsed();
            self.counters.record(done.references);
            let record = done.cell.map(|id| CellRecord {
                id,
                references: done.references,
                wall_nanos: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
                classes: done.classes,
            });
            (done.output, record)
        });
        self.merge(done)
    }

    /// Appends a completed batch's records to the log **in submission
    /// order** (the pool already returned results in input order, so
    /// the log — unlike the workers' actual interleaving — is
    /// deterministic) and unwraps the outputs.
    fn merge<R>(&self, done: Vec<(R, Option<CellRecord>)>) -> Vec<R> {
        let mut log = self.records.lock().expect("record log lock");
        done.into_iter()
            .map(|(output, record)| {
                if let Some(record) = record {
                    log.push(record);
                }
                output
            })
            .collect()
    }

    /// Aggregate throughput since the engine was created.
    pub fn throughput(&self) -> Throughput {
        self.counters.snapshot(self.started.elapsed())
    }

    /// A copy of the per-cell metrics log, in deterministic batch
    /// submission order.
    pub fn cell_records(&self) -> Vec<CellRecord> {
        self.records.lock().expect("record log lock").clone()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SquareJob(u64);

    impl Job for SquareJob {
        type Output = u64;

        fn id(&self) -> CellId {
            CellId::new("test", "none", format!("square {}", self.0))
        }

        fn run(self) -> Completed<u64> {
            Completed::new(self.0 * self.0, 10)
        }
    }

    #[test]
    fn jobs_run_in_submission_order_with_accounting() {
        let engine = Engine::new(4);
        let jobs: Vec<SquareJob> = (0..33).map(SquareJob).collect();
        assert_eq!(jobs[3].id().to_string(), "test/none/square 3");
        let out = engine.run_jobs(jobs);
        assert_eq!(out, (0..33u64).map(|v| v * v).collect::<Vec<_>>());
        let t = engine.throughput();
        assert_eq!(t.cells, 33);
        assert_eq!(t.references, 330);
    }

    #[test]
    fn serial_and_parallel_cells_agree() {
        let work = |v: u64| Completed::new(v.wrapping_mul(0x9e37_79b9).rotate_left(7), v);
        let items: Vec<u64> = (0..100).collect();
        let serial = Engine::serial().cells(items.clone(), work);
        let parallel = Engine::new(8).cells(items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn fn_jobs_adapt_closures() {
        let engine = Engine::new(2);
        let jobs: Vec<_> = (0..5u32)
            .map(|i| {
                FnJob::new(CellId::new("test", "w", i.to_string()), move || {
                    Completed::new(i + 1, 1)
                })
            })
            .collect();
        assert_eq!(engine.run_jobs(jobs), vec![1, 2, 3, 4, 5]);
    }
}
