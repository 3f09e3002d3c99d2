//! Aggregate throughput accounting across every scheduled cell.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Monotonic counters shared by all workers of an engine.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    cells: AtomicU64,
    references: AtomicU64,
}

impl Counters {
    pub(crate) fn record(&self, references: u64) {
        self.cells.fetch_add(1, Ordering::Relaxed);
        self.references.fetch_add(references, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, elapsed: Duration) -> Throughput {
        Throughput {
            cells: self.cells.load(Ordering::Relaxed),
            references: self.references.load(Ordering::Relaxed),
            elapsed,
        }
    }
}

/// A point-in-time view of an engine's aggregate throughput.
#[derive(Copy, Clone, Debug)]
pub struct Throughput {
    /// Simulation cells completed.
    pub cells: u64,
    /// Trace references charged across all cells: the references each
    /// cell stands for, whether it replayed them or served a memoized
    /// result (see [`crate::sim`]).
    pub references: u64,
    /// Wall-clock time since the engine was created.
    pub elapsed: Duration,
}

impl Throughput {
    /// Cells completed per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        self.cells as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// References charged per wall-clock second.
    pub fn refs_per_sec(&self) -> f64 {
        self.references as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

impl std::fmt::Display for Throughput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cells in {:.2?} ({:.1} cells/sec); {} references charged ({:.2}M refs/sec)",
            self.cells,
            self.elapsed,
            self.cells_per_sec(),
            self.references,
            self.refs_per_sec() / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_rates_divide() {
        let counters = Counters::default();
        counters.record(100);
        counters.record(300);
        let snap = counters.snapshot(Duration::from_secs(2));
        assert_eq!(snap.cells, 2);
        assert_eq!(snap.references, 400);
        assert!((snap.cells_per_sec() - 1.0).abs() < 1e-9);
        assert!((snap.refs_per_sec() - 200.0).abs() < 1e-9);
        let line = snap.to_string();
        assert!(line.contains("2 cells"));
        assert!(line.contains("400 references"));
    }
}
