//! Per-cell measurement records — the engine's machine-readable trail.
//!
//! Every scheduled cell can leave behind a [`CellRecord`]: who it was
//! ([`CellId`]), how many trace references it charged, how long it ran
//! on its worker, and the hit/miss counters of each cache *class* it
//! simulated (`"dmc"`, `"dmc+fvc"`, `"victim"`, …). The engine appends
//! records **in submission order** after each batch completes, so the
//! record log — and therefore the exported metrics file — is
//! byte-identical for any `--jobs` count. Only the per-cell wall time
//! is scheduling-dependent, which is why the exporter omits it unless
//! explicitly asked (`--metrics-timing`).

use super::job::CellId;
use fvl_cache::CacheStats;

/// Hit/miss counters for one cache class simulated inside a cell.
///
/// ```
/// use fvl_bench::engine::ClassStats;
///
/// let c = ClassStats::new("dmc", 90, 10);
/// assert_eq!(c.accesses(), 100);
/// assert!((c.miss_rate() - 0.1).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassStats {
    /// Cache class label (e.g. `"dmc"`, `"dmc+fvc"`, `"victim"`).
    pub class: &'static str,
    /// Hits in this class.
    pub hits: u64,
    /// Misses in this class.
    pub misses: u64,
}

impl ClassStats {
    /// Builds a class record from raw counters.
    pub fn new(class: &'static str, hits: u64, misses: u64) -> Self {
        ClassStats {
            class,
            hits,
            misses,
        }
    }

    /// Builds a class record from a simulator's [`CacheStats`].
    pub fn from_stats(class: &'static str, stats: &CacheStats) -> Self {
        ClassStats::new(class, stats.hits(), stats.misses())
    }

    /// Total accesses in this class.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in `[0, 1]`; 0 for an empty class.
    pub fn miss_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }
}

/// One completed cell's measurements, as kept by the engine's record
/// log and exported via `experiments --metrics`.
#[derive(Clone, Debug)]
pub struct CellRecord {
    /// Which cell this was.
    pub id: CellId,
    /// Trace references the cell charged (see
    /// [`crate::engine::Completed::references`]).
    pub references: u64,
    /// Wall-clock nanoseconds the cell spent on its worker. Excluded
    /// from deterministic exports (scheduling-dependent).
    pub wall_nanos: u64,
    /// Per-cache-class hit/miss counters, in the order the cell
    /// reported them.
    pub classes: Vec<ClassStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_stats_from_cache_stats() {
        let stats = CacheStats {
            read_hits: 7,
            read_misses: 2,
            write_hits: 1,
            write_misses: 0,
            ..Default::default()
        };
        let c = ClassStats::from_stats("dmc", &stats);
        assert_eq!(c, ClassStats::new("dmc", 8, 2));
        assert!((c.miss_rate() - 0.2).abs() < 1e-12);
        assert_eq!(ClassStats::new("empty", 0, 0).miss_rate(), 0.0);
    }
}
