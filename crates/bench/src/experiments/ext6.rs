//! Extension 6: the full miss-rate-vs-cache-size curve in one pass.
//!
//! The paper sizes its caches by picking a handful of geometries and
//! simulating each one separately. A reuse-distance profile gets the
//! whole curve from a single trace walk: one exact LRU recency stack,
//! with hits binned by log2 stack depth, gives the hit count at every
//! power-of-two capacity (32 B up to 32 KB, one line size) at once.
//!
//! The experiment replays each of the six high-value-locality
//! benchmarks into the [`ReuseProfiler`] — one pass for the whole
//! curve — and into eleven fully-associative [`CacheSim`] instances
//! (one per profiler level), then cross-checks the profiler's hit
//! counts against the independently simulated caches at every level —
//! the one-pass curve must be *exact*, not an approximation. Both sides
//! land in the metrics log as classes (`tower-*`, `fa-*`) so the
//! equality can be re-derived straight from the `--metrics` export.

use super::Report;
use crate::data::ExperimentContext;
use crate::engine::{CellId, ClassStats, Completed};
use crate::table::{pct, Table};
use fvl_cache::{CacheGeometry, CacheSim, CacheStats};
use fvl_profile::{MissCurve, ReuseProfiler, DEFAULT_LINE_BYTES, TOWER_LEVELS};

/// Human-readable capacity of each tower level (`2^level` lines of
/// [`DEFAULT_LINE_BYTES`]).
pub const CAPACITY_LABELS: [&str; TOWER_LEVELS] = [
    "32B", "64B", "128B", "256B", "512B", "1KB", "2KB", "4KB", "8KB", "16KB", "32KB",
];

const TOWER_CLASSES: [&str; TOWER_LEVELS] = [
    "tower-32B",
    "tower-64B",
    "tower-128B",
    "tower-256B",
    "tower-512B",
    "tower-1KB",
    "tower-2KB",
    "tower-4KB",
    "tower-8KB",
    "tower-16KB",
    "tower-32KB",
];

const SIM_CLASSES: [&str; TOWER_LEVELS] = [
    "fa-32B", "fa-64B", "fa-128B", "fa-256B", "fa-512B", "fa-1KB", "fa-2KB", "fa-4KB", "fa-8KB",
    "fa-16KB", "fa-32KB",
];

struct CurveCell {
    curve: MissCurve,
    matches: usize,
}

/// Runs the one-pass curve vs per-geometry simulation cross-check on
/// the six high-value-locality benchmarks.
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new(
        "Extension 6",
        "one-pass reuse-distance curve vs per-geometry cache simulation",
    );
    let datas = ctx.capture_many("ext6", &ctx.fv_six());

    let cells = ctx.cells((0..datas.len()).collect(), |i| {
        let data = datas[i].as_ref();
        let mut profiler = ReuseProfiler::new();
        let mut sims: Vec<CacheSim> = (0..TOWER_LEVELS)
            .map(|level| {
                CacheSim::new(
                    CacheGeometry::fully_associative(1 << level, DEFAULT_LINE_BYTES)
                        .expect("tower geometries are valid by construction"),
                )
            })
            .collect();
        for sim in &mut sims {
            data.trace.replay_into(sim);
        }
        data.trace.replay_into(&mut profiler);
        let sim_stats: Vec<CacheStats> = sims.iter().map(|s| *s.stats()).collect();
        let matches = (0..TOWER_LEVELS)
            .filter(|&level| {
                profiler.hits(level) == sim_stats[level].hits()
                    && profiler.misses(level) == sim_stats[level].misses()
            })
            .count();
        let curve = profiler.curve();
        let mut classes = Vec::with_capacity(2 * TOWER_LEVELS);
        for level in 0..TOWER_LEVELS {
            classes.push(ClassStats::new(
                TOWER_CLASSES[level],
                curve.points[level].hits,
                curve.points[level].misses,
            ));
            classes.push(ClassStats::from_stats(
                SIM_CLASSES[level],
                &sim_stats[level],
            ));
        }
        let output = CurveCell { curve, matches };
        let refs = (TOWER_LEVELS as u64 + 1) * data.trace.accesses();
        let mut done = Completed::new(output, refs).at(CellId::new(
            "ext6",
            data.name.clone(),
            "log2 tower x fully-associative",
        ));
        done.classes = classes;
        done
    });

    let mut curve_table = Table::new(
        ["workload".to_string()]
            .into_iter()
            .chain(CAPACITY_LABELS.iter().map(|l| format!("{l} miss %")))
            .collect(),
    );
    let mut check_table = Table::with_headers(&["workload", "accesses", "tower == CacheSim"]);
    let mut total_matches = 0usize;
    for (data, cell) in datas.iter().zip(&cells) {
        let mut row = vec![data.name.clone()];
        for point in &cell.curve.points {
            row.push(pct(point.miss_rate * 100.0));
        }
        curve_table.row(row);
        check_table.row(vec![
            data.name.clone(),
            cell.curve.accesses.to_string(),
            format!("{}/{TOWER_LEVELS}", cell.matches),
        ]);
        total_matches += cell.matches;
    }

    let total = datas.len() * TOWER_LEVELS;
    report.table(
        "miss rate vs fully-associative capacity (32-byte lines), from one trace walk",
        curve_table,
    );
    report.table("cross-check against independent CacheSim runs", check_table);
    cross_check(&mut report, total_matches, total);
    report.note(
        "one trace walk replaces eleven separate simulations; the curve is what \
         the out-of-core corpus sweep records per trace file"
            .to_string(),
    );
    report
}

/// Records the tower-vs-`CacheSim` verdict: `matches` of `total` cells
/// agreed. Any disagreement fails the report.
fn cross_check(report: &mut Report, matches: usize, total: usize) {
    report.note(format!(
        "the one-pass LRU-tower curve matches per-geometry CacheSim hit/miss \
         counts exactly in {matches} of {total} (workload x capacity) cells"
    ));
    report.cross_check_failed = matches != total;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tower_matches_cachesim_at_every_level() {
        let ctx = crate::experiments::quick_context();
        let report = run(ctx);
        let workloads = ctx.fv_six().len();
        assert_eq!(report.tables[0].1.len(), workloads);
        assert_eq!(report.tables[1].1.len(), workloads);
        let total = workloads * TOWER_LEVELS;
        assert!(
            report.notes[0].contains(&format!("{total} of {total}")),
            "tower/CacheSim mismatch: {}",
            report.notes[0]
        );
        assert!(!report.cross_check_failed);
    }

    #[test]
    fn a_mismatched_cell_fails_the_report() {
        for (matches, failed) in [(66, false), (65, true), (0, true)] {
            let mut report = Report::new("Extension 6", "test");
            cross_check(&mut report, matches, 66);
            assert_eq!(report.cross_check_failed, failed, "{matches} of 66");
            assert!(report.notes[0].contains(&format!("exactly in {matches} of 66")));
        }
    }

    #[test]
    fn capacity_labels_cover_the_tower() {
        assert_eq!(CAPACITY_LABELS.len(), TOWER_LEVELS);
        assert_eq!(TOWER_CLASSES.len(), SIM_CLASSES.len());
        // Smallest level is one line, largest is 1024 lines of 32 B.
        assert_eq!(DEFAULT_LINE_BYTES, 32);
        assert_eq!(CAPACITY_LABELS[0], "32B");
        assert_eq!(CAPACITY_LABELS[TOWER_LEVELS - 1], "32KB");
    }
}
