//! Figure 14: FVC under set-associative main caches.

use super::{baseline, geom, hybrid, per_workload_stats, reduction, Report};
use crate::data::ExperimentContext;
use crate::engine::ClassStats;
use crate::table::{pct, pct1, Table};
use fvl_cache::CacheSim;

/// Runs the Figure 14 study: 16 KB main cache, 8 words/line, 512-entry
/// top-7 FVC, with main-cache associativity 1, 2, and 4. Also classifies
/// the direct-mapped baseline's misses to explain the outcome.
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new(
        "Figure 14",
        "2-way and 4-way set-associative main caches with an FVC (top-7 values)",
    );
    let mut table = Table::with_headers(&[
        "benchmark",
        "DM cut %",
        "2-way cut %",
        "4-way cut %",
        "DM conflict misses %",
        "DM capacity misses %",
    ]);
    let mut shrank = 0u32;
    let datas = ctx.capture_many("fig14", &ctx.fv_six());
    // Per workload: three (baseline, hybrid) pairs plus the classified
    // replay — seven trace passes per cell.
    let cells = per_workload_stats(ctx, "fig14", "16KB, assoc 1/2/4", &datas, 7, |data| {
        let mut cuts = [0.0f64; 3];
        let mut classes = Vec::new();
        let labels = [
            ("dmc-1way", "dmc+fvc-1way"),
            ("dmc-2way", "dmc+fvc-2way"),
            ("dmc-4way", "dmc+fvc-4way"),
        ];
        for (i, assoc) in [1u32, 2, 4].into_iter().enumerate() {
            let g = geom(16, 32, assoc);
            let base = baseline(data, g);
            let sim = hybrid(data, g, 512, 7);
            cuts[i] = reduction(&base, &sim.stats);
            classes.push(ClassStats::from_stats(labels[i].0, &base));
            classes.push(ClassStats::from_stats(labels[i].1, &sim.stats));
        }
        // Miss classification of the direct-mapped baseline.
        let mut classified = CacheSim::new(geom(16, 32, 1)).with_classifier();
        data.trace.replay_into(&mut classified);
        let c = classified.classifier().expect("enabled");
        let total = c.total().max(1) as f64;
        (
            (
                cuts,
                c.conflict() as f64 / total * 100.0,
                c.capacity() as f64 / total * 100.0,
            ),
            classes,
        )
    });
    for (data, (cuts, conflict, capacity)) in datas.iter().zip(cells) {
        if cuts[1] < cuts[0] {
            shrank += 1;
        }
        table.row(vec![
            data.name.clone(),
            pct1(cuts[0]),
            pct1(cuts[1]),
            pct1(cuts[2]),
            pct(conflict),
            pct(capacity),
        ]);
    }
    report.table(
        "% miss-rate reduction from the FVC, by main-cache associativity",
        table,
    );
    report.note(format!(
        "{shrank}/6 benchmarks lose FVC benefit under associativity — associativity \
         removes the conflict misses the FVC was absorbing; benchmarks whose misses are \
         capacity misses keep their benefit (the paper's explanation)"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_accompanies_every_benchmark() {
        let ctx = crate::experiments::quick_context();
        let report = run(ctx);
        assert_eq!(report.tables[0].1.len(), 6);
    }
}
