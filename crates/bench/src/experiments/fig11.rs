//! Figure 11: effectiveness of the data compression.

use super::{geom, hybrid, per_workload_stats, Report};
use crate::data::ExperimentContext;
use crate::engine::ClassStats;
use crate::table::{pct1, Table};

/// Runs the Figure 11 study: with a 16 KB DMC (8 words/line) and a
/// 512-entry top-7 FVC, what fraction of valid FVC lines actually holds
/// frequent values, and what effective storage ratio does the encoding
/// achieve?
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new("Figure 11", "frequent value content of the FVC");
    let mut table = Table::with_headers(&[
        "benchmark",
        "avg % frequent values in valid FVC lines",
        "effective storage ratio vs DMC",
    ]);
    let dmc = geom(16, 32, 1);
    let mut occupancies = Vec::new();
    let datas = ctx.capture_many("fig11", &ctx.fv_six());
    let cells = per_workload_stats(
        ctx,
        "fig11",
        "16KB DMC + 512-entry FVC",
        &datas,
        1,
        |data| {
            let sim = hybrid(data, dmc, 512, 7);
            let stats = sim.hybrid_stats();
            (
                (
                    stats.avg_occupancy_percent(),
                    stats.effective_storage_ratio(32, 3.0),
                ),
                vec![ClassStats::from_stats("dmc+fvc", &sim.stats)],
            )
        },
    );
    for (data, (occupancy, ratio)) in datas.iter().zip(cells) {
        occupancies.push(occupancy);
        table.row(vec![
            data.name.clone(),
            pct1(occupancy),
            format!("{ratio:.2}x"),
        ]);
    }
    report.table(
        "sampled over the whole run (512-entry FVC, top-7 values)",
        table,
    );
    let over40 = occupancies.iter().filter(|&&o| o > 40.0).count();
    report.note(format!(
        "{over40}/6 benchmarks keep over 40% of FVC words frequent (paper: most programs \
         over 40%, giving 32/3 x 0.4 = 4.27x denser storage than a DMC)"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fvc_lines_are_substantially_occupied() {
        let ctx = ExperimentContext::quick();
        let report = run(&ctx);
        assert_eq!(report.tables[0].1.len(), 6);
        let rendered = report.tables[0].1.to_string();
        assert!(rendered.contains('x'));
    }
}
