//! Figure 12: exploiting 1, 3, or 7 frequently accessed values.

use super::{baseline, geom, hybrid, reduction, Report};
use crate::data::ExperimentContext;
use crate::engine::{CellId, ClassStats, Completed};
use crate::table::{pct1, Table};
use fvl_cache::CacheGeometry;
use fvl_timing::{dm_cache_time, fvc_time, Tech};

/// Selects the paper's 12 DMC configurations: those whose modelled
/// access time is at least the 512-entry FVC's (capped at the 12
/// slowest when more qualify).
pub fn paper_configs() -> Vec<CacheGeometry> {
    let tech = Tech::micron_0_8();
    let fvc = fvc_time(512, 8, 3, &tech).total();
    let mut configs: Vec<(f64, CacheGeometry)> = Vec::new();
    for kb in [4u64, 8, 16, 32, 64] {
        for line in [16u32, 32, 64] {
            let g = geom(kb, line, 1);
            let t = dm_cache_time(&g, &tech).total();
            if t >= fvc {
                configs.push((t, g));
            }
        }
    }
    configs.sort_by(|a, b| b.0.total_cmp(&a.0));
    configs.truncate(12);
    configs.sort_by_key(|(_, g)| (g.size_bytes(), g.line_bytes()));
    configs.into_iter().map(|(_, g)| g).collect()
}

/// Runs the Figure 12 study: % miss-rate reduction for each qualifying
/// DMC configuration with a 512-entry FVC exploiting the top 1, 3, and 7
/// accessed values.
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new(
        "Figure 12",
        "% reduction in miss rate: DMC vs DMC + 512-entry FVC (top 1 / 3 / 7 values)",
    );
    let configs = paper_configs();
    let mut step13 = 0.0f64;
    let mut step37 = 0.0f64;
    let mut cells = 0u32;
    let datas = ctx.capture_many("fig12", &ctx.fv_six());
    // One cell per (workload, DMC config): a baseline plus the three
    // top-k hybrids, four trace passes.
    let grid: Vec<(usize, CacheGeometry)> = (0..datas.len())
        .flat_map(|w| configs.iter().map(move |&g| (w, g)))
        .collect();
    let results = ctx.cells(grid, |(w, g)| {
        let data = &datas[w];
        let base = baseline(data, g);
        let mut cuts = [0.0f64; 3];
        let mut classes = vec![ClassStats::from_stats("dmc", &base)];
        let labels = ["dmc+fvc-top1", "dmc+fvc-top3", "dmc+fvc-top7"];
        for (i, k) in [1, 3, 7].into_iter().enumerate() {
            let sim = hybrid(data, g, 512, k);
            cuts[i] = reduction(&base, &sim.stats);
            classes.push(ClassStats::from_stats(labels[i], &sim.stats));
        }
        let mut done = Completed::new((base, cuts), 4 * data.trace.accesses()).at(CellId::new(
            "fig12",
            data.name.clone(),
            g.to_string(),
        ));
        done.classes = classes;
        done
    });
    for (w, data) in datas.iter().enumerate() {
        let mut table = Table::with_headers(&[
            "DMC config",
            "base miss %",
            "top-1 %cut",
            "top-3 %cut",
            "top-7 %cut",
        ]);
        for (g, (base, cuts)) in configs
            .iter()
            .zip(&results[w * configs.len()..(w + 1) * configs.len()])
        {
            let mut row = vec![g.to_string(), format!("{:.3}", base.miss_percent())];
            row.extend(cuts.iter().map(|&c| pct1(c)));
            step13 += cuts[1] - cuts[0];
            step37 += cuts[2] - cuts[1];
            cells += 1;
            table.row(row);
        }
        report.table(data.name.clone(), table);
    }
    report.note(format!(
        "average gain going 1→3 values: {:+.1} points; 3→7 values: {:+.1} points \
         (paper: the 1→3 step is substantially larger than 3→7)",
        step13 / cells as f64,
        step37 / cells as f64
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_configs_are_selected() {
        let configs = paper_configs();
        assert_eq!(configs.len(), 12);
        // All direct mapped, sizes within the paper's range.
        for g in &configs {
            assert!(g.is_direct_mapped());
            assert!(g.size_bytes() >= 4 * 1024 && g.size_bytes() <= 64 * 1024);
        }
    }

    #[test]
    fn report_covers_six_benchmarks() {
        let ctx = ExperimentContext::quick();
        let report = run(&ctx);
        assert_eq!(report.tables.len(), 6);
        assert_eq!(report.tables[0].1.len(), 12);
    }
}
