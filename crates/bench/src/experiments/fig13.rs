//! Figure 13: a small FVC vs doubling the DMC.

use super::{baseline, geom, hybrid, Report};
use crate::data::ExperimentContext;
use crate::engine::{CellId, Completed};
use crate::table::{pct, Table};

/// The paper's comparison cells: (line bytes, small DMC KB, doubled DMC
/// KB). The FVC is always 512 entries; its size in KB follows from the
/// line size and the encoding width.
const CELLS: [(u32, u64, u64); 6] = [
    (8, 4, 8),
    (16, 8, 16),
    (16, 16, 32),
    (16, 32, 64),
    (32, 16, 32),
    (32, 32, 64),
];
const WIDE_CELLS: [(u32, u64, u64); 2] = [(64, 32, 64), (64, 64, 128)];

/// Runs the Figure 13 study for the two benchmarks the paper highlights
/// (m88ksim and perl): is a small DMC plus a 512-entry FVC better than a
/// DMC of twice the size?
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new(
        "Figure 13",
        "DMC + FVC vs doubling the DMC (512-entry FVC; top 7/3/1 values)",
    );
    let mut wins = 0u32;
    let mut cells_total = 0u32;
    let datas = ctx.capture_many("fig13", &["m88ksim", "perl"]);
    // One cell per (workload, top-k, geometry pair): the small DMC+FVC
    // plus the doubled-DMC baseline, two trace passes.
    let grid: Vec<(usize, usize, (u32, u64, u64))> = (0..datas.len())
        .flat_map(|w| {
            [7usize, 3, 1].into_iter().flat_map(move |k| {
                CELLS
                    .iter()
                    .chain(WIDE_CELLS.iter())
                    .map(move |&cell| (w, k, cell))
            })
        })
        .collect();
    let results = ctx.cells(grid, |(w, k, (line, small_kb, big_kb))| {
        let data = &datas[w];
        let small = geom(small_kb, line, 1);
        let big = geom(big_kb, line, 1);
        let sim = hybrid(data, small, 512, k);
        let with_fvc = sim.stats.miss_percent();
        let fvc_kb = sim.fvc_data_bytes / 1024.0;
        let doubled_stats = baseline(data, big);
        let doubled = doubled_stats.miss_percent();
        Completed::new((with_fvc, fvc_kb, doubled), 2 * data.trace.accesses())
            .at(CellId::new(
                "fig13",
                data.name.clone(),
                format!("{small_kb}KB+FVC vs {big_kb}KB, {line}B lines, top-{k}"),
            ))
            .class_stats("dmc+fvc", &sim.stats)
            .class_stats("dmc-doubled", &doubled_stats)
    });
    let mut results = results.into_iter();
    for data in &datas {
        for k in [7usize, 3, 1] {
            let mut table = Table::with_headers(&[
                "line",
                "small DMC + FVC",
                "miss %",
                "doubled DMC",
                "miss %",
                "winner",
            ]);
            for &(line, small_kb, big_kb) in CELLS.iter().chain(WIDE_CELLS.iter()) {
                let (with_fvc, fvc_kb, doubled) = results.next().expect("one result per cell");
                cells_total += 1;
                if with_fvc < doubled {
                    wins += 1;
                }
                table.row(vec![
                    format!("{line}B"),
                    format!("{small_kb}KB + {fvc_kb:.3}KB FVC"),
                    pct(with_fvc),
                    format!("{big_kb}KB"),
                    pct(doubled),
                    if with_fvc < doubled {
                        "DMC+FVC"
                    } else {
                        "2x DMC"
                    }
                    .to_string(),
                ]);
            }
            report.table(format!("{}, top-{k} values", data.name), table);
        }
    }
    report.note(format!(
        "DMC+FVC beats the doubled DMC in {wins}/{cells_total} cells for the \
         m88ksim/perl analogues (the paper's headline: for these two benchmarks a small \
         FVC can beat doubling the cache)"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fvc_beats_doubling_somewhere() {
        let ctx = ExperimentContext::quick();
        let report = run(&ctx);
        assert_eq!(report.tables.len(), 6, "2 benchmarks x 3 value counts");
        assert!(report.notes[0].contains("beats the doubled DMC"));
        // At least one win is required for the headline to hold.
        let rendered = report.to_string();
        assert!(rendered.contains("DMC+FVC"));
    }
}
