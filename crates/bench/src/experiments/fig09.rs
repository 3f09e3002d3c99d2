//! Figure 9: access times of FVC vs DMC (CACTI-style model).

use super::{geom, Report};
use crate::data::ExperimentContext;
use crate::engine::{CellId, Completed};
use crate::table::Table;
use fvl_timing::{dm_cache_time, fully_assoc_time, fvc_time, Tech};

/// Runs the Figure 9 study: modelled access times at 0.8 µm for every
/// DMC configuration and FVC size the paper considers. Each table row
/// is one engine cell (timing model only — no trace references).
pub fn run(ctx: &ExperimentContext) -> Report {
    let tech = Tech::micron_0_8();
    let mut report = Report::new("Figure 9", "access time of FVC vs DMC (0.8um model)");

    let mut dmc = Table::with_headers(&[
        "DMC size",
        "16B lines (ns)",
        "32B lines (ns)",
        "64B lines (ns)",
    ]);
    for row in ctx.cells(vec![4u64, 8, 16, 32, 64], |kb| {
        let mut row = vec![format!("{kb}KB")];
        for line in [16u32, 32, 64] {
            row.push(format!(
                "{:.2}",
                dm_cache_time(&geom(kb, line, 1), &tech).total()
            ));
        }
        Completed::new(row, 0).at(CellId::new("fig9", "timing model", format!("DMC {kb}KB")))
    }) {
        dmc.row(row);
    }
    report.table("direct-mapped cache access times", dmc);

    let mut fvc = Table::with_headers(&[
        "FVC entries",
        "4 words/line (ns)",
        "8 words/line (ns)",
        "16 words/line (ns)",
    ]);
    for row in ctx.cells(vec![64u32, 128, 256, 512, 1024, 2048, 4096], |entries| {
        let mut row = vec![entries.to_string()];
        for wpl in [4u32, 8, 16] {
            row.push(format!("{:.2}", fvc_time(entries, wpl, 3, &tech).total()));
        }
        Completed::new(row, 0).at(CellId::new(
            "fig9",
            "timing model",
            format!("FVC {entries} entries"),
        ))
    }) {
        fvc.row(row);
    }
    report.table("FVC access times (top-7 values, 3-bit codes)", fvc);

    let fvc512 = fvc_time(512, 8, 3, &tech).total();
    let mut at_least = 0;
    for kb in [4u64, 8, 16, 32, 64] {
        for line in [16u32, 32, 64] {
            if dm_cache_time(&geom(kb, line, 1), &tech).total() >= fvc512 {
                at_least += 1;
            }
        }
    }
    report.note(format!(
        "{at_least} of 15 DMC configurations have access time >= the 512-entry FVC \
         ({fvc512:.2} ns) — the paper selects 12 such configurations for Figure 12"
    ));
    report.note(format!(
        "4-entry fully-associative victim cache: {:.2} ns vs 512-entry FVC {fvc512:.2} ns \
         (paper: 9 ns vs 6 ns) — the basis of Figure 15's equal-time comparison",
        fully_assoc_time(4, 32, &tech).total()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_relationships_match_the_paper() {
        let report = run(crate::experiments::quick_context());
        assert_eq!(report.tables.len(), 2);
        // At least 12 configs slower than the 512-entry FVC.
        let n: u32 = report.notes[0]
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(n >= 12);
    }
}
