//! Figure 5: spatial distribution of frequent values in memory.

use super::{per_workload, Report};
use crate::data::ExperimentContext;
use crate::table::Table;
use fvl_profile::SpatialAnalyzer;

/// Runs the Figure 5 study: half-way through the gcc analogue, split the
/// referenced memory into 800-word blocks (100 lines of 8 words) and
/// measure the average number of top-7 occurring values per line.
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new(
        "Figure 5",
        "frequent occurrence of the top-7 values across memory blocks",
    );
    let datas = ctx.capture_many("fig5", &["gcc"]);
    let profile = per_workload(ctx, "fig5", "spatial top-7", &datas, 1, |data| {
        let focus = data.top_occurring(7);
        let halfway = data.trace.accesses() / 2;
        let mut analyzer = SpatialAnalyzer::new(focus, halfway);
        // Paper fidelity: heap frees untracked, so the referenced-memory
        // census matches the paper's (and yields many more blocks).
        data.trace
            .replay_with_snapshots_opts_into(&mut analyzer, data.sample_every, false);
        analyzer.into_profile().expect("halfway snapshot exists")
    })
    .pop()
    .expect("one cell per workload");

    let mut table = Table::with_headers(&["block", "avg top-7 values per 8-word line"]);
    // Print up to 40 evenly spaced blocks so the series stays readable.
    let n = profile.block_averages.len();
    let step = (n / 40).max(1);
    for (i, avg) in profile.block_averages.iter().enumerate().step_by(step) {
        table.row(vec![i.to_string(), format!("{avg:.2}")]);
    }
    report.table(
        format!("{n} blocks of 800 consecutive referenced words (sampled every {step})"),
        table,
    );
    report.note(format!(
        "mean {:.2} values/line, std-dev {:.2} across blocks — frequent values are spread \
         fairly uniformly through memory (paper: ~4 per line throughout for 126.gcc)",
        profile.mean(),
        profile.std_dev()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequent_values_are_spread_across_blocks() {
        let ctx = crate::experiments::quick_context();
        let report = run(ctx);
        assert!(!report.tables[0].1.is_empty());
        assert!(report.notes[0].contains("mean"));
    }
}
