//! Figure 4: cache misses attributable to the frequent values.

use super::{geom, per_workload, Report};
use crate::data::ExperimentContext;
use crate::table::{pct1, Table};
use fvl_profile::MissAttribution;

/// Runs the Figure 4 study: with the paper's 16 KB DMC / 16-byte lines,
/// what share of misses involves a top-10 occurring or accessed value?
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new("Figure 4", "cache miss behavior: 16KB DMC, 16-byte lines");
    let mut table = Table::with_headers(&[
        "benchmark",
        "misses",
        "% involving top-10 occurring",
        "% involving top-10 accessed",
    ]);
    let mut occ_sum = 0.0;
    let mut acc_sum = 0.0;
    let datas = ctx.capture_many("fig4", &ctx.fv_six());
    for (data, study) in datas.iter().zip(per_workload(
        ctx,
        "fig4",
        "miss attribution 16KB/16B",
        &datas,
        1,
        |data| {
            let mut study = MissAttribution::new(
                geom(16, 16, 1),
                data.top_occurring(10),
                data.top_accessed(10),
            );
            data.trace.replay_into(&mut study);
            study
        },
    )) {
        occ_sum += study.percent_occurring();
        acc_sum += study.percent_accessed();
        table.row(vec![
            data.name.clone(),
            study.total_misses().to_string(),
            pct1(study.percent_occurring()),
            pct1(study.percent_accessed()),
        ]);
    }
    report.table(
        "distribution of cache misses attributable to frequent values",
        table,
    );
    report.note(format!(
        "averages: occurring {:.1}%, accessed {:.1}% (paper: slightly under and over 50%; \
         the accessed set attracts at least as many misses, so the FVC uses it)",
        occ_sum / 6.0,
        acc_sum / 6.0
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_large_share_of_misses_involves_frequent_values() {
        let ctx = crate::experiments::quick_context();
        let report = run(ctx);
        assert_eq!(report.tables[0].1.len(), 6);
        assert!(report.notes[0].contains("averages"));
    }
}
