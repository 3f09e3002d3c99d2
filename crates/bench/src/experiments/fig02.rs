//! Figure 2: frequently encountered values in the SPECfp95 analogues.

use super::Report;
use crate::data::ExperimentContext;
use crate::table::{pct1, Table};

const KS: [usize; 6] = [1, 2, 3, 5, 7, 10];

/// Runs the Figure 2 study over the floating-point workloads.
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new(
        "Figure 2",
        "frequently encountered values in SPECfp95-like workloads",
    );
    let mut headers = vec!["benchmark".to_string(), "metric".to_string()];
    headers.extend(KS.iter().map(|k| format!("top-{k} %")));
    let mut table = Table::new(headers);
    let mut min_occ10 = f64::INFINITY;
    for data in ctx.profile_many("fig2", &ctx.all_fp()) {
        let name = data.name.as_str();
        let mut occ_row = vec![name.to_string(), "occurring".to_string()];
        let mut acc_row = vec![String::new(), "accessed".to_string()];
        for k in KS {
            occ_row.push(pct1(data.occ.coverage(k) * 100.0));
            acc_row.push(pct1(data.counter.coverage(k) * 100.0));
        }
        min_occ10 = min_occ10.min(data.occ.coverage(10) * 100.0);
        table.row(occ_row);
        table.row(acc_row);
    }
    report.table(
        "% of locations occupied / accesses involving the top k values",
        table,
    );
    report.note(format!(
        "minimum top-10 occupancy across fp workloads: {min_occ10:.1}% — floating point \
         programs also exhibit a high degree of frequent value locality (paper, Section 2)"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_workloads_are_strongly_value_local() {
        let ctx = crate::experiments::quick_context();
        let report = run(ctx);
        assert_eq!(report.tables[0].1.len(), 12, "6 workloads x 2 metrics");
    }
}
