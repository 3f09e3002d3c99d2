//! Table 3: how quickly the frequent values are found.

use super::{per_workload, Report};
use crate::data::ExperimentContext;
use crate::table::{pct1, Table};
use fvl_profile::StabilityAnalyzer;

/// Runs the Table 3 study: the percentage of execution after which the
/// identity and order of the top-1/3/7 accessed values never changes
/// (plus the identity-only relaxation the paper applies to m88ksim).
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new("Table 3", "finding the frequently accessed values");
    let mut table = Table::with_headers(&[
        "benchmark",
        "accesses",
        "top-1 stable after %",
        "top-3 stable after %",
        "top-7 stable after %",
        "top-3 in top-10 after %",
        "top-7 in top-10 after %",
    ]);
    let mut identity_points = Vec::new();
    let datas = ctx.capture_many("table3", &ctx.fv_six());
    let reports = per_workload(ctx, "table3", "ranking stability", &datas, 1, |data| {
        let check_every = (data.trace.accesses() / 500).max(1);
        let mut analyzer = StabilityAnalyzer::new(check_every);
        data.trace.replay_into(&mut analyzer);
        analyzer.report()
    });
    for (data, r) in datas.iter().zip(reports) {
        identity_points.push(r.identity_stable_percent[1]);
        table.row(vec![
            data.name.clone(),
            r.total_accesses.to_string(),
            pct1(r.order_stable_percent[0]),
            pct1(r.order_stable_percent[1]),
            pct1(r.order_stable_percent[2]),
            pct1(r.identity_stable_percent[1]),
            pct1(r.identity_stable_percent[2]),
        ]);
    }
    report.table(
        "when the ranking becomes final (percentage of execution completed)",
        table,
    );
    identity_points.sort_by(f64::total_cmp);
    report.note(format!(
        "median point at which the final top-3 values all appear in the running \
         top-10: {:.1}% of execution — like the paper, the value *identities* are \
         available to a profiler long before their exact order settles",
        identity_points[identity_points.len() / 2]
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rankings_stabilize_before_the_end() {
        let ctx = crate::experiments::quick_context();
        let report = run(ctx);
        assert_eq!(report.tables[0].1.len(), 6);
    }
}
