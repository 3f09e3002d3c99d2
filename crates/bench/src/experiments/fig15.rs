//! Figure 15: victim cache vs frequent value cache.

use super::{baseline, geom, hybrid, per_workload_stats, reduction, Report};
use crate::data::ExperimentContext;
use crate::engine::ClassStats;
use crate::table::{pct1, Table};
use fvl_cache::Simulator;
use fvl_core::VictimHybrid;
use fvl_timing::{fully_assoc_time, fvc_bits, fvc_time, victim_cache_bits, Tech};

/// Runs the Figure 15 study on a 4 KB DMC with 8-word lines:
///
/// * equal **area**: a 16-entry fully-associative VC vs a 128-entry
///   top-7 FVC (tag-inclusive storage is nearly identical);
/// * equal **access time**: a 4-entry VC (~9 ns in the paper) vs a
///   512-entry FVC (~6 ns).
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new("Figure 15", "fully-associative VC vs direct-mapped FVC");
    let dmc = geom(4, 32, 1);
    let mut area_table =
        Table::with_headers(&["benchmark", "base miss %", "VC-16 cut %", "FVC-128 cut %"]);
    let mut time_table =
        Table::with_headers(&["benchmark", "base miss %", "VC-4 cut %", "FVC-512 cut %"]);
    let mut vc_area_wins = 0u32;
    let mut fvc_time_wins = 0u32;
    let datas = ctx.capture_many("fig15", &ctx.fv_six());
    // Per workload: the baseline, two victim caches and two FVC sizes —
    // five trace passes per cell.
    let cells = per_workload_stats(ctx, "fig15", "4KB DMC, VC vs FVC", &datas, 5, |data| {
        let base = baseline(data, dmc);
        let run_vc = |entries: usize| {
            let mut sim = VictimHybrid::new(dmc, entries);
            data.trace.replay_into(&mut sim);
            let stats = *Simulator::stats(&sim);
            (reduction(&base, &stats), stats)
        };
        let run_fvc = |entries: u32| {
            let sim = hybrid(data, dmc, entries, 7);
            (reduction(&base, &sim.stats), sim.stats)
        };
        let (vc16, s_vc16) = run_vc(16);
        let (fvc128, s_fvc128) = run_fvc(128);
        let (vc4, s_vc4) = run_vc(4);
        let (fvc512, s_fvc512) = run_fvc(512);
        let classes = vec![
            ClassStats::from_stats("dmc", &base),
            ClassStats::from_stats("dmc+victim-16", &s_vc16),
            ClassStats::from_stats("dmc+fvc-128", &s_fvc128),
            ClassStats::from_stats("dmc+victim-4", &s_vc4),
            ClassStats::from_stats("dmc+fvc-512", &s_fvc512),
        ];
        ((base, vc16, fvc128, vc4, fvc512), classes)
    });
    for (data, (base, vc16, fvc128, vc4, fvc512)) in datas.iter().zip(cells) {
        if vc16 >= fvc128 {
            vc_area_wins += 1;
        }
        if fvc512 >= vc4 {
            fvc_time_wins += 1;
        }
        area_table.row(vec![
            data.name.clone(),
            format!("{:.3}", base.miss_percent()),
            pct1(vc16),
            pct1(fvc128),
        ]);
        time_table.row(vec![
            data.name.clone(),
            format!("{:.3}", base.miss_percent()),
            pct1(vc4),
            pct1(fvc512),
        ]);
    }
    report.table("equal area: 16-entry VC vs 128-entry FVC", area_table);
    report.table("equal access time: 4-entry VC vs 512-entry FVC", time_table);
    let tech = Tech::micron_0_8();
    report.note(format!(
        "equal-area: VC wins on {vc_area_wins}/6; equal-time: FVC wins on {fvc_time_wins}/6 \
         (paper: VC wins the first comparison, FVC the second; both structures are effective)"
    ));
    report.note(format!(
        "modelled access times: 4-entry VC {:.2} ns vs 512-entry FVC {:.2} ns",
        fully_assoc_time(4, 32, &tech).total(),
        fvc_time(512, 8, 3, &tech).total()
    ));
    report.note(format!(
        "equal-area check (tags included): 16-entry VC = {} bits vs 128-entry FVC = {} bits",
        victim_cache_bits(16, 32),
        fvc_bits(128, 8, 3)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_structures_help_a_small_dmc() {
        let ctx = ExperimentContext::quick();
        let report = run(&ctx);
        assert_eq!(report.tables.len(), 2);
        assert_eq!(report.tables[0].1.len(), 6);
    }
}
