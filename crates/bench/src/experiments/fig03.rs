//! Figure 3: frequent value locality in the gcc analogue over time.

use super::{per_workload, Report};
use crate::data::ExperimentContext;
use crate::table::Table;
use fvl_profile::TimelineRecorder;

/// Runs the Figure 3 study: the gcc workload's locations and accesses
/// covered by its top 1/3/7/10 accessed values, tracked across the whole
/// execution, plus the distinct-value curves.
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new(
        "Figure 3",
        "frequent value locality in the gcc analogue over time",
    );
    let datas = ctx.capture_many("fig3", &["gcc"]);
    let recorder = per_workload(ctx, "fig3", "timeline top-10", &datas, 1, |data| {
        let focus = data.top_accessed(10);
        let mut recorder = TimelineRecorder::new(focus);
        // Paper fidelity: heap deallocations were not tracked in the
        // study, so the location census only shrinks on stack pops.
        data.trace
            .replay_with_snapshots_opts_into(&mut recorder, data.sample_every, false);
        recorder
    })
    .pop()
    .expect("one cell per workload");

    let mut locations = Table::with_headers(&[
        "accesses",
        "locations",
        "top-1",
        "top-3",
        "top-7",
        "top-10",
        "distinct values",
    ]);
    let mut accesses = Table::with_headers(&[
        "accesses",
        "total",
        "top-1",
        "top-3",
        "top-7",
        "top-10",
        "distinct accessed",
    ]);
    for p in recorder.points() {
        locations.row(vec![
            p.accesses.to_string(),
            p.total_locations.to_string(),
            p.locations_top[0].to_string(),
            p.locations_top[1].to_string(),
            p.locations_top[2].to_string(),
            p.locations_top[3].to_string(),
            p.distinct_in_memory.to_string(),
        ]);
        accesses.row(vec![
            p.accesses.to_string(),
            p.total_accesses.to_string(),
            p.accesses_top[0].to_string(),
            p.accesses_top[1].to_string(),
            p.accesses_top[2].to_string(),
            p.accesses_top[3].to_string(),
            p.distinct_accessed.to_string(),
        ]);
    }
    // Headline ratios at the final point.
    if let Some(last) = recorder.points().last() {
        let loc_cov = last.locations_top[3] as f64 / last.total_locations.max(1) as f64 * 100.0;
        let acc_cov = last.accesses_top[3] as f64 / last.total_accesses.max(1) as f64 * 100.0;
        report.note(format!(
            "end of run: top-10 values occupy {loc_cov:.1}% of locations and account for \
             {acc_cov:.1}% of accesses (paper: ~50% and ~40% for 126.gcc)"
        ));
        report.note(format!(
            "distinct values in memory stay near {:.0}% of locations (paper: ~20%)",
            last.distinct_in_memory as f64 / last.total_locations.max(1) as f64 * 100.0
        ));
    }
    report.table(
        "locations occupied by the top accessed values (left graph)",
        locations,
    );
    report.table(
        "accesses involving the top accessed values (right graph)",
        accesses,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_covers_the_whole_run_and_is_monotone() {
        let ctx = crate::experiments::quick_context();
        let report = run(ctx);
        let table = &report.tables[1].1;
        assert!(table.len() >= 15, "about 20 snapshot points");
        assert!(report.notes[0].contains("top-10"));
    }
}
