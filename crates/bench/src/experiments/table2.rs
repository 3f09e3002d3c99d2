//! Table 2: input sensitivity of the frequent values.

use super::Report;
use crate::data::ExperimentContext;
use crate::table::Table;
use fvl_profile::overlap_report;
use fvl_workloads::InputSize;

/// Runs the Table 2 study: how many of the top 7/10 frequently accessed
/// values on the `test` and `train` inputs also rank top 7/10 on the
/// `reference` input. Different input classes use different sizes *and*
/// seeds, like SPEC's distinct input files. The three classes scale down
/// with the context's input size so quick runs stay quick.
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new("Table 2", "input sensitivity of the frequent values");
    let mut table = Table::with_headers(&["benchmark", "test", "train"]);
    let (ref_input, train_input) = match ctx.input {
        InputSize::Ref => (InputSize::Ref, InputSize::Train),
        InputSize::Train => (InputSize::Train, InputSize::Test),
        InputSize::Test => (InputSize::Test, InputSize::Test),
    };
    let mut overlaps = Vec::new();
    // One cell per (workload, input class) capture; merge per workload.
    let grid: Vec<(&'static str, InputSize, u64)> = ctx
        .fv_six()
        .into_iter()
        .flat_map(|name| {
            [
                (name, ref_input, ctx.seed),
                (name, InputSize::Test, ctx.seed.wrapping_add(101)),
                (name, train_input, ctx.seed.wrapping_add(57)),
            ]
        })
        .collect();
    let captures = ctx.cells(grid, |(name, input, seed)| {
        let profiles = ctx.profile_with(name, input, seed);
        let passes = 3 * profiles.accesses;
        crate::engine::Completed::new(profiles, passes).at(crate::engine::CellId::new(
            "table2",
            name,
            format!("capture {input}, seed {seed}"),
        ))
    });
    for chunk in captures.chunks_exact(3) {
        let [reference, test, train] = chunk else {
            unreachable!()
        };
        let ref_ranking = reference.top_accessed(10);
        let t = overlap_report(&test.top_accessed(10), &ref_ranking);
        let tr = overlap_report(&train.top_accessed(10), &ref_ranking);
        overlaps.push(t.top10 as f64 / 10.0);
        overlaps.push(tr.top10 as f64 / 10.0);
        table.row(vec![reference.name.clone(), t.to_string(), tr.to_string()]);
    }
    report.table(
        "X/Y = X of the top-Y reference values found in the other input's top-Y",
        table,
    );
    let avg = overlaps.iter().sum::<f64>() / overlaps.len() as f64 * 100.0;
    report.note(format!(
        "average top-10 overlap across inputs: {avg:.0}% (paper: roughly 50%; small \
         integer values are input-insensitive while pointer values shift)"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_share_a_meaningful_fraction_of_values() {
        let ctx = crate::experiments::quick_context();
        let report = run(ctx);
        assert_eq!(report.tables[0].1.len(), 6);
        // Every benchmark shares at least the value 0 across inputs.
        let rendered = report.tables[0].1.to_string();
        assert!(
            !rendered.contains("0/7 0/10"),
            "zero overlap would be wrong:\n{rendered}"
        );
    }
}
