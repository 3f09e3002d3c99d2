//! Extension 5: a small FVC vs doubling the DMC, across the
//! replacement-policy zoo.
//!
//! The paper argues its 512-entry FVC is a better use of SRAM than
//! growing the direct-mapped cache, but only ever compares against a
//! direct-mapped LRU baseline. This experiment re-asks the question for
//! every cell of the zoo: at each associativity in {1, 2, 4, 8} and
//! each replacement policy (true-LRU, seeded random, SHiP-lite RRIP,
//! pinned-LRU), is an 8 KB DMC plus a 512-entry top-7 FVC better than
//! a 16 KB DMC of the same organization?
//!
//! Every cell reads the three contenders (base DMC, doubled DMC,
//! DMC+FVC) from the capture's simulation memo, so a contender another
//! runner already simulated on the same capture is served rather than
//! replayed, and records all three as metric classes (`dmc`,
//! `dmc-doubled`, `dmc+fvc`) so the verdict can be re-derived straight
//! from `BENCH_fvl.json`.

use super::{geom, Report};
use crate::data::ExperimentContext;
use crate::engine::{CellId, ClassStats, Completed};
use crate::sim::SimSpec;
use crate::table::{pct, pct1, Table};
use fvl_cache::{CacheStats, ReplacementKind};

/// The associativities the sweep covers.
pub const ASSOCIATIVITIES: [u32; 4] = [1, 2, 4, 8];

/// Whether the FVC contender strictly beats the doubled DMC on miss
/// rate ("FVC"), loses to it ("2xDMC"), or ties.
fn verdict(doubled: &CacheStats, fvc: &CacheStats) -> &'static str {
    if fvc.miss_rate() < doubled.miss_rate() {
        "FVC"
    } else if fvc.miss_rate() > doubled.miss_rate() {
        "2xDMC"
    } else {
        "tie"
    }
}

/// Runs the geometry sweep on the six high-value-locality benchmarks
/// (8 KB vs 16 KB DMC, 32-byte lines, 512-entry top-7 FVC).
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new(
        "Extension 5",
        "small FVC vs doubling the DMC, across associativities and replacement policies",
    );
    let datas = ctx.capture_many("ext5", &ctx.fv_six());

    // One engine cell per (associativity, policy, workload), ordered so
    // consecutive chunks of six cover one (associativity, policy) row.
    let mut items: Vec<(u32, ReplacementKind, usize)> = Vec::new();
    for assoc in ASSOCIATIVITIES {
        for kind in ReplacementKind::ALL {
            for i in 0..datas.len() {
                items.push((assoc, kind, i));
            }
        }
    }
    // Three full-trace contenders per cell.
    let cells = ctx.cells(items.clone(), |(assoc, kind, i)| {
        let data = datas[i].as_ref();
        let base_geom = geom(8, 32, assoc);
        let dmc = |geometry| SimSpec::Dmc {
            geometry,
            replacement: kind,
        };
        let fvc = SimSpec::Hybrid {
            geometry: base_geom,
            dmc_replacement: kind,
            fvc_entries: 512,
            top_k: 7,
        };
        let stats = (
            data.simulate(dmc(base_geom)).stats,
            data.simulate(dmc(geom(16, 32, assoc))).stats,
            data.simulate(fvc).stats,
        );
        let mut done = Completed::new(stats, 3 * data.trace.accesses()).at(CellId::new(
            "ext5",
            data.name.clone(),
            format!("{assoc}-way {kind}"),
        ));
        done.classes = vec![
            ClassStats::from_stats("dmc", &stats.0),
            ClassStats::from_stats("dmc-doubled", &stats.1),
            ClassStats::from_stats("dmc+fvc", &stats.2),
        ];
        done
    });

    let mut verdicts = Table::new(
        ["assoc", "policy"]
            .into_iter()
            .map(String::from)
            .chain(datas.iter().map(|d| d.name.clone()))
            .chain(["FVC wins".to_string()])
            .collect(),
    );
    let mut rates = Table::with_headers(&[
        "assoc",
        "policy",
        "DMC miss %",
        "2x DMC miss %",
        "DMC+FVC miss %",
        "FVC vs 2x DMC (pts)",
    ]);
    let mut fvc_wins_total = 0usize;
    let mut wins_by_assoc = [0usize; ASSOCIATIVITIES.len()];
    for (row, chunk) in cells.chunks(datas.len()).enumerate() {
        let (assoc, kind, _) = items[row * datas.len()];
        let mut cells_row = vec![assoc.to_string(), kind.to_string()];
        let mut wins = 0usize;
        let mut means = [0.0f64; 3];
        for (base, doubled, fvc) in chunk {
            let v = verdict(doubled, fvc);
            if v == "FVC" {
                wins += 1;
            }
            cells_row.push(v.to_string());
            means[0] += base.miss_rate() * 100.0 / datas.len() as f64;
            means[1] += doubled.miss_rate() * 100.0 / datas.len() as f64;
            means[2] += fvc.miss_rate() * 100.0 / datas.len() as f64;
        }
        fvc_wins_total += wins;
        let which = ASSOCIATIVITIES.iter().position(|&a| a == assoc).unwrap();
        wins_by_assoc[which] += wins;
        cells_row.push(format!("{wins}/{}", datas.len()));
        verdicts.row(cells_row);
        rates.row(vec![
            assoc.to_string(),
            kind.to_string(),
            pct(means[0]),
            pct(means[1]),
            pct(means[2]),
            pct1(means[2] - means[1]),
        ]);
    }

    let total = cells.len();
    report.table(
        "per-benchmark verdict: lower miss rate, 8KB DMC + 512-entry FVC vs 16KB DMC",
        verdicts,
    );
    report.table("mean miss rates across the six benchmarks (%)", rates);
    report.note(format!(
        "the 512-entry FVC beats doubling the DMC in {fvc_wins_total} of {total} \
         (associativity x policy x benchmark) cells"
    ));
    report.note(format!(
        "FVC wins by associativity: {} — the FVC's edge is conflict-miss relief, \
         so it fades as associativity (or a policy such as pinned-LRU) removes the \
         conflicts it would have absorbed",
        ASSOCIATIVITIES
            .iter()
            .zip(wins_by_assoc)
            .map(|(a, w)| format!("{a}-way {w}/{}", total / ASSOCIATIVITIES.len()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_zoo_cell() {
        let ctx = ExperimentContext::quick();
        let report = run(&ctx);
        let rows = ASSOCIATIVITIES.len() * ReplacementKind::ALL.len();
        assert_eq!(report.tables[0].1.len(), rows);
        assert_eq!(report.tables[1].1.len(), rows);
        assert!(report.notes[0].contains("of 96"));
    }

    #[test]
    fn verdict_prefers_strictly_lower_miss_rate() {
        let winner = CacheStats {
            read_hits: 9,
            read_misses: 1,
            ..Default::default()
        };
        let loser = CacheStats {
            read_hits: 5,
            read_misses: 5,
            ..Default::default()
        };
        assert_eq!(verdict(&loser, &winner), "FVC");
        assert_eq!(verdict(&winner, &loser), "2xDMC");
        assert_eq!(verdict(&winner, &winner), "tie");
    }
}
