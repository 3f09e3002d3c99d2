//! `verify` — the reproduction targets as executable checks.
//!
//! `EXPERIMENTS.md` records a verdict per paper artifact; this runner
//! re-derives the headline claims from fresh simulations and prints
//! PASS/FAIL for each, so a regression in any workload or controller is
//! caught by a single command, which exits nonzero when a claim fails
//! on uncapped captures:
//!
//! ```text
//! cargo run --release -p fvl-bench --bin experiments -- verify
//! ```

use super::{baseline, geom, hybrid, per_workload, per_workload_stats, Report};
use crate::data::{ExperimentContext, WorkloadData};
use crate::engine::ClassStats;
use crate::table::Table;
use fvl_cache::Simulator;
use fvl_core::VictimHybrid;

struct Check {
    claim: &'static str,
    measured: String,
    pass: bool,
}

/// Everything the claims need from one FV benchmark, computed as one
/// engine cell.
struct SixMetrics {
    occ10: f64,
    acc10: f64,
    /// 512-entry top-7 FVC cut on the 16KB DMC (claims 3 and 9).
    cut16_7: f64,
    /// Claim 4 steps: top-1→3 and top-3→7.
    gain13: f64,
    gain37: f64,
    /// Claim 6: did 2-way associativity shrink the benefit?
    w2_shrank: bool,
    /// Claim 7: did the FVC beat the 4-entry VC on the 4KB DMC?
    fvc_beats_vc: bool,
    /// Claim 8: average FVC word occupancy.
    occupancy: f64,
    /// Claim 10: percentage of constant address lifetimes.
    constancy: f64,
}

fn constancy(data: &WorkloadData) -> f64 {
    let mut a = fvl_profile::ConstancyAnalyzer::new();
    data.trace.replay_into(&mut a);
    a.constant_percent()
}

/// Runs every headline check and reports PASS/FAIL per claim.
pub fn run(ctx: &ExperimentContext) -> Report {
    let mut report = Report::new(
        "Verification",
        "the paper's headline claims as executable checks",
    );
    let mut checks: Vec<Check> = Vec::new();
    let dmc16 = geom(16, 32, 1);

    // Capture everything once.
    let six = ctx.capture_many("verify", &ctx.fv_six());
    let controls = ctx.capture_many("verify", &["compress", "ijpeg"]);

    // One cell per FV benchmark computes every per-workload quantity
    // the claims consume (eleven trace passes each); the m88ksim-only
    // Figure 13 cell and the two control cells run alongside.
    let six_metrics = per_workload_stats(ctx, "verify", "headline claims", &six, 11, |data| {
        let base16 = baseline(data, dmc16);
        let c1 = hybrid(data, dmc16, 512, 1).stats.miss_reduction_vs(&base16);
        let c3 = hybrid(data, dmc16, 512, 3).stats.miss_reduction_vs(&base16);
        let hybrid16 = hybrid(data, dmc16, 512, 7);
        let cut16_7 = hybrid16.stats.miss_reduction_vs(&base16);
        let w2 = geom(16, 32, 2);
        let w2_cut = {
            let base = baseline(data, w2);
            hybrid(data, w2, 512, 7).stats.miss_reduction_vs(&base)
        };
        let dmc4 = geom(4, 32, 1);
        let base4 = baseline(data, dmc4);
        let fvc_cut = hybrid(data, dmc4, 512, 7).stats.miss_reduction_vs(&base4);
        let mut vc = VictimHybrid::new(dmc4, 4);
        data.trace.replay_into(&mut vc);
        let vc_cut = Simulator::stats(&vc).miss_reduction_vs(&base4);
        let classes = vec![
            ClassStats::from_stats("dmc", &base16),
            ClassStats::from_stats("dmc+fvc", &hybrid16.stats),
        ];
        (
            SixMetrics {
                occ10: data.occ.coverage(10),
                acc10: data.counter.coverage(10),
                cut16_7,
                gain13: c3 - c1,
                gain37: cut16_7 - c3,
                w2_shrank: w2_cut < cut16_7,
                fvc_beats_vc: fvc_cut >= vc_cut,
                occupancy: hybrid16.hybrid_stats().avg_occupancy_percent(),
                constancy: constancy(data),
            },
            classes,
        )
    });
    // Claim 5's dedicated geometries, on the m88ksim analogue only.
    let (small_plus, doubled) =
        per_workload(ctx, "verify", "fig13 geometries", &six[1..2], 2, |m88| {
            (
                hybrid(m88, geom(8, 32, 1), 512, 7).stats.miss_percent(),
                baseline(m88, geom(16, 32, 1)).miss_percent(),
            )
        })
        .pop()
        .expect("one cell");
    // Controls: top-10 access share, the claim-9 cut, and constancy.
    let control_metrics = per_workload(ctx, "verify", "controls", &controls, 3, |data| {
        let base = baseline(data, dmc16);
        let cut = hybrid(data, dmc16, 512, 7).stats.miss_reduction_vs(&base);
        (data.counter.coverage(10), cut, constancy(data))
    });

    // Claim 1 (Fig 1): top-10 occupancy > 50% and access share near 50%
    // on average for the six.
    let avg_occ = six_metrics.iter().map(|m| m.occ10).sum::<f64>() / 6.0 * 100.0;
    let avg_acc = six_metrics.iter().map(|m| m.acc10).sum::<f64>() / 6.0 * 100.0;
    checks.push(Check {
        claim: "Fig 1: six benchmarks, top-10 occupancy > 50%, access share ~50%",
        measured: format!("occupancy {avg_occ:.1}%, access share {avg_acc:.1}%"),
        pass: avg_occ > 50.0 && avg_acc > 40.0,
    });

    // Claim 2 (Fig 1): the controls show much less locality.
    let control_acc = control_metrics
        .iter()
        .map(|&(acc, _, _)| acc)
        .fold(f64::NEG_INFINITY, f64::max)
        * 100.0;
    checks.push(Check {
        claim: "Fig 1: compress/ijpeg analogues far below the six",
        measured: format!("max control access share {control_acc:.1}%"),
        pass: control_acc < avg_acc,
    });

    // Claim 3 (Fig 10/12): a 512-entry top-7 FVC reduces every FV
    // benchmark's misses; the largest cut is well over 50%.
    let min_cut = six_metrics
        .iter()
        .map(|m| m.cut16_7)
        .fold(f64::INFINITY, f64::min);
    let max_cut = six_metrics
        .iter()
        .map(|m| m.cut16_7)
        .fold(f64::NEG_INFINITY, f64::max);
    checks.push(Check {
        claim: "Fig 10: FVC reduces misses for all six; max cut > 50%",
        measured: format!("cuts {min_cut:.1}%..{max_cut:.1}%"),
        pass: min_cut > 0.0 && max_cut > 50.0,
    });

    // Claim 4 (Fig 12): the 1→3 value step beats the 3→7 step.
    let gain13: f64 = six_metrics.iter().map(|m| m.gain13).sum();
    let gain37: f64 = six_metrics.iter().map(|m| m.gain37).sum();
    checks.push(Check {
        claim: "Fig 12: going 1→3 values gains more than 3→7",
        measured: format!("{:+.1} vs {:+.1} points avg", gain13 / 6.0, gain37 / 6.0),
        pass: gain13 > gain37 && gain13 > 0.0,
    });

    // Claim 5 (Fig 13): for the m88ksim analogue, a small DMC + FVC
    // beats a DMC of twice the size.
    checks.push(Check {
        claim: "Fig 13: m88ksim 8KB+FVC beats 16KB DMC",
        measured: format!("{small_plus:.3}% vs {doubled:.3}%"),
        pass: small_plus < doubled,
    });

    // Claim 6 (Fig 14): associativity shrinks the FVC's benefit for
    // most benchmarks.
    let shrank = six_metrics.iter().filter(|m| m.w2_shrank).count();
    checks.push(Check {
        claim: "Fig 14: 2-way associativity shrinks the FVC benefit for most",
        measured: format!("{shrank}/6 benchmarks"),
        pass: shrank >= 4,
    });

    // Claim 7 (Fig 15): at equal access time the FVC beats the 4-entry
    // VC for most benchmarks.
    let fvc_wins = six_metrics.iter().filter(|m| m.fvc_beats_vc).count();
    checks.push(Check {
        claim: "Fig 15: equal-time FVC beats the 4-entry VC for most",
        measured: format!("{fvc_wins}/6 benchmarks"),
        pass: fvc_wins >= 4,
    });

    // Claim 8 (Fig 11): FVC lines stay mostly frequent (> 40%).
    let min_occupancy = six_metrics
        .iter()
        .map(|m| m.occupancy)
        .fold(f64::INFINITY, f64::min);
    checks.push(Check {
        claim: "Fig 11: > 40% of FVC words hold frequent values",
        measured: format!("minimum occupancy {min_occupancy:.1}%"),
        pass: min_occupancy > 40.0,
    });

    // Claim 9 (goal 1, Section 3): the FVC never turns the run into a
    // net loss on any of the eight integer workloads.
    let worst = six_metrics
        .iter()
        .map(|m| m.cut16_7)
        .chain(control_metrics.iter().map(|&(_, cut, _)| cut))
        .fold(f64::INFINITY, f64::min);
    checks.push(Check {
        claim: "Section 3 goal 1: the FVC never hurts (all 8 int workloads)",
        measured: format!("worst cut {worst:+.1}%"),
        pass: worst > -1.0,
    });

    // Claim 10 (Table 4): constancy splits the six from the controls.
    let fv_min_const = six_metrics
        .iter()
        .map(|m| m.constancy)
        .fold(f64::INFINITY, f64::min);
    let control_max_const = control_metrics
        .iter()
        .map(|&(_, _, c)| c)
        .fold(f64::NEG_INFINITY, f64::max);
    checks.push(Check {
        claim: "Table 4: FV benchmarks far more value-constant than controls",
        measured: format!("{fv_min_const:.1}% min vs {control_max_const:.1}% max"),
        pass: fv_min_const > control_max_const + 20.0,
    });

    let mut table = Table::with_headers(&["status", "claim", "measured"]);
    let mut failed = 0;
    for check in &checks {
        if !check.pass {
            failed += 1;
        }
        table.row(vec![
            if check.pass { "PASS" } else { "FAIL" }.to_string(),
            check.claim.to_string(),
            check.measured.clone(),
        ]);
    }
    report.table(format!("{} checks, {failed} failing", checks.len()), table);
    // A smoke cap truncates every capture to 1,000 references, too few
    // for several claims to hold, so only uncapped runs fail.
    report.cross_check_failed = failed > 0 && ctx.max_refs.is_none();
    if failed == 0 {
        report.note("all headline claims reproduce".to_string());
    } else {
        report.note(format!(
            "{failed} claims FAILED — investigate before trusting results"
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_headline_claims_pass_on_test_inputs() {
        let ctx = crate::experiments::quick_context();
        let report = run(ctx);
        let rendered = report.to_string();
        assert!(
            !rendered.contains("FAIL"),
            "headline claim regressed:\n{rendered}"
        );
        assert!(!report.cross_check_failed);
    }
}
