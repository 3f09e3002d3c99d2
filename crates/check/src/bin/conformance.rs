//! The conformance gate binary.
//!
//! Runs the fixed-seed differential corpus (64 traces by default,
//! rotating through every adversarial pattern) and exits non-zero on
//! the first divergence between an optimized path and its reference
//! oracle. Each failing trace is greedily shrunk and written as an
//! `FVLTRC22` file to `target/conformance/repro-<index>.fvltrc` so CI
//! can upload it as an artifact and a developer can replay it locally
//! (`fvl_mem::MappedTrace::open`, or `fvl-trace simulate`).
//!
//! Usage: `conformance [--policy <lru|random|rrip|pinned>] [--serve] [cases] [accesses-per-trace]`
//!
//! With `--policy`, only the cache differential runs, scoped to that
//! replacement kind over the per-policy geometry pair — the shape the
//! CI policy matrix uses so each job's verdict names one policy. With
//! `--serve`, only the serve differential runs (frame-codec byte
//! round-trips plus loopback daemon sessions diffed against in-process
//! execution), over a smaller default corpus since every case spins a
//! daemon.

use fvl_cache::ReplacementKind;
use fvl_check::{
    run_boundary_corpus, run_corpus, run_policy_corpus, run_serve_corpus, CorpusReport,
    DEFAULT_CASES, DEFAULT_TRACE_ACCESSES, SERVE_CASES,
};
use fvl_mem::PackedTrace;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut positional = Vec::new();
    let mut policy: Option<ReplacementKind> = None;
    let mut serve = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--policy" {
            let name = args.next().expect("--policy needs a policy name");
            policy = Some(ReplacementKind::parse(&name).unwrap_or_else(|e| panic!("{e}")));
        } else if arg == "--serve" {
            serve = true;
        } else {
            positional.push(arg);
        }
    }
    let mut positional = positional.into_iter();
    let cases: usize = positional
        .next()
        .map(|a| a.parse().expect("cases must be a number"))
        .unwrap_or(if serve { SERVE_CASES } else { DEFAULT_CASES });
    let accesses: u64 = positional
        .next()
        .map(|a| a.parse().expect("accesses must be a number"))
        .unwrap_or(DEFAULT_TRACE_ACCESSES);

    let report = match policy {
        Some(kind) => {
            println!("conformance: {cases} corpus traces x {accesses} accesses, policy {kind}");
            run_policy_corpus(kind, cases, accesses)
        }
        None if serve => {
            println!("conformance: {cases} serve traces x {accesses} accesses (loopback daemon)");
            run_serve_corpus(cases, accesses)
        }
        None => full_report(cases, accesses),
    };
    if report.is_green() {
        println!("conformance: all {} cases green", report.cases);
        return ExitCode::SUCCESS;
    }
    report_failures(&report)
}

/// The default gate: the full corpus through every differential runner,
/// plus the boundary-length traces.
fn full_report(cases: usize, accesses: u64) -> CorpusReport {
    println!("conformance: {cases} corpus traces x {accesses} accesses");
    let report = run_corpus(cases, accesses);
    let boundary = run_boundary_corpus();
    println!(
        "conformance: {} boundary-length traces (block/chunk seams)",
        boundary.cases
    );
    CorpusReport {
        cases: report.cases + boundary.cases,
        failures: report
            .failures
            .into_iter()
            .chain(boundary.failures.into_iter().map(|mut f| {
                // Keep repro file names disjoint from the main corpus.
                f.index += cases;
                f
            }))
            .collect(),
    }
}

fn report_failures(report: &CorpusReport) -> ExitCode {
    let out_dir = Path::new("target/conformance");
    if let Err(e) = fs::create_dir_all(out_dir) {
        eprintln!("conformance: cannot create {}: {e}", out_dir.display());
    }
    eprintln!(
        "conformance: {} of {} cases FAILED",
        report.failures.len(),
        report.cases
    );
    for failure in &report.failures {
        eprintln!(
            "case {} (seed {:#x}, pattern {:?}): shrunk to {} events",
            failure.index,
            failure.seed,
            failure.pattern,
            failure.shrunk.len()
        );
        for message in &failure.failures {
            eprintln!("  {message}");
        }
        let path = out_dir.join(format!("repro-{}.fvltrc", failure.index));
        let shrunk = PackedTrace::from_trace(&failure.shrunk);
        match fs::File::create(&path).and_then(|f| shrunk.write_v22_to(f)) {
            Ok(()) => eprintln!("  repro written to {}", path.display()),
            Err(e) => eprintln!("  could not write repro: {e}"),
        }
    }
    ExitCode::FAILURE
}
