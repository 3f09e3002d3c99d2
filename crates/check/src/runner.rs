//! Corpus execution: generate, check, shrink, report.

use crate::diff::{check_trace, diff_cache_with, diff_serve, trace_fails};
use crate::gen::{case_params, generate, Pattern};
use crate::shrink::shrink;
use fvl_cache::ReplacementKind;
use fvl_mem::Trace;

/// Number of corpus cases the conformance gate runs by default.
pub const DEFAULT_CASES: usize = 64;

/// Access events per generated corpus trace by default.
pub const DEFAULT_TRACE_ACCESSES: u64 = 600;

/// Trace lengths that sit exactly on the replay paths' internal seams:
/// empty and single-event traces, the 64-access wide-replay block
/// boundary (`ACCESS_BLOCK`) minus/at/plus one, and the 64 KiB trace
/// store chunk boundary (8192 packed accesses at 8 bytes each)
/// minus/at/plus one.
pub const BOUNDARY_ACCESS_COUNTS: [u64; 8] = [0, 1, 63, 64, 65, 8191, 8192, 8193];

/// Default case count for the serve corpus: each case round-trips its
/// trace through a freshly spawned loopback daemon, so the tier runs
/// fewer, not smaller, traces than the main corpus.
pub const SERVE_CASES: usize = 12;

/// The associative shapes the per-policy CI matrix leg sweeps: the
/// 2-way, 8-way and fully-associative 32-way zoo geometries (16-byte
/// lines), chosen so each policy's victim logic fires with one fallback
/// way, with seven, and with thirty-one behind the map-indexed probe
/// (above [`fvl_cache::DataCache::INDEXED_ASSOC`]).
pub const POLICY_GEOMETRIES: [(u64, u32, u32); 3] = [(512, 16, 2), (512, 16, 8), (512, 16, 32)];

/// One failing corpus case, with its already-shrunk reproduction trace.
#[derive(Clone, Debug)]
pub struct CaseFailure {
    /// Corpus index of the case.
    pub index: usize,
    /// Generator seed.
    pub seed: u64,
    /// Generator pattern.
    pub pattern: Pattern,
    /// Divergence descriptions from [`check_trace`] on the full trace.
    pub failures: Vec<String>,
    /// The greedily minimized trace that still fails.
    pub shrunk: Trace,
}

/// Outcome of a corpus run.
#[derive(Clone, Debug)]
pub struct CorpusReport {
    /// Number of cases executed.
    pub cases: usize,
    /// The failing cases (empty on a green run).
    pub failures: Vec<CaseFailure>,
}

impl CorpusReport {
    /// Whether every case passed.
    pub fn is_green(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `cases` fixed-seed corpus traces of `accesses` access events
/// through every differential runner, shrinking each failing trace
/// before reporting it.
pub fn run_corpus(cases: usize, accesses: u64) -> CorpusReport {
    let mut failures = Vec::new();
    for index in 0..cases {
        let (seed, pattern) = case_params(index);
        let trace = generate(seed, pattern, accesses);
        let messages = check_trace(&trace);
        if !messages.is_empty() {
            let shrunk = shrink(&trace, &mut trace_fails);
            failures.push(CaseFailure {
                index,
                seed,
                pattern,
                failures: messages,
                shrunk,
            });
        }
    }
    CorpusReport { cases, failures }
}

/// Runs `cases` fixed-seed corpus traces through the cache
/// differential alone, scoped to one replacement kind over
/// [`POLICY_GEOMETRIES`] — the per-policy leg of the CI conformance
/// matrix, where each matrix job pins one policy so a red leg names
/// the broken policy directly. Failing traces are shrunk against the
/// same scoped predicate, keeping the repro attributable to that
/// policy rather than to whichever runner fails first.
pub fn run_policy_corpus(kind: ReplacementKind, cases: usize, accesses: u64) -> CorpusReport {
    let mut failures = Vec::new();
    for index in 0..cases {
        let (seed, pattern) = case_params(index);
        let trace = generate(seed, pattern, accesses);
        if let Some(message) = diff_cache_with(&trace, &POLICY_GEOMETRIES, kind) {
            let shrunk = shrink(&trace, &mut |t: &Trace| {
                diff_cache_with(t, &POLICY_GEOMETRIES, kind).is_some()
            });
            failures.push(CaseFailure {
                index,
                seed,
                pattern,
                failures: vec![message],
                shrunk,
            });
        }
    }
    CorpusReport { cases, failures }
}

/// Runs `cases` fixed-seed corpus traces through the serve
/// differential alone: the frame-codec byte round-trip plus a loopback
/// daemon session whose simulation counters must match the in-process
/// simulator. Failing traces are shrunk against the same predicate so
/// the repro stays attributable to the wire path.
pub fn run_serve_corpus(cases: usize, accesses: u64) -> CorpusReport {
    let mut failures = Vec::new();
    for index in 0..cases {
        let (seed, pattern) = case_params(index);
        let trace = generate(seed, pattern, accesses);
        if let Some(message) = diff_serve(&trace) {
            let shrunk = shrink(&trace, &mut |t: &Trace| diff_serve(t).is_some());
            failures.push(CaseFailure {
                index,
                seed,
                pattern,
                failures: vec![message],
                shrunk,
            });
        }
    }
    CorpusReport { cases, failures }
}

/// Runs every [`BOUNDARY_ACCESS_COUNTS`] trace length through every
/// pattern and differential runner. These lengths straddle the wide
/// replay's 64-access block seam and the trace store's 64 KiB chunk
/// seam, where a lane- or chunk-boundary bug would hide from the
/// uniformly sized default corpus.
pub fn run_boundary_corpus() -> CorpusReport {
    let mut failures = Vec::new();
    let mut cases = 0;
    for (slot, &accesses) in BOUNDARY_ACCESS_COUNTS.iter().enumerate() {
        for (which, &pattern) in Pattern::ALL.iter().enumerate() {
            let index = slot * Pattern::ALL.len() + which;
            let seed = 0xB0_0000 + index as u64;
            let trace = generate(seed, pattern, accesses);
            let messages = check_trace(&trace);
            cases += 1;
            if !messages.is_empty() {
                let shrunk = shrink(&trace, &mut trace_fails);
                failures.push(CaseFailure {
                    index,
                    seed,
                    pattern,
                    failures: messages,
                    shrunk,
                });
            }
        }
    }
    CorpusReport { cases, failures }
}

#[cfg(all(test, not(feature = "mutation")))]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_is_green() {
        let report = run_corpus(8, 200);
        assert_eq!(report.cases, 8);
        assert!(report.is_green(), "{:?}", report.failures);
    }

    #[test]
    fn small_policy_corpus_is_green_for_every_kind() {
        for kind in ReplacementKind::ALL {
            let report = run_policy_corpus(kind, 8, 200);
            assert_eq!(report.cases, 8);
            assert!(report.is_green(), "{kind}: {:?}", report.failures);
        }
    }
}
