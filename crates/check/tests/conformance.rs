//! The conformance gate as a `cargo test` entry: the full fixed-seed
//! corpus must pass every differential runner on a clean build.
//!
//! Compiled out under the `mutation` feature — there the optimized
//! paths are deliberately broken and `tests/mutation_smoke.rs` takes
//! over.

#![cfg(not(feature = "mutation"))]

use fvl_cache::{CacheGeometry, DataCache};
use fvl_check::{
    corpus, diff, generate, normalize_events, run_boundary_corpus, run_corpus, scalar_replay,
    shrink, OracleCache, OracleHybrid, OracleHybridStats, OraclePolicy, OracleReuse, Pattern,
    BOUNDARY_ACCESS_COUNTS, DEFAULT_CASES, DEFAULT_TRACE_ACCESSES, POLICY_GEOMETRIES,
};
use fvl_mem::{Access, AccessKind, Trace, TraceEvent};
use std::collections::HashSet;

#[test]
fn full_fixed_seed_corpus_is_green() {
    let report = run_corpus(DEFAULT_CASES, DEFAULT_TRACE_ACCESSES);
    assert_eq!(report.cases, DEFAULT_CASES);
    assert!(
        report.is_green(),
        "conformance corpus failed: {:#?}",
        report.failures
    );
}

#[test]
fn boundary_length_corpus_is_green() {
    // Lengths straddling the v2.2 control-group seam and the trace
    // store's 64 KiB chunk seam, across every pattern.
    let report = run_boundary_corpus();
    assert_eq!(
        report.cases,
        BOUNDARY_ACCESS_COUNTS.len() * Pattern::ALL.len()
    );
    assert!(
        report.is_green(),
        "boundary corpus failed: {:#?}",
        report.failures
    );
}

#[test]
fn corpus_covers_every_pattern() {
    let traces = corpus(DEFAULT_CASES, 100);
    assert_eq!(traces.len(), DEFAULT_CASES);
    // Rotation over 4 patterns with 64 cases touches each 16 times; the
    // patterns are distinguishable by their footprints.
    let region_traces = traces
        .iter()
        .filter(|t| {
            t.events()
                .iter()
                .any(|e| !matches!(e, TraceEvent::Access(_)))
        })
        .count();
    assert!(
        region_traces >= DEFAULT_CASES / 4,
        "region patterns present"
    );
}

#[test]
fn generation_is_reproducible_across_calls() {
    for pattern in Pattern::ALL {
        let a = generate(0xC0FFEE, pattern, 400);
        let b = generate(0xC0FFEE, pattern, 400);
        assert_eq!(a.events(), b.events(), "{pattern:?}");
    }
}

#[test]
fn budget_pattern_sits_exactly_on_the_access_limit() {
    for accesses in [1u64, 63, 64, 100] {
        let trace = generate(5, Pattern::BudgetExact, accesses);
        assert_eq!(trace.accesses(), accesses, "budget {accesses}");
    }
}

#[test]
fn shrinker_minimizes_a_differential_failure() {
    // A synthetic "bug": the predicate flags traces containing a store
    // of the poison value — the same interface a real divergence uses.
    let mut events: Vec<TraceEvent> = (0..300u32)
        .map(|i| TraceEvent::Access(Access::store(0x1000 + (i % 64) * 4, i % 8)))
        .collect();
    events[217] = TraceEvent::Access(Access::store(0x2000, 0xBAD_F00D));
    let trace = Trace::from_events(events);
    let mut fails = |t: &Trace| t.iter_accesses().any(|a| a.value == 0xBAD_F00D);
    let small = shrink(&trace, &mut fails);
    assert!(fails(&small));
    assert_eq!(small.len(), 1, "shrunk to the single poison store");
}

#[test]
fn shrinker_output_is_memory_consistent() {
    // Delete-heavy shrinking on a trace whose loads depend on stores:
    // whatever survives must still be replayable without tripping the
    // simulators' load-value oracle.
    let trace = generate(21, Pattern::RegionStorm, 300);
    let mut fails = |t: &Trace| t.accesses() >= 40; // arbitrary size predicate
    let small = shrink(&trace, &mut fails);
    assert!(small.accesses() >= 40);
    let mut events = small.events().to_vec();
    let before = events.clone();
    normalize_events(&mut events);
    assert_eq!(events, before, "shrunk trace was already consistent");
    assert!(
        diff::check_trace(&small).is_empty(),
        "shrunk trace replays cleanly"
    );
}

#[test]
fn every_runner_individually_passes_an_adversarial_trace() {
    let trace = generate(77, Pattern::DmcAliasing, 500);
    assert_eq!(diff::diff_replay(&trace), None);
    assert_eq!(diff::diff_cache(&trace), None);
    assert_eq!(diff::diff_encode(&trace), None);
    assert_eq!(diff::diff_hybrid(&trace), None);
    assert_eq!(diff::diff_hybrid_oracle(&trace), None);
    assert_eq!(diff::diff_sweep(&trace), None);
    assert_eq!(diff::diff_corpus(&trace), None);
    assert_eq!(diff::diff_reuse(&trace), None);
    assert_eq!(diff::diff_classify(&trace), None);
    assert_eq!(diff::diff_victim(&trace), None);
    assert_eq!(diff::diff_compressed(&trace), None);
}

#[test]
fn corpus_fills_and_evicts_every_reuse_bucket() {
    // The word-line shapes of the reuse differential only prove the
    // bucket bookkeeping if the generated traces reach every depth
    // bucket and overflow the top capacity.
    let traces = corpus(DEFAULT_CASES, DEFAULT_TRACE_ACCESSES);
    for &(line_bytes, levels) in diff::REUSE_SHAPES.iter().filter(|s| s.0 == 4) {
        let top_capacity = 1usize << (levels - 1);
        let mut bucket_hits = vec![0u64; levels];
        let mut evicting_traces = 0;
        for trace in &traces {
            let mut oracle = OracleReuse::new(line_bytes, levels);
            scalar_replay(trace, &mut oracle);
            for (level, hits) in bucket_hits.iter_mut().enumerate() {
                let below = if level == 0 {
                    0
                } else {
                    oracle.hits(level - 1)
                };
                *hits += oracle.hits(level) - below;
            }
            let lines: HashSet<u32> = trace.iter_accesses().map(|a| a.addr / line_bytes).collect();
            if lines.len() > top_capacity {
                evicting_traces += 1;
            }
        }
        assert!(
            bucket_hits.iter().all(|&h| h > 0),
            "{levels} levels: some bucket never hit: {bucket_hits:?}"
        );
        assert!(
            evicting_traces > DEFAULT_CASES / 2,
            "{levels} levels: only {evicting_traces} traces overflow {top_capacity} lines"
        );
    }
}

#[test]
fn corpus_fills_and_evicts_the_map_indexed_shape() {
    // The map-indexed probe runs only above DataCache::INDEXED_ASSOC
    // ways. The zoo's widest shape must sit there as one
    // fully-associative set, in both differential tables, and the
    // generated corpus must overfill that set so every policy's victim
    // logic fires behind the map.
    let &(size, line, assoc) = diff::ZOO_GEOMETRIES
        .iter()
        .max_by_key(|g| g.2)
        .expect("zoo is non-empty");
    assert!(assoc > DataCache::INDEXED_ASSOC);
    let geom = CacheGeometry::new(size, line, assoc).expect("valid geometry");
    assert_eq!(geom.sets(), 1, "fully associative");
    assert!(POLICY_GEOMETRIES.contains(&(size, line, assoc)));
    let traces = corpus(DEFAULT_CASES, DEFAULT_TRACE_ACCESSES);
    let evicting = traces
        .iter()
        .filter(|trace| {
            let mut oracle = OracleCache::new(size, line, assoc, OraclePolicy::WriteBack);
            scalar_replay(trace, &mut oracle);
            // Every fetch past the first `assoc` displaces a line.
            oracle.stats().fetches > u64::from(assoc)
        })
        .count();
    assert!(
        evicting > DEFAULT_CASES / 2,
        "only {evicting} of {DEFAULT_CASES} traces evict from the {assoc}-way set"
    );
}

#[test]
fn corpus_exercises_every_hybrid_path() {
    // The hybrid oracle differential only proves the FVC bookkeeping
    // if the generated traces drive every path of the policy: FVC
    // hits of both kinds, write-allocates, transfers, inserts and
    // skipped inserts, clean and dirty FVC victims, and occupancy
    // samples over a non-empty FVC.
    let traces = corpus(16, DEFAULT_TRACE_ACCESSES);
    let mut paths = OracleHybridStats::default();
    let mut dirty_victim_shapes = 0;
    for (size, line, assoc) in diff::HYBRID_GEOMETRIES {
        let mut shape_dirty_victims = 0;
        for (_, options) in diff::hybrid_variants() {
            for trace in &traces {
                let values = diff::value_ranking(trace, 7);
                let mut oracle = OracleHybrid::new(
                    size,
                    line,
                    assoc,
                    diff::HYBRID_FVC_ENTRIES,
                    &values,
                    options,
                );
                scalar_replay(trace, &mut oracle);
                let s = oracle.stats();
                paths.fvc_read_hits += s.fvc_read_hits;
                paths.fvc_write_hits += s.fvc_write_hits;
                paths.fvc_write_allocs += s.fvc_write_allocs;
                paths.transfer_moves += s.transfer_moves;
                paths.dmc_to_fvc_inserts += s.dmc_to_fvc_inserts;
                paths.fvc_insert_skips += s.fvc_insert_skips;
                paths.fvc_evictions += s.fvc_evictions;
                paths.occupancy_samples += s.occupancy_samples;
                shape_dirty_victims += s.fvc_dirty_evictions;
            }
        }
        if shape_dirty_victims > 0 {
            dirty_victim_shapes += 1;
        }
    }
    assert!(paths.fvc_read_hits > 0, "{paths:?}");
    assert!(paths.fvc_write_hits > 0, "{paths:?}");
    assert!(paths.fvc_write_allocs > 0, "{paths:?}");
    assert!(paths.transfer_moves > 0, "{paths:?}");
    assert!(paths.dmc_to_fvc_inserts > 0, "{paths:?}");
    assert!(paths.fvc_insert_skips > 0, "{paths:?}");
    assert!(paths.fvc_evictions > 0, "{paths:?}");
    assert!(paths.occupancy_samples > 0, "{paths:?}");
    assert_eq!(
        dirty_victim_shapes,
        diff::HYBRID_GEOMETRIES.len(),
        "every DMC shape must displace a dirty FVC line"
    );
}

#[test]
fn hybrid_diff_covers_the_never_latched_path() {
    // A 1-access trace: window = max(1, 0) = 1 latches immediately;
    // an empty trace never latches. Both must agree with the mirror.
    let empty = Trace::from_events(Vec::new());
    assert_eq!(diff::diff_hybrid(&empty), None);
    let one = Trace::from_events(vec![TraceEvent::Access(Access::store(0x40, 0))]);
    assert_eq!(diff::diff_hybrid(&one), None);
}

#[test]
fn normalize_repairs_loads_after_store_deletion() {
    let mut events = vec![
        TraceEvent::Access(Access::store(0x100, 7)),
        TraceEvent::Access(Access::load(0x100, 7)),
        TraceEvent::Access(Access::load(0x104, 9)), // stale: no store wrote 9
    ];
    normalize_events(&mut events);
    let values: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Access(a) if a.kind == AccessKind::Load => Some(a.value),
            _ => None,
        })
        .collect();
    assert_eq!(values, vec![7, 0]);
}
