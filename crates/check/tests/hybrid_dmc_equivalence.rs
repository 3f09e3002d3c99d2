//! A DMC+FVC hybrid whose FVC can never hold a line is its DMC: with
//! write-allocation into the FVC off and an insertion threshold no
//! line can reach, every access takes the conventional path, so the
//! hybrid must count exactly what `CacheSim` counts for the same
//! geometry and replacement policy.
//!
//! It does not, today, in a known set of cells. The hybrid reports a
//! hit to the replacement policy after every DMC fill
//! (`DataCache::touch`); `CacheSim`'s miss path does not. Under RRIP
//! that resets the new line's re-reference value and trains its
//! signature as reused; under pinned-LRU it ages the set twice, which
//! changes a victim once saturated ages tie. LRU, random and every
//! direct-mapped cache are immune. The cells listed
//! below are the divergences this defect causes; the test fails on any
//! new divergence, and on the day the fix lands (then the lists become
//! empty).

#![cfg(not(feature = "mutation"))]

use fvl_bench::data::ExperimentContext;
use fvl_cache::{CacheGeometry, CacheSim, ReplacementKind, Simulator};
use fvl_check::{corpus, diff, DEFAULT_CASES, DEFAULT_TRACE_ACCESSES};
use fvl_core::{FrequentValueSet, HybridCache, HybridConfig};
use fvl_mem::{AccessSink, Word};
use std::collections::BTreeSet;

/// The DMC associativities compared, as ext5 sweeps them.
const WAYS: [u32; 4] = [1, 2, 4, 8];

/// `(trace, policy, ways)` of one divergent comparison.
type Cell = (String, String, u32);

/// Divergent cells over the generator corpus, `("corpus", policy,
/// ways)`: a cell diverges if any corpus trace does. Pinned-LRU's
/// double ageing keeps the ages' order and only matters once they
/// saturate at 255, which no 600-access trace reaches.
const EXPECTED_CORPUS: [(&str, &str, u32); 3] = [
    ("corpus", "RRIP", 2),
    ("corpus", "RRIP", 4),
    ("corpus", "RRIP", 8),
];

/// Divergent cells over the six quick FV traces at ext5's 8 KB DMC
/// with 32-byte lines: RRIP on five of the six (go is immune),
/// pinned-LRU on li and vortex at 4 and 8 ways.
const EXPECTED_QUICK: [(&str, &str, u32); 18] = [
    ("gcc", "RRIP", 2),
    ("gcc", "RRIP", 4),
    ("gcc", "RRIP", 8),
    ("li", "RRIP", 2),
    ("li", "RRIP", 4),
    ("li", "RRIP", 8),
    ("li", "pinLRU", 4),
    ("li", "pinLRU", 8),
    ("m88ksim", "RRIP", 4),
    ("m88ksim", "RRIP", 8),
    ("perl", "RRIP", 2),
    ("perl", "RRIP", 4),
    ("perl", "RRIP", 8),
    ("vortex", "RRIP", 2),
    ("vortex", "RRIP", 4),
    ("vortex", "RRIP", 8),
    ("vortex", "pinLRU", 4),
    ("vortex", "pinLRU", 8),
];

/// A hybrid that can never put a line in its FVC.
fn fvc_less_hybrid(geom: CacheGeometry, kind: ReplacementKind, values: &[Word]) -> HybridCache {
    let values = FrequentValueSet::new(values.to_vec()).expect("non-empty ranking");
    HybridCache::new(
        HybridConfig::new(geom, 512, values)
            .dmc_replacement(kind)
            .write_allocate_fvc(false)
            .min_frequent_words(u32::MAX),
    )
}

/// The cells, one per (policy, ways), where the hybrid's counters or
/// traffic differ from `CacheSim`'s after `replay` feeds both.
fn divergent_cells(
    name: &str,
    geom_at: impl Fn(u32) -> CacheGeometry,
    values: &[Word],
    replay: impl Fn(&mut [&mut dyn AccessSink]),
) -> BTreeSet<Cell> {
    let mut cells = BTreeSet::new();
    for kind in ReplacementKind::ALL {
        for ways in WAYS {
            let geom = geom_at(ways);
            let mut plain = CacheSim::new(geom).with_replacement(kind);
            let mut hybrid = fvc_less_hybrid(geom, kind, values);
            replay(&mut [&mut plain, &mut hybrid]);
            assert_eq!(hybrid.hybrid_stats().dmc_to_fvc_inserts, 0);
            assert_eq!(hybrid.hybrid_stats().fvc_write_allocs, 0);
            if plain.stats() != Simulator::stats(&hybrid)
                || plain.traffic_words() != hybrid.traffic_words()
            {
                cells.insert((name.to_string(), kind.to_string(), ways));
            }
        }
    }
    cells
}

fn expected(cells: &[(&str, &str, u32)]) -> BTreeSet<Cell> {
    cells
        .iter()
        .map(|&(name, kind, ways)| (name.to_string(), kind.to_string(), ways))
        .collect()
}

#[test]
fn fvc_less_hybrid_matches_cache_sim_on_the_corpus_except_known_cells() {
    let mut observed = BTreeSet::new();
    for trace in corpus(DEFAULT_CASES, DEFAULT_TRACE_ACCESSES) {
        let values = diff::value_ranking(&trace, 7);
        if values.is_empty() {
            continue;
        }
        let zoo_shape = |ways: u32| {
            let &(size, line, _) = diff::ZOO_GEOMETRIES
                .iter()
                .find(|g| g.2 == ways)
                .expect("the zoo has every swept associativity");
            CacheGeometry::new(size, line, ways).expect("valid geometry")
        };
        observed.extend(divergent_cells("corpus", zoo_shape, &values, |sinks| {
            for sink in sinks.iter_mut() {
                trace.replay_into(&mut **sink);
            }
        }));
    }
    assert_eq!(observed, expected(&EXPECTED_CORPUS));
}

#[test]
fn fvc_less_hybrid_matches_cache_sim_on_quick_traces_except_known_cells() {
    let ctx = ExperimentContext::quick();
    let mut observed = BTreeSet::new();
    for name in ctx.fv_six() {
        let data = ctx.capture(name);
        let ext5_shape = |ways: u32| CacheGeometry::new(8 * 1024, 32, ways).expect("valid");
        observed.extend(divergent_cells(
            name,
            ext5_shape,
            &data.top_accessed(7),
            |sinks| {
                for sink in sinks.iter_mut() {
                    data.trace.replay_into(&mut **sink);
                }
            },
        ));
    }
    assert_eq!(observed, expected(&EXPECTED_QUICK));
}
