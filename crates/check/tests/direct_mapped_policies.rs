//! A direct-mapped cache has one way to evict, so its replacement
//! policy cannot change what it counts: for every policy, a fresh
//! 1-way `CacheSim` and `HybridCache` equal the LRU ones field for
//! field. The simulation memo relies on it when it serves every 1-way
//! spec from the LRU spec's entry (`fvl_bench::sim`).

#![cfg(not(feature = "mutation"))]

use fvl_bench::data::ExperimentContext;
use fvl_cache::{CacheGeometry, CacheSim, ReplacementKind, Simulator};
use fvl_check::{corpus, diff, DEFAULT_CASES, DEFAULT_TRACE_ACCESSES};
use fvl_core::{FrequentValueSet, HybridCache, HybridConfig};
use fvl_mem::{AccessSink, Word};

/// Direct-mapped shapes small enough that short traces evict.
const GEOMETRIES: [(u64, u32); 3] = [(256, 16), (1024, 16), (1024, 32)];

/// Everything a `CacheSim` and a `HybridCache` of one policy report,
/// floats as bits.
fn results(
    geom: CacheGeometry,
    kind: ReplacementKind,
    values: &[Word],
    replay: &impl Fn(&mut dyn AccessSink),
) -> String {
    let mut plain = CacheSim::new(geom).with_replacement(kind);
    replay(&mut plain);
    let set = FrequentValueSet::new(values.to_vec()).expect("non-empty ranking");
    let mut hybrid = HybridCache::new(HybridConfig::new(geom, 16, set).dmc_replacement(kind));
    replay(&mut hybrid);
    let h = hybrid.hybrid_stats();
    format!(
        "{:?} {} | {:?} {:?} {} {} {:#x}",
        plain.stats(),
        plain.traffic_words(),
        Simulator::stats(&hybrid),
        h,
        h.occupancy_percent_sum.to_bits(),
        hybrid.traffic_words(),
        hybrid.fvc_data_bytes().to_bits(),
    )
}

/// Checks every policy against LRU on every direct-mapped shape;
/// returns how many shapes evicted a dirty line.
fn check(name: &str, values: &[Word], replay: impl Fn(&mut dyn AccessSink)) -> usize {
    let mut evicting = 0;
    for (size, line) in GEOMETRIES {
        let geom = CacheGeometry::new(size, line, 1).expect("valid geometry");
        let lru = results(geom, ReplacementKind::Lru, values, &replay);
        for kind in ReplacementKind::ALL {
            assert_eq!(
                results(geom, kind, values, &replay),
                lru,
                "{name} {geom} {kind}"
            );
        }
        let mut plain = CacheSim::new(geom);
        replay(&mut plain);
        evicting += usize::from(plain.stats().writebacks > 0);
    }
    evicting
}

#[test]
fn every_policy_equals_lru_on_the_six_fv_smoke_captures() {
    let ctx = ExperimentContext::smoke();
    let mut evicting = 0;
    for name in ctx.fv_six() {
        let data = ctx.capture(name);
        let values = data.top_accessed(7);
        evicting += check(name, &values, |sink| data.trace.replay_into(sink));
    }
    assert!(evicting > 0, "no shape evicted a dirty line");
}

#[test]
fn every_policy_equals_lru_on_the_generator_corpus() {
    let mut evicting = 0;
    for (i, trace) in corpus(DEFAULT_CASES, DEFAULT_TRACE_ACCESSES)
        .iter()
        .enumerate()
    {
        let values = diff::value_ranking(trace, 7);
        if values.is_empty() {
            continue;
        }
        evicting += check(&format!("corpus[{i}]"), &values, |sink| {
            trace.replay_into(sink)
        });
    }
    assert!(evicting > 0, "no shape evicted a dirty line");
}
