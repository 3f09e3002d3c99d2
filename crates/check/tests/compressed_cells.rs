//! Extension 2's compressed cells, recomputed by the naive
//! `OracleCompressed` on the six quick FV captures, must equal what
//! `CompressedCache` counts: the 16 KB direct-mapped frames of 32-byte
//! lines compressing against each trace's top 7 accessed values, with
//! the stats, the expansions and the compressed fraction (bit for bit)
//! all matching.

#![cfg(not(feature = "mutation"))]

use fvl_bench::data::ExperimentContext;
use fvl_cache::{CacheGeometry, Simulator};
use fvl_check::OracleCompressed;
use fvl_core::{CompressedCache, FrequentValueSet};

#[test]
fn oracle_matches_ext2s_compressed_cache_on_the_quick_fv_traces() {
    let ctx = ExperimentContext::quick();
    let (size, line) = (16 * 1024, 32);
    let geom = CacheGeometry::new(size, line, 1).expect("valid geometry");
    let mut expansions = 0;
    for name in ctx.fv_six() {
        let data = ctx.capture(name);
        // ext2's value set: the profiled ranking's first seven values.
        let ranking = data.counter.ranking();
        let top = &ranking[..ranking.len().min(7)];
        let values = FrequentValueSet::new(top.to_vec()).expect("nonempty ranking");
        let mut sim = CompressedCache::new(geom, values);
        data.trace.replay_into(&mut sim);
        let mut oracle = OracleCompressed::new(size, line, top);
        data.trace.replay_into(&mut oracle);
        let (got, want) = (sim.stats(), oracle.stats());
        assert!(want.matches(got), "{name}: {got:?} vs oracle {want:?}");
        assert_eq!(sim.expansions(), oracle.expansions(), "{name}");
        assert_eq!(
            sim.avg_compressed_fraction().to_bits(),
            oracle.avg_compressed_fraction().to_bits(),
            "{name}"
        );
        assert_eq!(sim.traffic_words(), oracle.traffic_words(), "{name}");
        assert!(oracle.avg_compressed_fraction() > 0.0, "{name} sampled");
        expansions += oracle.expansions();
    }
    assert!(expansions > 0, "some store breaks a compressed line");
}
