//! Figure 14's compulsory/capacity/conflict split, recomputed by the
//! naive `OracleClassifier` on the six quick FV captures, must equal
//! what the `MissClassifier` counts for fig14, count for count.

#![cfg(not(feature = "mutation"))]

use fvl_bench::data::ExperimentContext;
use fvl_cache::{CacheGeometry, CacheSim};
use fvl_check::OracleClassifier;
use fvl_mem::{Access, AccessSink};

/// A plain `CacheSim` whose per-access outcome feeds the oracle.
struct Shadowed {
    subject: CacheSim,
    oracle: OracleClassifier,
}

impl AccessSink for Shadowed {
    fn on_access(&mut self, access: Access) {
        let missed = self.subject.access(access);
        self.oracle.observe(access.addr, missed);
    }
}

#[test]
fn oracle_matches_fig14s_split_on_the_quick_fv_traces() {
    let ctx = ExperimentContext::quick();
    // Figure 14's classified cache: 16 KB direct mapped, 32-byte lines.
    let geom = CacheGeometry::new(16 * 1024, 32, 1).expect("valid geometry");
    let mut totals = (0, 0, 0);
    for name in ctx.fv_six() {
        let data = ctx.capture(name);
        let mut classified = CacheSim::new(geom).with_classifier();
        data.trace.replay_into(&mut classified);
        let c = classified.classifier().expect("enabled");
        let mut shadowed = Shadowed {
            subject: CacheSim::new(geom),
            oracle: OracleClassifier::new(geom.lines() as usize, geom.line_bytes()),
        };
        data.trace.replay_into(&mut shadowed);
        let want = shadowed.oracle.counts();
        assert_eq!((c.compulsory(), c.capacity(), c.conflict()), want, "{name}");
        assert_eq!(c.total(), classified.stats().misses(), "{name}");
        totals = (totals.0 + want.0, totals.1 + want.1, totals.2 + want.2);
    }
    assert!(
        totals.0 > 0 && totals.1 > 0 && totals.2 > 0,
        "every class occurs: {totals:?}"
    );
}
