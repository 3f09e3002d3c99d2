//! Figure 15's victim-cache cells, recomputed by the naive
//! `OracleVictim` on the six quick FV captures, must equal what
//! `VictimHybrid` counts, stat for stat: the 4 KB direct-mapped DMC
//! of 32-byte lines with the 16-entry (equal area) and 4-entry (equal
//! access time, also verify's claim 7) victim caches.

#![cfg(not(feature = "mutation"))]

use fvl_bench::data::ExperimentContext;
use fvl_cache::{CacheGeometry, Simulator};
use fvl_check::OracleVictim;
use fvl_core::VictimHybrid;

#[test]
fn oracle_matches_fig15s_victim_caches_on_the_quick_fv_traces() {
    let ctx = ExperimentContext::quick();
    let (size, line) = (4 * 1024, 32);
    let geom = CacheGeometry::new(size, line, 1).expect("valid geometry");
    let mut vc_hits = 0;
    for name in ctx.fv_six() {
        let data = ctx.capture(name);
        for entries in [16, 4] {
            let mut sim = VictimHybrid::new(geom, entries);
            data.trace.replay_into(&mut sim);
            let mut oracle = OracleVictim::new(size, line, 1, entries);
            data.trace.replay_into(&mut oracle);
            let cell = format!("{name}, {entries}-entry VC");
            let (got, want) = (sim.stats(), oracle.stats());
            assert!(want.matches(got), "{cell}: {got:?} vs oracle {want:?}");
            assert_eq!(sim.vc_hits(), oracle.vc_hits(), "{cell}");
            assert_eq!(sim.traffic_words(), oracle.traffic_words(), "{cell}");
            vc_hits += oracle.vc_hits();
        }
    }
    assert!(vc_hits > 0, "the victim caches serve some misses");
}
