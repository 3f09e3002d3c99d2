//! The simulation memo's guarantees: a memoized result is the result
//! of a fresh replay, field for field; racing requests for one spec
//! share one execution; and a run's executed and served counts do not
//! depend on the worker count.

use fvl_bench::engine::Engine;
use fvl_bench::experiments;
use fvl_bench::sim::{MemoStats, SimResult, SimSpec};
use fvl_bench::{ExperimentContext, WorkloadData};
use fvl_cache::{CacheGeometry, CacheSim, ReplacementKind, Simulator};
use fvl_core::{FrequentValueSet, HybridCache, HybridConfig};
use fvl_workloads::{by_name, InputSize};
use std::sync::{Arc, Barrier};

/// Long enough that a 2 KB cache evicts, dirty lines included.
const CAP: Option<u64> = Some(20_000);

fn capture(name: &str) -> WorkloadData {
    WorkloadData::capture_limited(by_name(name, InputSize::Test, 1).unwrap(), CAP)
}

fn geometry(assoc: u32) -> CacheGeometry {
    CacheGeometry::new(2048, 32, assoc).unwrap()
}

/// A fresh `CacheSim` replay, outside the memo.
fn fresh_dmc(data: &WorkloadData, geometry: CacheGeometry, kind: ReplacementKind) -> CacheSim {
    let mut sim = CacheSim::new(geometry).with_replacement(kind);
    data.trace.replay_into(&mut sim);
    sim
}

/// A fresh `HybridCache` replay, outside the memo.
fn fresh_hybrid(
    data: &WorkloadData,
    geometry: CacheGeometry,
    kind: ReplacementKind,
    fvc_entries: u32,
    top_k: usize,
) -> HybridCache {
    let values = FrequentValueSet::from_ranking(&data.counter.ranking(), top_k).unwrap();
    let mut sim =
        HybridCache::new(HybridConfig::new(geometry, fvc_entries, values).dmc_replacement(kind));
    data.trace.replay_into(&mut sim);
    sim
}

fn assert_matches_dmc(result: &SimResult, fresh: &CacheSim, what: &str) {
    assert_eq!(result.stats, *fresh.stats(), "{what}: stats");
    assert_eq!(
        result.traffic_words,
        fresh.traffic_words(),
        "{what}: traffic"
    );
    assert!(result.hybrid.is_none(), "{what}: a DMC has no hybrid stats");
    assert_eq!(result.fvc_data_bytes, 0.0, "{what}: a DMC has no FVC");
}

fn assert_matches_hybrid(result: &SimResult, fresh: &HybridCache, what: &str) {
    let expected = fresh.hybrid_stats();
    let got = result.hybrid_stats();
    assert_eq!(result.stats, *fresh.stats(), "{what}: stats");
    assert_eq!(
        result.traffic_words,
        fresh.traffic_words(),
        "{what}: traffic"
    );
    assert_eq!(got, expected, "{what}: hybrid stats");
    assert_eq!(
        got.occupancy_percent_sum.to_bits(),
        expected.occupancy_percent_sum.to_bits(),
        "{what}: occupancy bit for bit"
    );
    assert_eq!(
        result.fvc_data_bytes.to_bits(),
        fresh.fvc_data_bytes().to_bits(),
        "{what}: FVC bytes"
    );
}

#[test]
fn memoized_results_equal_fresh_replays_for_every_policy_and_way_count() {
    let data = capture("m88ksim");
    let (mut requests, mut distinct) = (0, 0);
    for kind in ReplacementKind::ALL {
        for (assoc, top_k) in [(1, 1), (2, 3), (4, 7)] {
            let g = geometry(assoc);
            let dmc = SimSpec::Dmc {
                geometry: g,
                replacement: kind,
            };
            let hybrid = SimSpec::Hybrid {
                geometry: g,
                dmc_replacement: kind,
                fvc_entries: 64,
                top_k,
            };
            let fresh_dmc = fresh_dmc(&data, g, kind);
            let fresh_hybrid = fresh_hybrid(&data, g, kind, 64, top_k);
            assert!(
                fresh_dmc.stats().writebacks > 0,
                "{g} {kind}: no dirty eviction"
            );
            assert!(
                fresh_hybrid.hybrid_stats().fvc_evictions > 0,
                "{g} {kind}: no FVC eviction"
            );
            // The first request replays, the second is served. A
            // direct-mapped pair of another policy is served from the
            // LRU pair's entries both times.
            if assoc > 1 || kind == ReplacementKind::Lru {
                distinct += 2;
            }
            for round in ["first", "second"] {
                let what = format!("{g} {kind} top-{top_k} ({round})");
                assert_matches_dmc(&data.simulate(dmc), &fresh_dmc, &what);
                assert_matches_hybrid(&data.simulate(hybrid), &fresh_hybrid, &what);
                requests += 2;
            }
        }
    }
    assert_eq!((requests, distinct), (48, 18));
    let memo = data.memo_stats();
    let accesses = data.trace.accesses();
    assert_eq!(
        memo,
        MemoStats {
            distinct,
            executed: distinct,
            served: requests - distinct,
            executed_accesses: distinct * accesses,
            served_accesses: (requests - distinct) * accesses,
        }
    );
}

#[test]
fn direct_mapped_specs_of_every_policy_share_the_lru_entry() {
    let data = capture("li");
    let g = geometry(1);
    for kind in ReplacementKind::ALL {
        data.simulate(SimSpec::Dmc {
            geometry: g,
            replacement: kind,
        });
        data.simulate(SimSpec::Hybrid {
            geometry: g,
            dmc_replacement: kind,
            fvc_entries: 64,
            top_k: 7,
        });
    }
    let memo = data.memo_stats();
    assert_eq!((memo.distinct, memo.executed, memo.served), (2, 2, 6));
    // A 2-way cache's policies stay apart.
    for kind in ReplacementKind::ALL {
        data.simulate(SimSpec::Dmc {
            geometry: geometry(2),
            replacement: kind,
        });
    }
    assert_eq!(data.memo_stats().executed, 2 + 4);
}

#[test]
fn spec_keys_separate_by_every_knob() {
    let g = geometry(2);
    assert_eq!(
        SimSpec::dmc(g),
        SimSpec::Dmc {
            geometry: g,
            replacement: ReplacementKind::Lru
        }
    );
    assert_eq!(
        SimSpec::hybrid(g, 512, 3),
        SimSpec::Hybrid {
            geometry: g,
            dmc_replacement: ReplacementKind::Lru,
            fvc_entries: 512,
            top_k: 3
        }
    );
    // Specs that differ in any knob are different keys.
    let data = capture("li");
    for spec in [
        SimSpec::hybrid(g, 512, 3),
        SimSpec::hybrid(g, 512, 7),
        SimSpec::hybrid(g, 256, 7),
        SimSpec::hybrid(geometry(1), 512, 7),
        SimSpec::Hybrid {
            geometry: g,
            dmc_replacement: ReplacementKind::Rrip,
            fvc_entries: 512,
            top_k: 7,
        },
    ] {
        data.simulate(spec);
    }
    assert_eq!(data.memo_stats().executed, 5);
    assert_eq!(data.memo_stats().served, 0);
}

#[test]
fn racing_requests_for_one_spec_share_one_execution() {
    let data = capture("li");
    let spec = SimSpec::hybrid(geometry(1), 64, 7);
    // All eight ask at the same moment.
    let start = Barrier::new(8);
    let results: Vec<SimResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    data.simulate(spec)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for r in &results[1..] {
        assert_eq!(r, &results[0], "every request gets the same result");
    }
    let memo = data.memo_stats();
    assert_eq!(
        (memo.distinct, memo.executed, memo.served),
        (1, 1, 7),
        "eight racing threads must block on a single replay"
    );
}

/// The memo totals of one `all --smoke` pass at `jobs` workers.
fn smoke_totals(jobs: usize) -> MemoStats {
    let ctx = ExperimentContext::smoke().with_engine(Arc::new(Engine::new(jobs)));
    for (_, run) in experiments::all() {
        run(&ctx);
    }
    ctx.store().sim_totals()
}

#[test]
fn smoke_run_totals_do_not_depend_on_the_worker_count() {
    let serial = smoke_totals(1);
    assert_eq!(serial, smoke_totals(4));
    assert_eq!(serial.executed, serial.distinct, "each spec executed once");
    // 882 requests; 54 of the 298 served are ext5's direct-mapped
    // random, RRIP and pinned-LRU cells, served from the LRU entries.
    assert_eq!((serial.distinct, serial.served), (584, 298));
}
