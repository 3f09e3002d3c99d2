//! Integration tests for the replacement-policy zoo: the 1-way LRU
//! simulator must be access-for-access identical to the legacy
//! direct-mapped formulation, and every policy must produce its
//! documented eviction order through the public `DataCache` API.

use fvl_cache::{CacheGeometry, CacheSim, DataCache, ReplacementKind};
use fvl_mem::{Access, AccessSink};
use proptest::prelude::*;
use std::collections::HashMap;

/// The pre-zoo direct-mapped simulator, re-derived from first
/// principles: one line per set, write-back write-allocate, no policy
/// object anywhere. Tracks exactly the observable outcomes the paper's
/// baseline DMC produces (per-access miss bools, write-backs, traffic).
#[derive(Default)]
struct LegacyDirectMapped {
    /// set index -> (line address, dirty)
    lines: HashMap<u32, (u32, bool)>,
    misses: u64,
    hits: u64,
    writebacks: u64,
    fetches: u64,
}

impl LegacyDirectMapped {
    fn access(&mut self, geom: &CacheGeometry, access: Access) -> bool {
        let set = geom.set_index(access.addr);
        let line_addr = geom.line_addr(access.addr);
        let is_store = access.kind.is_store();
        match self.lines.get_mut(&set) {
            Some((resident, dirty)) if *resident == line_addr => {
                self.hits += 1;
                *dirty |= is_store;
                false
            }
            slot => {
                self.misses += 1;
                self.fetches += 1;
                if let Some((_, true)) = slot {
                    self.writebacks += 1;
                }
                self.lines.insert(set, (line_addr, is_store));
                true
            }
        }
    }

    fn flush(&mut self) {
        for (_, dirty) in self.lines.values() {
            if *dirty {
                self.writebacks += 1;
            }
        }
        self.lines.clear();
    }
}

fn arb_accesses() -> impl Strategy<Value = Vec<Access>> {
    // Word-aligned addresses over 16 lines' worth of sets plus aliases,
    // so the 1KB direct-mapped cache sees hits, conflicts, and repeats.
    prop::collection::vec(
        (0u32..1 << 12, any::<u32>(), any::<bool>()).prop_map(|(slot, value, store)| {
            let addr = slot * 4;
            if store {
                Access::store(addr, value)
            } else {
                Access::load(addr, value)
            }
        }),
        0..400,
    )
}

proptest! {
    /// 1-way set-associative LRU (the default zoo policy) is
    /// access-for-access identical to the legacy direct-mapped path:
    /// same per-access miss outcomes, same hit/miss/writeback totals.
    #[test]
    fn one_way_lru_matches_legacy_direct_mapped(accesses in arb_accesses()) {
        let geom = CacheGeometry::new(1024, 16, 1).unwrap();
        let mut sim = CacheSim::new(geom).with_replacement(ReplacementKind::Lru);
        // Generated load values are arbitrary, not memory-consistent.
        sim.set_verify_values(false);
        let mut legacy = LegacyDirectMapped::default();
        for &access in &accesses {
            let missed = sim.access(access);
            let legacy_missed = legacy.access(&geom, access);
            prop_assert_eq!(missed, legacy_missed, "{:?}", access);
        }
        sim.on_finish();
        legacy.flush();
        prop_assert_eq!(sim.stats().hits(), legacy.hits);
        prop_assert_eq!(sim.stats().misses(), legacy.misses);
        prop_assert_eq!(sim.stats().fetches, legacy.fetches);
        prop_assert_eq!(sim.stats().writebacks, legacy.writebacks);
    }

    /// At associativity 1 there is never a victim to choose, so every
    /// policy in the zoo must degenerate to the same direct-mapped
    /// behavior.
    #[test]
    fn all_policies_agree_at_associativity_one(accesses in arb_accesses()) {
        let geom = CacheGeometry::new(1024, 16, 1).unwrap();
        let mut sims: Vec<CacheSim> = ReplacementKind::ALL
            .iter()
            .map(|&kind| {
                let mut sim = CacheSim::new(geom).with_replacement(kind);
                sim.set_verify_values(false);
                sim
            })
            .collect();
        for &access in &accesses {
            let outcomes: Vec<bool> = sims.iter_mut().map(|s| s.access(access)).collect();
            prop_assert!(
                outcomes.iter().all(|&o| o == outcomes[0]),
                "{:?}: {:?}", access, outcomes
            );
        }
        let (first, rest) = sims.split_first_mut().unwrap();
        first.on_finish();
        for sim in rest {
            sim.on_finish();
            prop_assert_eq!(sim.stats(), first.stats());
        }
    }
}

/// Fills the clean line `line_addr` with `data` through
/// `DataCache::fill_with`, returning the displaced line's address and
/// words.
fn fill(cache: &mut DataCache, line_addr: u32, data: &[u32]) -> Option<(u32, Vec<u32>)> {
    let set = cache.geometry().set_index(line_addr);
    let mut evicted = None;
    cache.fill_with(set, line_addr, false, |victim, words| {
        evicted = victim.map(|v| (v.line_addr, words.to_vec()));
        words.copy_from_slice(data);
    });
    evicted
}

/// A 1KB 4-way cache (16 sets of 16B lines) with set 0 filled by lines
/// 0x000, 0x400, 0x800, 0xc00 in that order.
fn filled_4way(kind: ReplacementKind) -> DataCache {
    let geom = CacheGeometry::new(1024, 16, 4).unwrap();
    let mut cache = DataCache::with_replacement(geom, kind);
    for way in 0u32..4 {
        fill(&mut cache, way * 0x400, &[way + 1; 4]);
    }
    cache
}

#[test]
fn lru_evicts_in_recency_order() {
    let mut cache = filled_4way(ReplacementKind::Lru);
    // Touch 0x000 and 0x400; the least recent is now 0x800.
    cache.touch(cache.probe(0x000).unwrap());
    cache.touch(cache.probe(0x400).unwrap());
    let evicted = fill(&mut cache, 0x1000, &[9; 4]).unwrap();
    assert_eq!(evicted.0, 0x800);
    let evicted = fill(&mut cache, 0x1400, &[9; 4]).unwrap();
    assert_eq!(evicted.0, 0xc00);
    // The replacement handle survives on the cache.
    assert_eq!(cache.replacement(), ReplacementKind::Lru);
}

#[test]
fn random_eviction_is_reproducible_for_equal_seeds() {
    let evictions = |seed: u64| -> Vec<u32> {
        let mut cache = filled_4way(ReplacementKind::Random(seed));
        (0..8u32)
            .map(|i| {
                fill(&mut cache, 0x1000 + i * 0x400, &[7; 4])
                    .expect("set full")
                    .0
            })
            .collect()
    };
    assert_eq!(evictions(1), evictions(1));
    assert_ne!(evictions(1), evictions(999));
}

#[test]
fn rrip_evicts_never_rereferenced_lines_first() {
    let mut cache = filled_4way(ReplacementKind::Rrip);
    // Re-reference three of the four ways; the untouched 0x400 line
    // still sits at its insertion RRPV while the others are at 0.
    for addr in [0x000u32, 0x800, 0xc00] {
        cache.touch(cache.probe(addr).unwrap());
    }
    let evicted = fill(&mut cache, 0x1000, &[9; 4]).unwrap();
    assert_eq!(evicted.0, 0x400);
}

#[test]
fn pinned_lru_never_evicts_frequent_value_lines() {
    let geom = CacheGeometry::new(1024, 16, 4).unwrap();
    let mut cache = DataCache::with_replacement(geom, ReplacementKind::PinnedLru);
    fill(&mut cache, 0x000, &[0; 4]); // all zeros: pinned
    fill(&mut cache, 0x400, &[u32::MAX; 4]); // all ones: pinned
    fill(&mut cache, 0x800, &[3; 4]);
    fill(&mut cache, 0xc00, &[4; 4]);
    // Oldest unpinned is 0x800, then 0xc00; pinned lines outlive both.
    let evicted = fill(&mut cache, 0x1000, &[5; 4]).unwrap();
    assert_eq!(evicted.0, 0x800);
    let evicted = fill(&mut cache, 0x1400, &[6; 4]).unwrap();
    assert_eq!(evicted.0, 0xc00);
    assert!(cache.probe(0x000).is_some(), "all-zero line pinned");
    assert!(cache.probe(0x400).is_some(), "all-ones line pinned");
}

#[test]
fn pinned_lru_unpins_on_overwrite() {
    let geom = CacheGeometry::new(64, 16, 4).unwrap(); // one set
    let mut cache = DataCache::with_replacement(geom, ReplacementKind::PinnedLru);
    fill(&mut cache, 0x00, &[0; 4]);
    for way in 1u32..4 {
        fill(&mut cache, way * 0x10, &[way; 4]);
    }
    // Storing a non-frequent word unpins the all-zero line, and it is
    // the oldest, so it becomes the victim.
    let slot = cache.probe(0x04).unwrap();
    cache.write_word(slot, 0x04, 123);
    let evicted = fill(&mut cache, 0x40, &[9; 4]).unwrap();
    assert_eq!(evicted.0, 0x00);
    assert_eq!(evicted.1, vec![0, 123, 0, 0]);
}

#[test]
fn sim_builder_rejects_late_policy_changes() {
    let geom = CacheGeometry::new(1024, 16, 2).unwrap();
    let mut sim = CacheSim::new(geom);
    sim.on_access(Access::store(0x100, 1));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        sim.with_replacement(ReplacementKind::Rrip)
    }));
    assert!(result.is_err(), "must reject post-access rebuilds");
}
