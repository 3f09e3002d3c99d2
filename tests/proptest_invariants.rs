//! Property-based tests of the core invariants.
//!
//! Gated behind the `proptest` feature so the default test run stays
//! fast: `cargo test --features proptest`.
#![cfg(feature = "proptest")]

use fvl::cache::{CacheGeometry, CacheSim, Simulator};
use fvl::core::{CompressedCache, FrequentValueSet, HybridCache, HybridConfig, VictimHybrid};
use fvl::mem::{Access, AccessSink};
use proptest::prelude::*;
use std::collections::HashMap;

/// Strategy producing any realizable direct-mapped/set-associative
/// geometry up to 64 KB.
fn any_geometry() -> impl Strategy<Value = CacheGeometry> {
    (2u32..=16, 2u32..=6, 0u32..=3).prop_filter_map(
        "divisible organization",
        |(size_log2, line_log2, assoc_log2)| {
            CacheGeometry::new(
                1u64 << size_log2.max(line_log2 + assoc_log2 + 1),
                1 << line_log2,
                1 << assoc_log2,
            )
            .ok()
        },
    )
}

proptest! {
    /// encode/decode are inverse on members; encode rejects non-members.
    #[test]
    fn value_set_encoding_is_consistent(values in prop::collection::hash_set(any::<u32>(), 1..40)) {
        let list: Vec<u32> = values.iter().copied().collect();
        let set = FrequentValueSet::new(list.clone()).unwrap();
        for (i, &v) in list.iter().enumerate() {
            prop_assert_eq!(set.encode(v), Some(i as u8));
            prop_assert_eq!(set.decode(i as u8), Some(v));
        }
        prop_assert!(set.decode(set.infrequent_code()).is_none());
        // A value outside the set never encodes.
        let outsider = list.iter().copied().max().unwrap().wrapping_add(1);
        if !values.contains(&outsider) {
            prop_assert_eq!(set.encode(outsider), None);
        }
    }

    /// Encoding a line with `encode_line` and merging the decoded codes
    /// back over its own memory image is the identity; merging over
    /// garbage restores exactly the frequent words.
    #[test]
    fn fvc_line_encode_merge_identity(
        line in prop::collection::vec(0u32..16, 8),
        freq in prop::collection::hash_set(0u32..16, 1..8),
    ) {
        let values = FrequentValueSet::new(freq.iter().copied().collect()).unwrap();
        let mut codes = vec![0u8; line.len()];
        let frequent = values.encode_line(&line, &mut codes);
        let expected = line.iter().filter(|w| freq.contains(w)).count() as u32;
        prop_assert_eq!(frequent, expected);
        let merge = |image: &mut [u32]| {
            for (word, &code) in image.iter_mut().zip(&codes) {
                if let Some(value) = values.decode(code) {
                    *word = value;
                }
            }
        };
        let mut image = line.clone();
        merge(&mut image);
        prop_assert_eq!(&image, &line);
        let mut garbage = vec![0xdead_beefu32; 8];
        merge(&mut garbage);
        for (i, (&orig, &merged)) in line.iter().zip(garbage.iter()).enumerate() {
            if freq.contains(&orig) {
                prop_assert_eq!(merged, orig, "frequent word {}", i);
            } else {
                prop_assert_eq!(merged, 0xdead_beef, "infrequent word {}", i);
            }
        }
    }
}

proptest! {
    /// Tag + set index always reconstruct the line address, for every
    /// realizable geometry and address.
    #[test]
    fn geometry_address_split_reconstructs(geom in any_geometry(), addr in any::<u32>()) {
        let addr = addr & !3;
        let line = geom.line_addr(addr);
        let index_shift = geom.line_bytes().trailing_zeros();
        let set_bits = geom.sets().trailing_zeros();
        let rebuilt = (geom.tag(addr) << (index_shift + set_bits))
            | (geom.set_index(addr) << index_shift);
        prop_assert_eq!(rebuilt, line);
        prop_assert!(geom.word_offset(addr) < geom.words_per_line());
        prop_assert!(geom.set_index(addr) < geom.sets());
    }

    /// The compressed cache is a transparent memory too: loads always
    /// see the latest store, and flushing writes every dirty word back.
    #[test]
    fn compressed_cache_behaves_like_flat_memory(program in access_program()) {
        let geom = CacheGeometry::new(1024, 32, 1).unwrap();
        let values = FrequentValueSet::new(vec![0, 1, 2, 3, 4, 5, 6]).unwrap();
        let mut cache = CompressedCache::new(geom, values);
        let mut shadow: HashMap<u32, u32> = HashMap::new();
        for (addr, op) in &program {
            match op {
                Some(value) => {
                    shadow.insert(*addr, *value);
                    cache.on_access(Access::store(*addr, *value));
                }
                None => {
                    // The debug-mode oracle asserts the loaded value.
                    let expected = shadow.get(addr).copied().unwrap_or(0);
                    cache.on_access(Access::load(*addr, expected));
                }
            }
        }
        cache.on_finish();
        for (addr, value) in shadow {
            prop_assert_eq!(cache.memory().peek(addr), value, "at {:#x}", addr);
        }
    }
}

/// Strategy: a short program of word accesses over a small address range
/// with a biased value distribution (half the stores write "frequent"
/// small values).
fn access_program() -> impl Strategy<Value = Vec<(u32, Option<u32>)>> {
    prop::collection::vec(
        (0u32..1024, prop::option::of((0u32..8, any::<bool>()))),
        1..400,
    )
    .prop_map(|ops| {
        ops.into_iter()
            .map(|(slot, store)| {
                let addr = slot * 4;
                let value = store.map(|(small, use_small)| {
                    if use_small {
                        small
                    } else {
                        slot.wrapping_mul(2654435761)
                    }
                });
                (addr, value)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hybrid is a transparent memory: every load returns what a
    /// flat shadow memory holds, hits+misses conserve, the exclusivity
    /// invariant holds throughout, and flushing reproduces the shadow.
    #[test]
    fn hybrid_behaves_like_flat_memory(program in access_program()) {
        let geom = CacheGeometry::new(1024, 32, 1).unwrap();
        let values = FrequentValueSet::new(vec![0, 1, 2, 3, 4, 5, 6]).unwrap();
        let mut hybrid = HybridCache::new(HybridConfig::new(geom, 8, values));
        let mut shadow: HashMap<u32, u32> = HashMap::new();
        for (addr, op) in &program {
            match op {
                Some(value) => {
                    shadow.insert(*addr, *value);
                    hybrid.on_access(Access::store(*addr, *value));
                }
                None => {
                    let expected = shadow.get(addr).copied().unwrap_or(0);
                    // The internal oracle panics on mismatch.
                    hybrid.on_access(Access::load(*addr, expected));
                }
            }
        }
        prop_assert!(hybrid.is_exclusive());
        prop_assert_eq!(hybrid.stats().accesses(), program.len() as u64);
        hybrid.on_finish();
        for (addr, value) in shadow {
            prop_assert_eq!(hybrid.memory().peek(addr), value);
        }
    }

    /// The conventional simulator and the victim hybrid satisfy the same
    /// transparency property.
    #[test]
    fn conventional_and_victim_caches_are_transparent(program in access_program()) {
        let geom = CacheGeometry::new(512, 16, 1).unwrap();
        let mut plain = CacheSim::new(geom);
        let mut victim = VictimHybrid::new(geom, 4);
        let mut shadow: HashMap<u32, u32> = HashMap::new();
        for (addr, op) in &program {
            let access = match op {
                Some(value) => {
                    shadow.insert(*addr, *value);
                    Access::store(*addr, *value)
                }
                None => Access::load(*addr, shadow.get(addr).copied().unwrap_or(0)),
            };
            plain.on_access(access);
            victim.on_access(access);
        }
        plain.on_finish();
        victim.on_finish();
        for (addr, value) in shadow {
            prop_assert_eq!(plain.memory().peek(addr), value);
            prop_assert_eq!(victim.memory().peek(addr), value);
        }
    }

    /// Adding a victim cache never increases the miss count (swap hits
    /// only convert misses into hits).
    #[test]
    fn victim_cache_never_hurts(program in access_program()) {
        let geom = CacheGeometry::new(512, 16, 1).unwrap();
        let mut plain = CacheSim::new(geom);
        let mut victim = VictimHybrid::new(geom, 4);
        plain.set_verify_values(false);
        victim.set_verify_values(false);
        for (addr, op) in &program {
            let access = match op {
                Some(v) => Access::store(*addr, *v),
                None => Access::load(*addr, 0),
            };
            plain.on_access(access);
            victim.on_access(access);
        }
        prop_assert!(
            Simulator::stats(&victim).misses() <= plain.stats().misses(),
            "victim {} vs plain {}",
            Simulator::stats(&victim).misses(),
            plain.stats().misses()
        );
    }

    /// A fully-associative LRU cache of twice the size never misses more
    /// (LRU stack inclusion).
    #[test]
    fn lru_inclusion_for_fully_associative_caches(program in access_program()) {
        let small = CacheGeometry::fully_associative(8, 16).unwrap();
        let large = CacheGeometry::fully_associative(16, 16).unwrap();
        let mut small_sim = CacheSim::new(small);
        let mut large_sim = CacheSim::new(large);
        small_sim.set_verify_values(false);
        large_sim.set_verify_values(false);
        for (addr, op) in &program {
            let access = match op {
                Some(v) => Access::store(*addr, *v),
                None => Access::load(*addr, 0),
            };
            small_sim.on_access(access);
            large_sim.on_access(access);
        }
        prop_assert!(large_sim.stats().misses() <= small_sim.stats().misses());
    }
}
