//! The DMC+FVC hybrid's steady state allocates nothing: every miss
//! fills the DMC and the FVC in place, reusing the victims' storage. A
//! counting global allocator checks it over 20,000 accesses through a
//! warmed `HybridCache` and through a latched `OnlineHybrid`, with DMC
//! evictions, FVC evictions, transfers and write-allocates all firing
//! inside the measured window. The same allocator checks that the
//! other cache models' misses, victim-cache swaps and flushes allocate
//! nothing either.

use fvl_cache::{CacheGeometry, CacheSim, Simulator};
use fvl_core::{
    CompressedCache, FrequentValueSet, HybridCache, HybridConfig, HybridStats, OnlineHybrid,
    VictimHybrid,
};
use fvl_mem::{Access, AccessSink, Addr, Word};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

thread_local! {
    /// Allocations made by this thread (each test thread counts its own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the slot is gone while the thread shuts down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes of address space the stream touches: 16 times the DMC.
const REGION: u32 = 16 * 1024;

/// Accesses in the measured window.
const MEASURED: usize = 20_000;

/// A memory-consistent stream: one store of an infrequent non-zero
/// value to every word of the region (so every memory page exists
/// before the measured window), then `mixed` pseudo-random loads and
/// stores, half of the stored values frequent.
fn stream(mixed: usize) -> Vec<Access> {
    let mut shadow: HashMap<Addr, Word> = HashMap::new();
    let mut out = Vec::new();
    for addr in (0..REGION).step_by(4) {
        let value = 0x5555_0000 | addr;
        shadow.insert(addr, value);
        out.push(Access::store(addr, value));
    }
    let mut x: u32 = 0x1234_5678;
    for _ in 0..mixed {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let addr = ((x >> 8) % REGION) & !3;
        if x & 1 == 0 {
            let value = if x & 2 == 0 {
                (x >> 16) % 11
            } else {
                x | 0x100
            };
            shadow.insert(addr, value);
            out.push(Access::store(addr, value));
        } else {
            out.push(Access::load(addr, shadow[&addr]));
        }
    }
    out
}

fn geometry() -> CacheGeometry {
    CacheGeometry::new(1024, 32, 1).expect("valid geometry")
}

/// Feeds `measured` to `sink` and returns the allocations it made.
fn allocations_during(sink: &mut dyn AccessSink, measured: &[Access]) -> u64 {
    let before = allocations();
    for &access in measured {
        sink.on_access(access);
    }
    allocations() - before
}

/// Asserts every miss path fired between the two snapshots.
fn assert_paths_fired(before: &HybridStats, after: &HybridStats) {
    assert!(after.dmc_to_fvc_inserts > before.dmc_to_fvc_inserts);
    assert!(after.fvc_evictions > before.fvc_evictions);
    assert!(after.fvc_dirty_evictions > before.fvc_dirty_evictions);
    assert!(after.transfer_moves > before.transfer_moves);
    assert!(after.fvc_write_allocs > before.fvc_write_allocs);
    assert!(after.overall.writebacks > before.overall.writebacks);
    assert!(after.occupancy_samples > before.occupancy_samples);
}

#[test]
fn warmed_hybrid_cache_misses_allocate_nothing() {
    let accesses = stream(20_000 + MEASURED);
    let (warm, measured) = accesses.split_at(accesses.len() - MEASURED);
    let values = FrequentValueSet::new(vec![0, u32::MAX, 1, 2, 4, 8, 10]).unwrap();
    let mut hybrid = HybridCache::new(HybridConfig::new(geometry(), 64, values));
    for &access in warm {
        hybrid.on_access(access);
    }
    let before = hybrid.hybrid_stats().clone();
    let allocated = allocations_during(&mut hybrid, measured);
    assert_paths_fired(&before, hybrid.hybrid_stats());
    assert_eq!(allocated, 0, "allocations in {MEASURED} hybrid accesses");
}

#[test]
fn latched_online_hybrid_misses_allocate_nothing() {
    let accesses = stream(20_000 + MEASURED);
    let (warm, measured) = accesses.split_at(accesses.len() - MEASURED);
    // The window ends 10,000 accesses into the mixed phase, so the
    // sketch has seen the small stored values recur.
    let window = u64::from(REGION / 4) + 10_000;
    let mut online = OnlineHybrid::new(geometry(), 64, 7, window);
    for &access in warm {
        online.on_access(access);
    }
    assert!(online.latched_values().is_some(), "window passed");
    let before = online.hybrid_stats().expect("latched").clone();
    let allocated = allocations_during(&mut online, measured);
    assert_paths_fired(&before, online.hybrid_stats().expect("latched"));
    assert_eq!(allocated, 0, "allocations in {MEASURED} online accesses");
}

/// Warms `sink`, then returns the allocations of the measured window
/// and of the flush that ends it.
fn window_and_flush_allocations(sink: &mut dyn AccessSink) -> (u64, u64) {
    let accesses = stream(20_000 + MEASURED);
    let (warm, measured) = accesses.split_at(accesses.len() - MEASURED);
    for &access in warm {
        sink.on_access(access);
    }
    let window = allocations_during(sink, measured);
    let before = allocations();
    sink.on_finish();
    (window, allocations() - before)
}

#[test]
fn every_cache_models_misses_swaps_and_flushes_allocate_nothing() {
    let values = FrequentValueSet::new(vec![0, u32::MAX, 1, 2, 4, 8, 10]).unwrap();
    let mut dmc = CacheSim::new(geometry());
    assert_eq!(window_and_flush_allocations(&mut dmc), (0, 0), "CacheSim");
    let mut victim = VictimHybrid::new(geometry(), 4);
    assert_eq!(
        window_and_flush_allocations(&mut victim),
        (0, 0),
        "VictimHybrid"
    );
    assert!(victim.vc_hits() > 0 && victim.stats().writebacks > 0);
    let mut compressed = CompressedCache::new(geometry(), values.clone());
    let counts = window_and_flush_allocations(&mut compressed);
    assert_eq!(counts, (0, 0), "CompressedCache");
    assert!(compressed.expansions() > 0);
    let mut hybrid = HybridCache::new(HybridConfig::new(geometry(), 64, values));
    assert_eq!(
        window_and_flush_allocations(&mut hybrid),
        (0, 0),
        "HybridCache"
    );
}
