//! The baseline conventional cache simulator.

use crate::backing::MainMemory;
use crate::classify::MissClassifier;
use crate::data_cache::DataCache;
use crate::geometry::CacheGeometry;
use crate::replacement::ReplacementKind;
use crate::stats::CacheStats;
use fvl_mem::{Access, AccessKind, AccessSink};
use std::fmt;

/// How stores propagate to memory.
///
/// The paper evaluates write-back caches only, "because write-through
/// caches are known to generate much higher levels of traffic" — a
/// premise this simulator can verify directly (see the crate tests).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum WritePolicy {
    /// Write-back with write-allocate (the paper's configuration).
    #[default]
    WriteBack,
    /// Write-through with no write-allocate: stores update memory
    /// immediately; store misses do not fetch the line.
    WriteThrough,
}

/// A write-back, write-allocate cache in front of a [`MainMemory`],
/// driven by an access trace.
///
/// With associativity 1 this is the paper's baseline DMC. The simulator
/// stores real data and, by default, *verifies* on every load that the
/// value it would return matches the value recorded in the trace — a
/// built-in coherence oracle that catches controller bugs immediately,
/// and the only run-time check of the data path (the `fvl-check`
/// oracle diffs counters, not values). A miss is filled in place: the
/// dirty victim is written back from the cache's own line storage and
/// the new line fetched straight into it, one page lookup per line,
/// with no allocation.
///
/// # Example
///
/// ```
/// use fvl_cache::{CacheGeometry, CacheSim};
/// use fvl_mem::{Access, AccessSink};
///
/// let mut sim = CacheSim::new(CacheGeometry::new(4096, 32, 1)?);
/// sim.on_access(Access::store(0x100, 1));
/// sim.on_access(Access::load(0x100, 1));
/// sim.on_finish();
/// assert_eq!(sim.stats().write_misses, 1);
/// assert_eq!(sim.stats().read_hits, 1);
/// # Ok::<(), fvl_cache::GeometryError>(())
/// ```
pub struct CacheSim {
    cache: DataCache,
    memory: MainMemory,
    stats: CacheStats,
    classifier: Option<MissClassifier>,
    policy: WritePolicy,
    verify_values: bool,
    flushed: bool,
}

impl CacheSim {
    /// Creates a simulator over an all-zero main memory.
    pub fn new(geom: CacheGeometry) -> Self {
        CacheSim {
            cache: DataCache::new(geom),
            memory: MainMemory::new(),
            stats: CacheStats::new(),
            classifier: None,
            policy: WritePolicy::WriteBack,
            verify_values: true,
            flushed: false,
        }
    }

    /// Selects the write policy (builder style; default write-back).
    pub fn with_write_policy(mut self, policy: WritePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the replacement policy (builder style; default true
    /// LRU). Must be called before any access: the cache is rebuilt
    /// empty with fresh policy state.
    pub fn with_replacement(mut self, kind: ReplacementKind) -> Self {
        assert_eq!(
            self.stats.accesses(),
            0,
            "with_replacement must precede the first access"
        );
        self.cache = DataCache::with_replacement(*self.cache.geometry(), kind);
        self
    }

    /// The configured replacement policy.
    pub fn replacement(&self) -> ReplacementKind {
        self.cache.replacement()
    }

    /// The configured write policy.
    pub fn write_policy(&self) -> WritePolicy {
        self.policy
    }

    /// Enables compulsory/capacity/conflict classification of misses.
    pub fn with_classifier(mut self) -> Self {
        let geom = *self.cache.geometry();
        self.classifier = Some(MissClassifier::new(
            geom.lines() as usize,
            geom.line_bytes(),
        ));
        self
    }

    /// Disables the load-value oracle (useful only for deliberately
    /// incoherent experiments).
    pub fn set_verify_values(&mut self, verify: bool) {
        self.verify_values = verify;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The cache organization.
    pub fn geometry(&self) -> &CacheGeometry {
        self.cache.geometry()
    }

    /// The backing memory (for traffic counters).
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// The miss classifier, if enabled via [`CacheSim::with_classifier`].
    pub fn classifier(&self) -> Option<&MissClassifier> {
        self.classifier.as_ref()
    }

    /// Total off-chip traffic in words, including the final flush.
    pub fn traffic_words(&self) -> u64 {
        self.memory.total_traffic_words()
    }

    /// Writes every dirty line back to memory and empties the cache.
    pub fn flush(&mut self) {
        for line in self.cache.drain() {
            if line.dirty {
                self.memory.write_line(line.line_addr, &line.data);
                self.stats.writebacks += 1;
            }
        }
    }

    /// Simulates one access and reports whether it **missed** — the
    /// entry point for callers that need per-access outcomes (e.g. the
    /// Figure 4 miss-attribution study). [`AccessSink::on_access`]
    /// delegates here.
    pub fn access(&mut self, access: Access) -> bool {
        let addr = access.addr;
        let geom = self.cache.geometry();
        let (line_addr, set) = (geom.line_addr(addr), geom.set_index(addr));
        let slot = self.cache.probe_at(set, line_addr);
        let missed = slot.is_none();
        if let Some(c) = &mut self.classifier {
            c.observe(addr, missed);
        }
        match (slot, access.kind) {
            (Some(slot), AccessKind::Load) => {
                self.stats.read_hits += 1;
                self.cache.touch(slot);
                let value = self.cache.read_word(slot, addr);
                if self.verify_values {
                    assert_eq!(
                        value, access.value,
                        "cache returned {value:#x} but trace expects {:#x} at {addr:#x}",
                        access.value
                    );
                }
            }
            (Some(slot), AccessKind::Store) => {
                self.stats.write_hits += 1;
                self.cache.touch(slot);
                match self.policy {
                    WritePolicy::WriteBack => {
                        self.cache.write_word(slot, addr, access.value);
                    }
                    WritePolicy::WriteThrough => {
                        // Keep the line clean: the word goes straight to
                        // memory as well.
                        self.cache.write_word(slot, addr, access.value);
                        self.cache.clean(slot);
                        self.memory.write_word(addr, access.value);
                    }
                }
            }
            (None, AccessKind::Store) if self.policy == WritePolicy::WriteThrough => {
                // No write-allocate: the store bypasses the cache.
                self.stats.write_misses += 1;
                self.memory.write_word(addr, access.value);
            }
            (None, kind) => {
                match kind {
                    AccessKind::Load => self.stats.read_misses += 1,
                    AccessKind::Store => self.stats.write_misses += 1,
                }
                self.stats.fetches += 1;
                let (memory, stats) = (&mut self.memory, &mut self.stats);
                let slot = self
                    .cache
                    .fill_with(set, line_addr, false, |victim, words| {
                        if let Some(victim) = victim.filter(|v| v.dirty) {
                            memory.write_line(victim.line_addr, words);
                            stats.writebacks += 1;
                        }
                        memory.read_line(line_addr, words);
                    });
                match kind {
                    AccessKind::Load => {
                        let value = self.cache.read_word(slot, addr);
                        if self.verify_values {
                            assert_eq!(
                                value, access.value,
                                "memory returned {value:#x} but trace expects {:#x} at {addr:#x}",
                                access.value
                            );
                        }
                    }
                    AccessKind::Store => self.cache.write_word(slot, addr, access.value),
                }
            }
        }
        missed
    }
}

impl AccessSink for CacheSim {
    #[inline]
    fn on_access(&mut self, access: Access) {
        self.access(access);
    }

    fn on_finish(&mut self) {
        if !self.flushed {
            self.flushed = true;
            self.flush();
        }
    }
}

impl fmt::Debug for CacheSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheSim")
            .field("geometry", self.cache.geometry())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(size: u64, line: u32, assoc: u32) -> CacheSim {
        CacheSim::new(CacheGeometry::new(size, line, assoc).unwrap())
    }

    #[test]
    fn cold_miss_then_hits_within_line() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::load(0x100, 0));
        s.on_access(Access::load(0x104, 0));
        s.on_access(Access::load(0x108, 0));
        assert_eq!(s.stats().read_misses, 1);
        assert_eq!(s.stats().read_hits, 2);
    }

    #[test]
    fn store_then_load_returns_stored_value() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::store(0x200, 0xabcd));
        s.on_access(Access::load(0x200, 0xabcd)); // oracle verifies
        assert_eq!(s.stats().write_misses, 1);
        assert_eq!(s.stats().read_hits, 1);
    }

    #[test]
    #[should_panic(expected = "trace expects")]
    fn oracle_catches_wrong_values() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::store(0x200, 1));
        s.on_access(Access::load(0x200, 2)); // inconsistent trace
    }

    #[test]
    fn stored_words_survive_eviction_and_wrong_refetches_panic() {
        // The miss path's value check, on both sides of the map-indexed
        // probe: a stored word must come back through memory after its
        // line is evicted (dirty under write-back, written through
        // otherwise), and a refetch that disagrees with the trace must
        // trip the "memory returned" assertion.
        let fully = 2 * DataCache::INDEXED_ASSOC;
        let geometries = [
            CacheGeometry::new(1024, 16, 1).unwrap(),
            CacheGeometry::new(1024, 16, 4).unwrap(),
            CacheGeometry::fully_associative(fully, 16).unwrap(),
        ];
        for geom in geometries {
            for policy in [WritePolicy::WriteBack, WritePolicy::WriteThrough] {
                let assoc = geom.associativity();
                // Consecutive lines of one set.
                let stride = geom.sets() * geom.line_bytes();
                let run = |refetched: u32| {
                    let mut s = CacheSim::new(geom).with_write_policy(policy);
                    s.on_access(Access::store(0x40, 0xabcd));
                    s.on_access(Access::load(0x40, 0xabcd));
                    for k in 1..=assoc {
                        s.on_access(Access::load(0x40 + k * stride, 0));
                    }
                    assert!(s.cache.probe(0x40).is_none(), "{geom} {policy:?}: evicted");
                    assert_eq!(s.memory().peek(0x40), 0xabcd, "{geom} {policy:?}");
                    s.on_access(Access::load(0x40, refetched));
                    s
                };
                let s = run(0xabcd);
                let (writebacks, misses) = match policy {
                    WritePolicy::WriteBack => (1, u64::from(assoc) + 2),
                    WritePolicy::WriteThrough => (0, u64::from(assoc) + 3),
                };
                assert_eq!(s.stats().writebacks, writebacks, "{geom} {policy:?}");
                assert_eq!(s.stats().misses(), misses, "{geom} {policy:?}");
                let panic = std::panic::catch_unwind(|| run(0xabce))
                    .expect_err("a wrong refetched value must panic");
                let message = panic.downcast_ref::<String>().expect("formatted message");
                assert!(
                    message.contains("memory returned"),
                    "{geom} {policy:?}: {message}"
                );
            }
        }
    }

    #[test]
    fn conflicting_lines_thrash_in_dm_but_not_2way() {
        let a = 0x0000u32;
        let b = a + 1024; // same index in a 1KB DM cache
        let mut dm = sim(1024, 16, 1);
        let mut w2 = sim(1024, 16, 2);
        for _ in 0..10 {
            for s in [&mut dm, &mut w2] {
                s.on_access(Access::load(a, 0));
                s.on_access(Access::load(b, 0));
            }
        }
        assert_eq!(dm.stats().misses(), 20, "DM thrashes");
        assert_eq!(w2.stats().misses(), 2, "2-way keeps both");
    }

    #[test]
    fn dirty_eviction_writes_back_and_data_survives() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::store(0x000, 42));
        // Evict by touching the conflicting line.
        s.on_access(Access::load(0x400, 0));
        assert_eq!(s.stats().writebacks, 1);
        assert_eq!(s.memory().peek(0x000), 42);
        // Re-load the written value through the cache.
        s.on_access(Access::load(0x000, 42));
        assert_eq!(s.stats().read_misses, 2);
    }

    #[test]
    fn clean_eviction_writes_nothing_back() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::load(0x000, 0));
        s.on_access(Access::load(0x400, 0));
        assert_eq!(s.stats().writebacks, 0);
    }

    #[test]
    fn flush_on_finish_writes_dirty_lines() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::store(0x123 & !3, 5));
        s.on_finish();
        assert_eq!(s.stats().writebacks, 1);
        assert_eq!(s.memory().peek(0x120), 5);
        s.on_finish(); // idempotent
        assert_eq!(s.stats().writebacks, 1);
    }

    #[test]
    fn traffic_counts_fetches_and_writebacks() {
        let mut s = sim(1024, 16, 1);
        s.on_access(Access::store(0x000, 1)); // fetch 4 words
        s.on_access(Access::load(0x400, 0)); // fetch 4, write back 4
        s.on_finish();
        assert_eq!(s.traffic_words(), 4 + 4 + 4);
    }

    #[test]
    fn write_through_updates_memory_immediately() {
        let mut s = sim(1024, 16, 1).with_write_policy(WritePolicy::WriteThrough);
        assert_eq!(s.write_policy(), WritePolicy::WriteThrough);
        // Store miss: no allocation, word goes straight to memory.
        s.on_access(Access::store(0x100, 5));
        assert_eq!(s.memory().peek(0x100), 5);
        assert_eq!(s.stats().fetches, 0, "no write-allocate");
        // Load brings the line in; a store hit updates both copies.
        s.on_access(Access::load(0x100, 5));
        s.on_access(Access::store(0x104, 6));
        assert_eq!(s.memory().peek(0x104), 6);
        s.on_finish();
        assert_eq!(
            s.stats().writebacks,
            0,
            "write-through lines are never dirty"
        );
    }

    #[test]
    fn write_through_generates_more_traffic_than_write_back() {
        // The paper's premise for choosing write-back caches.
        let mut wb = sim(1024, 16, 1);
        let mut wt = sim(1024, 16, 1).with_write_policy(WritePolicy::WriteThrough);
        for i in 0..1000u32 {
            let addr = (i % 64) * 4;
            let access = Access::store(addr, i);
            wb.on_access(access);
            wt.on_access(access);
        }
        wb.on_finish();
        wt.on_finish();
        assert!(
            wt.traffic_words() > 3 * wb.traffic_words(),
            "write-through {} vs write-back {}",
            wt.traffic_words(),
            wb.traffic_words()
        );
    }

    #[test]
    fn classifier_integration() {
        let mut s = sim(64, 16, 1).with_classifier(); // 4 lines
        for &a in &[0x00u32, 0x40, 0x00, 0x40] {
            s.on_access(Access::load(a, 0));
        }
        let c = s.classifier().unwrap();
        assert_eq!(c.compulsory(), 2);
        assert_eq!(c.conflict(), 2); // FA with 4 lines would have kept both
        assert_eq!(s.stats().misses(), 4);
    }

    #[test]
    fn stats_conservation() {
        let mut s = sim(512, 16, 2);
        let addrs: Vec<u32> = (0..200).map(|i| (i * 52) % 4096).map(|a| a & !3).collect();
        for (i, &a) in addrs.iter().enumerate() {
            if i % 3 == 0 {
                s.on_access(Access::store(a, i as u32));
            } else {
                // Loads with unknown ground truth: disable oracle.
                s.set_verify_values(false);
                s.on_access(Access::load(a, 0));
            }
        }
        assert_eq!(s.stats().accesses(), 200);
        assert_eq!(s.stats().hits() + s.stats().misses(), 200);
        assert_eq!(s.stats().fetches, s.stats().misses());
    }
}
