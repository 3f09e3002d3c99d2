//! A DMC + victim-cache controller (Jouppi), the paper's Figure 15
//! comparison baseline.

use fvl_cache::{CacheGeometry, CacheStats, DataCache, MainMemory, Simulator, Victim};
use fvl_mem::{Access, AccessKind, AccessSink, Addr, Word};
use std::fmt;

/// A write-back direct-mapped (or set-associative) cache backed by a
/// small fully-associative victim cache with swap-on-hit.
///
/// On a main-cache miss that hits in the victim cache the two lines are
/// swapped, which the paper (following Jouppi) counts as a hit: the data
/// was on chip and no off-chip fetch occurs.
///
/// Both caches are [`DataCache`]s, and lines move between them in
/// place. The victim cache (VC) is a fully-associative, true-LRU
/// `DataCache` of `vc_entries` lines. A miss in both is one fill of the
/// DMC: its closure moves a valid DMC victim into the VC with one VC
/// fill (dirty bit kept), which writes the VC's displaced dirty line
/// back from the VC's arena, and then fetches the new line. A VC hit
/// copies the line out with [`DataCache::take_with`] and fills the DMC
/// the same way, keeping the line's dirty bit. Nothing is allocated
/// after construction.
///
/// The controller never touches a VC line: a VC hit swaps it out. So
/// the VC's LRU order is its fill order. The VC fills its lowest
/// invalid way first and, once full, evicts its least recently filled
/// line, which is Jouppi's displacement in insertion order.
///
/// # Example
///
/// ```
/// use fvl_cache::{CacheGeometry, Simulator};
/// use fvl_core::VictimHybrid;
/// use fvl_mem::{Access, AccessSink};
///
/// let mut sim = VictimHybrid::new(CacheGeometry::new(4096, 32, 1)?, 4);
/// sim.on_access(Access::load(0x0, 0));
/// sim.on_access(Access::load(0x1000, 0)); // conflicts, evicts into VC
/// sim.on_access(Access::load(0x0, 0));    // VC hit: swap back
/// assert_eq!(sim.stats().hits(), 1);
/// # Ok::<(), fvl_cache::GeometryError>(())
/// ```
pub struct VictimHybrid {
    dmc: DataCache,
    vc: DataCache,
    memory: MainMemory,
    stats: CacheStats,
    vc_hits: u64,
    verify: bool,
    /// A line swapped out of the VC on its way into the DMC.
    line_buf: Vec<Word>,
    flushed: bool,
}

impl VictimHybrid {
    /// Creates a hybrid of a main cache of geometry `geom` and a
    /// fully-associative LRU victim cache of `vc_entries` lines of the
    /// same size.
    ///
    /// # Panics
    ///
    /// Panics unless `vc_entries` is a positive power of two.
    pub fn new(geom: CacheGeometry, vc_entries: usize) -> Self {
        let vc_geom = u32::try_from(vc_entries)
            .ok()
            .and_then(|entries| CacheGeometry::fully_associative(entries, geom.line_bytes()).ok())
            .unwrap_or_else(|| {
                panic!("victim cache entries must be a positive power of two, not {vc_entries}")
            });
        VictimHybrid {
            dmc: DataCache::new(geom),
            vc: DataCache::new(vc_geom),
            memory: MainMemory::new(),
            stats: CacheStats::new(),
            vc_hits: 0,
            verify: true,
            line_buf: vec![0; geom.words_per_line() as usize],
            flushed: false,
        }
    }

    /// Disables the load-value oracle.
    pub fn set_verify_values(&mut self, verify: bool) {
        self.verify = verify;
    }

    /// Hits served by the victim cache.
    pub fn vc_hits(&self) -> u64 {
        self.vc_hits
    }

    /// The victim cache (for inspection): a fully-associative LRU
    /// [`DataCache`] of the configured number of lines.
    pub fn victim_cache(&self) -> &DataCache {
        &self.vc
    }

    /// The backing memory.
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// Flushes all dirty state to memory, straight from both caches'
    /// arenas, and empties both.
    pub fn flush(&mut self) {
        let VictimHybrid {
            dmc,
            vc,
            memory,
            stats,
            ..
        } = self;
        let mut write_back = |line: Victim, words: &[Word]| {
            if line.dirty {
                memory.write_line(line.line_addr, words);
                stats.writebacks += 1;
            }
        };
        dmc.drain_with(&mut write_back);
        vc.drain_with(write_back);
    }

    /// Fills the DMC with `line_addr` and returns its slot. A valid DMC
    /// victim moves into the VC with its dirty bit, and a dirty line it
    /// displaces there is written back. The new line's words come from
    /// `line_buf` when `swapped` (a VC hit), else from memory.
    fn fill_dmc(&mut self, line_addr: Addr, dirty: bool, swapped: bool) -> usize {
        let VictimHybrid {
            dmc,
            vc,
            memory,
            stats,
            line_buf,
            ..
        } = self;
        let set = dmc.geometry().set_index(line_addr);
        dmc.fill_with(set, line_addr, dirty, |victim, words| {
            if let Some(victim) = victim {
                // `seeded-bugs` is a TEST-ONLY mutation used by the
                // `fvl-check` conformance harness: a swap drops the
                // displaced DMC line instead of moving it into the VC.
                let dropped = cfg!(feature = "seeded-bugs") && swapped;
                if !dropped {
                    vc.fill_with(0, victim.line_addr, victim.dirty, |displaced, vc_words| {
                        if let Some(displaced) = displaced.filter(|d| d.dirty) {
                            memory.write_line(displaced.line_addr, vc_words);
                            stats.writebacks += 1;
                        }
                        vc_words.copy_from_slice(words);
                    });
                }
            }
            if swapped {
                words.copy_from_slice(line_buf);
            } else {
                memory.read_line(line_addr, words);
            }
        })
    }

    fn handle(&mut self, access: Access) {
        let addr = access.addr;
        let (slot, hit) = if let Some(slot) = self.dmc.probe(addr) {
            self.dmc.touch(slot);
            (slot, true)
        } else if let Some(vslot) = self.vc.probe(addr) {
            // Swap: the VC line enters the DMC, the displaced DMC line
            // (if any) takes its place in the VC. Counted as a hit.
            self.vc_hits += 1;
            let line_buf = &mut self.line_buf;
            let line = self.vc.take_with(vslot, |line, words| {
                line_buf.copy_from_slice(words);
                line
            });
            (self.fill_dmc(line.line_addr, line.dirty, true), true)
        } else {
            // Miss everywhere: fetch, fill, displaced line -> VC.
            self.stats.fetches += 1;
            let line_addr = self.dmc.geometry().line_addr(addr);
            (self.fill_dmc(line_addr, false, false), false)
        };
        match (access.kind, hit) {
            (AccessKind::Load, true) => self.stats.read_hits += 1,
            (AccessKind::Load, false) => self.stats.read_misses += 1,
            (AccessKind::Store, true) => self.stats.write_hits += 1,
            (AccessKind::Store, false) => self.stats.write_misses += 1,
        }
        match access.kind {
            AccessKind::Load => {
                let value = self.dmc.read_word(slot, addr);
                if self.verify {
                    assert_eq!(
                        value, access.value,
                        "victim hybrid returned {value:#x}, trace expects {:#x} at {addr:#x}",
                        access.value
                    );
                }
            }
            AccessKind::Store => self.dmc.write_word(slot, addr, access.value),
        }
    }
}

impl AccessSink for VictimHybrid {
    #[inline]
    fn on_access(&mut self, access: Access) {
        self.handle(access);
    }

    fn on_finish(&mut self) {
        if !self.flushed {
            self.flushed = true;
            self.flush();
        }
    }
}

impl Simulator for VictimHybrid {
    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn traffic_words(&self) -> u64 {
        self.memory.total_traffic_words()
    }

    fn label(&self) -> String {
        format!(
            "{} + {}-entry VC",
            self.dmc.geometry(),
            self.vc.geometry().lines()
        )
    }
}

impl fmt::Debug for VictimHybrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VictimHybrid")
            .field("dmc", &self.dmc)
            .field("vc", &self.vc)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vh() -> VictimHybrid {
        // 1KB DM cache, 32B lines: conflicts 1KB apart; 4-entry VC.
        VictimHybrid::new(CacheGeometry::new(1024, 32, 1).unwrap(), 4)
    }

    #[test]
    fn ping_pong_conflict_is_absorbed_by_vc() {
        let mut h = vh();
        let a = 0x100u32;
        let b = a + 1024;
        h.on_access(Access::load(a, 0));
        h.on_access(Access::load(b, 0));
        for _ in 0..10 {
            h.on_access(Access::load(a, 0));
            h.on_access(Access::load(b, 0));
        }
        assert_eq!(h.stats().misses(), 2, "only the two cold misses");
        assert_eq!(h.vc_hits(), 20);
    }

    #[test]
    fn dirty_data_survives_swap_cycles() {
        let mut h = vh();
        let a = 0x100u32;
        let b = a + 1024;
        h.on_access(Access::store(a, 7));
        h.on_access(Access::store(b, 9));
        h.on_access(Access::load(a, 7)); // swapped back from VC, dirty intact
        h.on_access(Access::load(b, 9));
        h.on_finish();
        assert_eq!(h.memory().peek(a), 7);
        assert_eq!(h.memory().peek(b), 9);
    }

    #[test]
    fn vc_overflow_writes_back_dirty_lines() {
        let mut h = vh();
        // Dirty six conflicting lines; VC holds 4.
        for i in 0..6u32 {
            h.on_access(Access::store(0x100 + i * 1024, i));
        }
        assert!(h.stats().writebacks >= 1);
        h.on_finish();
        for i in 0..6u32 {
            assert_eq!(h.memory().peek(0x100 + i * 1024), i);
        }
    }

    #[test]
    fn capacity_miss_stream_gets_no_vc_benefit() {
        let mut h = vh();
        // 64 distinct lines cycled twice; 1KB cache (32 lines) + 4 VC
        // entries cannot hold them.
        for _ in 0..2 {
            for i in 0..64u32 {
                h.on_access(Access::load(i * 1024, 0));
            }
        }
        assert_eq!(h.vc_hits(), 0);
        assert_eq!(h.stats().misses(), 128);
    }

    #[test]
    fn label_and_traffic() {
        let mut h = vh();
        h.on_access(Access::load(0x0, 0));
        h.on_finish();
        assert_eq!(h.label(), "1KB direct-mapped (32B lines) + 4-entry VC");
        assert_eq!(h.traffic_words(), 8);
    }
}
