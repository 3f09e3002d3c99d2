//! The DMC+FVC hybrid controller — Section 3 of the paper.

use crate::config::HybridConfig;
use crate::fvc::Fvc;
use crate::hybrid_stats::HybridStats;
use crate::value_set::FrequentValueSet;
use fvl_cache::{CacheStats, DataCache, MainMemory, Simulator, Victim};
use fvl_mem::{Access, AccessKind, AccessSink, Addr, Word, WORD_BYTES};
use std::fmt;

/// A conventional write-back cache augmented with a frequent value
/// cache, implementing the paper's policy exactly:
///
/// * both structures are probed in parallel; at most one can hold a
///   given line (the *exclusivity* invariant);
/// * an FVC tag match only counts as a hit if the referenced word's code
///   is a frequent value (reads) or the written value is frequent
///   (writes);
/// * a tag match on an infrequent word *moves* the line to the DMC:
///   fetch from memory, overlay the FVC's (possibly newer) frequent
///   words, install, evict from FVC;
/// * lines evicted from the DMC are written back (if dirty) and their
///   frequent-value identities inserted into the FVC;
/// * a write miss in both structures with a frequent value allocates
///   directly in the FVC — no fetch — with all other words marked
///   infrequent ("eliminate or delay the miss");
/// * dirty FVC victims write back only their frequent words.
///
/// Every miss fills in place and allocates nothing. A DMC miss goes
/// through [`DataCache::fill_with`], the fill `fvl_cache::CacheSim`
/// uses: the dirty victim is written back from the DMC's line arena,
/// its words are encoded with one [`FrequentValueSet::encode_line`]
/// call into a reusable code buffer, and the codes enter the FVC
/// through [`Fvc::fill_with`], which hands over the FVC victim's codes
/// for their partial write-back. The new line is then fetched into the
/// victim's words, and the access is served on the slot the fill
/// returns. The DMC probe and hit are inlined into the caller's replay
/// loop; everything past a DMC miss is one call out. The Figure 11
/// occupancy sample reads the FVC's running count of frequent codes
/// instead of scanning its lines.
///
/// # Known defect
///
/// After every DMC fill the controller reports a hit on the new line
/// to the replacement policy ([`DataCache::touch`]); `CacheSim`'s miss
/// path does not. Under LRU and random replacement, and for every
/// direct-mapped DMC, this changes nothing. Under RRIP it resets the
/// new line's re-reference value and trains its signature as reused
/// on the missing access itself, and under pinned-LRU it ages the set
/// twice. So a hybrid whose FVC never holds a line matches `CacheSim`
/// except for set-associative RRIP and pinned-LRU DMCs, and ext5's
/// `dmc+fvc` column runs a slightly different policy from its `dmc`
/// columns there. The fix (no touch on the missing access) changes
/// experiment output and waits for a change that may refresh it; see
/// EXPERIMENTS.md, "Known divergences and why".
///
/// # Example
///
/// ```
/// use fvl_cache::{CacheGeometry, Simulator};
/// use fvl_core::{FrequentValueSet, HybridCache, HybridConfig};
/// use fvl_mem::{Access, AccessSink};
///
/// let config = HybridConfig::new(
///     CacheGeometry::new(4096, 32, 1)?,
///     64,
///     FrequentValueSet::new(vec![0, 1, 2, 3, 4, 5, 6])?,
/// );
/// let mut sim = HybridCache::new(config);
/// sim.on_access(Access::store(0x100, 0)); // absorbed by the FVC
/// sim.on_finish();
/// assert_eq!(sim.stats().misses(), 0);
/// assert_eq!(sim.hybrid_stats().fvc_write_allocs, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct HybridCache {
    dmc: DataCache,
    fvc: Fvc,
    values: FrequentValueSet,
    /// The infrequent marker of `values`' encoding.
    marker: u8,
    memory: MainMemory,
    stats: HybridStats,
    min_frequent: u32,
    write_alloc: bool,
    count_write_alloc_as_miss: bool,
    sample_every: u64,
    verify: bool,
    accesses: u64,
    next_sample: u64,
    /// A line moving from the FVC to the DMC, fetched and merged.
    line_buf: Vec<Word>,
    /// A DMC victim's codes, encoded once on their way into the FVC.
    code_buf: Vec<u8>,
    flushed: bool,
}

impl HybridCache {
    /// Builds the hybrid from a [`HybridConfig`].
    pub fn new(config: HybridConfig) -> Self {
        let dmc_geom = *config.dmc();
        let wpl = dmc_geom.words_per_line();
        let fvc = Fvc::with_associativity(
            config.fvc_entries(),
            wpl,
            config.values(),
            config.fvc_assoc(),
        );
        let sample_every = config.sample_every();
        HybridCache {
            dmc: DataCache::with_replacement(dmc_geom, config.dmc_replacement_kind()),
            fvc,
            values: config.values().clone(),
            marker: config.values().infrequent_code(),
            memory: MainMemory::new(),
            stats: HybridStats::new(),
            min_frequent: config.min_frequent(),
            write_alloc: config.write_alloc(),
            count_write_alloc_as_miss: config.walloc_as_miss(),
            sample_every,
            verify: config.verify(),
            accesses: 0,
            next_sample: sample_every,
            line_buf: vec![0; wpl as usize],
            code_buf: vec![0; wpl as usize],
            flushed: false,
        }
    }

    /// Accumulated hybrid statistics (combined + breakdown).
    pub fn hybrid_stats(&self) -> &HybridStats {
        &self.stats
    }

    /// The frequent value set in use.
    pub fn values(&self) -> &FrequentValueSet {
        &self.values
    }

    /// The FVC structure (for occupancy inspection).
    pub fn fvc(&self) -> &Fvc {
        &self.fvc
    }

    /// The conventional cache.
    pub fn dmc(&self) -> &DataCache {
        &self.dmc
    }

    /// The backing memory (traffic counters).
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// Size of the FVC's encoded data array in bytes (the paper's
    /// reported FVC size).
    pub fn fvc_data_bytes(&self) -> f64 {
        self.fvc.data_bytes()
    }

    /// Verifies the exclusivity invariant: no line is simultaneously
    /// valid in the DMC and the FVC. Used by tests; linear in cache
    /// size.
    pub fn is_exclusive(&self) -> bool {
        self.dmc
            .iter_valid()
            .all(|l| self.fvc.probe(l.line_addr).is_none())
    }

    /// Writes all dirty state back to memory and empties both caches,
    /// in place: a dirty DMC line is written from the DMC's arena, and
    /// a dirty FVC line writes its frequent words back, decoded from
    /// its codes, one word of traffic each.
    pub fn flush(&mut self) {
        let HybridCache {
            dmc,
            fvc,
            values,
            memory,
            stats,
            ..
        } = self;
        dmc.drain_with(|line, words| {
            if line.dirty {
                memory.write_line(line.line_addr, words);
                stats.overall.writebacks += 1;
            }
        });
        fvc.drain_with(|line, codes| {
            if line.dirty {
                for (i, &code) in (0u32..).zip(codes) {
                    if let Some(value) = values.decode(code) {
                        memory.write_word(line.line_addr + i * WORD_BYTES, value);
                    }
                }
            }
        });
    }

    /// Fills the DMC way for `line_addr` in place and returns its slot.
    /// The displaced line is written back if dirty and offered to the
    /// FVC; the new line's words come from `line_buf` when `merged`
    /// (a transfer), else straight from memory.
    fn fill_dmc(&mut self, set: u32, line_addr: Addr, dirty: bool, merged: bool) -> usize {
        let HybridCache {
            dmc,
            fvc,
            values,
            memory,
            stats,
            min_frequent,
            line_buf,
            code_buf,
            ..
        } = self;
        dmc.fill_with(set, line_addr, dirty, |victim, words| {
            if let Some(victim) = victim {
                if victim.dirty {
                    memory.write_line(victim.line_addr, words);
                    stats.overall.writebacks += 1;
                }
                if values.encode_line(words, code_buf) >= *min_frequent {
                    // The line was just made consistent with memory, so
                    // it enters the FVC clean.
                    stats.dmc_to_fvc_inserts += 1;
                    fvc.fill_with(victim.line_addr, false, |displaced, codes| {
                        retire_fvc_victim(displaced, codes, values, memory, stats);
                        codes.copy_from_slice(code_buf);
                    });
                } else {
                    stats.fvc_insert_skips += 1;
                }
            }
            if merged {
                words.copy_from_slice(line_buf);
            } else {
                memory.read_line(line_addr, words);
            }
        })
    }

    /// Moves the FVC line in `fslot` to the DMC: fetch it, overlay the
    /// FVC's (possibly newer) frequent words, retire the FVC copy, and
    /// fill the DMC. Returns the DMC slot.
    fn transfer(&mut self, fslot: usize, set: u32, line_addr: Addr) -> usize {
        self.stats.transfer_moves += 1;
        self.memory.read_line(line_addr, &mut self.line_buf);
        self.stats.overall.fetches += 1;
        for (word, &code) in self.line_buf.iter_mut().zip(self.fvc.codes(fslot)) {
            if let Some(value) = self.values.decode(code) {
                *word = value;
            }
        }
        // If the FVC copy was dirty the merged line differs from memory.
        let dirty = self.fvc.is_dirty(fslot);
        self.fvc.invalidate(fslot);
        self.fill_dmc(set, line_addr, dirty, true)
    }

    /// Allocates the line of `addr` in the FVC, dirty, with `code` for
    /// the stored word and every other word infrequent — no fetch.
    fn write_allocate(&mut self, line_addr: Addr, addr: Addr, code: u8) {
        let HybridCache {
            fvc,
            values,
            marker,
            memory,
            stats,
            ..
        } = self;
        let offset = fvc.word_offset(addr) as usize;
        fvc.fill_with(line_addr, true, |displaced, codes| {
            retire_fvc_victim(displaced, codes, values, memory, stats);
            codes.fill(*marker);
            codes[offset] = code;
        });
    }

    /// Completes `access` on the DMC line in `slot`, just filled.
    fn serve_on_dmc(&mut self, slot: usize, access: Access) {
        // The known defect (type docs): `CacheSim`'s miss path does not
        // report the missing access to the policy as a hit.
        self.dmc.touch(slot);
        match access.kind {
            AccessKind::Load => {
                let value = self.dmc.read_word(slot, access.addr);
                if self.verify {
                    assert_eq!(
                        value, access.value,
                        "hybrid returned {value:#x}, trace expects {:#x} at {:#x}",
                        access.value, access.addr
                    );
                }
            }
            AccessKind::Store => self.dmc.write_word(slot, access.addr, access.value),
        }
    }

    fn count_miss(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Load => self.stats.overall.read_misses += 1,
            AccessKind::Store => self.stats.overall.write_misses += 1,
        }
    }

    /// The Figure 11 sample: the mean fraction of frequent words over
    /// the valid FVC lines, from the FVC's running total. `total / wpl`
    /// equals the sum over lines of `frequent / wpl` bit for bit: each
    /// term is exact because `wpl` is a power of two, and so is every
    /// partial sum, a multiple of `1 / wpl` far below 2^53.
    fn sample_occupancy(&mut self) {
        let lines = self.fvc.valid_lines();
        if lines > 0 {
            let sum = self.fvc.frequent_total() as f64 / f64::from(self.fvc.words_per_line());
            self.stats.occupancy_percent_sum += sum / f64::from(lines) * 100.0;
            self.stats.occupancy_samples += 1;
        }
    }

    #[inline]
    fn handle(&mut self, access: Access) {
        self.accesses += 1;
        let addr = access.addr;
        let geom = self.dmc.geometry();
        let (line_addr, set) = (geom.line_addr(addr), geom.set_index(addr));

        if let Some(slot) = self.dmc.probe_at(set, line_addr) {
            // Conventional hit: FVC changes nothing on this path.
            self.stats.dmc_hits += 1;
            self.dmc.touch(slot);
            match access.kind {
                AccessKind::Load => {
                    self.stats.overall.read_hits += 1;
                    let value = self.dmc.read_word(slot, addr);
                    if self.verify {
                        assert_eq!(
                            value, access.value,
                            "DMC returned {value:#x}, trace expects {:#x} at {addr:#x}",
                            access.value
                        );
                    }
                }
                AccessKind::Store => {
                    self.stats.overall.write_hits += 1;
                    self.dmc.write_word(slot, addr, access.value);
                }
            }
        } else {
            self.dmc_miss(access, set, line_addr);
        }

        if self.accesses >= self.next_sample {
            self.next_sample = self.accesses + self.sample_every;
            self.sample_occupancy();
        }
    }

    /// Serves an access the DMC missed: from the FVC, by moving its
    /// line to the DMC, by a write-allocation in the FVC, or by a DMC
    /// fill.
    fn dmc_miss(&mut self, access: Access, set: u32, line_addr: Addr) {
        let addr = access.addr;
        if let Some(fslot) = self.fvc.probe(addr) {
            // The code that would serve the access: the word's own on a
            // load, the stored value's on a store.
            let code = match access.kind {
                AccessKind::Load => self.fvc.code_at(fslot, addr),
                AccessKind::Store => self.values.encode(access.value).unwrap_or(self.marker),
            };
            if code == self.marker {
                // Tag match but the FVC cannot provide/store the word:
                // a miss that moves the line back to the DMC.
                self.count_miss(access.kind);
                let slot = self.transfer(fslot, set, line_addr);
                self.serve_on_dmc(slot, access);
            } else {
                self.fvc.touch(fslot);
                match access.kind {
                    AccessKind::Load => {
                        // FVC read hit: decode the frequent value.
                        self.stats.fvc_read_hits += 1;
                        self.stats.overall.read_hits += 1;
                        let value = self.values.decode(code).expect("valid code");
                        if self.verify {
                            assert_eq!(
                                value, access.value,
                                "FVC decoded {value:#x}, trace expects {:#x} at {addr:#x}",
                                access.value
                            );
                        }
                    }
                    AccessKind::Store => {
                        // FVC write hit: re-encode the word.
                        self.stats.fvc_write_hits += 1;
                        self.stats.overall.write_hits += 1;
                        self.fvc.set_code(fslot, addr, code);
                    }
                }
            }
        } else {
            // Miss in both structures.
            let alloc_code = match access.kind {
                AccessKind::Store if self.write_alloc => self.values.encode(access.value),
                _ => None,
            };
            if let Some(code) = alloc_code {
                // Allocate directly in the FVC; no fetch. The FVC
                // completes the write, so per the paper's accounting
                // ("this strategy has the effect of either
                // eliminating or delaying the cache miss") the miss
                // is only charged later, if an infrequent word of
                // the line is ever referenced (the transfer path).
                if self.count_write_alloc_as_miss {
                    self.stats.overall.write_misses += 1;
                } else {
                    self.stats.overall.write_hits += 1;
                }
                self.stats.fvc_write_allocs += 1;
                self.write_allocate(line_addr, addr, code);
            } else {
                self.count_miss(access.kind);
                self.stats.overall.fetches += 1;
                let slot = self.fill_dmc(set, line_addr, false, false);
                self.serve_on_dmc(slot, access);
            }
        }
    }
}

/// Retires the FVC line a fill displaces, if any: a dirty one writes
/// its frequent words back, one word of traffic each (the partial
/// write-back). `codes` are the displaced line's.
fn retire_fvc_victim(
    victim: Option<Victim>,
    codes: &[u8],
    values: &FrequentValueSet,
    memory: &mut MainMemory,
    stats: &mut HybridStats,
) {
    let Some(victim) = victim else { return };
    stats.fvc_evictions += 1;
    if victim.dirty {
        stats.fvc_dirty_evictions += 1;
        // `seeded-bugs` is a TEST-ONLY mutation used by the `fvl-check`
        // conformance harness: the dirty victim's frequent words are
        // dropped instead of written back.
        if cfg!(feature = "seeded-bugs") {
            return;
        }
        for (i, &code) in (0u32..).zip(codes) {
            if let Some(value) = values.decode(code) {
                memory.write_word(victim.line_addr + i * WORD_BYTES, value);
            }
        }
    }
}

impl AccessSink for HybridCache {
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

impl Simulator for HybridCache {
    fn stats(&self) -> &CacheStats {
        &self.stats.overall
    }

    fn traffic_words(&self) -> u64 {
        self.memory.total_traffic_words()
    }

    fn label(&self) -> String {
        format!(
            "{} + {:.3}KB FVC ({} entries, top-{})",
            self.dmc.geometry(),
            self.fvc.data_bytes() / 1024.0,
            self.fvc.entries(),
            self.values.len()
        )
    }
}

impl fmt::Debug for HybridCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HybridCache")
            .field("dmc", &self.dmc)
            .field("fvc", &self.fvc)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvl_cache::CacheGeometry;

    fn top7() -> FrequentValueSet {
        FrequentValueSet::new(vec![0, u32::MAX, 1, 2, 4, 8, 10]).unwrap()
    }

    /// 1KB DMC with 32B lines: conflicting lines are 1KB apart.
    fn small_hybrid(entries: u32) -> HybridCache {
        HybridCache::new(HybridConfig::new(
            CacheGeometry::new(1024, 32, 1).unwrap(),
            entries,
            top7(),
        ))
    }

    #[test]
    fn dmc_hits_unaffected_by_fvc() {
        let mut h = small_hybrid(64);
        h.on_access(Access::store(0x100, 12345)); // miss, not frequent
        h.on_access(Access::load(0x100, 12345)); // DMC hit
        assert_eq!(h.hybrid_stats().dmc_hits, 1);
        assert_eq!(h.stats().hits(), 1);
        assert!(h.is_exclusive());
    }

    #[test]
    fn evicted_frequent_line_hits_in_fvc() {
        let mut h = small_hybrid(64);
        // Bring the (all-zero) line into the DMC with a load, then touch
        // every word through DMC hits.
        for i in 0..8 {
            h.on_access(Access::load(0x100 + i * 4, 0));
        }
        // Evict it via the conflicting line 1KB away.
        h.on_access(Access::load(0x500, 0));
        assert_eq!(h.hybrid_stats().dmc_to_fvc_inserts, 1);
        // Re-read: the FVC should serve all 8 words.
        for i in 0..8 {
            h.on_access(Access::load(0x100 + i * 4, 0));
        }
        assert_eq!(h.hybrid_stats().fvc_read_hits, 8);
        assert!(h.is_exclusive());
    }

    #[test]
    fn frequent_store_into_resident_fvc_line_is_a_write_hit() {
        let mut h = small_hybrid(64);
        h.on_access(Access::store(0x100, 0)); // write-alloc in FVC
        h.on_access(Access::store(0x104, 4)); // tag match, frequent: write hit
        assert_eq!(h.hybrid_stats().fvc_write_allocs, 1);
        assert_eq!(h.hybrid_stats().fvc_write_hits, 1);
        h.on_access(Access::load(0x104, 4));
        assert_eq!(h.hybrid_stats().fvc_read_hits, 1);
    }

    #[test]
    fn infrequent_word_under_tag_match_moves_line_to_dmc() {
        let mut h = small_hybrid(64);
        // Line enters the DMC via a load, gets an infrequent word, and
        // is then evicted into the FVC.
        h.on_access(Access::load(0x100, 0));
        h.on_access(Access::store(0x104, 777)); // infrequent, DMC hit
        h.on_access(Access::load(0x500, 0)); // evict line 0x100 -> FVC
        assert_eq!(h.hybrid_stats().dmc_to_fvc_inserts, 1);
        // Tag matches in FVC; word 0x104 is infrequent -> transfer.
        h.on_access(Access::load(0x104, 777));
        assert_eq!(h.hybrid_stats().transfer_moves, 1);
        assert!(h.fvc().probe(0x104).is_none(), "line left the FVC");
        assert!(h.dmc().probe(0x104).is_some(), "line entered the DMC");
        // And the frequent word is still correct through the DMC.
        h.on_access(Access::load(0x100, 0));
        assert!(h.is_exclusive());
    }

    #[test]
    fn write_miss_of_frequent_value_allocates_in_fvc_without_fetch() {
        let mut h = small_hybrid(64);
        let fetches_before = h.stats().fetches;
        h.on_access(Access::store(0x200, 0));
        assert_eq!(
            h.stats().fetches,
            fetches_before,
            "no fetch on FVC write-alloc"
        );
        assert_eq!(h.hybrid_stats().fvc_write_allocs, 1);
        // The FVC absorbs the write (the paper's "eliminate or delay").
        assert_eq!(h.stats().write_misses, 0);
        assert_eq!(h.stats().write_hits, 1);
        // The stored word now hits in the FVC.
        h.on_access(Access::load(0x200, 0));
        assert_eq!(h.hybrid_stats().fvc_read_hits, 1);
    }

    #[test]
    fn write_alloc_line_merges_correctly_on_infrequent_read() {
        let mut h = small_hybrid(64);
        // Seed memory with a known value at 0x204 via DMC path.
        h.on_access(Access::store(0x204, 555));
        h.on_access(Access::load(0x600, 0)); // evict; 555 written back, line -> FVC? 555 not frequent but 0-words...
                                             // The evicted line holds [0,555,0,...] (zeros from memory), so it
                                             // enters the FVC with word 1 infrequent.
                                             // Write frequent value to word 0 -> FVC write hit or alloc.
        h.on_access(Access::store(0x200, 1));
        // Read back the infrequent word: transfer miss must return 555.
        h.on_access(Access::load(0x204, 555)); // oracle checks value
                                               // And the frequent word written while in the FVC survived.
        h.on_access(Access::load(0x200, 1));
        assert!(h.is_exclusive());
    }

    #[test]
    fn dirty_fvc_eviction_writes_frequent_words_back() {
        let mut h = small_hybrid(1); // single-entry FVC: every insert evicts
        h.on_access(Access::store(0x200, 0)); // write-alloc in FVC (dirty)
                                              // Different line, also write-alloc -> evicts the first.
        h.on_access(Access::store(0x800, 1));
        assert_eq!(h.hybrid_stats().fvc_evictions, 1);
        assert_eq!(h.hybrid_stats().fvc_dirty_evictions, 1);
        assert_eq!(h.memory().peek(0x200), 0); // zero anyway; check traffic instead
        assert!(h.memory().words_in() >= 1, "partial write-back happened");
        // The evicted value is recoverable through the normal path.
        h.on_access(Access::load(0x200, 0));
    }

    #[test]
    fn hybrid_never_loses_data_random_workload() {
        use std::collections::HashMap;
        let mut h = small_hybrid(16);
        let mut shadow: HashMap<u32, u32> = HashMap::new();
        // Deterministic pseudo-random mixed workload over 4KB.
        let mut x: u32 = 0x12345678;
        for _ in 0..20_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let addr = ((x >> 8) % 4096) & !3;
            let write = x & 1 == 0;
            if write {
                // Bias towards frequent values half the time.
                let value = if x & 2 == 0 { (x >> 16) % 11 } else { x };
                shadow.insert(addr, value);
                h.on_access(Access::store(addr, value));
            } else {
                let expect = shadow.get(&addr).copied().unwrap_or(0);
                // The oracle inside the hybrid asserts equality.
                h.on_access(Access::load(addr, expect));
            }
        }
        h.on_finish();
        assert!(h.is_exclusive());
        // After flush, memory must equal the shadow copy exactly.
        for (&addr, &value) in &shadow {
            assert_eq!(h.memory().peek(addr), value, "at {addr:#x}");
        }
    }

    #[test]
    fn occupancy_sampling_accumulates() {
        let config = HybridConfig::new(CacheGeometry::new(1024, 32, 1).unwrap(), 64, top7())
            .occupancy_sample_every(8);
        let mut h = HybridCache::new(config);
        for i in 0..8 {
            h.on_access(Access::store(0x100 + i * 4, 0));
        }
        h.on_access(Access::load(0x500, 0)); // causes FVC insert
        for i in 0..16 {
            h.on_access(Access::load(0x100 + (i % 8) * 4, 0));
        }
        assert!(h.hybrid_stats().occupancy_samples > 0);
        assert!(
            h.hybrid_stats().avg_occupancy_percent() > 99.0,
            "all-zero line is 100% frequent"
        );
    }

    #[test]
    fn write_alloc_ablation_disables_rule() {
        let config = HybridConfig::new(CacheGeometry::new(1024, 32, 1).unwrap(), 64, top7())
            .write_allocate_fvc(false);
        let mut h = HybridCache::new(config);
        h.on_access(Access::store(0x200, 0));
        assert_eq!(h.hybrid_stats().fvc_write_allocs, 0);
        assert_eq!(h.stats().fetches, 1, "conventional write-allocate fetch");
    }

    #[test]
    fn min_frequent_words_zero_inserts_everything() {
        let config = HybridConfig::new(CacheGeometry::new(1024, 32, 1).unwrap(), 64, top7())
            .min_frequent_words(0);
        let mut h = HybridCache::new(config);
        h.on_access(Access::store(0x100, 99999)); // all-infrequent line
        h.on_access(Access::load(0x500, 0)); // evict it
        assert_eq!(h.hybrid_stats().dmc_to_fvc_inserts, 1);
        assert_eq!(h.hybrid_stats().fvc_insert_skips, 0);
    }

    #[test]
    fn simulator_trait_label() {
        let h = small_hybrid(64);
        let label = h.label();
        assert!(label.contains("1KB direct-mapped"));
        assert!(label.contains("top-7"));
    }

    #[test]
    fn flush_is_idempotent_and_complete() {
        let mut h = small_hybrid(64);
        h.on_access(Access::store(0x100, 42));
        h.on_finish();
        h.on_finish();
        assert_eq!(h.memory().peek(0x100), 42);
        assert_eq!(h.dmc().valid_lines(), 0);
        assert_eq!(h.fvc().valid_lines(), 0);
    }
}
