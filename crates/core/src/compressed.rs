//! Frequent-value *compression* inside the main data cache — the
//! follow-up direction the paper cites as reference [11] (Yang, Zhang,
//! Gupta, "Frequent Value Compression in Data Caches").
//!
//! Instead of a separate value-centric structure, the main cache itself
//! stores lines compressed: a line whose words are mostly frequent
//! values occupies only *half* a physical frame (frequent words as
//! `w`-bit codes plus the residual words verbatim), so each frame can
//! hold **two** compressed lines. Value-dense programs effectively get a
//! cache of up to twice the capacity for free.

use crate::value_set::FrequentValueSet;
use fvl_cache::{CacheGeometry, CacheStats, MainMemory, Simulator};
use fvl_mem::{Access, AccessKind, AccessSink, Addr, Word};
use std::fmt;

/// Bits available per physical frame half (half the uncompressed line).
fn half_frame_bits(words_per_line: u32) -> u32 {
    words_per_line * 32 / 2
}

/// How many of `data`'s words are not frequent values.
fn infrequent_words(data: &[Word], values: &FrequentValueSet) -> u32 {
    data.iter().filter(|w| !values.contains(**w)).count() as u32
}

/// Whether a line of `words` words, `infrequent` of them not frequent,
/// fits in half a frame under frequent-value compression: one presence
/// bit plus `width` code bits per word, plus the full residual words.
fn fits_half_frame(words: u32, infrequent: u32, values: &FrequentValueSet) -> bool {
    words * (1 + values.width_bits()) + infrequent * 32 <= half_frame_bits(words)
}

/// Whether `data` fits in half a frame under the compression scheme.
#[cfg(test)]
fn compressible(data: &[Word], values: &FrequentValueSet) -> bool {
    fits_half_frame(data.len() as u32, infrequent_words(data, values), values)
}

/// Tag of an invalid subslot. Line addresses are word aligned, so no
/// line address can equal it.
const INVALID: Addr = Addr::MAX;

/// A direct-mapped-frame cache whose frames hold either one
/// uncompressed line or two compressed lines.
///
/// The controller implements the same write-back, write-allocate policy
/// as [`fvl_cache::CacheSim`], so miss rates are directly comparable;
/// the only difference is the storage model.
///
/// Each frame has two subslots, and their state is struct-of-arrays,
/// indexed by subslot (`frame × 2 + 0 or 1`): a tag array whose invalid
/// subslots hold a sentinel no line address can equal, dirty and
/// compressed flags, each line's count of infrequent words (kept up to
/// date on every store, so the compressibility check is O(1)) and its
/// last-use stamp, plus one word arena of `frames × 2 ×
/// words_per_line`. An uncompressed line lives alone in its frame's
/// first subslot. A miss fetches into a reusable buffer, picks its
/// subslot, writes the lines it evicts back from the arena and copies
/// the buffer in; the flush writes back from the arena too. Neither
/// allocates.
///
/// # Example
///
/// ```
/// use fvl_cache::{CacheGeometry, Simulator};
/// use fvl_core::{CompressedCache, FrequentValueSet};
/// use fvl_mem::{Access, AccessSink};
///
/// let values = FrequentValueSet::new(vec![0, 1, 2, 3, 4, 5, 6])?;
/// let mut sim = CompressedCache::new(CacheGeometry::new(4096, 32, 1)?, values);
/// sim.on_access(Access::load(0x100, 0));
/// sim.on_finish();
/// assert_eq!(sim.stats().misses(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CompressedCache {
    geom: CacheGeometry,
    values: FrequentValueSet,
    /// log2(words per line): a subslot's words start at
    /// `subslot << word_bits`.
    word_bits: u32,
    /// Per subslot: the resident line address, or [`INVALID`].
    tags: Vec<Addr>,
    /// Per subslot: whether the resident line is dirty.
    dirty: Vec<bool>,
    /// Per subslot: whether the resident line is held compressed.
    compressed: Vec<bool>,
    /// Per subslot: how many of the line's words are not frequent.
    infrequent: Vec<u32>,
    /// Per subslot: the clock at the line's last install or hit (LRU
    /// between frame partners).
    stamps: Vec<u64>,
    /// Every subslot's words, `words_per_line` per subslot.
    words: Vec<Word>,
    memory: MainMemory,
    stats: CacheStats,
    clock: u64,
    /// Lines that had to be expanded after a store of an infrequent
    /// value (possibly displacing their frame partner).
    expansions: u64,
    /// Sum over occupancy samples of compressed-resident line counts.
    compressed_line_samples: u64,
    resident_line_samples: u64,
    accesses: u64,
    /// A fetched line, before it has a subslot.
    line_buf: Vec<Word>,
    flushed: bool,
}

impl CompressedCache {
    /// Creates a compressed cache with the *physical* geometry `geom`
    /// (frames = `geom.lines()`, each able to hold two compressed
    /// lines).
    ///
    /// # Panics
    ///
    /// Panics if `geom` is not direct-mapped (the compression study uses
    /// direct-mapped frames).
    pub fn new(geom: CacheGeometry, values: FrequentValueSet) -> Self {
        assert!(
            geom.is_direct_mapped(),
            "compressed cache frames are direct mapped"
        );
        let wpl = geom.words_per_line() as usize;
        let subslots = geom.lines() as usize * 2;
        CompressedCache {
            geom,
            values,
            word_bits: geom.words_per_line().trailing_zeros(),
            tags: vec![INVALID; subslots],
            dirty: vec![false; subslots],
            compressed: vec![false; subslots],
            infrequent: vec![0; subslots],
            stamps: vec![0; subslots],
            words: vec![0; subslots * wpl],
            memory: MainMemory::new(),
            stats: CacheStats::new(),
            clock: 0,
            expansions: 0,
            compressed_line_samples: 0,
            resident_line_samples: 0,
            accesses: 0,
            line_buf: vec![0; wpl],
            flushed: false,
        }
    }

    /// Physical geometry of the frames.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// The backing memory (traffic counters).
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// Lines expanded in place after losing compressibility.
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Average fraction of resident lines held compressed, sampled every
    /// 4096 accesses (the effective-capacity measure).
    pub fn avg_compressed_fraction(&self) -> f64 {
        if self.resident_line_samples == 0 {
            0.0
        } else {
            self.compressed_line_samples as f64 / self.resident_line_samples as f64
        }
    }

    /// Where the words of `subslot` sit in the arena.
    fn line_range(&self, subslot: usize) -> std::ops::Range<usize> {
        subslot << self.word_bits..(subslot + 1) << self.word_bits
    }

    fn probe(&self, addr: Addr) -> Option<usize> {
        let line_addr = self.geom.line_addr(addr);
        let a = self.geom.set_index(addr) as usize * 2;
        (a..a + 2).find(|&s| self.tags[s] == line_addr)
    }

    /// Empties `subslot`, writing its line back from the arena if
    /// dirty. An invalid subslot stays as it is.
    fn evict(&mut self, subslot: usize) {
        let line_addr = std::mem::replace(&mut self.tags[subslot], INVALID);
        if line_addr != INVALID && self.dirty[subslot] {
            let range = self.line_range(subslot);
            self.memory.write_line(line_addr, &self.words[range]);
            self.stats.writebacks += 1;
        }
    }

    /// Installs the fetched line in `line_buf` into `frame`, compressed
    /// when possible. Evicts as needed: an uncompressed newcomer needs
    /// the whole frame; a compressed newcomer needs one free subslot
    /// (evicting the LRU partner if both are taken, or the resident
    /// uncompressed line).
    fn install(&mut self, frame: usize, line_addr: Addr, dirty: bool) {
        let infrequent = infrequent_words(&self.line_buf, &self.values);
        let is_compressed = fits_half_frame(self.line_buf.len() as u32, infrequent, &self.values);
        let (a, b) = (frame * 2, frame * 2 + 1);
        self.clock += 1;
        // An uncompressed resident occupies both subslots logically: it
        // is stored in subslot `a` with `b` kept empty.
        let resident_uncompressed = self.tags[a] != INVALID && !self.compressed[a];
        let target = if !is_compressed || resident_uncompressed {
            // Whole frame turnover.
            self.evict(a);
            self.evict(b);
            a
        } else if self.tags[a] == INVALID {
            // Compressed newcomer into a frame holding 0..=2 compressed
            // lines: take a free subslot, else evict the LRU one.
            a
        } else if self.tags[b] == INVALID || self.stamps[a] > self.stamps[b] {
            b
        } else {
            a
        };
        self.evict(target);
        self.tags[target] = line_addr;
        self.dirty[target] = dirty;
        self.compressed[target] = is_compressed;
        self.infrequent[target] = infrequent;
        self.stamps[target] = self.clock;
        let range = self.line_range(target);
        self.words[range].copy_from_slice(&self.line_buf);
    }

    /// A store hit on `subslot`: updates the word and its infrequent
    /// count, and expands a compressed line the store made
    /// incompressible, which displaces its frame partner.
    fn store(&mut self, subslot: usize, offset: usize, value: Word) {
        let i = (subslot << self.word_bits) + offset;
        let old = std::mem::replace(&mut self.words[i], value);
        let values = &self.values;
        self.infrequent[subslot] = self.infrequent[subslot] + u32::from(!values.contains(value))
            - u32::from(!values.contains(old));
        self.dirty[subslot] = true;
        let words = 1 << self.word_bits;
        // `seeded-bugs` is a TEST-ONLY mutation used by the `fvl-check`
        // conformance harness: a store that breaks a compressed line's
        // compressibility neither expands it nor evicts its partner.
        if self.compressed[subslot]
            && !fits_half_frame(words, self.infrequent[subslot], values)
            && !cfg!(feature = "seeded-bugs")
        {
            self.compressed[subslot] = false;
            self.expansions += 1;
            let a = subslot & !1;
            self.evict(subslot ^ 1);
            // Normalize: the uncompressed line lives in `a`.
            if subslot != a {
                self.tags.swap(a, subslot);
                self.dirty.swap(a, subslot);
                self.compressed.swap(a, subslot);
                self.infrequent.swap(a, subslot);
                self.stamps.swap(a, subslot);
                let range = self.line_range(subslot);
                self.words.copy_within(range, a << self.word_bits);
            }
        }
    }

    fn sample_occupancy(&mut self) {
        for (&tag, &compressed) in self.tags.iter().zip(&self.compressed) {
            if tag != INVALID {
                self.resident_line_samples += 1;
                self.compressed_line_samples += u64::from(compressed);
            }
        }
    }

    fn handle(&mut self, access: Access) {
        self.accesses += 1;
        let addr = access.addr;
        let offset = self.geom.word_offset(addr) as usize;
        if let Some(subslot) = self.probe(addr) {
            self.clock += 1;
            self.stamps[subslot] = self.clock;
            match access.kind {
                AccessKind::Load => {
                    self.stats.read_hits += 1;
                    let value = self.words[(subslot << self.word_bits) + offset];
                    assert_eq!(
                        value, access.value,
                        "compressed cache returned {value:#x}, trace expects {:#x} at {addr:#x}",
                        access.value
                    );
                }
                AccessKind::Store => {
                    self.stats.write_hits += 1;
                    self.store(subslot, offset, access.value);
                }
            }
        } else {
            match access.kind {
                AccessKind::Load => self.stats.read_misses += 1,
                AccessKind::Store => self.stats.write_misses += 1,
            }
            let line_addr = self.geom.line_addr(addr);
            self.memory.read_line(line_addr, &mut self.line_buf);
            self.stats.fetches += 1;
            let dirty = access.kind == AccessKind::Store;
            if dirty {
                self.line_buf[offset] = access.value;
            }
            self.install(self.geom.set_index(addr) as usize, line_addr, dirty);
        }
        if self.accesses.is_multiple_of(4096) {
            self.sample_occupancy();
        }
    }

    /// Writes all dirty lines back, straight from the arena, and
    /// empties the cache.
    pub fn flush(&mut self) {
        for subslot in 0..self.tags.len() {
            self.evict(subslot);
        }
    }
}

impl AccessSink for CompressedCache {
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

impl Simulator for CompressedCache {
    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn traffic_words(&self) -> u64 {
        self.memory.total_traffic_words()
    }

    fn label(&self) -> String {
        format!("{} compressed (top-{})", self.geom, self.values.len())
    }
}

impl fmt::Debug for CompressedCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompressedCache")
            .field("geometry", &self.geom)
            .field("stats", &self.stats)
            .field("expansions", &self.expansions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn top7() -> FrequentValueSet {
        FrequentValueSet::new(vec![0, 1, 2, 3, 4, 5, 6]).unwrap()
    }

    fn cache_1k() -> CompressedCache {
        // 1KB, 32B lines: 32 frames; conflicting lines are 1KB apart.
        CompressedCache::new(CacheGeometry::new(1024, 32, 1).unwrap(), top7())
    }

    #[test]
    fn compressibility_rule() {
        let values = top7();
        // 8 words, 3-bit codes: 8*(1+3) = 32 bits + 32 per infrequent.
        // Half frame = 128 bits -> at most 3 infrequent words.
        assert!(compressible(&[0; 8], &values));
        assert!(compressible(&[0, 99, 98, 97, 0, 0, 0, 0], &values));
        assert!(!compressible(&[0, 99, 98, 97, 96, 0, 0, 0], &values));
        assert!(!compressible(&[9, 9, 9, 9, 9, 9, 9, 9], &values));
    }

    #[test]
    fn two_compressible_conflicting_lines_coexist() {
        let mut c = cache_1k();
        // Two all-zero lines 1KB apart: a plain DM cache would thrash.
        for _ in 0..10 {
            c.on_access(Access::load(0x100, 0));
            c.on_access(Access::load(0x500, 0));
        }
        assert_eq!(c.stats().misses(), 2, "both fit compressed in one frame");
        assert_eq!(c.stats().hits(), 18);
    }

    #[test]
    fn uncompressible_lines_still_thrash() {
        let mut c = cache_1k();
        c.memory.poke(0x100, 111); // make both lines incompressible
        c.memory.poke(0x104, 222);
        c.memory.poke(0x108, 233);
        c.memory.poke(0x10c, 244);
        c.memory.poke(0x500, 333);
        c.memory.poke(0x504, 444);
        c.memory.poke(0x508, 455);
        c.memory.poke(0x50c, 466);
        for _ in 0..5 {
            c.on_access(Access::load(0x100, 111));
            c.on_access(Access::load(0x500, 333));
        }
        assert_eq!(c.stats().misses(), 10, "no compression, plain DM behavior");
    }

    #[test]
    fn store_breaking_compressibility_expands_and_evicts_partner() {
        let mut c = cache_1k();
        c.on_access(Access::load(0x100, 0));
        c.on_access(Access::load(0x500, 0)); // both compressed, same frame
        assert_eq!(c.stats().misses(), 2);
        // Make line 0x100 incompressible: 4+ infrequent words.
        for i in 0..4 {
            c.on_access(Access::store(0x100 + i * 4, 1000 + i));
        }
        assert_eq!(c.expansions(), 1);
        // The partner was displaced: re-reading it misses.
        c.on_access(Access::load(0x500, 0));
        assert_eq!(c.stats().read_misses, 3);
        // The expanded line's data survived.
        c.on_access(Access::load(0x100, 1000));
        c.on_access(Access::load(0x10c, 1003));
    }

    #[test]
    fn dirty_data_survives_compression_churn() {
        let mut c = cache_1k();
        c.on_access(Access::store(0x100, 3)); // compressed, dirty
        c.on_access(Access::load(0x500, 0)); // partner joins
        c.on_access(Access::load(0x900, 0)); // third line: evicts LRU (0x100)
        c.on_finish();
        assert_eq!(
            c.memory.peek(0x100),
            3,
            "dirty compressed line written back"
        );
    }

    #[test]
    fn occupancy_sampling_reports_compressed_fraction() {
        let mut c = cache_1k();
        for i in 0..5000u32 {
            c.on_access(Access::load((i % 256) * 4, 0));
        }
        assert!(c.avg_compressed_fraction() > 0.9, "all-zero lines compress");
    }

    /// Every resident line's running count against a full scan of its
    /// words in the arena.
    fn assert_counts_match_scan(c: &CompressedCache) {
        for subslot in (0..c.tags.len()).filter(|&s| c.tags[s] != INVALID) {
            assert_eq!(
                c.infrequent[subslot],
                infrequent_words(&c.words[c.line_range(subslot)], &c.values),
                "line {:#x}",
                c.tags[subslot]
            );
        }
    }

    #[test]
    fn infrequent_counts_follow_every_store_and_install() {
        let mut c = cache_1k();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Loads must read what the program stored: mirror memory here.
        let mut memory = std::collections::HashMap::new();
        for _ in 0..20_000 {
            let r = next();
            // 32 words in each of three regions that share frames:
            // stores flip words between frequent (0..=6) and infrequent
            // values, so lines expand, compress on refill and evict
            // partners.
            let addr = (r % 32) as u32 * 4 + ((r >> 8) % 3) as u32 * 1024;
            if r >> 20 & 1 == 0 {
                let value = if r >> 24 & 3 == 0 {
                    100 + (r >> 32) as u32 % 50
                } else {
                    (r >> 32) as u32 % 7
                };
                c.on_access(Access::store(addr, value));
                memory.insert(addr, value);
            } else {
                c.on_access(Access::load(addr, memory.get(&addr).copied().unwrap_or(0)));
            }
            assert_counts_match_scan(&c);
        }
        assert!(c.expansions() > 0, "some store broke a line's compression");
    }

    #[test]
    #[should_panic(expected = "compressed cache returned")]
    fn value_oracle_rejects_a_wrong_load_in_release_too() {
        let mut c = cache_1k();
        c.on_access(Access::store(0x40, 5));
        c.on_access(Access::load(0x40, 6));
    }

    #[test]
    fn value_oracle_checks_loads() {
        let mut c = cache_1k();
        c.on_access(Access::store(0x40, 5));
        c.on_access(Access::load(0x40, 5)); // matches
        assert_eq!(c.stats().hits(), 1);
    }
}
