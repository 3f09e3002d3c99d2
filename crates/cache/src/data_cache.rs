//! Set-associative write-back data cache with pluggable replacement,
//! stored as flat struct-of-arrays line state.

use crate::geometry::CacheGeometry;
use crate::replacement::{Replacement, ReplacementKind, ReplacementPolicy};
use fvl_mem::{Addr, Word};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

/// Tag of an invalid way. Line addresses are aligned to at least one
/// word, so no line address can equal it.
const INVALID: Addr = Addr::MAX;

/// A line evicted from a cache, carrying everything needed to write it
/// back or to forward it to a victim/frequent-value cache.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct EvictedLine {
    /// Address of the first byte of the line.
    pub line_addr: Addr,
    /// Whether the line was modified since it was fetched.
    pub dirty: bool,
    /// The line's words.
    pub data: Vec<Word>,
}

/// The valid line a [`DataCache::fill_with`] displaces. Its words are
/// the slice handed to the fill closure alongside it.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct Victim {
    /// Address of the first byte of the displaced line.
    pub line_addr: Addr,
    /// Whether the displaced line was modified since it was fetched.
    pub dirty: bool,
}

/// A read-only view of a valid cache line (for occupancy statistics).
#[derive(Copy, Clone, Debug)]
pub struct LineRef<'a> {
    /// Address of the first byte of the line.
    pub line_addr: Addr,
    /// Whether the line is dirty.
    pub dirty: bool,
    /// The line's words.
    pub data: &'a [Word],
}

/// A set-associative cache holding real line data, with victim
/// selection delegated to a [`ReplacementKind`] policy (true LRU by
/// default — see [`crate::replacement`] for the zoo).
///
/// Line state is struct-of-arrays, indexed by slot (`set ×
/// associativity + way`): a tag array whose invalid ways hold a
/// sentinel no line address can equal, a dirty-bit array, and one word
/// arena of `lines × words_per_line`. [`crate::CacheSim`] fills a miss
/// in place: the victim's words go to memory straight from the arena
/// and the new line's words come back into the same slice, so its miss
/// path allocates nothing. The DMC+FVC hybrid in `fvl-core` fills its
/// misses through the same [`DataCache::fill_with`]. Above
/// [`DataCache::INDEXED_ASSOC`] ways the cache also keeps a line-address
/// → slot map, so probes and the duplicate-install check stay O(1);
/// with true LRU's O(1) recency list, the cost per access no longer
/// grows with the associativity.
///
/// `DataCache` is a passive structure: it never talks to memory itself.
/// Controllers ([`crate::CacheSim`], the hybrid controllers in
/// `fvl-core`) decide when to fetch, install, and write back, which keeps
/// each policy in exactly one place.
///
/// # Example
///
/// ```
/// use fvl_cache::{CacheGeometry, DataCache};
///
/// let mut dmc = DataCache::new(CacheGeometry::new(1024, 16, 1)?);
/// assert!(dmc.probe(0x40).is_none());
/// dmc.install(0x40, &[1, 2, 3, 4], false);
/// let idx = dmc.probe(0x44).expect("line resident");
/// assert_eq!(dmc.read_word(idx, 0x44), 2);
/// # Ok::<(), fvl_cache::GeometryError>(())
/// ```
#[derive(Clone)]
pub struct DataCache {
    geom: CacheGeometry,
    /// log2(associativity): `slot = set << way_bits | way`.
    way_bits: u32,
    /// log2(words per line): a slot's words start at `slot << word_bits`.
    word_bits: u32,
    /// Per slot: the resident line address, or [`INVALID`].
    tags: Vec<Addr>,
    /// Per slot: whether the resident line is dirty.
    dirty: Vec<bool>,
    /// Every slot's words, `words_per_line` per slot.
    words: Vec<Word>,
    /// Per set: the lowest invalid way, or the associativity when full.
    free: Vec<u32>,
    /// Line address → slot of every valid line, kept only above
    /// [`DataCache::INDEXED_ASSOC`] ways.
    index: Option<HashMap<Addr, u32>>,
    kind: ReplacementKind,
    policy: Replacement,
}

impl DataCache {
    /// Associativity above which probes use a line-address → slot map
    /// instead of scanning the set's tags. Up to 16 ways a scan of one
    /// set's contiguous tags is cheaper than hashing.
    pub const INDEXED_ASSOC: u32 = 16;

    /// Creates an empty (all-invalid) cache of the given geometry with
    /// the default true-LRU replacement policy.
    pub fn new(geom: CacheGeometry) -> Self {
        Self::with_replacement(geom, ReplacementKind::Lru)
    }

    /// Creates an empty cache of the given geometry using the given
    /// replacement policy.
    pub fn with_replacement(geom: CacheGeometry, kind: ReplacementKind) -> Self {
        let lines = geom.lines() as usize;
        let assoc = geom.associativity();
        DataCache {
            geom,
            way_bits: assoc.trailing_zeros(),
            word_bits: geom.words_per_line().trailing_zeros(),
            tags: vec![INVALID; lines],
            dirty: vec![false; lines],
            words: vec![0; lines * geom.words_per_line() as usize],
            free: vec![0; geom.sets() as usize],
            index: (assoc > Self::INDEXED_ASSOC).then(|| HashMap::with_capacity(lines)),
            kind,
            policy: kind.build(&geom),
        }
    }

    /// The cache's organization.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// The configured replacement policy.
    pub fn replacement(&self) -> ReplacementKind {
        self.kind
    }

    /// Splits a global slot index back into the (set, way) coordinates
    /// the replacement policy speaks.
    #[inline]
    fn set_way(&self, slot: usize) -> (u32, u32) {
        let way_mask = (1usize << self.way_bits) - 1;
        ((slot >> self.way_bits) as u32, (slot & way_mask) as u32)
    }

    /// Where the words of the line in `slot` sit in the arena.
    #[inline]
    fn line_range(&self, slot: usize) -> std::ops::Range<usize> {
        slot << self.word_bits..(slot + 1) << self.word_bits
    }

    /// The words of the line in `slot`.
    #[inline]
    fn line(&self, slot: usize) -> &[Word] {
        &self.words[self.line_range(slot)]
    }

    #[inline]
    fn word_index(&self, slot: usize, addr: Addr) -> usize {
        debug_assert_eq!(
            self.tags[slot],
            self.geom.line_addr(addr),
            "slot {slot} does not hold {addr:#x}"
        );
        (slot << self.word_bits) + self.geom.word_offset(addr) as usize
    }

    /// Looks up the line containing `addr`. Returns an opaque slot index
    /// on hit. Does **not** update LRU state; call [`DataCache::touch`]
    /// when the probe corresponds to a real access.
    #[inline]
    pub fn probe(&self, addr: Addr) -> Option<usize> {
        self.probe_at(self.geom.set_index(addr), self.geom.line_addr(addr))
    }

    /// [`DataCache::probe`] with the address already split into `set`
    /// and `line_addr` (as [`CacheGeometry::set_index`] and
    /// [`CacheGeometry::line_addr`] compute them), so a caller that
    /// needs both for its miss path extracts them once. Above
    /// [`DataCache::INDEXED_ASSOC`] ways the map answers from
    /// `line_addr` alone.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range for a geometry of at most
    /// [`DataCache::INDEXED_ASSOC`] ways.
    #[inline]
    pub fn probe_at(&self, set: u32, line_addr: Addr) -> Option<usize> {
        debug_assert_ne!(line_addr, INVALID, "not a line address");
        if let Some(index) = &self.index {
            return index.get(&line_addr).map(|&slot| slot as usize);
        }
        let start = (set as usize) << self.way_bits;
        self.tags[start..start + (1 << self.way_bits)]
            .iter()
            .position(|&tag| tag == line_addr)
            .map(|way| start + way)
    }

    /// Reports the hit in `slot` to the replacement policy (most-
    /// recently-used promotion under LRU-family policies).
    #[inline]
    pub fn touch(&mut self, slot: usize) {
        // A direct-mapped set has one way, so no policy's recency state
        // can change which way it evicts: skip the per-hit hook.
        if self.way_bits == 0 {
            return;
        }
        let (set, way) = self.set_way(slot);
        self.policy.touch(set, way);
    }

    /// Reads the word at `addr` from the resident line in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range; debug builds also panic if it
    /// does not hold the line containing `addr`.
    #[inline]
    pub fn read_word(&self, slot: usize, addr: Addr) -> Word {
        self.words[self.word_index(slot, addr)]
    }

    /// Writes the word at `addr` into the resident line in `slot` and
    /// marks it dirty.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range; debug builds also panic if it
    /// does not hold the line containing `addr`.
    #[inline]
    pub fn write_word(&mut self, slot: usize, addr: Addr, value: Word) {
        let i = self.word_index(slot, addr);
        self.words[i] = value;
        // `seeded-bugs` is a TEST-ONLY mutation used by the `fvl-check`
        // conformance harness: the dirty bit is dropped, so modified
        // lines are silently discarded instead of written back.
        #[cfg(not(feature = "seeded-bugs"))]
        {
            self.dirty[slot] = true;
        }
        let (set, way) = self.set_way(slot);
        let range = self.line_range(slot);
        self.policy.write(set, way, &self.words[range]);
    }

    /// Makes room for `line_addr` in `set` and fills the chosen way in
    /// place — the miss path of [`crate::CacheSim`] and of the DMC+FVC
    /// hybrid. `load` receives the displaced line's [`Victim`] (if the
    /// way held a valid line) and the way's words: the victim's on
    /// entry, to be written back (or re-encoded) from there, and the
    /// new line's on return, fetched straight into them. The line is
    /// then resident with the given dirty bit. Returns its slot. The
    /// way is chosen as [`DataCache::install`] documents, and nothing
    /// is allocated.
    ///
    /// `set` and `line_addr` must come from the same address, as
    /// [`CacheGeometry::set_index`] and [`CacheGeometry::line_addr`]
    /// split it.
    ///
    /// # Panics
    ///
    /// Panics if `line_addr` is already resident (installing a
    /// duplicate would break the one-copy invariant) or the policy
    /// picks a way out of range, before any line state changes.
    pub fn fill_with(
        &mut self,
        set: u32,
        line_addr: Addr,
        dirty: bool,
        load: impl FnOnce(Option<Victim>, &mut [Word]),
    ) -> usize {
        let assoc = self.geom.associativity();
        let start = (set as usize) << self.way_bits;
        if self.index.is_none() {
            assert!(
                !self.tags[start..start + assoc as usize].contains(&line_addr),
                "line {line_addr:#x} already resident"
            );
        }
        let way = match self.free[set as usize] {
            free if free < assoc => free,
            _ => {
                let way = self.policy.victim(set);
                assert!(way < assoc, "policy picked way {way} of {assoc}");
                way
            }
        };
        let slot = start + way as usize;
        let old = self.tags[slot];
        if let Some(index) = &mut self.index {
            match index.entry(line_addr) {
                Entry::Occupied(_) => panic!("line {line_addr:#x} already resident"),
                Entry::Vacant(entry) => entry.insert(slot as u32),
            };
            if old != INVALID {
                index.remove(&old);
            }
        }
        let victim = (old != INVALID).then(|| Victim {
            line_addr: old,
            dirty: self.dirty[slot],
        });
        let range = self.line_range(slot);
        load(victim, &mut self.words[range.clone()]);
        self.tags[slot] = line_addr;
        self.dirty[slot] = dirty;
        if old == INVALID {
            // The lowest invalid way was filled: the next one is past
            // every valid way above it.
            let mut next = way + 1;
            while next < assoc && self.tags[start + next as usize] != INVALID {
                next += 1;
            }
            self.free[set as usize] = next;
        }
        self.policy.fill(set, way, line_addr, &self.words[range]);
        slot
    }

    /// Installs a line, evicting the policy's chosen victim if the set
    /// is full. Returns the evicted line (valid victims only): the
    /// allocating wrapper over [`DataCache::fill_with`], for
    /// controllers that keep the evicted line.
    ///
    /// Invalid ways are always filled first, lowest index first; the
    /// replacement policy only picks among full sets. This rule is part
    /// of the [`crate::replacement`] contract the conformance oracle
    /// mirrors.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one line long, if `line_addr` is
    /// not a line address, or if the line is already resident
    /// (installing a duplicate would break the one-copy invariant).
    pub fn install(&mut self, line_addr: Addr, data: &[Word], dirty: bool) -> Option<EvictedLine> {
        assert_eq!(
            data.len(),
            self.geom.words_per_line() as usize,
            "wrong line length"
        );
        assert_eq!(
            line_addr,
            self.geom.line_addr(line_addr),
            "not a line address"
        );
        let mut evicted = None;
        self.fill_with(
            self.geom.set_index(line_addr),
            line_addr,
            dirty,
            |victim, words| {
                evicted = victim.map(|v| EvictedLine {
                    line_addr: v.line_addr,
                    dirty: v.dirty,
                    data: words.to_vec(),
                });
                words.copy_from_slice(data);
            },
        );
        evicted
    }

    /// Clears the dirty bit of the line in `slot` (write-through mode
    /// keeps lines clean because memory was updated in the same cycle).
    ///
    /// # Panics
    ///
    /// Panics if the slot is invalid.
    pub fn clean(&mut self, slot: usize) {
        assert_ne!(self.tags[slot], INVALID, "clean on invalid line");
        self.dirty[slot] = false;
    }

    /// Removes and returns the line in `slot` (used for victim-cache
    /// swaps).
    ///
    /// # Panics
    ///
    /// Panics if the slot is invalid.
    pub fn take(&mut self, slot: usize) -> EvictedLine {
        assert_ne!(self.tags[slot], INVALID, "take on invalid line");
        let taken = EvictedLine {
            line_addr: self.tags[slot],
            dirty: self.dirty[slot],
            data: self.line(slot).to_vec(),
        };
        self.invalidate(slot);
        taken
    }

    /// Empties the valid `slot` and tells the policy, without an
    /// eviction decision.
    fn invalidate(&mut self, slot: usize) {
        let (set, way) = self.set_way(slot);
        if let Some(index) = &mut self.index {
            index.remove(&self.tags[slot]);
        }
        self.tags[slot] = INVALID;
        self.dirty[slot] = false;
        let free = &mut self.free[set as usize];
        *free = (*free).min(way);
        self.policy.invalidate(set, way);
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> u32 {
        self.tags.iter().filter(|&&tag| tag != INVALID).count() as u32
    }

    /// Iterates over all valid lines.
    pub fn iter_valid(&self) -> impl Iterator<Item = LineRef<'_>> {
        (0..self.tags.len())
            .filter(|&slot| self.tags[slot] != INVALID)
            .map(|slot| LineRef {
                line_addr: self.tags[slot],
                dirty: self.dirty[slot],
                data: self.line(slot),
            })
    }

    /// Drains every valid line (end-of-simulation flush). The cache is
    /// left empty.
    pub fn drain(&mut self) -> Vec<EvictedLine> {
        let mut out = Vec::new();
        for slot in 0..self.tags.len() {
            if self.tags[slot] != INVALID {
                out.push(self.take(slot));
            }
        }
        out
    }
}

impl fmt::Debug for DataCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataCache")
            .field("geometry", &self.geom)
            .field("replacement", &self.kind)
            .field("valid_lines", &self.valid_lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm_1k() -> DataCache {
        DataCache::new(CacheGeometry::new(1024, 16, 1).unwrap())
    }

    #[test]
    fn probe_miss_then_install_then_hit() {
        let mut c = dm_1k();
        assert!(c.probe(0x100).is_none());
        assert!(c.install(0x100, &[1, 2, 3, 4], false).is_none());
        let slot = c.probe(0x108).unwrap();
        assert_eq!(c.read_word(slot, 0x108), 3);
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn probe_at_matches_probe() {
        let mut c = DataCache::new(CacheGeometry::new(512, 16, 2).unwrap());
        c.install(0x100, &[1; 4], false);
        c.install(0x300, &[2; 4], true);
        let g = *c.geometry();
        for addr in (0u32..0x500).step_by(4) {
            assert_eq!(
                c.probe(addr),
                c.probe_at(g.set_index(addr), g.line_addr(addr)),
                "{addr:#x}"
            );
        }
    }

    #[test]
    fn conflicting_install_evicts_and_reports() {
        let mut c = dm_1k();
        c.install(0x100, &[1, 1, 1, 1], false);
        let slot = c.probe(0x100).unwrap();
        c.write_word(slot, 0x104, 9);
        // 0x100 + 1024 maps to the same set in a 1KB DM cache.
        let evicted = c.install(0x100 + 1024, &[2, 2, 2, 2], false).unwrap();
        assert_eq!(evicted.line_addr, 0x100);
        assert!(evicted.dirty);
        assert_eq!(evicted.data, vec![1, 9, 1, 1]);
        assert!(c.probe(0x100).is_none());
        assert!(c.probe(0x100 + 1024).is_some());
    }

    #[test]
    fn lru_evicts_least_recent_in_set() {
        // 2-way, one set touches both ways.
        let mut c = DataCache::new(CacheGeometry::new(64, 16, 2).unwrap());
        // Two sets; addresses 0x00 and 0x20 share set 0.
        c.install(0x00, &[0; 4], false);
        c.install(0x40, &[1; 4], false); // also set 0 (64B cache, 2 sets? verify below)
        let s0 = c.geometry().set_index(0x00);
        let s1 = c.geometry().set_index(0x40);
        assert_eq!(s0, s1, "test assumes same set");
        // Touch 0x00 so 0x40 becomes LRU.
        let slot = c.probe(0x00).unwrap();
        c.touch(slot);
        let evicted = c.install(0x80, &[2; 4], false).unwrap();
        assert_eq!(evicted.line_addr, 0x40);
        assert!(c.probe(0x00).is_some());
    }

    #[test]
    fn write_marks_dirty_and_data_round_trips() {
        let mut c = dm_1k();
        c.install(0x200, &[5, 6, 7, 8], false);
        let slot = c.probe(0x204).unwrap();
        c.write_word(slot, 0x204, 66);
        assert_eq!(c.read_word(slot, 0x204), 66);
        let line = c.iter_valid().next().unwrap();
        assert!(line.dirty);
        assert_eq!(line.data, &[5, 66, 7, 8]);
    }

    #[test]
    fn take_removes_line() {
        let mut c = dm_1k();
        c.install(0x300, &[1, 2, 3, 4], true);
        let slot = c.probe(0x300).unwrap();
        let line = c.take(slot);
        assert_eq!(line.line_addr, 0x300);
        assert!(line.dirty);
        assert!(c.probe(0x300).is_none());
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn drain_empties_cache() {
        let mut c = dm_1k();
        c.install(0x000, &[0; 4], false);
        c.install(0x010, &[0; 4], true);
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(c.valid_lines(), 0);
        assert!(c.drain().is_empty());
    }

    #[test]
    fn fill_with_hands_over_the_victim_words_in_place() {
        let mut c = dm_1k();
        let slot = c.fill_with(
            c.geometry().set_index(0x100),
            0x100,
            false,
            |victim, words| {
                assert_eq!(victim, None);
                words.copy_from_slice(&[1, 2, 3, 4]);
            },
        );
        c.write_word(slot, 0x104, 9);
        let mut seen = Vec::new();
        let again = c.fill_with(
            c.geometry().set_index(0x500),
            0x500,
            true,
            |victim, words| {
                seen.extend_from_slice(words);
                assert_eq!(
                    victim,
                    Some(Victim {
                        line_addr: 0x100,
                        dirty: true
                    })
                );
                words.copy_from_slice(&[5, 6, 7, 8]);
            },
        );
        assert_eq!(again, slot, "a direct-mapped set refills its one way");
        assert_eq!(seen, [1, 9, 3, 4]);
        assert_eq!(c.read_word(again, 0x508), 7);
        let line = c.iter_valid().next().unwrap();
        assert_eq!((line.line_addr, line.dirty), (0x500, true));
        assert!(c.probe(0x100).is_none());
    }

    #[test]
    fn indexed_sets_fill_lowest_invalid_way_and_evict_lru() {
        // 64 ways: above the constant, so probes go through the map.
        let assoc = 4 * DataCache::INDEXED_ASSOC;
        let mut c = DataCache::new(CacheGeometry::fully_associative(assoc, 16).unwrap());
        for i in 0..assoc {
            assert!(c.install(i * 0x10, &[i; 4], false).is_none());
        }
        for i in 0..assoc {
            let slot = c.probe(i * 0x10 + 4).expect("resident");
            assert_eq!(slot, i as usize, "filled in way order");
            assert_eq!(c.read_word(slot, i * 0x10 + 4), i);
        }
        // Refresh every line but the third: it becomes the LRU victim.
        for i in (0..assoc).filter(|&i| i != 2) {
            c.touch(c.probe(i * 0x10).unwrap());
        }
        let evicted = c.install(0x1_0000, &[7; 4], false).unwrap();
        assert_eq!((evicted.line_addr, evicted.data), (0x20, vec![2; 4]));
        assert!(c.probe(0x20).is_none());
        assert_eq!(c.probe(0x1_0000), Some(2));
        // Holes refill lowest way first, and a full set goes back to
        // the policy.
        let high = c.probe(0x50).unwrap();
        c.take(high);
        c.take(c.probe(0x10).unwrap());
        assert_eq!(c.valid_lines(), assoc - 2);
        c.install(0x2_0000, &[0; 4], false);
        c.install(0x3_0000, &[0; 4], false);
        assert_eq!(c.probe(0x2_0000), Some(1));
        assert_eq!(c.probe(0x3_0000), Some(high));
        assert_eq!(c.install(0x4_0000, &[0; 4], false).unwrap().line_addr, 0x00);
        assert_eq!(c.drain().len(), assoc as usize);
        assert!(c.probe(0x4_0000).is_none());
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn duplicate_install_panics() {
        let mut c = dm_1k();
        c.install(0x100, &[0; 4], false);
        c.install(0x100, &[0; 4], false);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn duplicate_install_panics_above_the_indexed_associativity() {
        let assoc = 2 * DataCache::INDEXED_ASSOC;
        let mut c = DataCache::new(CacheGeometry::fully_associative(assoc, 16).unwrap());
        c.install(0x100, &[0; 4], false);
        c.install(0x200, &[0; 4], false);
        c.install(0x100, &[0; 4], false);
    }

    #[test]
    #[should_panic(expected = "wrong line length")]
    fn wrong_length_install_panics() {
        let mut c = dm_1k();
        c.install(0x100, &[0; 3], false);
    }
}
