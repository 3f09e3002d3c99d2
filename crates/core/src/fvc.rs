//! The value-centric frequent value cache structure.

use crate::code_array::CodeArray;
use crate::value_set::FrequentValueSet;
use fvl_cache::Victim;
use fvl_mem::{Addr, Word, WORD_BYTES};
use std::fmt;

/// One FVC line: a tag plus a bit-packed code per word of the
/// corresponding DMC line.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct FvcLine {
    /// Address of the first byte of the (uncompressed) line.
    pub line_addr: Addr,
    /// Whether any code was updated since the line entered the FVC
    /// (dirty frequent words must be written back on eviction).
    pub dirty: bool,
    /// The per-word codes.
    pub codes: CodeArray,
}

impl FvcLine {
    /// Encodes an uncompressed line: each word holding a frequent value
    /// gets its code, every other word the infrequent marker.
    pub fn encode(line_addr: Addr, data: &[Word], values: &FrequentValueSet) -> Self {
        let mut codes = CodeArray::new(values.width_bits(), data.len() as u32);
        let marker = codes.infrequent_code();
        for (i, &w) in data.iter().enumerate() {
            codes.set(i as u32, values.encode(w).unwrap_or(marker));
        }
        FvcLine {
            line_addr,
            dirty: false,
            codes,
        }
    }

    /// Number of words this line can serve (non-infrequent codes).
    pub fn frequent_count(&self) -> u32 {
        self.codes.frequent_count()
    }

    /// Overlays this line's frequent values onto `data` (which must hold
    /// the memory image of the same line). Words marked infrequent are
    /// left untouched. This is the merge the paper performs when an
    /// access to an infrequent word moves a line from FVC back to DMC.
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different word count than the line.
    pub fn merge_into(&self, data: &mut [Word], values: &FrequentValueSet) {
        assert_eq!(data.len() as u32, self.codes.len(), "line length mismatch");
        let marker = self.codes.infrequent_code();
        for (i, slot) in data.iter_mut().enumerate() {
            let code = self.codes.get(i as u32);
            if code != marker {
                *slot = values.decode(code).expect("valid code");
            }
        }
    }

    /// Iterates over `(word_index, value)` for every frequent word.
    pub fn frequent_words<'a>(
        &'a self,
        values: &'a FrequentValueSet,
    ) -> impl Iterator<Item = (u32, Word)> + 'a {
        let marker = self.codes.infrequent_code();
        (0..self.codes.len()).filter_map(move |i| {
            let code = self.codes.get(i);
            (code != marker).then(|| (i, values.decode(code).expect("valid code")))
        })
    }
}

/// Tag of an invalid FVC way. Line addresses are word aligned, so no
/// line address can equal it.
const INVALID: Addr = Addr::MAX;

/// The frequent value cache: a small (usually direct-mapped) cache whose
/// data array stores codes, not words.
///
/// Like [`fvl_cache::DataCache`] this is a passive structure; the
/// [`crate::HybridCache`] controller decides what enters and leaves.
/// Its layout mirrors the `DataCache` one too: struct-of-arrays state
/// indexed by slot (`set × associativity + way`) — a tag array whose
/// invalid ways hold a sentinel no line address can equal, dirty bits,
/// LRU stamps, and one byte arena holding a code per word. Each slot
/// also keeps its count of frequent codes, and the cache their running
/// total, so the Figure 11 occupancy reads in O(1). Misses fill in
/// place through [`Fvc::fill_with`]; [`FvcLine`] and its bit-packed
/// [`crate::CodeArray`] stay the exchange form of [`Fvc::install`],
/// [`Fvc::take`] and [`Fvc::drain`], and [`Fvc::data_bytes`] reports
/// the packed size the paper quotes.
///
/// # Example
///
/// ```
/// use fvl_core::{FrequentValueSet, Fvc, FvcLine};
///
/// let values = FrequentValueSet::new(vec![0, 1, 2])?;
/// let mut fvc = Fvc::new(64, 8, &values);
/// let line = FvcLine::encode(0x100, &[0, 1, 2, 3, 4, 0, 0, 1], &values);
/// assert_eq!(line.frequent_count(), 6);
/// fvc.install(line);
/// assert!(fvc.probe(0x104).is_some());
/// # Ok::<(), fvl_core::ValueSetError>(())
/// ```
#[derive(Clone)]
pub struct Fvc {
    entries: u32,
    associativity: u32,
    sets: u32,
    words_per_line: u32,
    line_bytes: u32,
    width: u32,
    /// log2(associativity): `slot = set << way_bits | way`.
    way_bits: u32,
    /// log2(words per line): a slot's codes start at `slot << word_bits`.
    word_bits: u32,
    /// Per slot: the resident line address, or [`INVALID`].
    tags: Vec<Addr>,
    /// Per slot: whether a code changed since the line entered.
    dirty: Vec<bool>,
    /// Per slot: the clock at its last fill or hit (LRU within a set).
    stamps: Vec<u64>,
    /// Every slot's codes, one byte per word.
    codes: Vec<u8>,
    /// Per slot: how many of its codes are frequent (0 when invalid).
    frequent: Vec<u32>,
    /// The sum of `frequent` over every slot.
    frequent_total: u64,
    /// Number of valid slots.
    valid: u32,
    clock: u64,
}

impl Fvc {
    /// Creates a direct-mapped FVC with `entries` lines of
    /// `words_per_line` words encoded at `values`' width.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` and `words_per_line` are powers of two.
    pub fn new(entries: u32, words_per_line: u32, values: &FrequentValueSet) -> Self {
        Self::with_associativity(entries, words_per_line, values, 1)
    }

    /// Creates a set-associative FVC (LRU within sets).
    ///
    /// # Panics
    ///
    /// Panics unless `entries`, `words_per_line` and `associativity` are
    /// powers of two with `associativity ≤ entries`.
    pub fn with_associativity(
        entries: u32,
        words_per_line: u32,
        values: &FrequentValueSet,
        associativity: u32,
    ) -> Self {
        assert!(
            entries.is_power_of_two(),
            "FVC entries must be a power of two"
        );
        assert!(
            words_per_line.is_power_of_two(),
            "words per line must be a power of two"
        );
        assert!(
            associativity.is_power_of_two() && associativity <= entries,
            "bad FVC associativity"
        );
        let slots = entries as usize;
        Fvc {
            entries,
            associativity,
            sets: entries / associativity,
            words_per_line,
            line_bytes: words_per_line * WORD_BYTES,
            width: values.width_bits(),
            way_bits: associativity.trailing_zeros(),
            word_bits: words_per_line.trailing_zeros(),
            tags: vec![INVALID; slots],
            dirty: vec![false; slots],
            stamps: vec![0; slots],
            codes: vec![0; slots * words_per_line as usize],
            frequent: vec![0; slots],
            frequent_total: 0,
            valid: 0,
            clock: 0,
        }
    }

    /// Number of lines.
    pub fn entries(&self) -> u32 {
        self.entries
    }

    /// Words per line.
    pub fn words_per_line(&self) -> u32 {
        self.words_per_line
    }

    /// Encoding width in bits.
    pub fn width_bits(&self) -> u32 {
        self.width
    }

    /// Associativity (1 = direct mapped).
    pub fn associativity(&self) -> u32 {
        self.associativity
    }

    /// Size of the encoded data array in bytes — the "FVC size" the
    /// paper quotes (e.g. 512 entries × 8 words × 3 bits = 1.5 KB).
    pub fn data_bytes(&self) -> f64 {
        (self.entries * self.words_per_line * self.width) as f64 / 8.0
    }

    /// The all-ones code marking an infrequent word.
    #[inline]
    fn marker(&self) -> u8 {
        ((1u32 << self.width) - 1) as u8
    }

    #[inline]
    fn line_addr_of(&self, addr: Addr) -> Addr {
        addr & !(self.line_bytes - 1)
    }

    /// The slots of the set `line_addr` maps to.
    #[inline]
    fn set_range(&self, line_addr: Addr) -> std::ops::Range<usize> {
        let set = ((line_addr / self.line_bytes) % self.sets) as usize;
        set << self.way_bits..(set + 1) << self.way_bits
    }

    /// Where the codes of `slot` sit in the arena.
    #[inline]
    fn code_range(&self, slot: usize) -> std::ops::Range<usize> {
        slot << self.word_bits..(slot + 1) << self.word_bits
    }

    /// Word offset of `addr` within its line.
    #[inline]
    pub fn word_offset(&self, addr: Addr) -> u32 {
        (addr & (self.line_bytes - 1)) / WORD_BYTES
    }

    /// Looks up the line containing `addr`; returns its slot on a tag
    /// match (the match says nothing about whether the specific word is
    /// frequent — check the code).
    #[inline]
    pub fn probe(&self, addr: Addr) -> Option<usize> {
        let line_addr = self.line_addr_of(addr);
        let slots = self.set_range(line_addr);
        self.tags[slots.clone()]
            .iter()
            .position(|&tag| tag == line_addr)
            .map(|way| slots.start + way)
    }

    /// Marks `slot` most recently used.
    #[inline]
    pub fn touch(&mut self, slot: usize) {
        self.clock += 1;
        self.stamps[slot] = self.clock;
    }

    /// The code stored for `addr` in `slot`.
    #[inline]
    pub fn code_at(&self, slot: usize, addr: Addr) -> u8 {
        debug_assert_eq!(self.tags[slot], self.line_addr_of(addr));
        self.codes[(slot << self.word_bits) + self.word_offset(addr) as usize]
    }

    /// The codes of the line in `slot`, one per word.
    #[inline]
    pub(crate) fn codes(&self, slot: usize) -> &[u8] {
        &self.codes[self.code_range(slot)]
    }

    /// Whether the line in `slot` changed since it entered.
    #[inline]
    pub(crate) fn is_dirty(&self, slot: usize) -> bool {
        self.dirty[slot]
    }

    /// Overwrites the code for `addr` in `slot` and marks the line
    /// dirty (a frequent-value write hit).
    ///
    /// # Panics
    ///
    /// Panics if `code` does not fit in the encoding width.
    #[inline]
    pub fn set_code(&mut self, slot: usize, addr: Addr, code: u8) {
        let marker = self.marker();
        assert!(
            code <= marker,
            "code {code:#b} does not fit in {} bits",
            self.width
        );
        debug_assert_eq!(self.tags[slot], self.line_addr_of(addr));
        let i = (slot << self.word_bits) + self.word_offset(addr) as usize;
        let old = std::mem::replace(&mut self.codes[i], code);
        let (was, is) = (u32::from(old != marker), u32::from(code != marker));
        self.frequent[slot] = self.frequent[slot] + is - was;
        self.frequent_total = self.frequent_total + u64::from(is) - u64::from(was);
        self.dirty[slot] = true;
    }

    /// Makes room for `line_addr` and fills the chosen way in place —
    /// the one fill path. The lowest invalid way of the set is taken
    /// first, else its least recently used line. `load` receives that
    /// line's [`Victim`] (if the way held a valid line) and the way's
    /// codes: the victim's on entry, for its partial write-back, and
    /// the new line's on return, written into the same slice. The line
    /// is then resident and most recently used, with the given dirty
    /// bit. Returns its slot; nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `line_addr` is not a line address or is already
    /// resident, before any line state changes, or if `load` leaves a
    /// code that does not fit in the encoding width.
    pub fn fill_with(
        &mut self,
        line_addr: Addr,
        dirty: bool,
        load: impl FnOnce(Option<Victim>, &mut [u8]),
    ) -> usize {
        assert_eq!(line_addr % self.line_bytes, 0, "not a line address");
        assert!(
            self.probe(line_addr).is_none(),
            "line already resident in FVC"
        );
        let slots = self.set_range(line_addr);
        let slot = match self.tags[slots.clone()].iter().position(|&t| t == INVALID) {
            Some(way) => slots.start + way,
            None => slots
                .min_by_key(|&slot| self.stamps[slot])
                .expect("associativity at least 1"),
        };
        let old = self.tags[slot];
        let victim = (old != INVALID).then(|| Victim {
            line_addr: old,
            dirty: self.dirty[slot],
        });
        let range = self.code_range(slot);
        load(victim, &mut self.codes[range.clone()]);
        let marker = self.marker();
        let mut frequent = 0;
        for &code in &self.codes[range] {
            assert!(
                code <= marker,
                "code {code:#b} does not fit in {} bits",
                self.width
            );
            frequent += u32::from(code != marker);
        }
        if old == INVALID {
            self.valid += 1;
        }
        self.frequent_total =
            self.frequent_total - u64::from(self.frequent[slot]) + u64::from(frequent);
        self.frequent[slot] = frequent;
        self.tags[slot] = line_addr;
        self.dirty[slot] = dirty;
        self.touch(slot);
        slot
    }

    /// Installs a line, returning the evicted victim if one was valid:
    /// the allocating wrapper over [`Fvc::fill_with`].
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident or has mismatched
    /// width/length.
    pub fn install(&mut self, line: FvcLine) -> Option<FvcLine> {
        assert_eq!(
            line.codes.len(),
            self.words_per_line,
            "line length mismatch"
        );
        assert_eq!(line.codes.width(), self.width, "encoding width mismatch");
        let mut evicted = None;
        let width = self.width;
        self.fill_with(line.line_addr, line.dirty, |victim, codes| {
            evicted = victim.map(|v| FvcLine {
                line_addr: v.line_addr,
                dirty: v.dirty,
                codes: pack(width, codes),
            });
            for (code, packed) in codes.iter_mut().zip(line.codes.iter()) {
                *code = packed;
            }
        });
        evicted
    }

    /// Empties the valid `slot` without writing anything back.
    ///
    /// # Panics
    ///
    /// Panics if the slot is invalid.
    pub(crate) fn invalidate(&mut self, slot: usize) {
        assert_ne!(self.tags[slot], INVALID, "FVC slot {slot} is invalid");
        self.tags[slot] = INVALID;
        self.dirty[slot] = false;
        self.valid -= 1;
        self.frequent_total -= u64::from(self.frequent[slot]);
        self.frequent[slot] = 0;
    }

    /// Removes and returns the line in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is invalid.
    pub fn take(&mut self, slot: usize) -> FvcLine {
        assert_ne!(self.tags[slot], INVALID, "take on invalid FVC slot");
        let line = FvcLine {
            line_addr: self.tags[slot],
            dirty: self.dirty[slot],
            codes: pack(self.width, self.codes(slot)),
        };
        self.invalidate(slot);
        line
    }

    /// Number of valid lines.
    pub fn valid_lines(&self) -> u32 {
        self.valid
    }

    /// The number of frequent codes over every valid line, kept as a
    /// running total by every fill, code update and invalidation.
    pub(crate) fn frequent_total(&self) -> u64 {
        self.frequent_total
    }

    /// Iterates over the valid lines' `(line_addr, dirty, frequent
    /// words)`, counting each line's codes afresh.
    pub fn iter_valid(&self) -> impl Iterator<Item = (Addr, bool, u32)> + '_ {
        let marker = self.marker();
        (0..self.tags.len())
            .filter(|&slot| self.tags[slot] != INVALID)
            .map(move |slot| {
                let frequent = self.codes(slot).iter().filter(|&&c| c != marker).count();
                (self.tags[slot], self.dirty[slot], frequent as u32)
            })
    }

    /// Drains every valid line (end-of-simulation flush).
    pub fn drain(&mut self) -> Vec<FvcLine> {
        let mut out = Vec::new();
        for slot in 0..self.tags.len() {
            if self.tags[slot] != INVALID {
                out.push(self.take(slot));
            }
        }
        out
    }
}

/// Packs one line's byte codes into a [`CodeArray`] of `width` bits.
fn pack(width: u32, codes: &[u8]) -> CodeArray {
    let mut packed = CodeArray::new(width, codes.len() as u32);
    for (i, &code) in (0u32..).zip(codes) {
        packed.set(i, code);
    }
    packed
}

impl fmt::Debug for Fvc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fvc")
            .field("entries", &self.entries)
            .field("associativity", &self.associativity)
            .field("width_bits", &self.width)
            .field("valid_lines", &self.valid_lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn top7() -> FrequentValueSet {
        FrequentValueSet::new(vec![0, u32::MAX, 1, 2, 4, 8, 10]).unwrap()
    }

    #[test]
    fn encode_merge_round_trip() {
        let values = top7();
        let data = [0u32, 1000, 0, 99999, u32::MAX, 10, 1, u32::MAX];
        let line = FvcLine::encode(0x100, &data, &values);
        assert_eq!(line.frequent_count(), 6);
        // Merging onto the memory image reproduces the full line.
        let mut mem_image = data; // memory agrees here
        line.merge_into(&mut mem_image, &values);
        assert_eq!(mem_image, data);
        // Merging onto stale memory restores only frequent words.
        let mut stale = [7u32; 8];
        line.merge_into(&mut stale, &values);
        assert_eq!(stale, [0, 7, 0, 7, u32::MAX, 10, 1, u32::MAX]);
    }

    #[test]
    fn frequent_words_lists_decoded_values() {
        let values = top7();
        let line = FvcLine::encode(0, &[5, 0, 4, 9], &values);
        let words: Vec<_> = line.frequent_words(&values).collect();
        assert_eq!(words, vec![(1, 0), (2, 4)]);
    }

    #[test]
    fn probe_install_take() {
        let values = top7();
        let mut fvc = Fvc::new(16, 8, &values);
        assert_eq!(fvc.data_bytes(), 16.0 * 8.0 * 3.0 / 8.0);
        let line = FvcLine::encode(0x200, &[0; 8], &values);
        assert!(fvc.install(line.clone()).is_none());
        let slot = fvc.probe(0x21c).unwrap();
        assert_eq!(fvc.code_at(slot, 0x200), 0); // code for value 0
        let taken = fvc.take(slot);
        assert_eq!(taken.line_addr, 0x200);
        assert!(fvc.probe(0x200).is_none());
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let values = top7();
        let mut fvc = Fvc::new(4, 8, &values);
        // 4 entries x 32B lines => addresses 128 bytes apart conflict.
        fvc.install(FvcLine::encode(0x000, &[0; 8], &values));
        let evicted = fvc
            .install(FvcLine::encode(0x080, &[1; 8], &values))
            .unwrap();
        assert_eq!(evicted.line_addr, 0x000);
        assert!(fvc.probe(0x000).is_none());
        assert!(fvc.probe(0x080).is_some());
    }

    #[test]
    fn set_associative_fvc_keeps_conflicting_lines() {
        let values = top7();
        let mut fvc = Fvc::with_associativity(4, 8, &values, 2);
        fvc.install(FvcLine::encode(0x000, &[0; 8], &values));
        assert!(fvc
            .install(FvcLine::encode(0x040, &[0; 8], &values))
            .is_none());
        assert!(fvc.probe(0x000).is_some());
        assert!(fvc.probe(0x040).is_some());
    }

    #[test]
    fn set_code_marks_dirty_and_updates() {
        let values = top7();
        let mut fvc = Fvc::new(4, 8, &values);
        fvc.install(FvcLine::encode(0x000, &[999; 8], &values));
        let slot = fvc.probe(0x004).unwrap();
        assert_eq!(fvc.code_at(slot, 0x004), 0b111);
        fvc.set_code(slot, 0x004, values.encode(1).unwrap());
        assert_eq!(fvc.code_at(slot, 0x004), 2);
        let line = fvc.take(slot);
        assert!(line.dirty);
    }

    #[test]
    fn drain_and_occupancy() {
        let values = top7();
        let mut fvc = Fvc::new(8, 8, &values);
        fvc.install(FvcLine::encode(0x000, &[0, 0, 9, 9, 9, 9, 9, 9], &values));
        fvc.install(FvcLine::encode(0x020, &[0; 8], &values));
        let occ: Vec<_> = fvc.iter_valid().collect();
        assert_eq!(occ.len(), 2);
        let total_frequent: u32 = occ.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(total_frequent, 2 + 8);
        assert_eq!(fvc.drain().len(), 2);
        assert_eq!(fvc.valid_lines(), 0);
    }

    #[test]
    fn running_frequent_count_tracks_a_scan() {
        let values = top7();
        let marker = values.infrequent_code();
        // 2-way, 2 sets: lines 0x00/0x40/0x80 share set 0.
        let mut fvc = Fvc::with_associativity(4, 8, &values, 2);
        let scan = |fvc: &Fvc| -> (u64, u32) {
            let lines: Vec<_> = fvc.iter_valid().collect();
            let total = lines.iter().map(|&(_, _, n)| u64::from(n)).sum();
            (total, lines.len() as u32)
        };
        let check = |fvc: &Fvc, step: &str| {
            assert_eq!(
                (fvc.frequent_total(), fvc.valid_lines()),
                scan(fvc),
                "after {step}"
            );
        };
        // Fills `frequent` leading words with code 0, the rest
        // infrequent; returns the victim and its frequent code count.
        let fill = |fvc: &mut Fvc, line_addr: Addr, dirty: bool, frequent: usize| {
            let mut seen = None;
            fvc.fill_with(line_addr, dirty, |victim, codes| {
                seen = Some((victim, codes.iter().filter(|&&c| c != marker).count()));
                codes.fill(marker);
                codes[..frequent].fill(0);
            });
            seen.expect("the fill closure runs once")
        };
        fill(&mut fvc, 0x00, true, 8);
        check(&fvc, "a fill into an empty set");
        fill(&mut fvc, 0x40, false, 3);
        fill(&mut fvc, 0x20, true, 1);
        check(&fvc, "fills of both sets");
        let slot = fvc.probe(0x00).unwrap();
        fvc.set_code(slot, 0x04, marker);
        fvc.set_code(slot, 0x08, 2);
        check(&fvc, "set_code to infrequent and back to frequent");
        let slot = fvc.probe(0x40).unwrap();
        fvc.set_code(slot, 0x5c, 4);
        check(&fvc, "set_code over an infrequent word");
        // Set 0 is full: 0x80 displaces its LRU line, the dirty 0x00.
        let (victim, codes) = fill(&mut fvc, 0x80, false, 0);
        check(&fvc, "a fill over a dirty victim");
        assert!(fvc.probe(0x00).is_none());
        assert_eq!(
            victim,
            Some(Victim {
                line_addr: 0x00,
                dirty: true
            })
        );
        assert_eq!(codes, 7, "the victim's codes are handed over");
        fill(&mut fvc, 0x00, true, 5);
        check(&fvc, "a fill over a clean victim");
        fvc.invalidate(fvc.probe(0x20).unwrap());
        check(&fvc, "invalidate");
        fvc.take(fvc.probe(0x00).unwrap());
        check(&fvc, "take");
        fvc.install(FvcLine::encode(0x60, &[0, 1, 99, 99, 2, 4, 8, 10], &values));
        check(&fvc, "install");
        fvc.drain();
        check(&fvc, "drain");
        assert_eq!(fvc.frequent_total(), 0);
    }

    #[test]
    fn fill_with_hands_over_the_victim_codes_in_place() {
        let values = top7();
        let mut fvc = Fvc::new(1, 4, &values);
        let slot = fvc.fill_with(0x10, true, |victim, codes| {
            assert_eq!(victim, None);
            codes.copy_from_slice(&[0, 7, 1, 7]);
        });
        assert_eq!(fvc.codes(slot), &[0, 7, 1, 7]);
        assert!(fvc.is_dirty(slot));
        let again = fvc.fill_with(0x20, false, |victim, codes| {
            assert_eq!(
                victim,
                Some(Victim {
                    line_addr: 0x10,
                    dirty: true
                })
            );
            assert_eq!(codes, &[0, 7, 1, 7]);
            codes.copy_from_slice(&[7; 4]);
        });
        assert_eq!(again, slot);
        assert!(!fvc.is_dirty(again));
        assert_eq!(fvc.frequent_total(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn fill_with_rejects_codes_wider_than_the_encoding() {
        let values = top7();
        let mut fvc = Fvc::new(4, 8, &values);
        fvc.fill_with(0x0, false, |_, codes| codes.fill(8));
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn duplicate_install_panics() {
        let values = top7();
        let mut fvc = Fvc::new(4, 8, &values);
        fvc.install(FvcLine::encode(0x0, &[0; 8], &values));
        fvc.install(FvcLine::encode(0x0, &[0; 8], &values));
    }
}
