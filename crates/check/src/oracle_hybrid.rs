//! A deliberately naive reference DMC+FVC hybrid.
//!
//! This is the oracle `fvl_core::HybridCache` is diffed against. It
//! follows the paper's policy as DESIGN.md §2.4 states it, in the most
//! obvious form:
//!
//! * the DMC is a textbook LRU cache: one `Vec` per set in recency
//!   order (front = least recent), found by a linear scan;
//! * the FVC stores *decoded* words, `Option<Word>` per word (`None` =
//!   infrequent), in the same recency-`Vec` sets — no codes, no bit
//!   packing, no running counts;
//! * memory is a `BTreeMap` from word address to value (absent words
//!   are zero), with traffic counted word by word;
//! * the Figure 11 occupancy sample rescans every FVC line.
//!
//! It shares no code with `fvl-core` or `fvl-cache`: the frequent
//! values are a plain slice searched with `contains`, and the options
//! are its own struct, mirroring `HybridConfig`'s ablation knobs.

use fvl_mem::{Access, AccessKind, AccessSink, Addr, Word};
use std::collections::BTreeMap;

/// The policy knobs of an [`OracleHybrid`], mirroring
/// `fvl_core::HybridConfig`'s ablation builders without depending on
/// it.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct OracleHybridOptions {
    /// Allocate a write miss of a frequent value directly in the FVC.
    pub write_allocate: bool,
    /// Charge such a write-allocate as a miss instead of a hit.
    pub count_write_alloc_as_miss: bool,
    /// Frequent words a DMC victim needs to enter the FVC.
    pub min_frequent_words: u32,
    /// FVC ways per set (1 = direct mapped).
    pub fvc_associativity: u32,
    /// Accesses between Figure 11 occupancy samples.
    pub sample_every: u64,
}

impl Default for OracleHybridOptions {
    /// The paper's policy: write-allocate on, misses charged only on
    /// transfer, any frequent word admits a line, direct-mapped FVC,
    /// one occupancy sample per 4096 accesses.
    fn default() -> Self {
        OracleHybridOptions {
            write_allocate: true,
            count_write_alloc_as_miss: false,
            min_frequent_words: 1,
            fvc_associativity: 1,
            sample_every: 4096,
        }
    }
}

/// Counters of the oracle, field-for-field comparable with
/// `fvl_core::HybridStats` (the six combined counters first, then the
/// breakdown).
#[derive(Copy, Clone, Default, PartialEq, Debug)]
pub struct OracleHybridStats {
    /// Loads served by either structure.
    pub read_hits: u64,
    /// Loads that fetched their line.
    pub read_misses: u64,
    /// Stores absorbed by either structure.
    pub write_hits: u64,
    /// Stores that missed.
    pub write_misses: u64,
    /// Dirty DMC lines written back (evictions plus flush).
    pub writebacks: u64,
    /// Lines fetched from memory.
    pub fetches: u64,
    /// Hits served by the DMC.
    pub dmc_hits: u64,
    /// Loads served by the FVC.
    pub fvc_read_hits: u64,
    /// Stores absorbed by a resident FVC line.
    pub fvc_write_hits: u64,
    /// Store misses allocated directly in the FVC.
    pub fvc_write_allocs: u64,
    /// Lines moved from the FVC to the DMC.
    pub transfer_moves: u64,
    /// DMC victims inserted into the FVC.
    pub dmc_to_fvc_inserts: u64,
    /// DMC victims with too few frequent words to insert.
    pub fvc_insert_skips: u64,
    /// FVC lines displaced by an insert.
    pub fvc_evictions: u64,
    /// Displaced FVC lines that were dirty.
    pub fvc_dirty_evictions: u64,
    /// Sum over samples of the % frequent words in valid FVC lines.
    pub occupancy_percent_sum: f64,
    /// Occupancy samples taken.
    pub occupancy_samples: u64,
}

/// A DMC line: its first byte address, dirty flag and words.
#[derive(Clone, Debug)]
struct DmcLine {
    line_addr: Addr,
    dirty: bool,
    data: Vec<Word>,
}

/// An FVC line: its first byte address, dirty flag, and per word the
/// frequent value it holds, or `None` for an infrequent word.
#[derive(Clone, Debug)]
struct FvcLine {
    line_addr: Addr,
    dirty: bool,
    words: Vec<Option<Word>>,
}

/// The reference DMC+FVC hybrid.
///
/// # Example
///
/// ```
/// use fvl_check::{OracleHybrid, OracleHybridOptions};
/// use fvl_mem::{Access, AccessSink};
///
/// let mut oracle = OracleHybrid::new(1024, 32, 1, 64, &[0, 1, 2], OracleHybridOptions::default());
/// oracle.on_access(Access::store(0x100, 0)); // allocated in the FVC
/// oracle.on_access(Access::load(0x100, 0)); // served by the FVC
/// oracle.on_finish();
/// assert_eq!(oracle.stats().fvc_write_allocs, 1);
/// assert_eq!(oracle.stats().fvc_read_hits, 1);
/// assert_eq!(oracle.peek(0x100), 0);
/// ```
#[derive(Clone, Debug)]
pub struct OracleHybrid {
    line_bytes: u32,
    dmc_sets: u64,
    dmc_assoc: usize,
    fvc_sets: u64,
    fvc_assoc: usize,
    values: Vec<Word>,
    options: OracleHybridOptions,
    /// One `Vec` per DMC set, least recently used first.
    dmc: Vec<Vec<DmcLine>>,
    /// One `Vec` per FVC set, least recently used first.
    fvc: Vec<Vec<FvcLine>>,
    /// Word address -> value; absent words are zero.
    memory: BTreeMap<Addr, Word>,
    words_out: u64,
    words_in: u64,
    stats: OracleHybridStats,
    accesses: u64,
    finished: bool,
}

impl OracleHybrid {
    /// Creates an empty hybrid: a `dmc_bytes` DMC of `line_bytes`
    /// lines and `dmc_assoc` ways, plus a `fvc_entries`-line FVC over
    /// `values` (most frequent first; a value's code is its index).
    ///
    /// # Panics
    ///
    /// Panics if the DMC or FVC organization does not divide into
    /// whole sets of whole lines of whole words.
    pub fn new(
        dmc_bytes: u64,
        line_bytes: u32,
        dmc_assoc: u32,
        fvc_entries: u32,
        values: &[Word],
        options: OracleHybridOptions,
    ) -> Self {
        assert!(
            line_bytes >= 4 && line_bytes.is_multiple_of(4),
            "bad line size"
        );
        let set_bytes = u64::from(line_bytes) * u64::from(dmc_assoc);
        assert!(
            set_bytes > 0 && dmc_bytes.is_multiple_of(set_bytes) && dmc_bytes >= set_bytes,
            "indivisible DMC organization"
        );
        let fvc_assoc = options.fvc_associativity;
        assert!(
            fvc_assoc > 0 && fvc_entries.is_multiple_of(fvc_assoc) && fvc_entries >= fvc_assoc,
            "indivisible FVC organization"
        );
        assert!(
            options.sample_every > 0,
            "sampling interval must be positive"
        );
        let dmc_sets = dmc_bytes / set_bytes;
        let fvc_sets = u64::from(fvc_entries / fvc_assoc);
        OracleHybrid {
            line_bytes,
            dmc_sets,
            dmc_assoc: dmc_assoc as usize,
            fvc_sets,
            fvc_assoc: fvc_assoc as usize,
            values: values.to_vec(),
            options,
            dmc: vec![Vec::new(); dmc_sets as usize],
            fvc: vec![Vec::new(); fvc_sets as usize],
            memory: BTreeMap::new(),
            words_out: 0,
            words_in: 0,
            stats: OracleHybridStats::default(),
            accesses: 0,
            finished: false,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &OracleHybridStats {
        &self.stats
    }

    /// Words moved between the caches and memory, in both directions.
    pub fn traffic_words(&self) -> u64 {
        self.words_out + self.words_in
    }

    /// The memory word at `addr` (zero if never written).
    pub fn peek(&self, addr: Addr) -> Word {
        *self.memory.get(&addr).unwrap_or(&0)
    }

    fn words_per_line(&self) -> usize {
        (self.line_bytes / 4) as usize
    }

    fn line_addr(&self, addr: Addr) -> Addr {
        addr - addr % self.line_bytes
    }

    fn dmc_set(&self, line_addr: Addr) -> usize {
        ((u64::from(line_addr) / u64::from(self.line_bytes)) % self.dmc_sets) as usize
    }

    fn fvc_set(&self, line_addr: Addr) -> usize {
        ((u64::from(line_addr) / u64::from(self.line_bytes)) % self.fvc_sets) as usize
    }

    fn is_frequent(&self, value: Word) -> bool {
        self.values.contains(&value)
    }

    /// Fetches a whole line from memory, counting its traffic.
    fn fetch(&mut self, line_addr: Addr) -> Vec<Word> {
        self.stats.fetches += 1;
        self.words_out += self.words_per_line() as u64;
        (0..self.line_bytes / 4)
            .map(|w| self.peek(line_addr + 4 * w))
            .collect()
    }

    /// Writes a whole dirty DMC line back.
    fn write_back_line(&mut self, line: &DmcLine) {
        self.stats.writebacks += 1;
        for (w, &value) in line.data.iter().enumerate() {
            self.memory.insert(line.line_addr + 4 * w as u32, value);
            self.words_in += 1;
        }
    }

    /// Writes the frequent words of a dirty FVC line back, one word of
    /// traffic each.
    fn write_back_frequent(&mut self, line: &FvcLine) {
        for (w, value) in line.words.iter().enumerate() {
            if let Some(value) = *value {
                self.memory.insert(line.line_addr + 4 * w as u32, value);
                self.words_in += 1;
            }
        }
    }

    /// Puts `line` into the FVC as most recently used, displacing the
    /// set's least recently used line when the set is full.
    fn insert_fvc(&mut self, line: FvcLine) {
        let set = self.fvc_set(line.line_addr);
        assert!(
            self.fvc[set].iter().all(|l| l.line_addr != line.line_addr),
            "line {:#x} already in the FVC",
            line.line_addr
        );
        if self.fvc[set].len() == self.fvc_assoc {
            let victim = self.fvc[set].remove(0);
            self.stats.fvc_evictions += 1;
            if victim.dirty {
                self.stats.fvc_dirty_evictions += 1;
                self.write_back_frequent(&victim);
            }
        }
        self.fvc[set].push(line);
    }

    /// Puts `line` into the DMC as most recently used. A full set's
    /// least recently used line is written back if dirty and, if it
    /// holds enough frequent words, moves to the FVC (clean, since
    /// memory now agrees with it).
    fn insert_dmc(&mut self, line: DmcLine) {
        let set = self.dmc_set(line.line_addr);
        if self.dmc[set].len() == self.dmc_assoc {
            let victim = self.dmc[set].remove(0);
            if victim.dirty {
                self.write_back_line(&victim);
            }
            let words: Vec<Option<Word>> = victim
                .data
                .iter()
                .map(|&w| self.is_frequent(w).then_some(w))
                .collect();
            let frequent = words.iter().filter(|w| w.is_some()).count() as u32;
            if frequent >= self.options.min_frequent_words {
                self.stats.dmc_to_fvc_inserts += 1;
                self.insert_fvc(FvcLine {
                    line_addr: victim.line_addr,
                    dirty: false,
                    words,
                });
            } else {
                self.stats.fvc_insert_skips += 1;
            }
        }
        self.dmc[set].push(line);
    }

    /// Completes `access` on the DMC line just inserted (the most
    /// recently used line of its set).
    fn serve_on_new_dmc_line(&mut self, access: Access, set: usize, word: usize) {
        let line = self.dmc[set].last_mut().expect("line just inserted");
        match access.kind {
            AccessKind::Load => assert_eq!(
                line.data[word], access.value,
                "oracle hybrid read {:#x}, trace expects {:#x} at {:#x}",
                line.data[word], access.value, access.addr
            ),
            AccessKind::Store => {
                line.data[word] = access.value;
                line.dirty = true;
            }
        }
    }

    fn count_miss(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Load => self.stats.read_misses += 1,
            AccessKind::Store => self.stats.write_misses += 1,
        }
    }

    /// The Figure 11 sample: the mean over valid FVC lines of the
    /// fraction of their words that are frequent, as a percentage.
    fn sample_occupancy(&mut self) {
        let wpl = self.words_per_line() as f64;
        let mut lines = 0u64;
        let mut sum = 0.0;
        for line in self.fvc.iter().flatten() {
            lines += 1;
            sum += line.words.iter().filter(|w| w.is_some()).count() as f64 / wpl;
        }
        if lines > 0 {
            self.stats.occupancy_percent_sum += sum / lines as f64 * 100.0;
            self.stats.occupancy_samples += 1;
        }
    }
}

impl AccessSink for OracleHybrid {
    fn on_access(&mut self, access: Access) {
        self.accesses += 1;
        let line_addr = self.line_addr(access.addr);
        let word = ((access.addr % self.line_bytes) / 4) as usize;
        let dset = self.dmc_set(line_addr);
        let fset = self.fvc_set(line_addr);

        if let Some(pos) = self.dmc[dset].iter().position(|l| l.line_addr == line_addr) {
            // DMC hit: move the line to the most recently used end.
            let line = self.dmc[dset].remove(pos);
            self.dmc[dset].push(line);
            self.stats.dmc_hits += 1;
            match access.kind {
                AccessKind::Load => self.stats.read_hits += 1,
                AccessKind::Store => self.stats.write_hits += 1,
            }
            self.serve_on_new_dmc_line(access, dset, word);
        } else if let Some(pos) = self.fvc[fset].iter().position(|l| l.line_addr == line_addr) {
            let held = self.fvc[fset][pos].words[word];
            let served = match access.kind {
                AccessKind::Load => held.is_some(),
                AccessKind::Store => self.is_frequent(access.value),
            };
            let mut line = self.fvc[fset].remove(pos);
            if served {
                // FVC hit: the line becomes most recently used.
                match access.kind {
                    AccessKind::Load => {
                        self.stats.fvc_read_hits += 1;
                        self.stats.read_hits += 1;
                        assert_eq!(
                            held,
                            Some(access.value),
                            "oracle FVC held {held:?}, trace expects {:#x} at {:#x}",
                            access.value,
                            access.addr
                        );
                    }
                    AccessKind::Store => {
                        self.stats.fvc_write_hits += 1;
                        self.stats.write_hits += 1;
                        line.words[word] = Some(access.value);
                        line.dirty = true;
                    }
                }
                self.fvc[fset].push(line);
            } else {
                // Tag match, but the FVC cannot serve the word: fetch
                // the line, overlay the FVC's frequent words, and move
                // it to the DMC (dirty if the FVC copy was).
                self.count_miss(access.kind);
                self.stats.transfer_moves += 1;
                let mut data = self.fetch(line_addr);
                for (slot, value) in data.iter_mut().zip(&line.words) {
                    if let Some(value) = *value {
                        *slot = value;
                    }
                }
                self.insert_dmc(DmcLine {
                    line_addr,
                    dirty: line.dirty,
                    data,
                });
                self.serve_on_new_dmc_line(access, dset, word);
            }
        } else if access.kind == AccessKind::Store
            && self.options.write_allocate
            && self.is_frequent(access.value)
        {
            // Write miss of a frequent value: allocate in the FVC with
            // every other word infrequent; nothing is fetched.
            if self.options.count_write_alloc_as_miss {
                self.stats.write_misses += 1;
            } else {
                self.stats.write_hits += 1;
            }
            self.stats.fvc_write_allocs += 1;
            let mut words = vec![None; self.words_per_line()];
            words[word] = Some(access.value);
            self.insert_fvc(FvcLine {
                line_addr,
                dirty: true,
                words,
            });
        } else {
            // Miss in both: fetch into the DMC.
            self.count_miss(access.kind);
            let data = self.fetch(line_addr);
            self.insert_dmc(DmcLine {
                line_addr,
                dirty: false,
                data,
            });
            self.serve_on_new_dmc_line(access, dset, word);
        }

        if self.accesses.is_multiple_of(self.options.sample_every) {
            self.sample_occupancy();
        }
    }

    /// Writes every dirty DMC line back, then every dirty FVC line's
    /// frequent words, and empties both. Idempotent.
    fn on_finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        for line in std::mem::take(&mut self.dmc).into_iter().flatten() {
            if line.dirty {
                self.write_back_line(&line);
            }
        }
        for line in std::mem::take(&mut self.fvc).into_iter().flatten() {
            if line.dirty {
                self.write_back_frequent(&line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(fvc_entries: u32) -> OracleHybrid {
        OracleHybrid::new(
            1024,
            32,
            1,
            fvc_entries,
            &[0, u32::MAX, 1, 2, 4, 8, 10],
            OracleHybridOptions::default(),
        )
    }

    #[test]
    fn evicted_frequent_line_is_served_by_the_fvc() {
        let mut h = oracle(64);
        h.on_access(Access::load(0x100, 0));
        h.on_access(Access::load(0x500, 0)); // conflicts: 0x100 -> FVC
        assert_eq!(h.stats().dmc_to_fvc_inserts, 1);
        h.on_access(Access::load(0x104, 0));
        assert_eq!(h.stats().fvc_read_hits, 1);
        h.on_access(Access::store(0x108, 7)); // infrequent: transfer
        assert_eq!(h.stats().transfer_moves, 1);
        assert_eq!(h.stats().write_misses, 1);
        h.on_finish();
        assert_eq!(h.peek(0x108), 7);
    }

    #[test]
    fn dirty_fvc_victim_writes_back_only_frequent_words() {
        let mut h = oracle(1);
        h.on_access(Access::store(0x200, 4)); // write-allocate, dirty
        h.on_access(Access::store(0x800, 1)); // displaces it
        assert_eq!(h.stats().fvc_evictions, 1);
        assert_eq!(h.stats().fvc_dirty_evictions, 1);
        assert_eq!(h.peek(0x200), 4);
        assert_eq!(h.traffic_words(), 1, "one frequent word written back");
        h.on_finish();
        assert_eq!(h.peek(0x800), 1);
        assert_eq!(h.traffic_words(), 2);
    }
}
