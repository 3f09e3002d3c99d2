//! A deliberately naive reference DMC + victim cache (Jouppi), the
//! baseline of Figure 15.
//!
//! This is the oracle `fvl_core::VictimHybrid` is diffed against. It
//! follows Jouppi's swap-on-hit policy in the most obvious form:
//!
//! * the DMC is a textbook LRU cache: one `Vec` per set in recency
//!   order (front = least recent), found by a linear scan, holding
//!   decoded words;
//! * the victim buffer is one `Vec` in recency order (front = least
//!   recent). A DMC miss that finds its line there swaps it with the
//!   line the DMC displaces, and counts as a hit. A line displaced from
//!   the DMC goes to the back; when the buffer is full its front line
//!   leaves, written back if dirty;
//! * memory is a `BTreeMap` from word address to value (absent words
//!   are zero), with traffic counted word by word.
//!
//! It shares no code with `fvl-cache` or `fvl-core`.

use crate::oracle_cache::OracleStats;
use fvl_mem::{Access, AccessKind, AccessSink, Addr, Word};
use std::collections::BTreeMap;

/// A resident line: its first byte address, dirty flag and words.
#[derive(Clone, Debug)]
struct Line {
    line_addr: Addr,
    dirty: bool,
    data: Vec<Word>,
}

/// The reference DMC + victim-cache pair.
///
/// # Example
///
/// ```
/// use fvl_check::OracleVictim;
/// use fvl_mem::{Access, AccessSink};
///
/// // 1 KB direct mapped, 32-byte lines, a 2-entry victim buffer.
/// let mut oracle = OracleVictim::new(1024, 32, 1, 2);
/// oracle.on_access(Access::store(0x000, 7));
/// oracle.on_access(Access::load(0x400, 0)); // conflicts: 0x000 -> buffer
/// oracle.on_access(Access::load(0x000, 7)); // swapped back: a hit
/// oracle.on_finish();
/// assert_eq!(oracle.vc_hits(), 1);
/// assert_eq!(oracle.stats().misses(), 2);
/// assert_eq!(oracle.peek(0x000), 7);
/// ```
#[derive(Clone, Debug)]
pub struct OracleVictim {
    line_bytes: u32,
    sets: u64,
    assoc: usize,
    vc_entries: usize,
    /// One `Vec` per DMC set, least recently used first.
    dmc: Vec<Vec<Line>>,
    /// The victim buffer, least recently inserted first.
    vc: Vec<Line>,
    /// Word address -> value; absent words are zero.
    memory: BTreeMap<Addr, Word>,
    words_out: u64,
    words_in: u64,
    stats: OracleStats,
    vc_hits: u64,
    finished: bool,
}

impl OracleVictim {
    /// Creates an empty pair: a `dmc_bytes` DMC of `line_bytes` lines
    /// and `dmc_assoc` ways, plus a `vc_entries`-line victim buffer.
    ///
    /// # Panics
    ///
    /// Panics if the DMC does not divide into whole sets of whole lines
    /// of whole words, or if `vc_entries` is zero.
    pub fn new(dmc_bytes: u64, line_bytes: u32, dmc_assoc: u32, vc_entries: usize) -> Self {
        assert!(
            line_bytes >= 4 && line_bytes.is_multiple_of(4),
            "bad line size"
        );
        let set_bytes = u64::from(line_bytes) * u64::from(dmc_assoc);
        assert!(
            set_bytes > 0 && dmc_bytes.is_multiple_of(set_bytes) && dmc_bytes >= set_bytes,
            "indivisible DMC organization"
        );
        assert!(vc_entries > 0, "the victim buffer needs an entry");
        let sets = dmc_bytes / set_bytes;
        OracleVictim {
            line_bytes,
            sets,
            assoc: dmc_assoc as usize,
            vc_entries,
            dmc: vec![Vec::new(); sets as usize],
            vc: Vec::new(),
            memory: BTreeMap::new(),
            words_out: 0,
            words_in: 0,
            stats: OracleStats::default(),
            vc_hits: 0,
            finished: false,
        }
    }

    /// Accumulated statistics; a victim-buffer hit counts as a hit.
    pub fn stats(&self) -> &OracleStats {
        &self.stats
    }

    /// Hits served by the victim buffer.
    pub fn vc_hits(&self) -> u64 {
        self.vc_hits
    }

    /// Words moved between the caches and memory, in both directions.
    pub fn traffic_words(&self) -> u64 {
        self.words_out + self.words_in
    }

    /// The memory word at `addr` (zero if never written).
    pub fn peek(&self, addr: Addr) -> Word {
        *self.memory.get(&addr).unwrap_or(&0)
    }

    fn write_back(&mut self, line: &Line) {
        self.stats.writebacks += 1;
        for (w, &value) in line.data.iter().enumerate() {
            self.memory.insert(line.line_addr + 4 * w as u32, value);
            self.words_in += 1;
        }
    }

    fn set_of(&self, line_addr: Addr) -> usize {
        ((u64::from(line_addr) / u64::from(self.line_bytes)) % self.sets) as usize
    }

    /// Puts `line` into its DMC set as most recently used. A full set's
    /// least recently used line moves to the back of the victim buffer,
    /// pushing the buffer's front line out (written back if dirty) when
    /// the buffer is full.
    fn insert_dmc(&mut self, line: Line) {
        let set = self.set_of(line.line_addr);
        if self.dmc[set].len() == self.assoc {
            let victim = self.dmc[set].remove(0);
            if self.vc.len() == self.vc_entries {
                let displaced = self.vc.remove(0);
                if displaced.dirty {
                    self.write_back(&displaced);
                }
            }
            self.vc.push(victim);
        }
        self.dmc[set].push(line);
    }
}

impl AccessSink for OracleVictim {
    fn on_access(&mut self, access: Access) {
        let line_addr = access.addr - access.addr % self.line_bytes;
        let word = ((access.addr % self.line_bytes) / 4) as usize;
        let set = self.set_of(line_addr);
        let hit = if let Some(pos) = self.dmc[set].iter().position(|l| l.line_addr == line_addr) {
            let line = self.dmc[set].remove(pos);
            self.dmc[set].push(line);
            true
        } else if let Some(pos) = self.vc.iter().position(|l| l.line_addr == line_addr) {
            // Swap: the buffered line returns to the DMC with its dirty
            // bit, and the line it displaces takes a buffer entry.
            self.vc_hits += 1;
            let line = self.vc.remove(pos);
            self.insert_dmc(line);
            true
        } else {
            self.stats.fetches += 1;
            let data = (0..self.line_bytes / 4)
                .map(|w| self.peek(line_addr + 4 * w))
                .collect::<Vec<_>>();
            self.words_out += data.len() as u64;
            self.insert_dmc(Line {
                line_addr,
                dirty: false,
                data,
            });
            false
        };
        let line = self.dmc[set].last_mut().expect("line just made resident");
        match (access.kind, hit) {
            (AccessKind::Load, true) => self.stats.read_hits += 1,
            (AccessKind::Load, false) => self.stats.read_misses += 1,
            (AccessKind::Store, true) => self.stats.write_hits += 1,
            (AccessKind::Store, false) => self.stats.write_misses += 1,
        }
        match access.kind {
            AccessKind::Load => assert_eq!(
                line.data[word], access.value,
                "oracle victim cache read {:#x}, trace expects {:#x} at {:#x}",
                line.data[word], access.value, access.addr
            ),
            AccessKind::Store => {
                line.data[word] = access.value;
                line.dirty = true;
            }
        }
    }

    /// Writes every dirty line of the DMC, then of the victim buffer,
    /// back and empties both. Idempotent.
    fn on_finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let lines = std::mem::take(&mut self.dmc).into_iter().flatten();
        for line in lines.chain(std::mem::take(&mut self.vc)) {
            if line.dirty {
                self.write_back(&line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_buffer_displaces_its_oldest_line_and_writes_it_back() {
        // 1 KB direct mapped, 32-byte lines, a 1-entry buffer.
        let mut v = OracleVictim::new(1024, 32, 1, 1);
        v.on_access(Access::store(0x000, 1)); // dirty in the DMC
        v.on_access(Access::load(0x400, 0)); // 0x000 -> buffer
        assert_eq!(v.stats().writebacks, 0);
        v.on_access(Access::load(0x800, 0)); // 0x400 -> buffer, 0x000 out
        assert_eq!(v.stats().writebacks, 1);
        assert_eq!(v.peek(0x000), 1);
        assert_eq!(v.traffic_words(), 3 * 8 + 8);
    }

    #[test]
    fn a_swapped_line_keeps_its_dirty_bit_through_the_flush() {
        let mut v = OracleVictim::new(1024, 32, 1, 2);
        v.on_access(Access::store(0x004, 9));
        v.on_access(Access::load(0x400, 0));
        v.on_access(Access::load(0x004, 9)); // swap back
        assert_eq!((v.vc_hits(), v.stats().hits()), (1, 1));
        v.on_finish();
        v.on_finish();
        assert_eq!(v.stats().writebacks, 1, "only the stored line is dirty");
        assert_eq!(v.peek(0x004), 9);
    }
}
