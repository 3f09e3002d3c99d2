//! Jouppi's victim cache: a small fully-associative buffer of recently
//! evicted lines, swapped back on a hit.

use crate::data_cache::EvictedLine;
use fvl_mem::{Addr, Word};
use std::fmt;

#[derive(Clone)]
struct Entry {
    line_addr: Addr,
    dirty: bool,
    data: Vec<Word>,
    stamp: u64,
}

/// A fully-associative LRU victim cache (Jouppi, ISCA 1990) — the
/// comparison point of the paper's Figure 15.
///
/// The victim cache holds whole evicted lines. On a main-cache miss that
/// hits here, the controller removes the line (via [`VictimCache::take`])
/// and installs the main cache's displaced line in its place.
///
/// # Example
///
/// ```
/// use fvl_cache::{EvictedLine, VictimCache};
///
/// let mut vc = VictimCache::new(4, 8);
/// vc.insert(EvictedLine { line_addr: 0x40, dirty: false, data: vec![0; 8] });
/// assert!(vc.probe(0x44).is_some());
/// ```
#[derive(Clone)]
pub struct VictimCache {
    entries: Vec<Entry>,
    capacity: usize,
    words_per_line: u32,
    line_mask: Addr,
    clock: u64,
}

impl VictimCache {
    /// Creates a victim cache of `entries` lines of `words_per_line`
    /// words.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `words_per_line` is not a positive
    /// power of two.
    pub fn new(entries: usize, words_per_line: u32) -> Self {
        assert!(entries > 0, "victim cache needs at least one entry");
        assert!(
            words_per_line.is_power_of_two(),
            "words per line must be a power of two"
        );
        VictimCache {
            entries: Vec::with_capacity(entries),
            capacity: entries,
            words_per_line,
            line_mask: !(words_per_line * 4 - 1),
            clock: 0,
        }
    }

    /// Number of lines the cache can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lines currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Words per line.
    pub fn words_per_line(&self) -> u32 {
        self.words_per_line
    }

    /// Looks for the line containing `addr`. Returns its slot.
    pub fn probe(&self, addr: Addr) -> Option<usize> {
        let line_addr = addr & self.line_mask;
        self.entries.iter().position(|e| e.line_addr == line_addr)
    }

    /// Removes and returns the line in `slot` (swap-on-hit semantics).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn take(&mut self, slot: usize) -> EvictedLine {
        let e = self.entries.swap_remove(slot);
        EvictedLine {
            line_addr: e.line_addr,
            dirty: e.dirty,
            data: e.data,
        }
    }

    /// Inserts an evicted line, returning the LRU line that had to be
    /// displaced (if the cache was full).
    ///
    /// # Panics
    ///
    /// Panics if the line is already present (controllers must `take`
    /// before re-inserting) or has the wrong length.
    pub fn insert(&mut self, line: EvictedLine) -> Option<EvictedLine> {
        assert_eq!(
            line.data.len() as u32,
            self.words_per_line,
            "wrong line length"
        );
        assert!(
            self.probe(line.line_addr).is_none(),
            "line {:#x} already in victim cache",
            line.line_addr
        );
        self.clock += 1;
        let entry = Entry {
            line_addr: line.line_addr,
            dirty: line.dirty,
            data: line.data,
            stamp: self.clock,
        };
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            return None;
        }
        let lru = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(i, _)| i)
            .expect("capacity is positive");
        let old = std::mem::replace(&mut self.entries[lru], entry);
        Some(EvictedLine {
            line_addr: old.line_addr,
            dirty: old.dirty,
            data: old.data,
        })
    }

    /// Drains all resident lines (end-of-simulation flush).
    pub fn drain(&mut self) -> Vec<EvictedLine> {
        self.entries
            .drain(..)
            .map(|e| EvictedLine {
                line_addr: e.line_addr,
                dirty: e.dirty,
                data: e.data,
            })
            .collect()
    }
}

impl fmt::Debug for VictimCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VictimCache")
            .field("capacity", &self.capacity)
            .field("len", &self.entries.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(addr: Addr, fill: Word) -> EvictedLine {
        EvictedLine {
            line_addr: addr,
            dirty: false,
            data: vec![fill; 4],
        }
    }

    #[test]
    fn insert_probe_take_round_trip() {
        let mut vc = VictimCache::new(2, 4);
        assert!(vc.is_empty());
        vc.insert(line(0x100, 7));
        let slot = vc.probe(0x10c).unwrap();
        let got = vc.take(slot);
        assert_eq!(got.line_addr, 0x100);
        assert_eq!(got.data, vec![7; 4]);
        assert!(vc.probe(0x100).is_none());
    }

    #[test]
    fn full_insert_displaces_lru() {
        let mut vc = VictimCache::new(2, 4);
        vc.insert(line(0x100, 1));
        vc.insert(line(0x200, 2));
        // 0x100 is LRU.
        let displaced = vc.insert(line(0x300, 3)).unwrap();
        assert_eq!(displaced.line_addr, 0x100);
        assert_eq!(vc.len(), 2);
        assert!(vc.probe(0x200).is_some());
        assert!(vc.probe(0x300).is_some());
    }

    #[test]
    fn reinsert_after_take_refreshes_recency() {
        let mut vc = VictimCache::new(2, 4);
        vc.insert(line(0x100, 1));
        vc.insert(line(0x200, 2));
        // Touch 0x100 by take + reinsert (swap pattern).
        let l = vc.take(vc.probe(0x100).unwrap());
        vc.insert(l);
        let displaced = vc.insert(line(0x300, 3)).unwrap();
        assert_eq!(displaced.line_addr, 0x200);
    }

    #[test]
    fn drain_returns_everything() {
        let mut vc = VictimCache::new(4, 4);
        vc.insert(line(0x100, 1));
        vc.insert(line(0x200, 2));
        let drained = vc.drain();
        assert_eq!(drained.len(), 2);
        assert!(vc.is_empty());
    }

    #[test]
    #[should_panic(expected = "already in victim cache")]
    fn duplicate_insert_panics() {
        let mut vc = VictimCache::new(2, 4);
        vc.insert(line(0x100, 1));
        vc.insert(line(0x100, 2));
    }
}
