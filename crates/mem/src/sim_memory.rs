//! Sparse paged backing store for the simulated 32-bit address space.

use crate::layout::{Addr, Word, WORD_BYTES};
use crate::page_table::PageTable;
use std::cell::Cell;
use std::fmt;

/// Words per page (4 KiB pages).
pub(crate) const PAGE_WORDS: usize = 1024;
const PAGE_SHIFT: u32 = 12; // 4096 bytes

type Page = [Word; PAGE_WORDS];

/// Sparse, paged, word-addressable simulated memory.
///
/// Pages are materialized on first touch; untouched memory reads as zero,
/// like freshly mapped pages on a real OS. `SimMemory` itself performs no
/// tracing — that is [`crate::TracedMemory`]'s job.
///
/// Pages live in an append-only arena and are located through a flat
/// two-level page table (see `page_table.rs`) plus a one-entry
/// last-page cache (a software "TLB"): word accesses exhibit strong
/// page locality, so the common case skips the table walk entirely.
/// Arena slots are never freed or reordered while the memory is alive,
/// which is what makes the cached slot index safe to reuse.
///
/// # Example
///
/// ```
/// use fvl_mem::SimMemory;
///
/// let mut mem = SimMemory::new();
/// assert_eq!(mem.read(0x8000), 0);
/// mem.write(0x8000, 0xdead_beef);
/// assert_eq!(mem.read(0x8000), 0xdead_beef);
/// ```
#[derive(Clone, Default)]
pub struct SimMemory {
    /// Page number -> arena slot.
    table: PageTable,
    /// Materialized pages, in first-touch order; never shrinks.
    arena: Vec<Box<Page>>,
    /// Last (page number, arena slot) translated, if any.
    last: Cell<Option<(u32, u32)>>,
}

impl SimMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(addr: Addr) -> (u32, usize) {
        debug_assert_eq!(addr % WORD_BYTES, 0, "unaligned word address {addr:#x}");
        (
            addr >> PAGE_SHIFT,
            ((addr >> 2) as usize) & (PAGE_WORDS - 1),
        )
    }

    /// Arena slot for `page`, consulting the one-entry cache first.
    #[inline]
    fn lookup(&self, page: u32) -> Option<u32> {
        if let Some((cached, slot)) = self.last.get() {
            if cached == page {
                return Some(slot);
            }
        }
        let slot = self.table.get(page)?;
        self.last.set(Some((page, slot)));
        Some(slot)
    }

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `addr` is not 4-byte aligned.
    #[inline]
    pub fn read(&self, addr: Addr) -> Word {
        let (page, idx) = Self::split(addr);
        match self.lookup(page) {
            Some(slot) => self.arena[slot as usize][idx],
            None => 0,
        }
    }

    /// Writes the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `addr` is not 4-byte aligned.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: Word) {
        let (page, idx) = Self::split(addr);
        if let Some(slot) = self.lookup(page) {
            self.arena[slot as usize][idx] = value;
            return;
        }
        if value == 0 {
            // Writing zero into an unmaterialized page is a no-op.
            return;
        }
        let slot = self.materialize(page);
        self.arena[slot as usize][idx] = value;
    }

    /// Appends a zero page for `page` and returns its arena slot.
    fn materialize(&mut self, page: u32) -> u32 {
        let slot = u32::try_from(self.arena.len()).expect("fewer than 2^32 pages");
        self.arena.push(Box::new([0; PAGE_WORDS]));
        self.table.insert(page, slot);
        self.last.set(Some((page, slot)));
        slot
    }

    /// Splits the `len` words starting at `addr` into runs that each
    /// stay within one page: `(page, first word index, run length)`.
    fn page_runs(addr: Addr, len: usize) -> impl Iterator<Item = (u32, usize, usize)> {
        let (mut page, mut idx) = Self::split(addr);
        let mut left = len;
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let run = left.min(PAGE_WORDS - idx);
            let item = (page, idx, run);
            left -= run;
            page = page.wrapping_add(1);
            idx = 0;
            Some(item)
        })
    }

    /// Reads `buf.len()` consecutive words starting at `addr` (a cache
    /// line fetch) with one page lookup per page the range touches
    /// instead of one per word. Identical to reading each word with
    /// [`SimMemory::read`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `addr` is not 4-byte aligned.
    pub fn read_line(&self, addr: Addr, buf: &mut [Word]) {
        let mut rest = buf;
        for (page, idx, run) in Self::page_runs(addr, rest.len()) {
            let (chunk, tail) = rest.split_at_mut(run);
            match self.lookup(page) {
                Some(slot) => chunk.copy_from_slice(&self.arena[slot as usize][idx..idx + run]),
                None => chunk.fill(0),
            }
            rest = tail;
        }
    }

    /// Writes `data` to consecutive words starting at `addr` (a cache
    /// line write-back) with one page lookup per page the range
    /// touches. Identical to writing each word with
    /// [`SimMemory::write`]: a page is materialized only if a nonzero
    /// word lands in it.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `addr` is not 4-byte aligned.
    pub fn write_line(&mut self, addr: Addr, data: &[Word]) {
        let mut rest = data;
        for (page, idx, run) in Self::page_runs(addr, rest.len()) {
            let (chunk, tail) = rest.split_at(run);
            let slot = match self.lookup(page) {
                Some(slot) => Some(slot),
                None if chunk.iter().all(|&w| w == 0) => None,
                None => Some(self.materialize(page)),
            };
            if let Some(slot) = slot {
                self.arena[slot as usize][idx..idx + run].copy_from_slice(chunk);
            }
            rest = tail;
        }
    }

    /// Number of materialized 4 KiB pages.
    pub fn resident_pages(&self) -> usize {
        self.arena.len()
    }

    /// Resident simulated bytes (materialized pages only).
    pub fn resident_bytes(&self) -> usize {
        self.arena.len() * PAGE_WORDS * WORD_BYTES as usize
    }
}

impl fmt::Debug for SimMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimMemory")
            .field("resident_pages", &self.arena.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_reads_zero() {
        let mem = SimMemory::new();
        assert_eq!(mem.read(0), 0);
        assert_eq!(mem.read(0xffff_fffc), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut mem = SimMemory::new();
        mem.write(0x1234_5678 & !3, 99);
        assert_eq!(mem.read(0x1234_5678 & !3), 99);
    }

    #[test]
    fn zero_write_to_untouched_page_allocates_nothing() {
        let mut mem = SimMemory::new();
        mem.write(0x4000, 0);
        assert_eq!(mem.resident_pages(), 0);
        mem.write(0x4000, 5);
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.resident_bytes(), 4096);
    }

    #[test]
    fn adjacent_words_do_not_alias() {
        let mut mem = SimMemory::new();
        mem.write(0x100, 1);
        mem.write(0x104, 2);
        assert_eq!(mem.read(0x100), 1);
        assert_eq!(mem.read(0x104), 2);
    }

    #[test]
    fn page_boundary_words_are_independent() {
        let mut mem = SimMemory::new();
        mem.write(0x0ffc, 7); // last word of page 0
        mem.write(0x1000, 8); // first word of page 1
        assert_eq!(mem.read(0x0ffc), 7);
        assert_eq!(mem.read(0x1000), 8);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn page_cache_survives_interleaving_and_clone() {
        let mut mem = SimMemory::new();
        // Alternate between two pages so the one-entry cache keeps
        // being evicted and refilled.
        for i in 0..PAGE_WORDS as u32 {
            mem.write(i * 4, i);
            mem.write(0x10_0000 + i * 4, !i);
        }
        for i in 0..PAGE_WORDS as u32 {
            assert_eq!(mem.read(i * 4), i);
            assert_eq!(mem.read(0x10_0000 + i * 4), !i);
        }
        assert_eq!(mem.resident_pages(), 2);
        // A clone carries the same contents and an equally valid cache.
        let copy = mem.clone();
        assert_eq!(copy.read(4), 1);
        assert_eq!(copy.read(0x10_0004), !1);
        // Writes to the original do not leak into the clone.
        mem.write(4, 999);
        assert_eq!(copy.read(4), 1);
    }

    #[test]
    fn line_larger_than_a_page_round_trips_across_pages() {
        // 3000 words from mid-page span four pages: a partial first
        // run, two whole pages, and a partial last run.
        let mut mem = SimMemory::new();
        let base = 0x2000 + 600 * 4;
        let line: Vec<Word> = (1..=3000).collect();
        mem.write_line(base, &line);
        assert_eq!(mem.resident_pages(), 4);
        let mut back = vec![0; line.len()];
        mem.read_line(base, &mut back);
        assert_eq!(back, line);
        for (i, &w) in line.iter().enumerate() {
            assert_eq!(mem.read(base + i as u32 * 4), w, "word {i}");
        }
        // Reading past the written range returns the untouched zeros,
        // including from a page that was never materialized.
        let mut wider = vec![9; 2 * PAGE_WORDS];
        mem.read_line(base + 2 * 4096, &mut wider);
        let written = line.len() - 2 * PAGE_WORDS;
        assert_eq!(&wider[..written], &line[2 * PAGE_WORDS..]);
        assert!(wider[written..].iter().all(|&w| w == 0));
        assert_eq!(mem.resident_pages(), 4, "reads materialize nothing");
    }

    #[test]
    fn zero_line_write_back_to_untouched_pages_allocates_nothing() {
        let mut mem = SimMemory::new();
        mem.write_line(0x8000, &[0; 8]);
        mem.write_line(0x1_0000, &[0; 2 * PAGE_WORDS]);
        assert_eq!(mem.resident_pages(), 0);
        // A single nonzero word materializes exactly its own page.
        let mut line = vec![0; 2 * PAGE_WORDS];
        line[PAGE_WORDS + 5] = 7;
        mem.write_line(0x1_0000, &line);
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.read(0x1_0000 + 4096 + 5 * 4), 7);
        // Zeros into a resident page overwrite it.
        mem.write_line(0x1_1000, &[0; 8]);
        assert_eq!(mem.read(0x1_1000 + 5 * 4), 0);
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    fn top_of_address_space_is_addressable() {
        let mut mem = SimMemory::new();
        mem.write(0xffff_fffc, 0xabcd);
        assert_eq!(mem.read(0xffff_fffc), 0xabcd);
    }
}
