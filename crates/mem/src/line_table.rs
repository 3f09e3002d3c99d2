//! A hash-free map from cache lines to `u32`, on the flat page table.

use crate::layout::{Addr, WORD_BYTES};
use crate::page_table::PageTable;
use std::fmt;

/// log2 of the page size the table groups lines by.
const PAGE_SHIFT: u32 = 12;

/// A map from the lines of the 32-bit address space to `u32` values
/// that never hashes.
///
/// The flat page table that [`crate::SimMemory`] and [`crate::LiveSet`]
/// use locates a 4 KiB page's *leaf*: one slot per line of the page,
/// `max(1, 4096 / line_bytes)` of them, so every power-of-two line
/// size a cache geometry accepts works, pages and larger included (a
/// line of several pages lives in its first page's one-slot leaf). A
/// lookup is the page table's two dependent loads and one into the
/// leaf, whatever the keys are: no address pattern has a worse case,
/// where a hash map keyed by trace-chosen addresses needs a
/// collision-resistant hasher to promise the same. Every method takes
/// any address of a line and means the whole line.
///
/// # Memory bound
///
/// A leaf is `4 × max(1, 4096 / line_bytes)` bytes (512 B at 32-byte
/// lines). A leaf exists only while its page holds an entry: when the
/// last one leaves, the page is unmapped and the leaf recycled, and
/// the leaf arena grows only when no recycled leaf is free. So the
/// arena holds as many leaves as pages were ever holding entries at
/// the same time ([`LineTable::allocated_leaves`]), at most one per
/// live entry. On top of that the page table keeps its 4 KiB top
/// level and one 4 KiB leaf per 4 MiB region that ever held an entry,
/// at most 4 MiB over the whole address space.
///
/// # Example
///
/// ```
/// use fvl_mem::LineTable;
///
/// let mut ways = LineTable::new(32);
/// assert_eq!(ways.insert(0x1000, 7), None);
/// assert_eq!(ways.get(0x101c), Some(7)); // same 32-byte line
/// assert_eq!(ways.get(0x1020), None);
/// assert_eq!(ways.live_leaves(), 1);
/// assert_eq!(ways.remove(0x1004), Some(7));
/// assert_eq!(ways.live_leaves(), 0);
/// ```
#[derive(Clone)]
pub struct LineTable {
    line_shift: u32,
    /// log2 of the slots in a leaf.
    leaf_bits: u32,
    /// Page number → leaf index, for every page holding an entry.
    table: PageTable,
    /// Every leaf's slots, `1 << leaf_bits` per leaf: a value plus
    /// one, or 0 when empty.
    slots: Vec<u32>,
    /// Per leaf: how many entries it holds (0 once recycled).
    live: Vec<u32>,
    /// Recycled leaves, taken before the arena grows.
    free: Vec<u32>,
    len: usize,
}

impl LineTable {
    /// An empty table of `line_bytes`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two of at least one
    /// word.
    pub fn new(line_bytes: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= WORD_BYTES,
            "line size must be a power-of-two number of bytes, got {line_bytes}"
        );
        let line_shift = line_bytes.trailing_zeros();
        LineTable {
            line_shift,
            leaf_bits: PAGE_SHIFT.saturating_sub(line_shift),
            table: PageTable::default(),
            slots: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        1 << self.line_shift
    }

    /// The page of the line holding `addr` (its first byte's page) and
    /// the line's slot in that page's leaf.
    #[inline]
    fn split(&self, addr: Addr) -> (u32, usize) {
        let line = addr >> self.line_shift;
        let page = (line << self.line_shift) >> PAGE_SHIFT;
        (page, line as usize & ((1 << self.leaf_bits) - 1))
    }

    /// The value of the line holding `addr`.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<u32> {
        let (page, at) = self.split(addr);
        let leaf = self.table.get(page)? as usize;
        self.slots[(leaf << self.leaf_bits) | at].checked_sub(1)
    }

    /// Maps the line holding `addr` to `value`, returning its previous
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is `u32::MAX`, which the slots cannot hold,
    /// before anything changes.
    #[inline]
    pub fn insert(&mut self, addr: Addr, value: u32) -> Option<u32> {
        let stored = value.checked_add(1).expect("u32::MAX cannot be stored");
        let (page, at) = self.split(addr);
        let leaf = match self.table.get(page) {
            Some(leaf) => leaf as usize,
            None => self.open_leaf(page),
        };
        let old = std::mem::replace(&mut self.slots[(leaf << self.leaf_bits) | at], stored);
        if old == 0 {
            self.live[leaf] += 1;
            self.len += 1;
        }
        old.checked_sub(1)
    }

    /// Maps `page` to an empty leaf, recycled if one is free.
    fn open_leaf(&mut self, page: u32) -> usize {
        let leaf = match self.free.pop() {
            Some(leaf) => leaf as usize,
            None => {
                self.slots
                    .resize(self.slots.len() + (1 << self.leaf_bits), 0);
                self.live.push(0);
                self.live.len() - 1
            }
        };
        self.table
            .insert(page, u32::try_from(leaf).expect("fewer than 2^32 leaves"));
        leaf
    }

    /// Removes the line holding `addr`, returning its value. A leaf
    /// whose last entry leaves is unmapped and recycled.
    #[inline]
    pub fn remove(&mut self, addr: Addr) -> Option<u32> {
        let (page, at) = self.split(addr);
        let leaf = self.table.get(page)? as usize;
        let old = std::mem::take(&mut self.slots[(leaf << self.leaf_bits) | at]).checked_sub(1)?;
        self.len -= 1;
        self.live[leaf] -= 1;
        if self.live[leaf] == 0 {
            self.table.remove(page);
            self.free.push(leaf as u32);
        }
        Some(old)
    }

    /// Number of lines mapped.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no line is mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Leaves holding at least one entry: one per page with a mapped
    /// line.
    pub fn live_leaves(&self) -> usize {
        self.live.len() - self.free.len()
    }

    /// Leaves in the arena, live or recycled: the most that were ever
    /// live at once.
    pub fn allocated_leaves(&self) -> usize {
        self.live.len()
    }
}

impl fmt::Debug for LineTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LineTable")
            .field("line_bytes", &self.line_bytes())
            .field("len", &self.len)
            .field("live_leaves", &self.live_leaves())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Addresses on both sides of page and 4 MiB boundaries, the ends
    /// of the address space, and a spread of pseudo-random ones
    /// clustered into a few pages so leaves fill and empty.
    fn addresses(seed: u32) -> Vec<Addr> {
        let mut addrs = vec![
            0,
            0xffc,
            0x1000,
            0x3f_fffc,
            0x40_0000,
            0x7fff_f000,
            0x8000_0000,
            0xffff_fffc,
        ];
        let mut x = seed;
        for i in 0..3000u32 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let addr = match i % 3 {
                0 => x,
                1 => 0x3f_e000 + (x >> 19),
                _ => (x >> 20) << 12 | (x & 0x7c),
            };
            addrs.push(addr & !3);
        }
        addrs
    }

    #[test]
    fn matches_a_btreemap_at_every_line_size() {
        for shift in 2..=13u32 {
            let line_bytes = 1u32 << shift;
            let line = |a: Addr| a & !(line_bytes - 1);
            let pages = |model: &BTreeMap<Addr, u32>| {
                model
                    .keys()
                    .map(|&l| l >> 12)
                    .collect::<BTreeSet<_>>()
                    .len()
            };
            let mut table = LineTable::new(line_bytes);
            let mut model: BTreeMap<Addr, u32> = BTreeMap::new();
            // Lines per page with an entry, and the most such pages
            // at any one time.
            let mut live_pages: BTreeMap<u32, u32> = BTreeMap::new();
            let mut peak_pages = 0;
            let addrs = addresses(shift);
            for (i, &addr) in addrs.iter().enumerate() {
                let value = i as u32;
                let page = line(addr) >> 12;
                match i % 4 {
                    0 | 1 => {
                        let old = model.insert(line(addr), value);
                        assert_eq!(table.insert(addr, value), old, "{line_bytes} B: {addr:#x}");
                        if old.is_none() {
                            *live_pages.entry(page).or_insert(0) += 1;
                        }
                    }
                    2 => {
                        let old = model.remove(&line(addr));
                        assert_eq!(table.remove(addr), old, "{line_bytes} B: {addr:#x}");
                        if old.is_some() {
                            let lines = live_pages.get_mut(&page).expect("a live page");
                            *lines -= 1;
                            if *lines == 0 {
                                live_pages.remove(&page);
                            }
                        }
                    }
                    _ => assert_eq!(
                        table.get(addr),
                        model.get(&line(addr)).copied(),
                        "{line_bytes} B: get {addr:#x}"
                    ),
                }
                peak_pages = peak_pages.max(live_pages.len());
                assert_eq!(table.len(), model.len());
                assert_eq!(table.live_leaves(), live_pages.len(), "{line_bytes} B");
            }
            assert_eq!(live_pages.len(), pages(&model));
            for &addr in &addrs {
                let last = addr | (line_bytes - 1);
                assert_eq!(table.get(last), model.get(&line(addr)).copied());
            }
            // The arena holds exactly the peak of simultaneously live
            // leaves: the memory bound.
            assert_eq!(table.allocated_leaves(), peak_pages, "{line_bytes} B");
            // Every entry leaves: every leaf is recycled.
            for (&l, &value) in &model {
                assert_eq!(table.remove(l + line_bytes - 4), Some(value));
                assert_eq!(table.remove(l), None, "removed twice");
            }
            assert_eq!((table.len(), table.live_leaves()), (0, 0), "{line_bytes} B");
            assert!(table.is_empty());
            for &addr in &addrs {
                assert_eq!(table.get(addr), None);
            }
            // Reinsertion reuses the recycled leaves.
            for (&l, &value) in &model {
                assert_eq!(table.insert(l, value), None);
            }
            assert_eq!(table.live_leaves(), pages(&model));
            assert_eq!(table.allocated_leaves(), peak_pages);
        }
    }

    #[test]
    fn a_recycled_leaf_serves_a_new_page_empty() {
        let mut table = LineTable::new(32);
        for page in 0..100u32 {
            table.insert(page << 12 | 0x40, page);
        }
        for page in 0..100u32 {
            assert_eq!(table.remove(page << 12 | 0x40), Some(page));
        }
        assert_eq!(table.live_leaves(), 0);
        for page in 500..600u32 {
            table.insert(page << 12, page);
            // The recycled leaf's slot 2 held an entry of its old page.
            assert_eq!(table.get(page << 12 | 0x40), None, "stale slot");
        }
        assert_eq!(table.allocated_leaves(), 100, "no leaf beyond the peak");
        assert_eq!(table.get(550 << 12), Some(550));
        assert_eq!(table.get(50 << 12 | 0x40), None);
    }

    #[test]
    #[should_panic(expected = "cannot be stored")]
    fn u32_max_is_refused() {
        LineTable::new(32).insert(0, u32::MAX);
    }
}
