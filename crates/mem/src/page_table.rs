//! The flat page table behind [`crate::SimMemory`], [`crate::LiveSet`]
//! and [`crate::LineTable`].
//!
//! Each keeps one arena of per-page records and locates a 4 KiB page's
//! record through a [`PageTable`]: the 2^20 page numbers of the 32-bit
//! address space split into a 1024-entry top level, one entry per
//! 4 MiB of address space, and 1024-entry leaves that map a page to
//! its arena slot. A lookup is two dependent loads and never hashes, so
//! no address pattern has a worse case than another. That matters
//! because `SimMemory` backs every cache simulator's main memory, and
//! the daemon's uploaded traces choose those addresses. Walking the
//! table in index order visits pages in ascending address order.

use std::fmt;

/// Bits of a page number resolved by each level.
const LEVEL_BITS: u32 = 10;
/// Entries per level.
const LEVEL: usize = 1 << LEVEL_BITS;

/// One level of the table: entry `i` holds an index plus one, so a
/// zero entry is empty and a fresh level is a zeroed allocation.
type Level = Box<[u32; LEVEL]>;

fn empty_level() -> Level {
    vec![0u32; LEVEL]
        .into_boxed_slice()
        .try_into()
        .expect("a level holds LEVEL entries")
}

/// Maps page numbers (`addr >> 12`) to arena slots.
#[derive(Clone)]
pub(crate) struct PageTable {
    /// Top-level entry per 4 MiB of address space: its leaf's index in
    /// `leaves`, plus one.
    top: Level,
    /// Leaf entry per page: its arena slot, plus one.
    leaves: Vec<Level>,
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable {
            top: empty_level(),
            leaves: Vec::new(),
        }
    }
}

impl PageTable {
    /// The top-level and leaf indices of `page`.
    #[inline]
    fn split(page: u32) -> (usize, usize) {
        let page = page as usize;
        ((page >> LEVEL_BITS) & (LEVEL - 1), page & (LEVEL - 1))
    }

    /// The arena slot of `page`, if it has one.
    #[inline]
    pub(crate) fn get(&self, page: u32) -> Option<u32> {
        let (hi, lo) = Self::split(page);
        let leaf = self.top[hi].checked_sub(1)?;
        self.leaves[leaf as usize][lo].checked_sub(1)
    }

    /// Maps `page` to `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is `u32::MAX`, which the encoding cannot hold.
    pub(crate) fn insert(&mut self, page: u32, slot: u32) {
        let (hi, lo) = Self::split(page);
        let leaf = match self.top[hi].checked_sub(1) {
            Some(leaf) => leaf as usize,
            None => {
                self.leaves.push(empty_level());
                self.top[hi] = u32::try_from(self.leaves.len()).expect("at most 1024 leaves");
                self.leaves.len() - 1
            }
        };
        self.leaves[leaf][lo] = slot.checked_add(1).expect("arena slot fits the table");
    }

    /// Unmaps `page`, if it is mapped. The leaf that held it stays, so
    /// the table keeps at most one 4 KiB leaf per 4 MiB of address
    /// space ever mapped.
    pub(crate) fn remove(&mut self, page: u32) {
        let (hi, lo) = Self::split(page);
        if let Some(leaf) = self.top[hi].checked_sub(1) {
            self.leaves[leaf as usize][lo] = 0;
        }
    }

    /// Every mapped `(page, slot)` pair, in ascending page order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.top
            .iter()
            .enumerate()
            .filter_map(|(hi, &leaf)| Some((hi, &self.leaves[leaf.checked_sub(1)? as usize])))
            .flat_map(|(hi, leaf)| {
                leaf.iter().enumerate().filter_map(move |(lo, &slot)| {
                    Some((((hi << LEVEL_BITS) | lo) as u32, slot.checked_sub(1)?))
                })
            })
    }
}

impl fmt::Debug for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageTable")
            .field("leaves", &self.leaves.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_pages_across_both_levels_and_iterates_in_order() {
        let mut table = PageTable::default();
        // The last page of one 4 MiB region, the first of the next, the
        // first and last pages of the address space.
        let pages = [0x3ff, 0x400, 0, 0xf_ffff, 0x1234];
        for (slot, &page) in pages.iter().enumerate() {
            assert_eq!(table.get(page), None);
            table.insert(page, slot as u32);
        }
        for (slot, &page) in pages.iter().enumerate() {
            assert_eq!(table.get(page), Some(slot as u32), "page {page:#x}");
        }
        assert_eq!(table.get(0x401), None);
        assert_eq!(table.get(0x3fe), None);
        let got: Vec<u32> = table.iter().map(|(page, _)| page).collect();
        assert_eq!(got, vec![0, 0x3ff, 0x400, 0x1234, 0xf_ffff]);
        assert_eq!(table.iter().find(|&(p, _)| p == 0x400), Some((0x400, 1)));
    }

    #[test]
    fn slot_zero_and_remapping_are_kept_apart_from_empty_entries() {
        let mut table = PageTable::default();
        table.insert(7, 0);
        assert_eq!(table.get(7), Some(0));
        table.insert(7, 3);
        assert_eq!(table.get(7), Some(3));
        table.remove(7);
        table.remove(0x12_3456 & 0xf_ffff); // a page of a region never mapped
        assert_eq!(table.get(7), None);
        assert_eq!(table.iter().count(), 0);
        table.insert(7, 3);
        let copy = table.clone();
        table.insert(8, 4);
        assert_eq!(copy.get(8), None, "a clone does not share leaves");
        assert_eq!(copy.get(7), Some(3));
    }
}
