//! Tracking of *interesting* memory locations.
//!
//! The paper considers a location interesting if it "has been referenced
//! (i.e., read or written) at some point in the program and has not been
//! deallocated since". [`LiveSet`] implements exactly that: a bit per word,
//! set on reference and cleared when the containing region is freed.

use crate::layout::{Addr, Region, WORD_BYTES};
use crate::page_table::PageTable;
use std::fmt;

const PAGE_WORDS: usize = 1024;
const WORDS_PER_LIMB: usize = 64;
const LIMBS: usize = PAGE_WORDS / WORDS_PER_LIMB;
const PAGE_SHIFT: u32 = 12;

type Bitmap = [u64; LIMBS];

/// A set of word addresses that are currently *interesting*: referenced at
/// least once and not deallocated since.
///
/// One bitmap per touched 4 KiB page, kept in an arena and located
/// through the same flat page table as [`crate::SimMemory`]'s pages, so
/// marking never hashes and [`LiveSet::iter`] runs in ascending address
/// order.
///
/// # Example
///
/// ```
/// use fvl_mem::{LiveSet, Region, RegionKind};
///
/// let mut live = LiveSet::new();
/// live.mark(0x1000);
/// assert!(live.contains(0x1000));
/// live.clear_region(&Region::new(0x1000, 1, RegionKind::Heap));
/// assert!(!live.contains(0x1000));
/// ```
#[derive(Clone, Default)]
pub struct LiveSet {
    /// Page number -> slot in `pages`.
    table: PageTable,
    /// One bitmap per touched page, in first-touch order.
    pages: Vec<Bitmap>,
    len: u64,
}

impl LiveSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(addr: Addr) -> (u32, usize, u64) {
        debug_assert_eq!(addr % WORD_BYTES, 0);
        let page = addr >> PAGE_SHIFT;
        let word = ((addr >> 2) as usize) & (PAGE_WORDS - 1);
        (page, word / WORDS_PER_LIMB, 1u64 << (word % WORDS_PER_LIMB))
    }

    /// Marks the word at `addr` as referenced; returns whether it was
    /// unmarked before.
    #[inline]
    pub fn mark(&mut self, addr: Addr) -> bool {
        let (page, limb, bit) = Self::split(addr);
        let slot = match self.table.get(page) {
            Some(slot) => slot as usize,
            None => {
                let slot = self.pages.len();
                self.pages.push([0; LIMBS]);
                self.table
                    .insert(page, u32::try_from(slot).expect("fewer than 2^32 pages"));
                slot
            }
        };
        let bm = &mut self.pages[slot];
        if bm[limb] & bit != 0 {
            return false;
        }
        bm[limb] |= bit;
        self.len += 1;
        true
    }

    /// Whether the word at `addr` is currently interesting.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        let (page, limb, bit) = Self::split(addr);
        self.table
            .get(page)
            .is_some_and(|slot| self.pages[slot as usize][limb] & bit != 0)
    }

    /// Clears every word covered by `region` (deallocation).
    pub fn clear_region(&mut self, region: &Region) {
        for addr in region.word_addrs() {
            let (page, limb, bit) = Self::split(addr);
            if let Some(slot) = self.table.get(page) {
                let bm = &mut self.pages[slot as usize];
                if bm[limb] & bit != 0 {
                    bm[limb] &= !bit;
                    self.len -= 1;
                }
            }
        }
    }

    /// Number of interesting words.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no word is interesting.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over all interesting word addresses in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Addr> + '_ {
        self.table.iter().flat_map(move |(page, slot)| {
            let base = page << PAGE_SHIFT;
            self.pages[slot as usize]
                .iter()
                .enumerate()
                .flat_map(move |(limb, &bits)| {
                    BitIter(bits).map(move |b| base + (((limb * WORDS_PER_LIMB + b) as u32) << 2))
                })
        })
    }
}

impl fmt::Debug for LiveSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveSet").field("len", &self.len).finish()
    }
}

struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let b = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RegionKind;

    #[test]
    fn mark_and_contains() {
        let mut s = LiveSet::new();
        assert!(s.is_empty());
        assert!(s.mark(0x100));
        assert!(!s.mark(0x100)); // idempotent
        assert!(s.mark(0x2000));
        assert_eq!(s.len(), 2);
        assert!(s.contains(0x100));
        assert!(s.contains(0x2000));
        assert!(!s.contains(0x104));
    }

    #[test]
    fn clear_region_removes_exactly_covered_words() {
        let mut s = LiveSet::new();
        for a in [0x100u32, 0x104, 0x108, 0x10c, 0x110] {
            s.mark(a);
        }
        s.clear_region(&Region::new(0x104, 3, RegionKind::Heap));
        assert!(s.contains(0x100));
        assert!(!s.contains(0x104));
        assert!(!s.contains(0x108));
        assert!(!s.contains(0x10c));
        assert!(s.contains(0x110));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn clear_unmarked_is_noop() {
        let mut s = LiveSet::new();
        s.mark(0x100);
        s.clear_region(&Region::new(0x2000, 8, RegionKind::Stack));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_yields_all_marks_in_ascending_order() {
        let mut s = LiveSet::new();
        // Pages on both sides of a 4 KiB and of a 4 MiB boundary, marked
        // out of order.
        let addrs = [
            0x5000u32,
            0x100,
            0x0,
            0x1ffc,
            0x40_0000,
            0x3f_fffc,
            0x2000,
            0xffff_fffc,
        ];
        for &a in &addrs {
            s.mark(a);
        }
        let got: Vec<_> = s.iter().collect();
        let mut want = addrs.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(s.iter().count() as u64, s.len());
    }

    #[test]
    fn remark_after_clear_counts_again() {
        let mut s = LiveSet::new();
        s.mark(0x100);
        s.clear_region(&Region::new(0x100, 1, RegionKind::Heap));
        assert!(s.is_empty());
        s.mark(0x100);
        assert_eq!(s.len(), 1);
    }
}
