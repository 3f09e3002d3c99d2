//! Compulsory / capacity / conflict miss classification.
//!
//! Uses the standard decomposition: a miss is *compulsory* if the line was
//! never referenced before; otherwise it is a *capacity* miss if a
//! fully-associative LRU cache of the same total capacity would also miss,
//! and a *conflict* miss if that cache would hit. This supports the
//! paper's Figure 14 discussion of which miss classes the FVC removes.

use crate::replacement::{ReplacementPolicy, TrueLru};
use fvl_mem::{Addr, LineTable, LiveSet};
use std::fmt;

/// The class of a cache miss.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum MissClass {
    /// First-ever reference to the line.
    Compulsory,
    /// Missed even in a fully-associative cache of equal capacity.
    Capacity,
    /// Hit in the equal-capacity fully-associative cache.
    Conflict,
}

impl fmt::Display for MissClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MissClass::Compulsory => "compulsory",
            MissClass::Capacity => "capacity",
            MissClass::Conflict => "conflict",
        })
    }
}

/// Online classifier fed with every access of a simulation.
///
/// Every access costs O(1) plain-array work and no hashing. The lines
/// ever touched are one bit each in a [`LiveSet`] keyed by line
/// address. The fully-associative LRU model is one set of
/// `capacity_lines` ways under [`TrueLru`], its ways' lines in an
/// array and a [`LineTable`] from line to way, so a model hit is a
/// table lookup and a recency promotion, and a model miss evicts the
/// list's least recent way.
///
/// Memory: the bitmap of lines ever touched, 128 bytes per 4 KiB page
/// the trace touches, plus the page tables of it and of the
/// [`LineTable`]; and the model's `capacity_lines` ways at 12 bytes
/// each, plus one [`LineTable`] leaf per page holding a modelled line
/// (see its memory bound), at most `capacity_lines` of them.
///
/// # Example
///
/// ```
/// use fvl_cache::{MissClass, MissClassifier};
///
/// let mut c = MissClassifier::new(2, 16);
/// assert_eq!(c.observe(0x00, true), Some(MissClass::Compulsory));
/// assert_eq!(c.observe(0x10, true), Some(MissClass::Compulsory));
/// assert_eq!(c.observe(0x00, false), None); // subject cache hit
/// ```
#[derive(Clone)]
pub struct MissClassifier {
    line_mask: Addr,
    capacity_lines: usize,
    /// One bit per line ever touched, at the line's address.
    seen: LiveSet,
    /// The model's ways: the line each holds, filled in order.
    lines: Vec<Addr>,
    /// Recency of the model's ways, one set of `capacity_lines`.
    lru: TrueLru,
    /// Line → way of every line the model holds.
    ways: LineTable,
    compulsory: u64,
    capacity: u64,
    conflict: u64,
}

impl MissClassifier {
    /// Creates a classifier for a cache of `capacity_lines` lines of
    /// `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero or does not fit in a `u32`,
    /// or `line_bytes` is not a power of two of at least 4.
    pub fn new(capacity_lines: usize, line_bytes: u32) -> Self {
        assert!(capacity_lines > 0, "capacity must be positive");
        let ways = u32::try_from(capacity_lines).expect("capacity fits in a u32");
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= 4,
            "bad line size"
        );
        MissClassifier {
            line_mask: !(line_bytes - 1),
            capacity_lines,
            seen: LiveSet::new(),
            lines: Vec::new(),
            lru: TrueLru::new(1, ways),
            ways: LineTable::new(line_bytes),
            compulsory: 0,
            capacity: 0,
            conflict: 0,
        }
    }

    /// Feeds one access. `subject_missed` says whether the cache being
    /// studied missed. Returns the class when it missed.
    pub fn observe(&mut self, addr: Addr, subject_missed: bool) -> Option<MissClass> {
        let line = addr & self.line_mask;
        let first = self.seen.mark(line);
        let fa_hit = self.model(line);
        if !subject_missed {
            return None;
        }
        // `seeded-bugs` is a TEST-ONLY mutation used by the `fvl-check`
        // conformance harness: a first-touch miss is counted as a
        // capacity miss instead of a compulsory one.
        let class = if first && !cfg!(feature = "seeded-bugs") {
            self.compulsory += 1;
            MissClass::Compulsory
        } else if fa_hit {
            self.conflict += 1;
            MissClass::Conflict
        } else {
            self.capacity += 1;
            MissClass::Capacity
        };
        Some(class)
    }

    /// References `line` in the fully-associative LRU model and
    /// reports whether the model held it. A line it did not hold takes
    /// the next unfilled way, or the least recently used one's.
    #[inline]
    fn model(&mut self, line: Addr) -> bool {
        if let Some(way) = self.ways.get(line) {
            self.lru.touch(0, way);
            return true;
        }
        let way = if self.lines.len() < self.capacity_lines {
            self.lines.push(line);
            (self.lines.len() - 1) as u32
        } else {
            let way = self.lru.victim(0);
            let evicted = std::mem::replace(&mut self.lines[way as usize], line);
            self.ways.remove(evicted);
            way
        };
        self.ways.insert(line, way);
        self.lru.fill(0, way, line, &[]);
        false
    }

    /// Compulsory misses counted so far.
    pub fn compulsory(&self) -> u64 {
        self.compulsory
    }

    /// Capacity misses counted so far.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Conflict misses counted so far.
    pub fn conflict(&self) -> u64 {
        self.conflict
    }

    /// Total classified misses.
    pub fn total(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }
}

impl fmt::Debug for MissClassifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MissClassifier")
            .field("compulsory", &self.compulsory)
            .field("capacity", &self.capacity)
            .field("conflict", &self.conflict)
            .finish()
    }
}

#[cfg(all(test, not(feature = "seeded-bugs")))]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_compulsory() {
        let mut c = MissClassifier::new(4, 16);
        assert_eq!(c.observe(0x100, true), Some(MissClass::Compulsory));
        assert_eq!(c.compulsory(), 1);
    }

    #[test]
    fn hit_returns_none_but_updates_model() {
        let mut c = MissClassifier::new(1, 16);
        assert_eq!(c.observe(0x00, true), Some(MissClass::Compulsory));
        assert_eq!(c.observe(0x00, false), None);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn conflict_when_fa_would_hit() {
        // Capacity 2 lines: A, B, A again — FA keeps both, so a re-miss
        // on A is a conflict miss.
        let mut c = MissClassifier::new(2, 16);
        c.observe(0x000, true);
        c.observe(0x100, true);
        assert_eq!(c.observe(0x000, true), Some(MissClass::Conflict));
    }

    #[test]
    fn capacity_when_fa_would_also_miss() {
        // Capacity 2, access 3 distinct lines cyclically: returning to A
        // after B and C evicted it from the FA model = capacity miss.
        let mut c = MissClassifier::new(2, 16);
        c.observe(0x000, true);
        c.observe(0x100, true);
        c.observe(0x200, true);
        assert_eq!(c.observe(0x000, true), Some(MissClass::Capacity));
        assert_eq!(c.capacity(), 1);
        assert_eq!(c.compulsory(), 3);
    }

    #[test]
    fn classes_partition_misses() {
        let mut c = MissClassifier::new(2, 16);
        let addrs = [0x0u32, 0x100, 0x200, 0x0, 0x100, 0x0, 0x300];
        let mut classified = 0;
        for &a in &addrs {
            if c.observe(a, true).is_some() {
                classified += 1;
            }
        }
        assert_eq!(classified, addrs.len() as u64);
        assert_eq!(c.total(), c.compulsory() + c.capacity() + c.conflict());
        assert_eq!(c.total(), addrs.len() as u64);
    }

    #[test]
    fn word_accesses_within_a_line_count_as_one_line() {
        let mut c = MissClassifier::new(2, 16);
        assert_eq!(c.observe(0x100, true), Some(MissClass::Compulsory));
        // Different word, same line: not compulsory anymore.
        assert_eq!(c.observe(0x104, true), Some(MissClass::Conflict));
    }
}
