//! A deliberately naive reference 3C miss classifier.
//!
//! The optimized [`fvl_cache::MissClassifier`] behind Figure 14's
//! conflict/capacity split keeps its lines in purpose-built tables.
//! This oracle is the textbook definition written out directly: a
//! sorted `Vec` of every line ever touched, and a `Vec` shadow of a
//! fully-associative LRU cache of the subject's capacity, most recent
//! line first, where `Iterator::position` says whether the shadow
//! holds the line. A subject miss on a line never touched before is
//! compulsory; otherwise it is a conflict miss when the shadow holds
//! the line and a capacity miss when it does not.

use fvl_cache::MissClass;
use fvl_mem::Addr;

/// `Vec`-scan mirror of [`fvl_cache::MissClassifier`].
///
/// # Example
///
/// ```
/// use fvl_cache::MissClass;
/// use fvl_check::OracleClassifier;
///
/// let mut oracle = OracleClassifier::new(2, 16);
/// assert_eq!(oracle.observe(0x00, true), Some(MissClass::Compulsory));
/// assert_eq!(oracle.observe(0x10, true), Some(MissClass::Compulsory));
/// assert_eq!(oracle.observe(0x20, true), Some(MissClass::Compulsory));
/// // 0x00 left the 2-line shadow when 0x20 arrived.
/// assert_eq!(oracle.observe(0x04, true), Some(MissClass::Capacity));
/// // 0x20 is still in it.
/// assert_eq!(oracle.observe(0x20, true), Some(MissClass::Conflict));
/// assert_eq!(oracle.observe(0x20, false), None);
/// assert_eq!(oracle.counts(), (3, 1, 1));
/// ```
#[derive(Clone, Debug)]
pub struct OracleClassifier {
    line_bytes: u32,
    capacity_lines: usize,
    /// Every line ever touched, ascending.
    seen: Vec<Addr>,
    /// The fully-associative LRU shadow, most recent line first.
    shadow: Vec<Addr>,
    compulsory: u64,
    capacity: u64,
    conflict: u64,
}

impl OracleClassifier {
    /// A classifier for a cache of `capacity_lines` lines of
    /// `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` or `line_bytes` is zero.
    pub fn new(capacity_lines: usize, line_bytes: u32) -> Self {
        assert!(capacity_lines > 0 && line_bytes > 0, "empty oracle shape");
        OracleClassifier {
            line_bytes,
            capacity_lines,
            seen: Vec::new(),
            shadow: Vec::new(),
            compulsory: 0,
            capacity: 0,
            conflict: 0,
        }
    }

    /// Feeds one access; `subject_missed` says whether the studied
    /// cache missed. Returns the class of a miss, `None` for a hit.
    pub fn observe(&mut self, addr: Addr, subject_missed: bool) -> Option<MissClass> {
        let line = addr / self.line_bytes * self.line_bytes;
        let first = match self.seen.binary_search(&line) {
            Ok(_) => false,
            Err(at) => {
                self.seen.insert(at, line);
                true
            }
        };
        let shadowed = match self.shadow.iter().position(|&l| l == line) {
            Some(at) => {
                self.shadow.remove(at);
                true
            }
            None => false,
        };
        self.shadow.insert(0, line);
        self.shadow.truncate(self.capacity_lines);
        if !subject_missed {
            return None;
        }
        let class = if first {
            self.compulsory += 1;
            MissClass::Compulsory
        } else if shadowed {
            self.conflict += 1;
            MissClass::Conflict
        } else {
            self.capacity += 1;
            MissClass::Capacity
        };
        Some(class)
    }

    /// `(compulsory, capacity, conflict)` misses counted so far.
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.compulsory, self.capacity, self.conflict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_one_line_shadow_keeps_only_the_last_line() {
        let mut oracle = OracleClassifier::new(1, 32);
        assert_eq!(oracle.observe(0x00, true), Some(MissClass::Compulsory));
        assert_eq!(oracle.observe(0x1c, true), Some(MissClass::Conflict));
        assert_eq!(oracle.observe(0x20, false), None);
        assert_eq!(oracle.observe(0x00, true), Some(MissClass::Capacity));
        assert_eq!(oracle.counts(), (1, 1, 1));
    }

    #[test]
    fn hits_refresh_the_shadow() {
        // Capacity 2: A, B, A (hit), C evicts B, not A.
        let mut oracle = OracleClassifier::new(2, 16);
        for (addr, missed) in [(0x00, true), (0x10, true), (0x00, false), (0x20, true)] {
            oracle.observe(addr, missed);
        }
        assert_eq!(oracle.observe(0x00, true), Some(MissClass::Conflict));
        assert_eq!(oracle.observe(0x10, true), Some(MissClass::Capacity));
    }
}
