//! Frequently *accessed* value profiling.

use crate::hash::ValueMap;
use fvl_mem::{Access, AccessKind, AccessSink, Word};
use std::fmt;

/// Counts how often each 32-bit value is involved in a load or store —
/// the paper's "frequently accessed values" profile, accumulated over the
/// entire execution.
///
/// Ties in the ranking are broken towards the numerically smaller value
/// so that results are deterministic.
#[derive(Clone, Default)]
pub struct ValueCounter {
    counts: ValueMap<u64>,
    loads: u64,
    stores: u64,
}

impl ValueCounter {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total accesses observed.
    pub fn total(&self) -> u64 {
        self.loads + self.stores
    }

    /// Load events observed.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Store events observed.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Number of distinct values observed.
    pub fn distinct_values(&self) -> usize {
        self.counts.len()
    }

    /// Access count for one value.
    pub fn count_of(&self, value: Word) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// All observed values ranked by decreasing access count
    /// (deterministic: ties broken by value).
    pub fn ranking(&self) -> Vec<Word> {
        crate::rank_by_count(self.counts.iter().map(|(&v, &c)| (v, c)))
    }

    /// The `k` most accessed values.
    pub fn top_k(&self, k: usize) -> Vec<Word> {
        crate::top_by_count(self.counts.iter().map(|(&v, &c)| (v, c)), k)
    }

    /// Fraction of all accesses involving one of the top `k` values
    /// (the right-hand bars of Figure 1). Zero for an empty profile.
    pub fn coverage(&self, k: usize) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        let covered: u64 = self.top_k(k).iter().map(|&v| self.counts[&v]).sum();
        covered as f64 / self.total() as f64
    }

    /// Fraction of accesses involving any value in `values`.
    pub fn coverage_of(&self, values: &[Word]) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        let covered: u64 = values.iter().map(|&v| self.count_of(v)).sum();
        covered as f64 / self.total() as f64
    }
}

impl AccessSink for ValueCounter {
    #[inline]
    fn on_access(&mut self, access: Access) {
        match access.kind {
            AccessKind::Load => self.loads += 1,
            AccessKind::Store => self.stores += 1,
        }
        *self.counts.entry(access.value).or_insert(0) += 1;
    }
}

impl fmt::Debug for ValueCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ValueCounter")
            .field("total", &self.total())
            .field("distinct_values", &self.counts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(values: &[(Word, u64)]) -> ValueCounter {
        let mut c = ValueCounter::new();
        for &(v, n) in values {
            for _ in 0..n {
                c.on_access(Access::load(0, v));
            }
        }
        c
    }

    #[test]
    fn ranking_orders_by_count_then_value() {
        let c = feed(&[(5, 3), (9, 10), (2, 3), (7, 1)]);
        assert_eq!(c.ranking(), vec![9, 2, 5, 7]);
        assert_eq!(c.top_k(2), vec![9, 2]);
        assert_eq!(c.distinct_values(), 4);
    }

    #[test]
    fn coverage_fractions() {
        let c = feed(&[(0, 50), (1, 30), (2, 20)]);
        assert!((c.coverage(1) - 0.5).abs() < 1e-12);
        assert!((c.coverage(2) - 0.8).abs() < 1e-12);
        assert!((c.coverage(10) - 1.0).abs() < 1e-12);
        assert!((c.coverage_of(&[1, 2]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn loads_and_stores_both_count() {
        let mut c = ValueCounter::new();
        c.on_access(Access::load(0, 7));
        c.on_access(Access::store(4, 7));
        assert_eq!(c.loads(), 1);
        assert_eq!(c.stores(), 1);
        assert_eq!(c.count_of(7), 2);
        assert_eq!(c.count_of(8), 0);
    }

    #[test]
    fn empty_profile_is_safe() {
        let c = ValueCounter::new();
        assert_eq!(c.coverage(5), 0.0);
        assert!(c.ranking().is_empty());
    }
}
