//! Frequently *occurring* value profiling via memory snapshots.

use crate::hash::ValueMap;
use fvl_mem::{Access, AccessSink, MemorySnapshot, Word};
use std::fmt;

/// Histograms the values *occupying* interesting memory locations,
/// sampled periodically — the paper's occurrence study ("the occurrence
/// of values in memory locations was sampled every 10 million
/// instructions and averaged over the entire set of collected samples").
///
/// Feed it through [`fvl_mem::TracedMemory::with_sampling`] or
/// [`fvl_mem::Trace::replay_with_snapshots`].
#[derive(Clone, Default)]
pub struct OccurrenceSampler {
    /// Sum over snapshots of per-value location counts.
    sums: ValueMap<u64>,
    /// Sum over snapshots of total live locations.
    total_locations: u64,
    samples: u64,
}

impl OccurrenceSampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of snapshots taken.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Average number of live locations per snapshot.
    pub fn avg_locations(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_locations as f64 / self.samples as f64
        }
    }

    /// Number of distinct values ever observed occupying memory.
    pub fn distinct_values(&self) -> usize {
        self.sums.len()
    }

    /// Values ranked by decreasing average occupancy (ties towards the
    /// smaller value).
    pub fn ranking(&self) -> Vec<Word> {
        crate::rank_by_count(self.sums.iter().map(|(&v, &c)| (v, c)))
    }

    /// The `k` most occurring values.
    pub fn top_k(&self, k: usize) -> Vec<Word> {
        crate::top_by_count(self.sums.iter().map(|(&v, &c)| (v, c)), k)
    }

    /// Average fraction of memory locations occupied by the top `k`
    /// occurring values (the left-hand bars of Figure 1).
    pub fn coverage(&self, k: usize) -> f64 {
        if self.total_locations == 0 {
            return 0.0;
        }
        let covered: u64 = self.top_k(k).iter().map(|&v| self.sums[&v]).sum();
        covered as f64 / self.total_locations as f64
    }

    /// Average fraction of locations occupied by any value in `values`.
    pub fn coverage_of(&self, values: &[Word]) -> f64 {
        if self.total_locations == 0 {
            return 0.0;
        }
        let covered: u64 = values
            .iter()
            .map(|&v| self.sums.get(&v).copied().unwrap_or(0))
            .sum();
        covered as f64 / self.total_locations as f64
    }
}

impl AccessSink for OccurrenceSampler {
    fn on_access(&mut self, _access: Access) {}

    fn on_snapshot(&mut self, snapshot: &MemorySnapshot<'_>) {
        self.samples += 1;
        self.total_locations += snapshot.live_locations();
        for (_addr, value) in snapshot.iter() {
            *self.sums.entry(value).or_insert(0) += 1;
        }
    }
}

impl fmt::Debug for OccurrenceSampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OccurrenceSampler")
            .field("samples", &self.samples)
            .field("avg_locations", &self.avg_locations())
            .field("distinct_values", &self.sums.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvl_mem::{Bus, BusExt, TracedMemory};

    #[test]
    fn sampler_ranks_occupying_values() {
        let mut sampler = OccurrenceSampler::new();
        {
            let mut mem = TracedMemory::with_sampling(&mut sampler, 16);
            let a = mem.global(16);
            // 12 zeros, 4 sevens.
            for i in 0..12 {
                mem.store_idx(a, i, 0);
            }
            for i in 12..16 {
                mem.store_idx(a, i, 7);
            }
            // Trigger at least one more snapshot with stable contents.
            for i in 0..16 {
                let _ = mem.load_idx(a, i);
            }
            mem.finish();
        }
        assert!(sampler.samples() >= 2);
        assert_eq!(sampler.ranking()[0], 0);
        assert_eq!(sampler.ranking()[1], 7);
        assert!(
            sampler.coverage(1) > 0.7,
            "zeros dominate: {}",
            sampler.coverage(1)
        );
        assert!((sampler.coverage(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn freed_memory_leaves_the_census() {
        let mut sampler = OccurrenceSampler::new();
        {
            // Stack frames avoid malloc-header accesses, keeping the
            // snapshot arithmetic exact.
            let mut mem = TracedMemory::with_sampling(&mut sampler, 4);
            let a = mem.push_frame(4);
            mem.fill(a, 4, 9); // 4 accesses -> snapshot: four 9s
            mem.pop_frame();
            let b = mem.global(4);
            mem.fill(b, 4, 3); // snapshot: four 3s (9s are gone)
            mem.finish();
        }
        assert_eq!(sampler.samples(), 2);
        // 9 and 3 each occupied 4 locations in one snapshot.
        assert_eq!(sampler.coverage_of(&[9]), 0.5);
        assert_eq!(sampler.coverage_of(&[3]), 0.5);
    }

    #[test]
    fn empty_sampler_is_safe() {
        let s = OccurrenceSampler::new();
        assert_eq!(s.coverage(3), 0.0);
        assert_eq!(s.avg_locations(), 0.0);
        assert_eq!(s.distinct_values(), 0);
    }
}
