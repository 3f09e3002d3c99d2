//! Spatial distribution of frequent values — Figure 5.

use fvl_mem::{Access, AccessSink, MemorySnapshot, Word};
use std::collections::HashSet;
use std::fmt;

/// The Figure 5 result: per 800-word block of referenced memory, the
/// average number of focus (top-7 occurring) values per 8-word line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpatialProfile {
    /// One average per complete 800-word block, in address order.
    pub block_averages: Vec<f64>,
    /// The access count at which the snapshot was taken.
    pub snapshot_at: u64,
}

impl SpatialProfile {
    /// Mean of the block averages.
    pub fn mean(&self) -> f64 {
        if self.block_averages.is_empty() {
            0.0
        } else {
            self.block_averages.iter().sum::<f64>() / self.block_averages.len() as f64
        }
    }

    /// Population standard deviation of the block averages — low values
    /// mean frequent values are spread uniformly (the paper's claim).
    pub fn std_dev(&self) -> f64 {
        let n = self.block_averages.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self
            .block_averages
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f64>()
            / n as f64)
            .sqrt()
    }
}

/// Captures one memory snapshot at (or after) a target access count and
/// computes the Figure 5 block profile: referenced memory is split into
/// blocks of 800 consecutive interesting locations, each viewed as 100
/// lines of 8 words; each line contributes its count of focus values.
pub struct SpatialAnalyzer {
    focus: HashSet<Word>,
    target_access: u64,
    profile: Option<SpatialProfile>,
    words_per_line: usize,
    block_words: usize,
}

impl SpatialAnalyzer {
    /// Creates an analyzer for the given focus values (the paper uses
    /// the top 7 *occurring* values) triggering at the first snapshot at
    /// or past `target_access` (the paper snapshots half-way).
    pub fn new(focus: Vec<Word>, target_access: u64) -> Self {
        SpatialAnalyzer {
            focus: focus.into_iter().collect(),
            target_access,
            profile: None,
            words_per_line: 8,
            block_words: 800,
        }
    }

    /// The captured profile, if the target point was reached.
    pub fn profile(&self) -> Option<&SpatialProfile> {
        self.profile.as_ref()
    }

    /// Consumes the analyzer, returning the profile.
    pub fn into_profile(self) -> Option<SpatialProfile> {
        self.profile
    }
}

impl AccessSink for SpatialAnalyzer {
    fn on_access(&mut self, _access: Access) {}

    fn on_snapshot(&mut self, snapshot: &MemorySnapshot<'_>) {
        if self.profile.is_some() || snapshot.access_count() < self.target_access {
            return;
        }
        let values: Vec<Word> = snapshot.iter().map(|(_, v)| v).collect();
        let mut block_averages = Vec::new();
        for block in values.chunks_exact(self.block_words) {
            let lines = self.block_words / self.words_per_line;
            let mut total = 0usize;
            for line in block.chunks_exact(self.words_per_line) {
                total += line.iter().filter(|v| self.focus.contains(v)).count();
            }
            block_averages.push(total as f64 / lines as f64);
        }
        self.profile = Some(SpatialProfile {
            block_averages,
            snapshot_at: snapshot.access_count(),
        });
    }
}

impl fmt::Debug for SpatialAnalyzer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpatialAnalyzer")
            .field("focus", &self.focus.len())
            .field("target_access", &self.target_access)
            .field("captured", &self.profile.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvl_mem::{Bus, BusExt, TracedMemory};

    #[test]
    fn uniform_frequent_values_give_flat_profile() {
        let mut a = SpatialAnalyzer::new(vec![0, 1], 1600);
        {
            let mut mem = TracedMemory::with_sampling(&mut a, 1600);
            let base = mem.global(1600);
            // Every other word frequent: 4 focus values per 8-word line.
            for i in 0..1600 {
                mem.store_idx(base, i, if i % 2 == 0 { 0 } else { 999 });
            }
            mem.finish();
        }
        let p = a.profile().expect("captured");
        assert_eq!(p.block_averages.len(), 2);
        assert!((p.mean() - 4.0).abs() < 1e-9);
        assert!(p.std_dev() < 1e-9);
    }

    #[test]
    fn skewed_distribution_shows_high_variance() {
        let mut a = SpatialAnalyzer::new(vec![7], 1600);
        {
            let mut mem = TracedMemory::with_sampling(&mut a, 1600);
            let base = mem.global(1600);
            for i in 0..1600 {
                // First block all frequent, second block none.
                mem.store_idx(base, i, if i < 800 { 7 } else { 1000 + i });
            }
            mem.finish();
        }
        let p = a.profile().expect("captured");
        assert_eq!(p.block_averages, vec![8.0, 0.0]);
        assert!(p.std_dev() > 3.9);
    }

    #[test]
    fn no_snapshot_before_target() {
        let mut a = SpatialAnalyzer::new(vec![0], 1_000_000);
        {
            let mut mem = TracedMemory::with_sampling(&mut a, 100);
            let base = mem.global(256);
            for i in 0..256 {
                mem.store_idx(base, i, 0);
            }
            mem.finish();
        }
        assert!(a.into_profile().is_none());
    }

    #[test]
    fn partial_blocks_are_dropped() {
        let mut a = SpatialAnalyzer::new(vec![0], 900);
        {
            let mut mem = TracedMemory::with_sampling(&mut a, 900);
            let base = mem.global(900);
            for i in 0..900 {
                mem.store_idx(base, i, 0);
            }
            mem.finish();
        }
        let p = a.profile().expect("captured");
        assert_eq!(
            p.block_averages.len(),
            1,
            "only one complete 800-word block"
        );
    }
}
