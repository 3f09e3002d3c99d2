//! When does the frequent-value ranking stop changing? (Table 3.)

use fvl_mem::{Access, AccessSink, Word};
use std::collections::HashMap;
use std::fmt;

/// The Table 3 result for one program.
#[derive(Clone, Debug, PartialEq)]
pub struct StabilityReport {
    /// Total accesses in the run.
    pub total_accesses: u64,
    /// For k = 1, 3, 7: percentage of execution after which the
    /// *identity and order* of the top-k accessed values never changes.
    pub order_stable_percent: [f64; 3],
    /// For k = 1, 3, 7: percentage of execution after which the final
    /// top-k values all appear (in any order) in the running top-10 —
    /// the paper's relaxation for 124.m88ksim.
    pub identity_stable_percent: [f64; 3],
}

impl fmt::Display for StabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "order-stable top-1/3/7 after {:.2}% / {:.2}% / {:.2}% (identity: {:.2}% / {:.2}% / {:.2}%)",
            self.order_stable_percent[0],
            self.order_stable_percent[1],
            self.order_stable_percent[2],
            self.identity_stable_percent[0],
            self.identity_stable_percent[1],
            self.identity_stable_percent[2],
        )
    }
}

/// How many leading values each checkpoint records.
const TRACKED: usize = 10;

/// Tracks the running top-10 accessed-value ranking at periodic
/// checkpoints and reports when its top-1/3/7 prefixes become final.
///
/// The top-10 is kept up to date on every access, in
/// [`crate::top_by_count`]'s order (count descending, then value
/// ascending), instead of re-ranking the whole histogram at each
/// checkpoint. Counts only grow, so an access can move only the value
/// it counts: up within the top-10, or into it past the tenth.
pub struct StabilityAnalyzer {
    counts: HashMap<Word, u64>,
    /// The running top-10 as `(value, count)`, in rank order.
    top: Vec<(Word, u64)>,
    check_every: u64,
    accesses: u64,
    next_check: u64,
    /// (access count, top-10 ranking) per checkpoint.
    checkpoints: Vec<(u64, Vec<Word>)>,
}

impl StabilityAnalyzer {
    /// Creates an analyzer that checkpoints the ranking every
    /// `check_every` accesses. Pick roughly `total / 500` for smooth
    /// percentages.
    ///
    /// # Panics
    ///
    /// Panics if `check_every` is zero.
    pub fn new(check_every: u64) -> Self {
        assert!(check_every > 0, "checkpoint interval must be positive");
        StabilityAnalyzer {
            counts: HashMap::new(),
            top: Vec::with_capacity(TRACKED),
            check_every,
            accesses: 0,
            next_check: check_every,
            checkpoints: Vec::new(),
        }
    }

    /// The running top-10 values, in rank order.
    fn top10(&self) -> Vec<Word> {
        self.top.iter().map(|&(v, _)| v).collect()
    }

    /// Counts one access of `value` and restores the top-10's order.
    fn count(&mut self, value: Word) {
        let count = self.counts.entry(value).or_insert(0);
        *count += 1;
        let count = *count;
        // `a` outranks `b`: higher count, or equal count and smaller value.
        let outranks = |a: (Word, u64), b: (Word, u64)| a.1 > b.1 || (a.1 == b.1 && a.0 < b.0);
        let mut at = match self.top.iter().position(|&(v, _)| v == value) {
            Some(at) => at,
            // Below the tenth, only a value that now outranks it enters.
            None if self.top.len() == TRACKED => {
                if !outranks((value, count), self.top[TRACKED - 1]) {
                    return;
                }
                TRACKED - 1
            }
            // Fewer than ten distinct values: every one is tracked.
            None => {
                self.top.push((value, 0));
                self.top.len() - 1
            }
        };
        self.top[at] = (value, count);
        while at > 0 && outranks(self.top[at], self.top[at - 1]) {
            self.top.swap(at, at - 1);
            at -= 1;
        }
    }

    /// Number of checkpoints recorded so far.
    pub fn checkpoints(&self) -> usize {
        self.checkpoints.len()
    }

    /// Computes the Table 3 report. Records a final checkpoint for the
    /// end-of-run state, so calling this *is* the finish step.
    pub fn report(&mut self) -> StabilityReport {
        // Ensure the final state is a checkpoint.
        if self.checkpoints.last().map(|(a, _)| *a) != Some(self.accesses) {
            self.checkpoints.push((self.accesses, self.top10()));
        }
        let final_ranking = self.top10();
        let ks = [1usize, 3, 7];
        let mut order = [0.0; 3];
        let mut identity = [0.0; 3];
        for (i, &k) in ks.iter().enumerate() {
            let final_prefix: Vec<Word> = final_ranking.iter().take(k).copied().collect();
            // Earliest checkpoint from which the ordered prefix equals
            // the final prefix at *every* later checkpoint.
            let mut order_stable_at = self.accesses;
            let mut identity_stable_at = self.accesses;
            for (acc, ranking) in self.checkpoints.iter().rev() {
                let prefix: Vec<Word> = ranking.iter().take(k).copied().collect();
                if prefix == final_prefix {
                    order_stable_at = *acc;
                } else {
                    break;
                }
            }
            for (acc, ranking) in self.checkpoints.iter().rev() {
                if final_prefix.iter().all(|v| ranking.contains(v)) {
                    identity_stable_at = *acc;
                } else {
                    break;
                }
            }
            let total = self.accesses.max(1) as f64;
            // The values were stable *from the previous checkpoint on*:
            // report the fraction of execution completed at that point.
            order[i] = (order_stable_at as f64 - self.check_every as f64).max(0.0) / total * 100.0;
            identity[i] =
                (identity_stable_at as f64 - self.check_every as f64).max(0.0) / total * 100.0;
        }
        StabilityReport {
            total_accesses: self.accesses,
            order_stable_percent: order,
            identity_stable_percent: identity,
        }
    }
}

impl AccessSink for StabilityAnalyzer {
    fn on_access(&mut self, access: Access) {
        self.accesses += 1;
        self.count(access.value);
        if self.accesses >= self.next_check {
            self.next_check = self.accesses + self.check_every;
            let top = self.top10();
            self.checkpoints.push((self.accesses, top));
        }
    }
}

impl fmt::Debug for StabilityAnalyzer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StabilityAnalyzer")
            .field("accesses", &self.accesses)
            .field("checkpoints", &self.checkpoints.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(s: &mut StabilityAnalyzer, value: Word, n: u64) {
        for _ in 0..n {
            s.on_access(Access::load(0, value));
        }
    }

    #[test]
    fn immediately_stable_ranking_reports_near_zero() {
        let mut s = StabilityAnalyzer::new(10);
        // Value 5 dominates from the start.
        for _ in 0..10 {
            feed(&mut s, 5, 9);
            feed(&mut s, 1, 1);
        }
        let r = s.report();
        assert_eq!(r.total_accesses, 100);
        assert!(
            r.order_stable_percent[0] < 10.0,
            "top-1 fixed from the first checkpoint"
        );
    }

    #[test]
    fn late_leader_change_is_detected() {
        let mut s = StabilityAnalyzer::new(10);
        feed(&mut s, 1, 60); // value 1 leads
        feed(&mut s, 2, 100); // value 2 overtakes at access ~120
        let r = s.report();
        assert_eq!(r.total_accesses, 160);
        // Top-1 changed from 1 to 2 somewhere after access 120.
        assert!(
            r.order_stable_percent[0] > 50.0,
            "got {}",
            r.order_stable_percent[0]
        );
    }

    #[test]
    fn identity_stabilizes_before_order() {
        let mut s = StabilityAnalyzer::new(10);
        // Both values present early; their relative order flips late.
        feed(&mut s, 1, 30);
        feed(&mut s, 2, 25);
        feed(&mut s, 2, 40); // 2 overtakes 1
        let r = s.report();
        // identity of top-3 = {1,2} visible in top-10 from the start.
        assert!(r.identity_stable_percent[1] <= r.order_stable_percent[1] + 1e-9);
    }

    /// Feeds one access, then checks the running top-10 against a full
    /// re-rank of an independent histogram.
    fn feed_checked(s: &mut StabilityAnalyzer, histogram: &mut HashMap<Word, u64>, value: Word) {
        s.on_access(Access::load(0, value));
        *histogram.entry(value).or_insert(0) += 1;
        let full = crate::top_by_count(histogram.iter().map(|(&v, &c)| (v, c)), 10);
        assert_eq!(s.top10(), full, "access {} (value {value})", s.accesses);
    }

    #[test]
    fn running_top10_matches_a_full_rerank_after_every_access() {
        let mut s = StabilityAnalyzer::new(1000);
        let mut histogram = HashMap::new();
        // Round robin, largest value first: after every round 21 values
        // tie, and the tie-break (smaller value first) reorders them.
        for i in 0..210u32 {
            feed_checked(&mut s, &mut histogram, 20 - i % 21);
        }
        // A seeded draw over 40 values, skewed towards small ones, so
        // neighbouring ranks tie and cross often; in its second half,
        // two values absent so far take half the accesses and overtake
        // the early leaders.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in 0..6000u32 {
            let r = next();
            let value = if i >= 3000 && r % 2 == 0 {
                1000 + (r >> 8) as u32 % 2
            } else {
                let bucket = (r >> 16) % 40;
                ((r >> 24) % (bucket + 1)) as u32
            };
            feed_checked(&mut s, &mut histogram, value);
        }
        assert!(histogram.len() > 10);
        let mut leaders = s.top10()[..2].to_vec();
        leaders.sort_unstable();
        assert_eq!(leaders, [1000, 1001], "the late values overtook");
    }

    #[test]
    fn report_is_idempotent_about_final_checkpoint() {
        let mut s = StabilityAnalyzer::new(10);
        feed(&mut s, 3, 25);
        let n = {
            let r = s.report();
            r.total_accesses
        };
        let r2 = s.report();
        assert_eq!(r2.total_accesses, n);
    }
}
