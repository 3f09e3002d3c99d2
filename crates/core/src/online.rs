//! Online identification of frequent values.
//!
//! The paper identifies frequent values by *profiling* a full run and
//! argues (Table 3) that the top values emerge within a small fraction
//! of execution, so a short profiling window suffices. This module
//! implements that idea as hardware could: a small
//! [space-saving](https://en.wikipedia.org/wiki/Misra%E2%80%93Gries_summary)
//! counter table watches the first `window` accesses, after which the
//! top-k values are latched into the FVC and the hybrid starts caching —
//! no offline pass required.

use crate::config::HybridConfig;
use crate::hybrid::HybridCache;
use crate::hybrid_stats::HybridStats;
use crate::value_set::FrequentValueSet;
use fvl_cache::{CacheGeometry, CacheSim, CacheStats, Simulator};
use fvl_mem::{Access, AccessSink, Word};
use std::collections::HashMap;
use std::fmt;

/// A bounded frequency estimator (Misra–Gries / space-saving): tracks at
/// most `capacity` candidate values with approximate counts, exactly the
/// kind of structure a hardware value profiler could implement.
#[derive(Clone, Debug)]
pub struct ValueSketch {
    counters: HashMap<Word, u64>,
    capacity: usize,
    observed: u64,
}

impl ValueSketch {
    /// Creates a sketch tracking at most `capacity` candidates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sketch capacity must be positive");
        ValueSketch {
            counters: HashMap::with_capacity(capacity + 1),
            capacity,
            observed: 0,
        }
    }

    /// Observes one value (Misra–Gries update).
    pub fn observe(&mut self, value: Word) {
        self.observed += 1;
        if let Some(c) = self.counters.get_mut(&value) {
            *c += 1;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(value, 1);
            return;
        }
        // Decrement-all step; drop exhausted candidates.
        self.counters.retain(|_, c| {
            *c -= 1;
            *c > 0
        });
    }

    /// Total values observed.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// The current top-`k` candidates by estimated count (deterministic
    /// tie-break towards the smaller value).
    pub fn top_k(&self, k: usize) -> Vec<Word> {
        let mut pairs: Vec<(Word, u64)> = self.counters.iter().map(|(&v, &c)| (v, c)).collect();
        pairs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(k);
        pairs.into_iter().map(|(v, _)| v).collect()
    }
}

/// The two always-resident frequent values of the GPGPU-Sim
/// `ValueCache` (SNIPPETS.md Snippet 1): all-zero and all-ones words.
/// [`OnlineHybrid::pin_values`] seeds them ahead of whatever the sketch
/// learns, mirroring the pinned ways of
/// [`fvl_cache::replacement::PinnedLru`].
pub const ALWAYS_RESIDENT: [Word; 2] = [0, Word::MAX];

/// Phase of an [`OnlineHybrid`].
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
enum Phase {
    /// Still watching the access stream; the FVC is disabled and the
    /// conventional cache runs alone.
    Profiling,
    /// Values latched; the DMC+FVC hybrid is live.
    Running,
}

/// A DMC+FVC hybrid that discovers its frequent values *during* the run:
/// for the first `window` accesses a plain DMC runs while a
/// [`ValueSketch`] watches the value stream; then the sketch's top-k is
/// latched into a fresh FVC and the hybrid takes over (the DMC keeps its
/// warmed state conceptually — the controller simply starts consulting
/// the FVC for lines it evicts from then on).
///
/// # Known defect
///
/// The latched [`HybridCache`] starts on a fresh, all-zero memory with
/// its load-value check off, so no store made during the profiling
/// window reaches it: its loads can return values the program never
/// held, and ext1's online column is computed from them. The hybrid
/// phase also inherits [`HybridCache`]'s touch after every DMC fill.
/// Fixing this (hand the profiling memory image to the hybrid and turn
/// the check back on) changes experiment output; see EXPERIMENTS.md,
/// "Known divergences and why".
///
/// # Example
///
/// ```
/// use fvl_cache::{CacheGeometry, Simulator};
/// use fvl_core::OnlineHybrid;
/// use fvl_mem::{Access, AccessSink};
///
/// let geom = CacheGeometry::new(4096, 32, 1)?;
/// let mut sim = OnlineHybrid::new(geom, 128, 7, 100);
/// for i in 0..200 {
///     sim.on_access(Access::store(i * 4, 0));
/// }
/// sim.on_finish();
/// assert!(sim.latched_values().is_some(), "profiling window has passed");
/// # Ok::<(), fvl_cache::GeometryError>(())
/// ```
pub struct OnlineHybrid {
    geom: CacheGeometry,
    fvc_entries: u32,
    top_k: usize,
    window: u64,
    sketch: ValueSketch,
    pinned: Vec<Word>,
    phase: Phase,
    accesses: u64,
    profiling_sim: CacheSim,
    hybrid: Option<HybridCache>,
    /// Stats accumulated during the profiling phase.
    profiling_stats: CacheStats,
    finished: bool,
}

impl OnlineHybrid {
    /// Creates an online hybrid: plain `geom` DMC while profiling the
    /// first `window` accesses, then a `fvc_entries`-entry FVC over the
    /// learned top-`top_k` values.
    ///
    /// # Panics
    ///
    /// Panics if `top_k` is 0 or greater than 127, or `window` is zero.
    pub fn new(geom: CacheGeometry, fvc_entries: u32, top_k: usize, window: u64) -> Self {
        assert!((1..=127).contains(&top_k), "top_k must be 1..=127");
        assert!(window > 0, "profiling window must be positive");
        OnlineHybrid {
            geom,
            fvc_entries,
            top_k,
            window,
            sketch: ValueSketch::new(top_k * 16),
            pinned: Vec::new(),
            phase: Phase::Profiling,
            accesses: 0,
            profiling_sim: CacheSim::new(geom),
            hybrid: None,
            profiling_stats: CacheStats::new(),
            finished: false,
        }
    }

    /// Pins `values` as always-resident (builder style): they occupy
    /// the front of the latched set regardless of what the profiling
    /// sketch learns, exactly like the GPGPU-Sim `ValueCache`'s
    /// dedicated all-zero/all-ones slots — pass [`ALWAYS_RESIDENT`] for
    /// that configuration. Duplicates are dropped; at most `top_k`
    /// values latch in total, learned values filling what the pins
    /// leave free.
    ///
    /// # Panics
    ///
    /// Panics if called after the profiling window has already latched.
    pub fn pin_values(mut self, values: &[Word]) -> Self {
        assert!(
            self.hybrid.is_none(),
            "pin_values must precede the profiling window"
        );
        for &v in values {
            if !self.pinned.contains(&v) {
                self.pinned.push(v);
            }
        }
        self
    }

    /// The values pinned via [`OnlineHybrid::pin_values`].
    pub fn pinned_values(&self) -> &[Word] {
        &self.pinned
    }

    /// The values the FVC latched, once the window has passed.
    pub fn latched_values(&self) -> Option<&[Word]> {
        self.hybrid.as_ref().map(|h| h.values().values())
    }

    /// Hybrid-phase statistics (post-latch), if the phase was reached.
    pub fn hybrid_stats(&self) -> Option<&HybridStats> {
        self.hybrid.as_ref().map(|h| h.hybrid_stats())
    }

    /// Statistics for the whole run (profiling DMC phase + hybrid phase).
    pub fn combined_stats(&self) -> CacheStats {
        let mut total = self.profiling_stats;
        if let Some(h) = &self.hybrid {
            total += *Simulator::stats(h);
        }
        total
    }

    fn latch(&mut self) {
        // Pinned values take the front slots; the sketch's ranking
        // fills the rest, skipping values already pinned.
        let mut values = self.pinned.clone();
        for v in self.sketch.top_k(self.top_k) {
            if !values.contains(&v) {
                values.push(v);
            }
        }
        values.truncate(self.top_k);
        let set =
            FrequentValueSet::new(values).expect("sketch yields nonempty deduplicated values");
        // The hybrid starts cold; the profiling DMC's warm state means
        // our combined miss count is, if anything, pessimistic for the
        // online scheme.
        let config = HybridConfig::new(self.geom, self.fvc_entries, set).verify_values(false);
        self.profiling_stats = *self.profiling_sim.stats();
        self.hybrid = Some(HybridCache::new(config));
        self.phase = Phase::Running;
    }
}

impl AccessSink for OnlineHybrid {
    fn on_access(&mut self, access: Access) {
        self.accesses += 1;
        match self.phase {
            Phase::Profiling => {
                self.sketch.observe(access.value);
                self.profiling_sim.access(access);
                if self.accesses >= self.window && self.sketch.observed() > 0 {
                    self.latch();
                }
            }
            Phase::Running => {
                self.hybrid.as_mut().expect("latched").on_access(access);
            }
        }
    }

    fn on_finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        match self.phase {
            Phase::Profiling => {
                self.profiling_sim.on_finish();
                self.profiling_stats = *self.profiling_sim.stats();
            }
            Phase::Running => self.hybrid.as_mut().expect("latched").on_finish(),
        }
    }
}

impl Simulator for OnlineHybrid {
    fn stats(&self) -> &CacheStats {
        // Return the phase-dominant stats; combined_stats() gives the
        // precise union (the trait needs a reference).
        match &self.hybrid {
            Some(h) => Simulator::stats(h),
            None => self.profiling_sim.stats(),
        }
    }

    fn traffic_words(&self) -> u64 {
        self.profiling_sim.traffic_words() + self.hybrid.as_ref().map_or(0, |h| h.traffic_words())
    }

    fn label(&self) -> String {
        format!(
            "{} + online FVC ({} entries, top-{}, {}-access window)",
            self.geom, self.fvc_entries, self.top_k, self.window
        )
    }
}

impl fmt::Debug for OnlineHybrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OnlineHybrid")
            .field("phase", &self.phase)
            .field("accesses", &self.accesses)
            .field("latched", &self.hybrid.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_finds_heavy_hitters() {
        let mut sketch = ValueSketch::new(8);
        // 0 appears 50%, 7 appears 25%, the rest is unique noise.
        for i in 0..4000u32 {
            match i % 4 {
                0 | 1 => sketch.observe(0),
                2 => sketch.observe(7),
                _ => sketch.observe(1_000_000 + i),
            }
        }
        let top = sketch.top_k(2);
        assert_eq!(top, vec![0, 7]);
        assert_eq!(sketch.observed(), 4000);
    }

    #[test]
    fn sketch_capacity_is_bounded() {
        let mut sketch = ValueSketch::new(4);
        for i in 0..10_000u32 {
            sketch.observe(i); // all distinct
        }
        assert!(sketch.top_k(100).len() <= 4);
    }

    #[test]
    fn online_hybrid_latches_after_window() {
        let geom = CacheGeometry::new(1024, 32, 1).unwrap();
        let mut sim = OnlineHybrid::new(geom, 64, 3, 50);
        assert!(sim.latched_values().is_none());
        for i in 0..50 {
            sim.on_access(Access::store(i * 4, 0));
        }
        let latched = sim.latched_values().expect("window passed");
        assert!(latched.contains(&0));
    }

    #[test]
    fn online_hybrid_serves_frequent_values_after_latch() {
        let geom = CacheGeometry::new(1024, 32, 1).unwrap();
        let mut sim = OnlineHybrid::new(geom, 64, 3, 32);
        // Profile phase: zeros dominate.
        for i in 0..32 {
            sim.on_access(Access::store(0x100 + (i % 8) * 4, 0));
        }
        // Hybrid phase: fill a line with zeros, evict it, re-read — the
        // FVC should serve it.
        for i in 0..8 {
            sim.on_access(Access::load(0x200 + i * 4, 0));
        }
        sim.on_access(Access::load(0x600, 0)); // conflicts in 1KB cache
        for i in 0..8 {
            sim.on_access(Access::load(0x200 + i * 4, 0));
        }
        let stats = sim.hybrid_stats().expect("running");
        assert!(
            stats.fvc_read_hits >= 8,
            "fvc hits: {}",
            stats.fvc_read_hits
        );
        sim.on_finish();
        let combined = sim.combined_stats();
        assert_eq!(combined.accesses(), 49);
    }

    #[test]
    fn pinned_values_latch_ahead_of_the_sketch() {
        let geom = CacheGeometry::new(1024, 32, 1).unwrap();
        let mut sim = OnlineHybrid::new(geom, 64, 3, 32).pin_values(&ALWAYS_RESIDENT);
        assert_eq!(sim.pinned_values(), &ALWAYS_RESIDENT);
        // Profile a stream that never contains 0 or u32::MAX.
        for i in 0..32 {
            sim.on_access(Access::store(0x100 + (i % 8) * 4, 7));
        }
        let latched = sim.latched_values().expect("window passed");
        assert_eq!(&latched[..2], &ALWAYS_RESIDENT, "pins take front slots");
        assert!(latched.contains(&7), "learned value fills the free slot");
        assert_eq!(latched.len(), 3, "top_k bounds pins + learned");
    }

    #[test]
    fn pinning_everything_leaves_no_learned_slots() {
        let geom = CacheGeometry::new(1024, 32, 1).unwrap();
        let mut sim = OnlineHybrid::new(geom, 64, 2, 16).pin_values(&[0, 0, u32::MAX]);
        for i in 0..16 {
            sim.on_access(Access::store(i * 4, 42));
        }
        // Duplicates dropped, truncated to top_k = 2: just the pins.
        assert_eq!(sim.latched_values().unwrap(), &ALWAYS_RESIDENT);
    }

    #[test]
    fn short_runs_never_latch_and_still_report() {
        let geom = CacheGeometry::new(1024, 32, 1).unwrap();
        let mut sim = OnlineHybrid::new(geom, 64, 7, 1_000_000);
        for i in 0..100 {
            sim.on_access(Access::store(i * 4, i));
        }
        sim.on_finish();
        assert!(sim.latched_values().is_none());
        assert_eq!(sim.combined_stats().accesses(), 100);
        assert!(sim.traffic_words() > 0);
    }
}
