//! Pluggable replacement policies for the set-associative data cache.
//!
//! The paper evaluates its FVC next to a direct-mapped cache only, where
//! replacement is trivial. To answer "does a small FVC beat doubling the
//! DMC?" across realistic geometries, [`crate::DataCache`] delegates
//! victim selection and recency bookkeeping to a [`ReplacementPolicy`],
//! with four concrete policies in the zoo:
//!
//! | Policy | [`ReplacementKind`] | Source |
//! |---|---|---|
//! | True LRU | `Lru` | A per-set doubly linked recency list (O(1) fill, touch, invalidate and victim at any associativity); the set-associative generalization of the paper's §4 direct-mapped DMC and the policy of the original `DataCache`. |
//! | Seeded random | `Random` | Control policy: a [SplitMix64](https://prng.di.unimi.it/splitmix64.c) stream drawn once per eviction, deterministic from its seed. |
//! | RRIP (SHiP-lite) | `Rrip` | Saturating re-reference interval prediction with a signature history counter table, after the 2-bit RRPV + SHCT design in SNIPPETS.md Snippet 3 (`Cache.c`, CRC-2 SHiP). |
//! | Pinned LRU | `PinnedLru` | Age-based LRU that never evicts lines whose words are all `0`/all-ones, after the GPGPU-Sim `ValueCache` in SNIPPETS.md Snippet 1, which pins value slots 0 (all zeros) and 1 (max value). |
//!
//! # Contract
//!
//! A policy is pure per-set bookkeeping: it never touches line data or
//! talks to memory. [`crate::DataCache`] drives it through five hooks —
//! [`fill`](ReplacementPolicy::fill) when
//! [`fill_with`](crate::DataCache::fill_with) installs a line,
//! [`touch`](ReplacementPolicy::touch) on every hit,
//! [`write`](ReplacementPolicy::write) after a store changes a resident
//! line's words, [`invalidate`](ReplacementPolicy::invalidate) when a
//! line is removed outside eviction
//! ([`take_with`](crate::DataCache::take_with) for a victim-cache swap,
//! [`drain_with`](crate::DataCache::drain_with) for the flush), and
//! [`victim`](ReplacementPolicy::victim) to pick a way. `victim` is
//! called **only when every way of the set is valid**: the cache always
//! fills the lowest-index invalid way first, so policies never see
//! half-empty sets and the reference oracle can mirror the same rule.
//!
//! # Determinism and seeding
//!
//! Replay must be byte-identical across `--serial`/`--jobs N`, so
//! every policy is a deterministic function of the access sequence
//! alone: no wall clock, no OS entropy, no `HashMap` iteration order.
//! The only randomized policy, [`SeededRandom`], carries its own
//! SplitMix64 state seeded explicitly (default [`DEFAULT_RANDOM_SEED`])
//! and draws exactly one `u64` per [`victim`](ReplacementPolicy::victim)
//! call, which is what the `fvl-check` oracle reproduces step for step.
//!
//! # Example
//!
//! ```
//! use fvl_cache::{CacheGeometry, DataCache, ReplacementKind};
//!
//! // A 2-way set with ways filled in order 0x000 then 0x400: LRU evicts
//! // the older line, pinned-LRU refuses to evict the all-zero one.
//! let geom = CacheGeometry::new(512, 16, 2)?;
//! for (kind, expect_victim) in [
//!     (ReplacementKind::Lru, 0x000),
//!     (ReplacementKind::PinnedLru, 0x400),
//! ] {
//!     let mut cache = DataCache::with_replacement(geom, kind);
//!     let mut evicted = None;
//!     for (line_addr, data) in [
//!         (0x000, [0, 0, 0, 0]), // all-zero: pinnable
//!         (0x400, [5, 6, 7, 8]),
//!         (0x800, [1; 4]),
//!     ] {
//!         let set = geom.set_index(line_addr);
//!         cache.fill_with(set, line_addr, false, |victim, words| {
//!             evicted = victim.map(|v| v.line_addr);
//!             words.copy_from_slice(&data);
//!         });
//!     }
//!     assert_eq!(evicted, Some(expect_victim), "{kind}");
//! }
//! # Ok::<(), fvl_cache::GeometryError>(())
//! ```

use crate::geometry::CacheGeometry;
use fvl_mem::{Addr, Word};
use std::fmt;

/// Seed used by [`ReplacementKind::Random`]'s default constructor, so
/// two simulators built without an explicit seed still replay
/// identically.
pub const DEFAULT_RANDOM_SEED: u64 = 0x5EED_CACE;

/// Per-set replacement bookkeeping driven by [`crate::DataCache`].
///
/// See the [module docs](self) for the full contract (hook order,
/// the invalid-ways-first fill rule, determinism requirements).
pub trait ReplacementPolicy {
    /// A line was installed into `way` of `set`. `line_addr` and the
    /// installed `data` are provided for policies keyed on the address
    /// (RRIP signatures) or the contents (value pinning).
    fn fill(&mut self, set: u32, way: u32, line_addr: Addr, data: &[Word]);

    /// The line in `way` of `set` was hit by a load or store.
    fn touch(&mut self, set: u32, way: u32);

    /// A store changed the resident line in `way` of `set`; `data` is
    /// the line's words **after** the write. Only content-sensitive
    /// policies (value pinning) care.
    fn write(&mut self, set: u32, way: u32, data: &[Word]);

    /// The line in `way` of `set` was removed without an eviction
    /// decision (victim-cache swap, end-of-run drain). Policies must
    /// not train predictors here.
    fn invalidate(&mut self, set: u32, way: u32);

    /// Chooses the way of `set` to evict. Called only when every way of
    /// the set holds a valid line.
    fn victim(&mut self, set: u32) -> u32;
}

/// Which replacement policy a cache uses; the configuration-level handle
/// carried by sweep grids and experiment cell labels.
///
/// ```
/// use fvl_cache::ReplacementKind;
///
/// assert_eq!(ReplacementKind::Lru.to_string(), "LRU");
/// assert_eq!(ReplacementKind::default_random().to_string(), "rand");
/// assert_eq!(ReplacementKind::ALL.len(), 4);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum ReplacementKind {
    /// True LRU (the default, matching the original `DataCache`).
    #[default]
    Lru,
    /// Uniform random victim from the given SplitMix64 seed.
    Random(
        /// RNG seed; equal seeds give equal eviction streams.
        u64,
    ),
    /// SHiP-lite RRIP (2-bit RRPVs + signature history counters).
    Rrip,
    /// Age-based LRU that never evicts all-zero / all-ones lines.
    PinnedLru,
}

impl ReplacementKind {
    /// The canonical zoo: one of each policy, random at its
    /// [`DEFAULT_RANDOM_SEED`]. Sweeps and the conformance matrix
    /// iterate this.
    pub const ALL: [ReplacementKind; 4] = [
        ReplacementKind::Lru,
        ReplacementKind::Random(DEFAULT_RANDOM_SEED),
        ReplacementKind::Rrip,
        ReplacementKind::PinnedLru,
    ];

    /// [`ReplacementKind::Random`] with the [`DEFAULT_RANDOM_SEED`].
    pub fn default_random() -> Self {
        ReplacementKind::Random(DEFAULT_RANDOM_SEED)
    }

    /// Builds the policy state for a cache of the given geometry.
    pub fn build(self, geom: &CacheGeometry) -> Replacement {
        let sets = geom.sets();
        let assoc = geom.associativity();
        match self {
            ReplacementKind::Lru => Replacement::Lru(TrueLru::new(sets, assoc)),
            ReplacementKind::Random(seed) => Replacement::Random(SeededRandom::new(assoc, seed)),
            ReplacementKind::Rrip => {
                Replacement::Rrip(Rrip::new(sets, assoc, geom.line_bytes().trailing_zeros()))
            }
            ReplacementKind::PinnedLru => Replacement::PinnedLru(PinnedLru::new(sets, assoc)),
        }
    }

    /// Parses the short names used on CLI flags: `lru`, `random`/`rand`,
    /// `rrip`, `pinned`/`pinlru` (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized input.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name.to_ascii_lowercase().as_str() {
            "lru" => Ok(ReplacementKind::Lru),
            "random" | "rand" => Ok(ReplacementKind::default_random()),
            "rrip" | "ship" => Ok(ReplacementKind::Rrip),
            "pinned" | "pinlru" | "pinned-lru" => Ok(ReplacementKind::PinnedLru),
            other => Err(format!(
                "unknown replacement policy {other:?} (expected lru, random, rrip, or pinned)"
            )),
        }
    }
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplacementKind::Lru => write!(f, "LRU"),
            ReplacementKind::Random(_) => write!(f, "rand"),
            ReplacementKind::Rrip => write!(f, "RRIP"),
            ReplacementKind::PinnedLru => write!(f, "pinLRU"),
        }
    }
}

/// Runtime-dispatched policy state, so [`crate::DataCache`] stays a
/// concrete (and `Clone`) type instead of growing a generic parameter
/// that would ripple through every controller.
#[derive(Clone, Debug)]
pub enum Replacement {
    /// See [`TrueLru`].
    Lru(TrueLru),
    /// See [`SeededRandom`].
    Random(SeededRandom),
    /// See [`Rrip`].
    Rrip(Rrip),
    /// See [`PinnedLru`].
    PinnedLru(PinnedLru),
}

impl ReplacementPolicy for Replacement {
    #[inline]
    fn fill(&mut self, set: u32, way: u32, line_addr: Addr, data: &[Word]) {
        match self {
            Replacement::Lru(p) => p.fill(set, way, line_addr, data),
            Replacement::Random(p) => p.fill(set, way, line_addr, data),
            Replacement::Rrip(p) => p.fill(set, way, line_addr, data),
            Replacement::PinnedLru(p) => p.fill(set, way, line_addr, data),
        }
    }

    // Runs on every hit; inlining it lets LRU's "already the most
    // recent way" check skip the call.
    #[inline(always)]
    fn touch(&mut self, set: u32, way: u32) {
        match self {
            Replacement::Lru(p) => p.touch(set, way),
            Replacement::Random(p) => p.touch(set, way),
            Replacement::Rrip(p) => p.touch(set, way),
            Replacement::PinnedLru(p) => p.touch(set, way),
        }
    }

    #[inline]
    fn write(&mut self, set: u32, way: u32, data: &[Word]) {
        match self {
            Replacement::Lru(p) => p.write(set, way, data),
            Replacement::Random(p) => p.write(set, way, data),
            Replacement::Rrip(p) => p.write(set, way, data),
            Replacement::PinnedLru(p) => p.write(set, way, data),
        }
    }

    #[inline]
    fn invalidate(&mut self, set: u32, way: u32) {
        match self {
            Replacement::Lru(p) => p.invalidate(set, way),
            Replacement::Random(p) => p.invalidate(set, way),
            Replacement::Rrip(p) => p.invalidate(set, way),
            Replacement::PinnedLru(p) => p.invalidate(set, way),
        }
    }

    #[inline]
    fn victim(&mut self, set: u32) -> u32 {
        match self {
            Replacement::Lru(p) => p.victim(set),
            Replacement::Random(p) => p.victim(set),
            Replacement::Rrip(p) => p.victim(set),
            Replacement::PinnedLru(p) => p.victim(set),
        }
    }
}

/// Link value marking the end of a recency list (and an unlinked way).
const NIL: u32 = u32::MAX;
/// Index of the more recent neighbour in a way's links, and of the
/// most recent way in a set's ends.
const NEWER: usize = 0;
/// Index of the less recent neighbour in a way's links, and of the
/// least recent way in a set's ends.
const OLDER: usize = 1;

/// True LRU: each set keeps its filled ways in a doubly linked recency
/// list, so fill, touch, invalidate and victim are O(1) at any
/// associativity. The victim is the list's least recent end: the way
/// filled or touched longest ago.
#[derive(Clone, Debug)]
pub struct TrueLru {
    assoc: u32,
    /// Per way: its `[NEWER, OLDER]` neighbours in its set's list, or
    /// [`NIL`].
    links: Vec<[u32; 2]>,
    /// Per set: its `[NEWER, OLDER]` ends, the most and the least
    /// recently used way, or [`NIL`] when the list is empty.
    ends: Vec<[u32; 2]>,
}

impl TrueLru {
    /// LRU state for `sets` sets of `assoc` ways, every list empty.
    pub fn new(sets: u32, assoc: u32) -> Self {
        TrueLru {
            assoc,
            links: vec![[NIL; 2]; sets as usize * assoc as usize],
            ends: vec![[NIL; 2]; sets as usize],
        }
    }

    /// The links of `set`'s ways and the set's ends.
    #[inline]
    fn set_mut(&mut self, set: u32) -> (&mut [[u32; 2]], &mut [u32; 2]) {
        let assoc = self.assoc as usize;
        let base = set as usize * assoc;
        (
            &mut self.links[base..base + assoc],
            &mut self.ends[set as usize],
        )
    }

    /// Removes `way` from its set's list; a no-op if it is not listed
    /// (the head has no newer way, every other listed way has one).
    fn unlink(&mut self, set: u32, way: u32) {
        let (links, ends) = self.set_mut(set);
        let [newer, older] = links[way as usize];
        if newer == NIL && ends[NEWER] != way {
            return;
        }
        match newer {
            NIL => ends[NEWER] = older,
            n => links[n as usize][OLDER] = older,
        }
        match older {
            NIL => ends[OLDER] = newer,
            o => links[o as usize][NEWER] = newer,
        }
        links[way as usize] = [NIL; 2];
    }

    /// Makes `way` the most recent of its set, linking it if needed.
    #[inline]
    fn promote(&mut self, set: u32, way: u32) {
        if self.ends[set as usize][NEWER] == way {
            return;
        }
        self.unlink(set, way);
        let (links, ends) = self.set_mut(set);
        let head = ends[NEWER];
        links[way as usize] = [NIL, head];
        match head {
            NIL => ends[OLDER] = way,
            h => links[h as usize][NEWER] = way,
        }
        ends[NEWER] = way;
    }
}

impl ReplacementPolicy for TrueLru {
    #[inline]
    fn fill(&mut self, set: u32, way: u32, _line_addr: Addr, _data: &[Word]) {
        self.promote(set, way);
    }

    #[inline]
    fn touch(&mut self, set: u32, way: u32) {
        self.promote(set, way);
    }

    fn write(&mut self, _set: u32, _way: u32, _data: &[Word]) {}

    fn invalidate(&mut self, set: u32, way: u32) {
        self.unlink(set, way);
    }

    fn victim(&mut self, set: u32) -> u32 {
        // `seeded-bugs` is a TEST-ONLY mutation used by the `fvl-check`
        // conformance harness: the victim is the list's most recent end
        // instead of its least recent, inverting the eviction order in
        // every set with more than one way. Inert at associativity 1.
        #[cfg(feature = "seeded-bugs")]
        let way = self.ends[set as usize][NEWER];
        #[cfg(not(feature = "seeded-bugs"))]
        let way = self.ends[set as usize][OLDER];
        debug_assert_ne!(way, NIL, "victim asked of an empty set");
        way
    }
}

/// Uniform random replacement from a private SplitMix64 stream: exactly
/// one draw per [`victim`](ReplacementPolicy::victim) call, nothing on
/// any other hook, so the eviction sequence is a deterministic function
/// of (seed, number of prior evictions anywhere in the cache).
#[derive(Clone, Debug)]
pub struct SeededRandom {
    assoc: u32,
    state: u64,
}

impl SeededRandom {
    /// Random policy over `assoc` ways from `seed`.
    pub fn new(assoc: u32, seed: u64) -> Self {
        SeededRandom { assoc, state: seed }
    }

    /// One SplitMix64 step (Weyl increment + mix finalizer).
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl ReplacementPolicy for SeededRandom {
    fn fill(&mut self, _set: u32, _way: u32, _line_addr: Addr, _data: &[Word]) {}

    fn touch(&mut self, _set: u32, _way: u32) {}

    fn write(&mut self, _set: u32, _way: u32, _data: &[Word]) {}

    fn invalidate(&mut self, _set: u32, _way: u32) {}

    fn victim(&mut self, _set: u32) -> u32 {
        (self.next_u64() % self.assoc as u64) as u32
    }
}

/// Entries in the RRIP signature history counter table (8-bit address
/// signatures, as in SNIPPETS.md Snippet 3).
const SHCT_ENTRIES: usize = 256;
/// Distant re-reference prediction: the maximum 2-bit RRPV.
const RRPV_MAX: u8 = 3;
/// Saturation ceiling of the 2-bit SHCT counters.
const SHCT_MAX: u8 = 3;

/// SHiP-lite RRIP after SNIPPETS.md Snippet 3: per-line 2-bit
/// re-reference prediction values plus a 256-entry table of 2-bit
/// signature history counters indexed by a line-address signature.
///
/// * Fill: lines arrive with RRPV 2 ("long"), or 3 ("distant") when the
///   signature's counter has decayed to zero; the line remembers its
///   signature and starts with its re-use `outcome` bit clear.
/// * Touch: RRPV resets to 0; the first hit of a residency sets the
///   outcome bit and increments the signature counter (saturating).
/// * Victim: the lowest-index way with RRPV 3; if none, every way's
///   RRPV is incremented and the scan repeats (the saturating "aging"
///   loop). Evicting a line whose outcome bit never set decrements its
///   signature counter — dead-on-arrival signatures converge to 0.
/// * Invalidate: clears per-line state **without** training the table
///   (a victim-cache swap is not an eviction decision).
#[derive(Clone, Debug)]
pub struct Rrip {
    assoc: u32,
    line_shift: u32,
    rrpv: Vec<u8>,
    sig: Vec<u8>,
    outcome: Vec<bool>,
    shct: Vec<u8>,
}

impl Rrip {
    /// RRIP state for `sets` sets of `assoc` ways; `line_shift` strips
    /// the line-offset bits when hashing a line address into its 8-bit
    /// signature.
    pub fn new(sets: u32, assoc: u32, line_shift: u32) -> Self {
        let lines = sets as usize * assoc as usize;
        Rrip {
            assoc,
            line_shift,
            rrpv: vec![RRPV_MAX; lines],
            sig: vec![0; lines],
            outcome: vec![false; lines],
            // Start the counters mid-range so the first fills insert at
            // "long" rather than "distant" until evidence accumulates.
            shct: vec![1; SHCT_ENTRIES],
        }
    }

    #[inline]
    fn idx(&self, set: u32, way: u32) -> usize {
        (set * self.assoc + way) as usize
    }

    #[inline]
    fn signature(&self, line_addr: Addr) -> u8 {
        ((line_addr >> self.line_shift) & 0xff) as u8
    }
}

impl ReplacementPolicy for Rrip {
    fn fill(&mut self, set: u32, way: u32, line_addr: Addr, _data: &[Word]) {
        let idx = self.idx(set, way);
        let sig = self.signature(line_addr);
        self.sig[idx] = sig;
        self.outcome[idx] = false;
        self.rrpv[idx] = if self.shct[sig as usize] == 0 {
            RRPV_MAX
        } else {
            RRPV_MAX - 1
        };
    }

    fn touch(&mut self, set: u32, way: u32) {
        let idx = self.idx(set, way);
        self.rrpv[idx] = 0;
        if !self.outcome[idx] {
            self.outcome[idx] = true;
            let sig = self.sig[idx] as usize;
            if self.shct[sig] < SHCT_MAX {
                self.shct[sig] += 1;
            }
        }
    }

    fn write(&mut self, _set: u32, _way: u32, _data: &[Word]) {}

    fn invalidate(&mut self, set: u32, way: u32) {
        let idx = self.idx(set, way);
        self.rrpv[idx] = RRPV_MAX;
        self.outcome[idx] = false;
    }

    fn victim(&mut self, set: u32) -> u32 {
        let start = self.idx(set, 0);
        let assoc = self.assoc as usize;
        loop {
            if let Some(way) = self.rrpv[start..start + assoc]
                .iter()
                .position(|&r| r == RRPV_MAX)
            {
                let idx = start + way;
                if !self.outcome[idx] {
                    let sig = self.sig[idx] as usize;
                    self.shct[sig] = self.shct[sig].saturating_sub(1);
                }
                return way as u32;
            }
            for r in &mut self.rrpv[start..start + assoc] {
                *r += 1;
            }
        }
    }
}

/// Age-based LRU with value pinning, after the GPGPU-Sim `ValueCache`
/// in SNIPPETS.md Snippet 1: every way carries a saturating 8-bit age
/// (hit way drops to 0, the rest of the set ages by 1), and lines whose
/// words are **all zero or all ones** are pinned — never chosen as the
/// victim while any unpinned way exists. The snippet pins value slots
/// `0` (all zeros) and `maxValue`; here the pin re-derives from line
/// contents on every fill and store, so a line pins and unpins as its
/// data changes.
#[derive(Clone, Debug)]
pub struct PinnedLru {
    assoc: u32,
    ages: Vec<u8>,
    pinned: Vec<bool>,
}

impl PinnedLru {
    /// Pinned-LRU state for `sets` sets of `assoc` ways.
    pub fn new(sets: u32, assoc: u32) -> Self {
        let lines = sets as usize * assoc as usize;
        PinnedLru {
            assoc,
            ages: vec![0; lines],
            pinned: vec![false; lines],
        }
    }

    #[inline]
    fn idx(&self, set: u32, way: u32) -> usize {
        (set * self.assoc + way) as usize
    }

    /// Resets the promoted way's age and ages the rest of its set.
    fn promote(&mut self, set: u32, way: u32) {
        let start = self.idx(set, 0);
        for (w, age) in self.ages[start..start + self.assoc as usize]
            .iter_mut()
            .enumerate()
        {
            *age = if w as u32 == way {
                0
            } else {
                age.saturating_add(1)
            };
        }
    }

    /// A line is pinned while every word is `0` or all-ones (the two
    /// always-resident frequent values).
    fn is_pinned(data: &[Word]) -> bool {
        data.iter().all(|&w| w == 0 || w == Word::MAX)
    }
}

impl ReplacementPolicy for PinnedLru {
    fn fill(&mut self, set: u32, way: u32, _line_addr: Addr, data: &[Word]) {
        let idx = self.idx(set, way);
        self.pinned[idx] = Self::is_pinned(data);
        self.promote(set, way);
    }

    fn touch(&mut self, set: u32, way: u32) {
        self.promote(set, way);
    }

    fn write(&mut self, set: u32, way: u32, data: &[Word]) {
        let idx = self.idx(set, way);
        self.pinned[idx] = Self::is_pinned(data);
    }

    fn invalidate(&mut self, set: u32, way: u32) {
        let idx = self.idx(set, way);
        self.ages[idx] = 0;
        self.pinned[idx] = false;
    }

    fn victim(&mut self, set: u32) -> u32 {
        let start = self.idx(set, 0);
        let assoc = self.assoc as usize;
        let oldest = |candidates: &mut dyn Iterator<Item = usize>| -> Option<u32> {
            let mut best: Option<(usize, u8)> = None;
            for way in candidates {
                let age = self.ages[start + way];
                // Strict > keeps the lowest way index on age ties.
                if best.map(|(_, b)| age > b).unwrap_or(true) {
                    best = Some((way, age));
                }
            }
            best.map(|(way, _)| way as u32)
        };
        oldest(&mut (0..assoc).filter(|&w| !self.pinned[start + w]))
            // Every way pinned: fall back to plain oldest-age.
            .or_else(|| oldest(&mut (0..assoc)))
            .expect("associativity is at least 1")
    }
}

#[cfg(all(test, not(feature = "seeded-bugs")))]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trips() {
        assert_eq!(ReplacementKind::parse("LRU").unwrap(), ReplacementKind::Lru);
        assert_eq!(
            ReplacementKind::parse("random").unwrap(),
            ReplacementKind::default_random()
        );
        assert_eq!(
            ReplacementKind::parse("rrip").unwrap(),
            ReplacementKind::Rrip
        );
        assert_eq!(
            ReplacementKind::parse("pinned").unwrap(),
            ReplacementKind::PinnedLru
        );
        assert!(ReplacementKind::parse("fifo").is_err());
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut lru = TrueLru::new(1, 4);
        for way in 0..4 {
            lru.fill(0, way, way * 16, &[0]);
        }
        lru.touch(0, 0); // order now 1, 2, 3, 0
        assert_eq!(lru.victim(0), 1);
        lru.touch(0, 1);
        assert_eq!(lru.victim(0), 2);
    }

    #[test]
    fn lru_list_survives_invalidation_and_refill_in_place() {
        let mut lru = TrueLru::new(2, 4);
        for way in 0..4 {
            lru.fill(1, way, 0, &[0]);
        }
        // Recency, least recent first: 0 1 2 3. Unlink the tail, a
        // middle way and the head, then an already-unlinked way.
        lru.invalidate(1, 0);
        assert_eq!(lru.victim(1), 1);
        lru.invalidate(1, 2);
        lru.invalidate(1, 3);
        lru.invalidate(1, 3);
        assert_eq!(lru.victim(1), 1);
        for way in [0, 2, 3] {
            lru.fill(1, way, 0, &[0]);
        }
        lru.touch(1, 1); // 0 2 3 1
        assert_eq!(lru.victim(1), 0);
        // The victim refilled in place becomes the most recent.
        lru.fill(1, 0, 0, &[0]); // 2 3 1 0
        assert_eq!(lru.victim(1), 2);
        // The other set's list is independent.
        lru.fill(0, 3, 0, &[0]);
        lru.fill(0, 1, 0, &[0]);
        assert_eq!(lru.victim(0), 3);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = SeededRandom::new(8, 42);
        let mut b = SeededRandom::new(8, 42);
        let mut c = SeededRandom::new(8, 43);
        let va: Vec<u32> = (0..32).map(|_| a.victim(0)).collect();
        let vb: Vec<u32> = (0..32).map(|_| b.victim(0)).collect();
        let vc: Vec<u32> = (0..32).map(|_| c.victim(0)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
        assert!(va.iter().all(|&w| w < 8));
    }

    #[test]
    fn rrip_prefers_distant_lines_and_trains_signatures() {
        let mut rrip = Rrip::new(1, 2, 4);
        rrip.fill(0, 0, 0x000, &[0]);
        rrip.fill(0, 1, 0x010, &[0]);
        // Both inserted at RRPV 2; touching way 0 drops it to 0, so the
        // aging loop reaches way 1 first.
        rrip.touch(0, 0);
        assert_eq!(rrip.victim(0), 1);
        // Way 1 never re-referenced: its signature (0x010 >> 4 = 1)
        // decayed to 0, so the next fill of that signature inserts
        // distant (immediately evictable).
        rrip.fill(0, 1, 0x010, &[0]);
        assert_eq!(rrip.rrpv[1], RRPV_MAX);
    }

    #[test]
    fn pinned_lines_survive_eviction() {
        let mut p = PinnedLru::new(1, 2);
        p.fill(0, 0, 0x00, &[0, 0]); // pinned (all zero)
        p.fill(0, 1, 0x10, &[1, 2]);
        // Way 0 is older, but pinned: way 1 is the only candidate.
        assert_eq!(p.victim(0), 1);
        // A store of ordinary data unpins way 0.
        p.write(0, 0, &[1, 0]);
        assert_eq!(p.victim(0), 0);
        // All-ones lines pin too (the snippet's maxValue slot).
        p.write(0, 0, &[Word::MAX, Word::MAX]);
        assert_eq!(p.victim(0), 1);
    }

    #[test]
    fn pinned_set_falls_back_to_oldest() {
        let mut p = PinnedLru::new(1, 2);
        p.fill(0, 0, 0x00, &[0]);
        p.fill(0, 1, 0x10, &[Word::MAX]);
        // Both pinned: oldest (way 0, aged by way 1's fill) is evicted.
        assert_eq!(p.victim(0), 0);
    }
}
