//! Streaming reuse-distance profiling: the full miss-rate-vs-cache-size
//! curve in one trace walk.
//!
//! A fully associative LRU cache of capacity `C` lines hits an access
//! exactly when the access's *stack depth* (distinct lines touched
//! since the last touch of its line) is below `C`. LRU has the
//! inclusion property (Mattson et al., "Evaluation techniques for
//! storage hierarchies", 1970): a cache of capacity `C` holds exactly
//! the top `C` lines of one recency stack, so a single stack answers
//! every capacity at once. [`ReuseProfiler`] keeps that one exact
//! stack, cut off at the largest capacity it reports (2^(L-1) lines
//! for `L` levels), and files every hit under the log2 bucket of its
//! depth. A cache of 2^l lines hits exactly the accesses in buckets
//! `0..=l`, so one streaming pass yields the whole miss-rate-vs-size
//! curve — the fundamental object of the cache-utilization literature,
//! and the curve the `ext6` experiment cross-checks against `CacheSim`
//! at every level.
//!
//! Finding a line's depth takes no scan. Bucket 0 is depth 0 and
//! bucket `b` covers depths 2^(b-1) .. 2^b - 1; every resident line
//! carries its bucket, and the profiler points at the deepest line of
//! each bucket. Moving a line from bucket `B` to the front pushes every
//! shallower line one step deeper, which changes the bucket of exactly
//! one line per bucket below `B` — its deepest — so an access costs one
//! [`LineTable`] lookup (no hashing) plus O(B) index updates. A miss
//! on a full stack evicts the deepest line of the top bucket.
//!
//! State grows with the distinct lines seen, up to the top capacity,
//! and no node is reserved up front, so the profiler streams over
//! corpora of any size (it is an [`AccessSink`], so the out-of-core
//! chunked replay feeds it directly). Its memory is bounded by the
//! stack, not by the trace's footprint: at most 2^(L-1) resident
//! lines of 16 bytes each, and the [`LineTable`] leaves of the pages
//! holding them, at most one leaf of `4 × max(1, 4096 / line_bytes)`
//! bytes per resident line (512 B at 32-byte lines), recycled when a
//! page's last resident line is evicted. The table's own page-table
//! levels add at most 4 MiB over the whole address space.

use fvl_mem::{Access, AccessSink, Addr, LineTable, WORD_BYTES};
use std::fmt;

/// Levels in the default profiler: capacities 2^0 .. 2^10 lines, i.e.
/// 32 B .. 32 KiB of data at the default 32-byte line.
pub const TOWER_LEVELS: usize = 11;

/// Default line size (bytes) — the paper's DMC line size.
pub const DEFAULT_LINE_BYTES: u32 = 32;

/// Slot index meaning "none" in the recency list and the bucket bounds.
const NIL: u32 = u32::MAX;

/// One resident line: a node of the intrusive doubly-linked recency
/// list (most recent first) plus the line's log2 depth bucket.
#[derive(Copy, Clone)]
struct Node {
    /// The line's address.
    line: Addr,
    prev: u32,
    next: u32,
    bucket: u32,
}

/// One point of a [`MissCurve`]: the exact fully-associative-LRU hit
/// and miss counts at one cache size.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CurvePoint {
    /// Cache capacity in lines (a power of two).
    pub capacity_lines: u64,
    /// Cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Accesses whose reuse distance was below the capacity.
    pub hits: u64,
    /// Accesses that would miss (including cold misses).
    pub misses: u64,
    /// `misses / (hits + misses)`, 0 for an empty trace.
    pub miss_rate: f64,
}

/// The miss-rate-vs-cache-size curve extracted from one
/// [`ReuseProfiler`] pass, smallest capacity first.
#[derive(Clone, Debug, PartialEq)]
pub struct MissCurve {
    /// Line size the curve was measured at.
    pub line_bytes: u32,
    /// Total accesses profiled.
    pub accesses: u64,
    /// One point per level, capacity ascending.
    pub points: Vec<CurvePoint>,
}

/// Streaming reuse-distance profiler: one exact LRU recency stack of at
/// most 2^(levels-1) lines, with a hit histogram over log2 depth
/// buckets (see the module docs).
///
/// # Example
///
/// ```
/// use fvl_mem::{Access, AccessSink};
/// use fvl_profile::ReuseProfiler;
///
/// let mut profiler = ReuseProfiler::new();
/// // Round-robin over 2 lines: everything hits once capacity >= 2.
/// for i in 0..100u32 {
///     profiler.on_access(Access::load((i % 2) * 32, 0));
/// }
/// let curve = profiler.curve();
/// assert_eq!(curve.points[0].hits, 0); // capacity 1: always thrashing
/// assert_eq!(curve.points[1].misses, 2); // capacity 2: cold misses only
/// ```
pub struct ReuseProfiler {
    line_mask: Addr,
    accesses: u64,
    /// Hits whose stack depth fell in each log2 bucket.
    bucket_hits: Vec<u64>,
    /// Slot of the deepest resident line of each bucket (`NIL` while
    /// the bucket is empty).
    deepest: Vec<u32>,
    /// Resident lines by slot; grows until the stack is full, after
    /// which an evicted line's slot is reused.
    nodes: Vec<Node>,
    /// Line → slot of every resident line.
    slots: LineTable,
    /// Slot of the most recently used line (`NIL` while empty).
    head: u32,
}

impl ReuseProfiler {
    /// The default profiler: [`TOWER_LEVELS`] levels of
    /// [`DEFAULT_LINE_BYTES`]-byte lines (32 B .. 32 KiB).
    pub fn new() -> ReuseProfiler {
        ReuseProfiler::with_shape(DEFAULT_LINE_BYTES, TOWER_LEVELS)
    }

    /// A profiler reporting `levels` capacities (2^0 .. 2^(levels-1)
    /// lines) with `line_bytes`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two of at least one
    /// word and `levels` is in `1..=24`.
    pub fn with_shape(line_bytes: u32, levels: usize) -> ReuseProfiler {
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= WORD_BYTES,
            "line size must be a power-of-two number of bytes, got {line_bytes}"
        );
        assert!((1..=24).contains(&levels), "tower levels out of range");
        ReuseProfiler {
            line_mask: !(line_bytes - 1),
            accesses: 0,
            bucket_hits: vec![0; levels],
            deepest: vec![NIL; levels],
            nodes: Vec::new(),
            slots: LineTable::new(line_bytes),
            head: NIL,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.slots.line_bytes()
    }

    /// Number of levels (capacities) reported.
    pub fn levels(&self) -> usize {
        self.bucket_hits.len()
    }

    /// Capacity of level `level` in lines (`2^level`).
    pub fn capacity_lines(&self, level: usize) -> u64 {
        1u64 << level
    }

    /// Capacity of level `level` in bytes.
    pub fn capacity_bytes(&self, level: usize) -> u64 {
        self.capacity_lines(level) * u64::from(self.line_bytes())
    }

    /// Total accesses profiled so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Hits a fully associative LRU cache of level `level`'s capacity
    /// would have scored.
    pub fn hits(&self, level: usize) -> u64 {
        self.bucket_hits[..=level].iter().sum()
    }

    /// Misses at level `level` (including cold misses).
    pub fn misses(&self, level: usize) -> u64 {
        self.accesses - self.hits(level)
    }

    /// Miss rate at level `level`; 0 before any access.
    pub fn miss_rate(&self, level: usize) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses(level) as f64 / self.accesses as f64
        }
    }

    /// Extracts the full miss-rate-vs-cache-size curve.
    pub fn curve(&self) -> MissCurve {
        MissCurve {
            line_bytes: self.line_bytes(),
            accesses: self.accesses,
            points: (0..self.levels())
                .map(|l| CurvePoint {
                    capacity_lines: self.capacity_lines(l),
                    capacity_bytes: self.capacity_bytes(l),
                    hits: self.hits(l),
                    misses: self.misses(l),
                    miss_rate: self.miss_rate(l),
                })
                .collect(),
        }
    }

    /// Unlinks `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        }
    }

    /// Moves the deepest line of each bucket in `0..buckets` one bucket
    /// down: the effect of putting a line in front of all of them.
    fn spill(&mut self, buckets: usize) {
        for bucket in 0..buckets {
            let node = &mut self.nodes[self.deepest[bucket] as usize];
            node.bucket = bucket as u32 + 1;
            self.deepest[bucket] = node.prev;
        }
    }

    /// Links unlinked `slot` in at depth 0.
    fn push_front(&mut self, slot: u32) {
        let head = self.head;
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = head;
        node.bucket = 0;
        if head != NIL {
            self.nodes[head as usize].prev = slot;
        }
        self.head = slot;
        self.deepest[0] = slot;
    }

    /// Moves resident `slot`, whose line sits in `bucket`, to depth 0.
    fn move_to_front(&mut self, slot: u32, bucket: usize) {
        if self.deepest[bucket] == slot {
            self.deepest[bucket] = self.nodes[slot as usize].prev;
        }
        self.unlink(slot);
        self.spill(bucket);
        self.push_front(slot);
    }

    /// Puts non-resident `line` at depth 0, evicting the deepest line
    /// when the stack is full.
    fn insert(&mut self, line: Addr) {
        let top = self.levels() - 1;
        let resident = self.nodes.len();
        if resident < 1 << top {
            // Every line steps one deeper; each full bucket (all of
            // `0..full`) spills its deepest line, and when the stack
            // is a power of two deep that line opens bucket `full`.
            let full = (usize::BITS - resident.leading_zeros()) as usize;
            if resident.is_power_of_two() {
                self.deepest[full] = self.deepest[full - 1];
            }
            self.spill(full);
            let slot = resident as u32;
            self.nodes.push(Node {
                line,
                prev: NIL,
                next: NIL,
                bucket: 0,
            });
            self.slots.insert(line, slot);
            self.push_front(slot);
        } else {
            // Full: the deepest line leaves, and its slot comes back to
            // the front holding `line`.
            let victim = self.deepest[top];
            let node = &mut self.nodes[victim as usize];
            let evicted = std::mem::replace(&mut node.line, line);
            self.slots.remove(evicted);
            self.slots.insert(line, victim);
            self.move_to_front(victim, top);
        }
    }
}

impl Default for ReuseProfiler {
    fn default() -> Self {
        ReuseProfiler::new()
    }
}

impl AccessSink for ReuseProfiler {
    #[inline]
    fn on_access(&mut self, access: Access) {
        let line = access.addr & self.line_mask;
        self.accesses += 1;
        // A repeat of the most recent line is a depth-0 hit that moves
        // nothing: skip the lookup.
        if self.head != NIL && self.nodes[self.head as usize].line == line {
            self.bucket_hits[0] += 1;
            return;
        }
        match self.slots.get(line) {
            Some(slot) => {
                let bucket = self.nodes[slot as usize].bucket as usize;
                self.bucket_hits[bucket] += 1;
                self.move_to_front(slot, bucket);
            }
            None => self.insert(line),
        }
    }
}

impl fmt::Debug for ReuseProfiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReuseProfiler")
            .field("line_bytes", &self.line_bytes())
            .field("levels", &self.levels())
            .field("accesses", &self.accesses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Exact per-level hit counts from a naive `Vec` LRU stack: each
    /// access's depth is its position in the stack, and the stack is
    /// cut off at the top capacity, past which every level misses.
    fn oracle_hits(lines: &[u32], levels: usize) -> Vec<u64> {
        let top_capacity = 1usize << (levels - 1);
        let mut stack: Vec<u32> = Vec::new();
        let mut hits = vec![0u64; levels];
        for &line in lines {
            if let Some(depth) = stack.iter().position(|&l| l == line) {
                for (level, h) in hits.iter_mut().enumerate() {
                    if depth < 1 << level {
                        *h += 1;
                    }
                }
                stack.remove(depth);
            }
            stack.insert(0, line);
            stack.truncate(top_capacity);
        }
        hits
    }

    /// A mixed-locality line stream over a footprint of `footprint`
    /// distinct lines: sequential sweeps, a hot set, wide random
    /// jumps, and a stride.
    fn mixed_stream(footprint: u32, len: u32) -> Vec<u32> {
        let mut x = 7u32;
        (0..len)
            .map(|i| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                match i % 4 {
                    0 => i % footprint,                 // sweep
                    1 => (x >> 8) % 8,                  // hot set
                    2 => (x >> 8) % footprint,          // wide set
                    _ => (i / 2 * 7) % (footprint / 3), // stride
                }
            })
            .collect()
    }

    fn profile(line_bytes: u32, levels: usize, lines: &[u32]) -> ReuseProfiler {
        let mut p = ReuseProfiler::with_shape(line_bytes, levels);
        for (i, &line) in lines.iter().enumerate() {
            // Any word of the line: the profiler must fold it away.
            let word = i as u32 % (line_bytes / WORD_BYTES);
            p.on_access(Access::load(line * line_bytes + word * WORD_BYTES, 0));
        }
        p
    }

    #[test]
    fn matches_the_stack_distance_oracle() {
        // (levels, footprint in lines, accesses). Every row but the
        // last touches more distinct lines than the top capacity
        // 2^(levels-1), so the stack fills and the top bucket evicts.
        // At 24 levels that would take 2^23 + 1 distinct lines
        // (hundreds of MiB of stack and map); that row instead drives
        // hits into buckets 11-13, deeper than the default shape
        // reaches, with every bucket above them left empty.
        let shapes: [(usize, u32, u32); 6] = [
            (1, 24, 2_000),
            (2, 24, 2_000),
            (3, 24, 3_000),
            (6, 160, 6_000),
            (11, 3_000, 40_000),
            (24, 6_000, 24_000),
        ];
        for (levels, footprint, len) in shapes {
            let lines = mixed_stream(footprint, len);
            let want = oracle_hits(&lines, levels);
            let distinct = lines.iter().collect::<HashSet<_>>().len();
            let top_capacity = 1usize << (levels - 1);
            for line_bytes in [4, 32] {
                let p = profile(line_bytes, levels, &lines);
                let got: Vec<u64> = (0..levels).map(|l| p.hits(l)).collect();
                assert_eq!(got, want, "{levels} levels, {line_bytes} B lines");
                assert_eq!(p.accesses(), u64::from(len));
                assert_eq!(p.nodes.len(), distinct.min(top_capacity));
            }
            if levels < 24 {
                assert!(
                    distinct > top_capacity,
                    "{levels} levels: top bucket evicts"
                );
            } else {
                assert!(
                    (11..=13).all(|b| want[b] > want[b - 1]),
                    "buckets 11-13 hit"
                );
            }
        }
    }

    #[test]
    fn hits_grow_monotonically_with_capacity() {
        let lines: Vec<u32> = (0..500u32).map(|i| (i * i) % 61).collect();
        let p = profile(32, 6, &lines);
        for level in 1..p.levels() {
            assert!(p.hits(level) >= p.hits(level - 1), "level {level}");
        }
        let curve = p.curve();
        assert_eq!(curve.accesses, 500);
        assert_eq!(curve.points.len(), p.levels());
        assert_eq!(curve.points[0].capacity_bytes, 32);
        for w in curve.points.windows(2) {
            assert!(w[1].miss_rate <= w[0].miss_rate);
            assert_eq!(w[1].capacity_lines, w[0].capacity_lines * 2);
        }
    }

    #[test]
    fn line_granularity_folds_words_onto_one_line() {
        let mut p = ReuseProfiler::new();
        // 8 consecutive words = one 32-byte line: only one cold miss.
        for w in 0..8u32 {
            p.on_access(Access::store(w * 4, w));
        }
        assert_eq!(p.misses(0), 1);
        assert_eq!(p.hits(0), 7);
    }

    #[test]
    fn empty_profile_has_zero_rates() {
        let p = ReuseProfiler::new();
        assert_eq!(p.accesses(), 0);
        assert_eq!(p.miss_rate(0), 0.0);
        assert_eq!(p.curve().points[TOWER_LEVELS - 1].misses, 0);
    }

    #[test]
    fn state_grows_with_the_lines_seen() {
        // The largest shape reserves no node or leaf before the first
        // access.
        let mut p = ReuseProfiler::with_shape(32, 24);
        assert_eq!(p.nodes.capacity(), 0);
        assert_eq!(p.slots.allocated_leaves(), 0);
        for line in 0..100u32 {
            p.on_access(Access::load(line * 32, 0));
        }
        assert_eq!(p.nodes.len(), 100);
        assert_eq!(p.slots.len(), 100);
        // 100 consecutive 32-byte lines share one page's leaf.
        assert_eq!(p.slots.allocated_leaves(), 1);
    }

    #[test]
    fn memory_is_bounded_by_the_stack_not_the_footprint() {
        // 4 levels: at most 8 resident lines. A sweep over 4,096 pages,
        // one line each, keeps at most 8 leaves live, and an evicted
        // line's leaf is recycled for the line that displaced it.
        let mut p = ReuseProfiler::with_shape(32, 4);
        for page in 0..4096u32 {
            p.on_access(Access::load(page << 12, 0));
            assert!(p.slots.live_leaves() <= 8);
        }
        assert_eq!(p.nodes.len(), 8);
        assert_eq!(p.slots.len(), 8);
        assert_eq!(p.slots.allocated_leaves(), 8);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_unaligned_line_size() {
        let _ = ReuseProfiler::with_shape(48, 4);
    }
}
