//! A deliberately naive reference reuse-distance profiler.
//!
//! The optimized [`fvl_profile::ReuseProfiler`] keeps one LRU stack as
//! an intrusive list with log2 depth buckets, a line → slot hash map and
//! a pointer to the deepest line of each bucket, so it never learns an
//! access's exact depth. This oracle is the textbook formulation: a
//! `Vec` of lines, most recent first, where `Iterator::position` *is*
//! the access's stack depth, and one hit counter per capacity that the
//! access bumps when its depth is below that capacity.

use fvl_mem::{Access, AccessSink};

/// Vec-stack mirror of [`fvl_profile::ReuseProfiler`]: level `l`
/// counts the hits of a fully associative LRU cache of 2^l lines.
///
/// # Example
///
/// ```
/// use fvl_check::OracleReuse;
/// use fvl_mem::{Access, AccessSink};
///
/// let mut oracle = OracleReuse::new(32, 3);
/// // Lines 0, 1, 2, 0: the second touch of line 0 has depth 2.
/// for line in [0u32, 1, 2, 0] {
///     oracle.on_access(Access::load(line * 32, 0));
/// }
/// assert_eq!(oracle.hits(1), 0); // 2 lines: evicted
/// assert_eq!(oracle.hits(2), 1); // 4 lines: still resident
/// assert_eq!(oracle.misses(2), 3);
/// ```
#[derive(Clone, Debug)]
pub struct OracleReuse {
    line_bytes: u32,
    /// Resident lines, most recently used first.
    stack: Vec<u32>,
    /// Hits per level (capacity 2^level lines).
    hits: Vec<u64>,
    accesses: u64,
}

impl OracleReuse {
    /// An oracle for `levels` capacities (2^0 .. 2^(levels-1) lines) of
    /// `line_bytes`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` or `levels` is zero.
    pub fn new(line_bytes: u32, levels: usize) -> Self {
        assert!(line_bytes > 0 && levels > 0, "empty oracle shape");
        OracleReuse {
            line_bytes,
            stack: Vec::new(),
            hits: vec![0; levels],
            accesses: 0,
        }
    }

    /// Hits a fully associative LRU cache of 2^`level` lines scores.
    pub fn hits(&self, level: usize) -> u64 {
        self.hits[level]
    }

    /// Misses (cold ones included) at 2^`level` lines.
    pub fn misses(&self, level: usize) -> u64 {
        self.accesses - self.hits[level]
    }
}

impl AccessSink for OracleReuse {
    fn on_access(&mut self, access: Access) {
        let line = access.addr / self.line_bytes;
        self.accesses += 1;
        if let Some(depth) = self.stack.iter().position(|&l| l == line) {
            for (level, hits) in self.hits.iter_mut().enumerate() {
                if depth < 1 << level {
                    *hits += 1;
                }
            }
            self.stack.remove(depth);
        }
        self.stack.insert(0, line);
        // A line deeper than the largest capacity misses at every
        // level, so the stack never needs to hold it.
        self.stack.truncate(1 << (self.hits.len() - 1));
    }
}
