//! A deliberately naive reference for frequent-value compression in
//! the data cache (the paper's reference \[11\], ext2).
//!
//! This is the oracle `fvl_core::CompressedCache` is diffed against. A
//! direct-mapped frame holds either one uncompressed line or two lines
//! compressed to half a frame each, in the most obvious form:
//!
//! * a frame is two `Option` subslots, each holding a line's decoded
//!   words, dirty flag, compressed flag and last-use stamp;
//! * a line is compressible when one presence bit plus one code per
//!   word, plus every infrequent word verbatim, fits in half a frame.
//!   The infrequent words are counted afresh after every install and
//!   every store, by scanning the line against a `Vec` of the frequent
//!   values;
//! * a compressed newcomer takes a free subslot, else evicts the less
//!   recently used partner; an uncompressed newcomer, or any newcomer
//!   to a frame holding an uncompressed line, evicts the whole frame. A
//!   store that makes a compressed line incompressible expands it,
//!   evicting its partner;
//! * memory is a `BTreeMap` from word address to value (absent words
//!   are zero), with traffic counted word by word.
//!
//! It shares no code with `fvl-core` or `fvl-cache`.

use crate::oracle_cache::OracleStats;
use fvl_mem::{Access, AccessKind, AccessSink, Addr, Word};
use std::collections::BTreeMap;

/// Accesses between the occupancy samples of the compressed fraction.
const SAMPLE_EVERY: u64 = 4096;

/// A resident line.
#[derive(Clone, Debug)]
struct Line {
    line_addr: Addr,
    dirty: bool,
    compressed: bool,
    data: Vec<Word>,
    /// The access count at its last install or hit.
    stamp: u64,
}

/// The reference compressed cache.
///
/// # Example
///
/// ```
/// use fvl_check::OracleCompressed;
/// use fvl_mem::{Access, AccessSink};
///
/// // 1 KB of 32-byte frames, top-3 values 0, 1 and 2.
/// let mut oracle = OracleCompressed::new(1024, 32, &[0, 1, 2]);
/// oracle.on_access(Access::load(0x000, 0));
/// oracle.on_access(Access::load(0x400, 0)); // same frame: both compressed
/// oracle.on_access(Access::load(0x000, 0));
/// oracle.on_finish();
/// assert_eq!(oracle.stats().misses(), 2);
/// assert_eq!(oracle.stats().hits(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct OracleCompressed {
    line_bytes: u32,
    values: Vec<Word>,
    /// Code bits per word: the smallest `w` with `2^w - 1 ≥ values`.
    width: u32,
    /// Two subslots per frame.
    frames: Vec<[Option<Line>; 2]>,
    /// Word address -> value; absent words are zero.
    memory: BTreeMap<Addr, Word>,
    words_out: u64,
    words_in: u64,
    stats: OracleStats,
    expansions: u64,
    compressed_samples: u64,
    resident_samples: u64,
    accesses: u64,
    finished: bool,
}

impl OracleCompressed {
    /// Creates an empty cache of `bytes / line_bytes` direct-mapped
    /// frames compressing against `values`.
    ///
    /// # Panics
    ///
    /// Panics if the frames do not divide into whole lines of whole
    /// words, or if `values` is empty.
    pub fn new(bytes: u64, line_bytes: u32, values: &[Word]) -> Self {
        assert!(
            line_bytes >= 4 && line_bytes.is_multiple_of(4),
            "bad line size"
        );
        assert!(
            bytes >= u64::from(line_bytes) && bytes.is_multiple_of(u64::from(line_bytes)),
            "indivisible frame organization"
        );
        assert!(!values.is_empty(), "no frequent values");
        let mut width = 1;
        while (1u64 << width) - 1 < values.len() as u64 {
            width += 1;
        }
        OracleCompressed {
            line_bytes,
            values: values.to_vec(),
            width,
            frames: vec![[None, None]; (bytes / u64::from(line_bytes)) as usize],
            memory: BTreeMap::new(),
            words_out: 0,
            words_in: 0,
            stats: OracleStats::default(),
            expansions: 0,
            compressed_samples: 0,
            resident_samples: 0,
            accesses: 0,
            finished: false,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &OracleStats {
        &self.stats
    }

    /// Compressed lines that a store made incompressible.
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Compressed lines over resident lines, summed over the samples
    /// taken every 4096 accesses (0 before the first sample).
    pub fn avg_compressed_fraction(&self) -> f64 {
        if self.resident_samples == 0 {
            0.0
        } else {
            self.compressed_samples as f64 / self.resident_samples as f64
        }
    }

    /// Words moved between the cache and memory, in both directions.
    pub fn traffic_words(&self) -> u64 {
        self.words_out + self.words_in
    }

    /// The memory word at `addr` (zero if never written).
    pub fn peek(&self, addr: Addr) -> Word {
        *self.memory.get(&addr).unwrap_or(&0)
    }

    /// Whether `data` fits in half a frame: a presence bit and a code
    /// per word, plus 32 bits per word that is not a frequent value.
    fn compressible(&self, data: &[Word]) -> bool {
        let words = data.len() as u32;
        let infrequent = data.iter().filter(|w| !self.values.contains(w)).count() as u32;
        words * (1 + self.width) + infrequent * 32 <= words * 32 / 2
    }

    fn write_back(&mut self, line: Option<Line>) {
        let Some(line) = line.filter(|l| l.dirty) else {
            return;
        };
        self.stats.writebacks += 1;
        for (w, &value) in line.data.iter().enumerate() {
            self.memory.insert(line.line_addr + 4 * w as u32, value);
            self.words_in += 1;
        }
    }

    /// Places a fetched (and possibly just stored-to) line in `frame`.
    fn install(&mut self, frame: usize, line: Line) {
        let holds_uncompressed = self.frames[frame].iter().flatten().any(|l| !l.compressed);
        let target = if !line.compressed || holds_uncompressed {
            let old = std::mem::take(&mut self.frames[frame]);
            for resident in old {
                self.write_back(resident);
            }
            0
        } else {
            match &self.frames[frame] {
                [None, _] => 0,
                [_, None] => 1,
                [Some(a), Some(b)] => usize::from(a.stamp > b.stamp),
            }
        };
        let old = self.frames[frame][target].replace(line);
        self.write_back(old);
    }
}

impl AccessSink for OracleCompressed {
    fn on_access(&mut self, access: Access) {
        self.accesses += 1;
        let line_addr = access.addr - access.addr % self.line_bytes;
        let word = ((access.addr % self.line_bytes) / 4) as usize;
        let frame = ((line_addr / self.line_bytes) as usize) % self.frames.len();
        let found = (0..2).find(|&s| {
            self.frames[frame][s]
                .as_ref()
                .is_some_and(|l| l.line_addr == line_addr)
        });
        if let Some(s) = found {
            let mut line = self.frames[frame][s].take().expect("found");
            line.stamp = self.accesses;
            match access.kind {
                AccessKind::Load => {
                    self.stats.read_hits += 1;
                    assert_eq!(
                        line.data[word], access.value,
                        "oracle compressed cache read {:#x}, trace expects {:#x} at {:#x}",
                        line.data[word], access.value, access.addr
                    );
                }
                AccessKind::Store => {
                    self.stats.write_hits += 1;
                    line.data[word] = access.value;
                    line.dirty = true;
                }
            }
            if line.compressed && !self.compressible(&line.data) {
                // Expand: the line needs the whole frame.
                line.compressed = false;
                self.expansions += 1;
                let partner = self.frames[frame][1 - s].take();
                self.write_back(partner);
                self.frames[frame][0] = Some(line);
            } else {
                self.frames[frame][s] = Some(line);
            }
        } else {
            match access.kind {
                AccessKind::Load => self.stats.read_misses += 1,
                AccessKind::Store => self.stats.write_misses += 1,
            }
            self.stats.fetches += 1;
            let mut data: Vec<Word> = (0..self.line_bytes / 4)
                .map(|w| self.peek(line_addr + 4 * w))
                .collect();
            self.words_out += data.len() as u64;
            let dirty = access.kind == AccessKind::Store;
            if dirty {
                data[word] = access.value;
            }
            let compressed = self.compressible(&data);
            let line = Line {
                line_addr,
                dirty,
                compressed,
                data,
                stamp: self.accesses,
            };
            self.install(frame, line);
        }
        if self.accesses.is_multiple_of(SAMPLE_EVERY) {
            for line in self.frames.iter().flatten().flatten() {
                self.resident_samples += 1;
                self.compressed_samples += u64::from(line.compressed);
            }
        }
    }

    /// Writes every dirty line back and empties the cache. Idempotent.
    fn on_finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        for line in std::mem::take(&mut self.frames).into_iter().flatten() {
            self.write_back(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressibility_counts_infrequent_words_afresh() {
        // 8-word lines, 3-bit codes: 8 × 4 = 32 bits, plus 32 bits per
        // infrequent word, against a 128-bit half frame.
        let c = OracleCompressed::new(1024, 32, &[0, 1, 2, 3, 4, 5, 6]);
        assert!(c.compressible(&[0, 99, 98, 97, 0, 0, 0, 0]));
        assert!(!c.compressible(&[0, 99, 98, 97, 96, 0, 0, 0]));
    }

    #[test]
    fn a_store_that_breaks_compression_evicts_the_partner() {
        let mut c = OracleCompressed::new(1024, 32, &[0, 1, 2, 3, 4, 5, 6]);
        c.on_access(Access::load(0x000, 0));
        c.on_access(Access::store(0x400, 3)); // dirty compressed partner
        for i in 0..4 {
            c.on_access(Access::store(4 * i, 100 + i));
        }
        assert_eq!(c.expansions(), 1);
        assert_eq!(c.stats().writebacks, 1, "the dirty partner left");
        assert_eq!(c.peek(0x400), 3);
        c.on_access(Access::load(0x400, 3)); // a miss now
        assert_eq!(c.stats().read_misses, 2);
    }
}
