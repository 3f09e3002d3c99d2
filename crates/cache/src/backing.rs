//! Backing main memory with off-chip traffic accounting.

use fvl_mem::{Addr, SimMemory, Word};
use std::fmt;

/// The simulated DRAM behind a cache hierarchy.
///
/// All word movement between the caches and this memory is counted, because
/// the paper equates miss-rate reduction with off-chip traffic (and hence
/// power) reduction.
///
/// # Example
///
/// ```
/// use fvl_cache::MainMemory;
///
/// let mut mem = MainMemory::new();
/// mem.write_line(0x100, &[1, 2, 3, 4]);
/// let mut buf = [0; 4];
/// mem.read_line(0x100, &mut buf);
/// assert_eq!(buf, [1, 2, 3, 4]);
/// assert_eq!(mem.words_in(), 4);
/// assert_eq!(mem.words_out(), 4);
/// ```
#[derive(Clone, Default)]
pub struct MainMemory {
    mem: SimMemory,
    words_out: u64,
    words_in: u64,
}

impl MainMemory {
    /// Creates an all-zero main memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads `buf.len()` consecutive words starting at the line address
    /// `line_addr` (a line fetch), one page lookup per line. Counts
    /// outbound traffic.
    pub fn read_line(&mut self, line_addr: Addr, buf: &mut [Word]) {
        self.mem.read_line(line_addr, buf);
        self.words_out += buf.len() as u64;
    }

    /// Writes a full line back (a write-back), one page lookup per
    /// line. Counts inbound traffic.
    pub fn write_line(&mut self, line_addr: Addr, data: &[Word]) {
        self.mem.write_line(line_addr, data);
        self.words_in += data.len() as u64;
    }

    /// Writes a single word back (partial write-back, used when the FVC
    /// flushes only its frequent words). Counts one word of traffic.
    pub fn write_word(&mut self, addr: Addr, value: Word) {
        self.mem.write(addr, value);
        self.words_in += 1;
    }

    /// Peeks at a word without counting traffic (for assertions/tests).
    pub fn peek(&self, addr: Addr) -> Word {
        self.mem.read(addr)
    }

    /// Pokes a word without counting traffic (test setup).
    pub fn poke(&mut self, addr: Addr, value: Word) {
        self.mem.write(addr, value);
    }

    /// Words fetched from memory into the cache hierarchy.
    pub fn words_out(&self) -> u64 {
        self.words_out
    }

    /// Words written back from the cache hierarchy.
    pub fn words_in(&self) -> u64 {
        self.words_in
    }

    /// Total off-chip word traffic in both directions.
    pub fn total_traffic_words(&self) -> u64 {
        self.words_out + self.words_in
    }
}

impl fmt::Debug for MainMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MainMemory")
            .field("words_out", &self.words_out)
            .field("words_in", &self.words_in)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_counted_per_word() {
        let mut m = MainMemory::new();
        let mut buf = [0; 8];
        m.read_line(0x0, &mut buf);
        assert_eq!(m.words_out(), 8);
        m.write_line(0x0, &buf);
        assert_eq!(m.words_in(), 8);
        m.write_word(0x4, 9);
        assert_eq!(m.words_in(), 9);
        assert_eq!(m.total_traffic_words(), 17);
    }

    #[test]
    fn peek_and_poke_do_not_count() {
        let mut m = MainMemory::new();
        m.poke(0x10, 3);
        assert_eq!(m.peek(0x10), 3);
        assert_eq!(m.total_traffic_words(), 0);
    }

    #[test]
    fn line_round_trip() {
        let mut m = MainMemory::new();
        let data = [10, 20, 30, 40, 50, 60, 70, 80];
        m.write_line(0x200, &data);
        let mut buf = [0; 8];
        m.read_line(0x200, &mut buf);
        assert_eq!(buf, data);
    }
}
