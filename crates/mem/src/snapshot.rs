//! Periodic views of live memory contents.

use crate::layout::{Addr, Word};
use crate::live::LiveSet;
use crate::sim_memory::SimMemory;
use std::fmt;

/// A read-only view of the *interesting* memory contents at one instant.
///
/// Snapshots are handed to [`crate::AccessSink::on_snapshot`] every N
/// accesses; they drive the paper's "frequently occurring value" study
/// (Figures 1–3) and the spatial-distribution study (Figure 5).
pub struct MemorySnapshot<'a> {
    mem: &'a SimMemory,
    live: &'a LiveSet,
    /// Number of accesses performed when the snapshot was taken.
    access_count: u64,
}

impl<'a> MemorySnapshot<'a> {
    /// Creates a snapshot view over the given memory and live set.
    pub fn new(mem: &'a SimMemory, live: &'a LiveSet, access_count: u64) -> Self {
        MemorySnapshot {
            mem,
            live,
            access_count,
        }
    }

    /// Number of accesses performed at snapshot time (the snapshot clock).
    pub fn access_count(&self) -> u64 {
        self.access_count
    }

    /// Number of interesting locations in the snapshot.
    pub fn live_locations(&self) -> u64 {
        self.live.len()
    }

    /// Value currently stored at `addr`.
    pub fn value_at(&self, addr: Addr) -> Word {
        self.mem.read(addr)
    }

    /// Whether `addr` is an interesting location.
    pub fn is_live(&self, addr: Addr) -> bool {
        self.live.contains(addr)
    }

    /// Iterates over `(address, value)` for every interesting location,
    /// in ascending address order (spatially ordered analyses such as
    /// Figure 5 rely on it).
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Word)> + '_ {
        self.live
            .iter()
            .map(move |addr| (addr, self.mem.read(addr)))
    }
}

impl fmt::Debug for MemorySnapshot<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemorySnapshot")
            .field("access_count", &self.access_count)
            .field("live_locations", &self.live.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sees_live_values_only() {
        let mut mem = SimMemory::new();
        let mut live = LiveSet::new();
        mem.write(0x100, 5);
        mem.write(0x104, 6);
        live.mark(0x100); // 0x104 written but (hypothetically) not tracked
        let snap = MemorySnapshot::new(&mem, &live, 42);
        assert_eq!(snap.access_count(), 42);
        assert_eq!(snap.live_locations(), 1);
        assert!(snap.is_live(0x100));
        assert!(!snap.is_live(0x104));
        let all: Vec<_> = snap.iter().collect();
        assert_eq!(all, vec![(0x100, 5)]);
        assert_eq!(snap.value_at(0x104), 6);
    }

    #[test]
    fn snapshot_iter_is_sorted() {
        let mut mem = SimMemory::new();
        let mut live = LiveSet::new();
        for (i, &a) in [0x5000u32, 0x10, 0x3000, 0x2ffc].iter().enumerate() {
            mem.write(a, i as u32);
            live.mark(a);
        }
        let snap = MemorySnapshot::new(&mem, &live, 0);
        let addrs: Vec<_> = snap.iter().map(|(a, _)| a).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        assert_eq!(addrs, sorted);
        assert_eq!(addrs.len(), 4);
    }
}
