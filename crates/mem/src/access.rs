//! Memory access events and their consumers.

use crate::layout::{Addr, Region, Word};
use crate::snapshot::MemorySnapshot;
use std::fmt;

/// Whether an access reads or writes memory.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum AccessKind {
    /// A word load.
    Load,
    /// A word store.
    Store,
}

impl AccessKind {
    /// `true` for [`AccessKind::Store`].
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, AccessKind::Store)
    }

    /// `true` for [`AccessKind::Load`].
    #[inline]
    pub fn is_load(self) -> bool {
        matches!(self, AccessKind::Load)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Load => "load",
            AccessKind::Store => "store",
        })
    }
}

/// One word-granularity memory access: the unit of the entire study.
///
/// For a load, `value` is the value *returned* by memory; for a store it is
/// the value *written*. This matches the paper, which attributes each
/// access to the value involved in it.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct Access {
    /// Word-aligned byte address.
    pub addr: Addr,
    /// The 32-bit value involved in the access.
    pub value: Word,
    /// Load or store.
    pub kind: AccessKind,
}

impl Access {
    /// Convenience constructor for a load event.
    #[inline]
    pub fn load(addr: Addr, value: Word) -> Self {
        Access {
            addr,
            value,
            kind: AccessKind::Load,
        }
    }

    /// Convenience constructor for a store event.
    #[inline]
    pub fn store(addr: Addr, value: Word) -> Self {
        Access {
            addr,
            value,
            kind: AccessKind::Store,
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:#010x} = {:#010x}",
            self.kind, self.addr, self.value
        )
    }
}

/// Consumer of the event stream produced by a [`crate::TracedMemory`] or a
/// [`crate::Trace`] replay.
///
/// Cache simulators implement [`AccessSink::on_access`]; locality analyses
/// additionally use the allocation and snapshot callbacks. All callbacks
/// other than `on_access` have empty default implementations.
pub trait AccessSink {
    /// Called for every word load and store, in program order.
    fn on_access(&mut self, access: Access);

    /// Called when a heap or stack region is allocated.
    fn on_alloc(&mut self, region: Region) {
        let _ = region;
    }

    /// Called when a heap or stack region is deallocated.
    fn on_free(&mut self, region: Region) {
        let _ = region;
    }

    /// Called periodically (every `sample_every` accesses) with a view of
    /// live memory, mirroring the paper's 10M-instruction sampling of
    /// frequently *occurring* values.
    fn on_snapshot(&mut self, snapshot: &MemorySnapshot<'_>) {
        let _ = snapshot;
    }

    /// Called exactly once after the final event of the run.
    fn on_finish(&mut self) {}
}

/// Mutable references forward to the referenced sink, so a mixed batch
/// held as `&mut [&mut dyn AccessSink]` can be replayed into element by
/// element without wrapping each one.
impl<S: AccessSink + ?Sized> AccessSink for &mut S {
    #[inline]
    fn on_access(&mut self, access: Access) {
        (**self).on_access(access);
    }

    fn on_alloc(&mut self, region: Region) {
        (**self).on_alloc(region);
    }

    fn on_free(&mut self, region: Region) {
        (**self).on_free(region);
    }

    fn on_snapshot(&mut self, snapshot: &MemorySnapshot<'_>) {
        (**self).on_snapshot(snapshot);
    }

    fn on_finish(&mut self) {
        (**self).on_finish();
    }
}

/// A sink that discards everything; useful to run a workload purely for
/// its side effects (e.g. when measuring workload generation speed).
#[derive(Copy, Clone, Default, Debug)]
pub struct NullSink;

impl AccessSink for NullSink {
    #[inline]
    fn on_access(&mut self, _access: Access) {}
}

/// A sink that counts events; handy in tests and examples.
#[derive(Copy, Clone, Default, Debug, Eq, PartialEq)]
pub struct CountingSink {
    loads: u64,
    stores: u64,
    allocs: u64,
    frees: u64,
    snapshots: u64,
    finished: bool,
}

impl CountingSink {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of load events observed.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Number of store events observed.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Total accesses (loads + stores).
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Number of allocation events observed.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Number of deallocation events observed.
    pub fn frees(&self) -> u64 {
        self.frees
    }

    /// Number of snapshots observed.
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// Whether [`AccessSink::on_finish`] has been called.
    pub fn finished(&self) -> bool {
        self.finished
    }
}

impl AccessSink for CountingSink {
    fn on_access(&mut self, access: Access) {
        match access.kind {
            AccessKind::Load => self.loads += 1,
            AccessKind::Store => self.stores += 1,
        }
    }

    fn on_alloc(&mut self, _region: Region) {
        self.allocs += 1;
    }

    fn on_free(&mut self, _region: Region) {
        self.frees += 1;
    }

    fn on_snapshot(&mut self, _snapshot: &MemorySnapshot<'_>) {
        self.snapshots += 1;
    }

    fn on_finish(&mut self) {
        self.finished = true;
    }
}

/// Fans one event stream out to several sinks, enabling single-pass
/// evaluation of many cache configurations over one workload execution.
pub struct Fanout<'a> {
    sinks: Vec<&'a mut dyn AccessSink>,
}

impl<'a> Fanout<'a> {
    /// Creates a fanout over the given sinks. Events are delivered in the
    /// order the sinks appear in `sinks`.
    pub fn new(sinks: Vec<&'a mut dyn AccessSink>) -> Self {
        Fanout { sinks }
    }

    /// Number of downstream sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether there are no downstream sinks.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl fmt::Debug for Fanout<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fanout")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl AccessSink for Fanout<'_> {
    #[inline]
    fn on_access(&mut self, access: Access) {
        for sink in &mut self.sinks {
            sink.on_access(access);
        }
    }

    fn on_alloc(&mut self, region: Region) {
        for sink in &mut self.sinks {
            sink.on_alloc(region);
        }
    }

    fn on_free(&mut self, region: Region) {
        for sink in &mut self.sinks {
            sink.on_free(region);
        }
    }

    fn on_snapshot(&mut self, snapshot: &MemorySnapshot<'_>) {
        for sink in &mut self.sinks {
            sink.on_snapshot(snapshot);
        }
    }

    fn on_finish(&mut self) {
        for sink in &mut self.sinks {
            sink.on_finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RegionKind;

    #[test]
    fn access_constructors() {
        let l = Access::load(0x100, 7);
        assert_eq!(l.kind, AccessKind::Load);
        assert!(l.kind.is_load());
        let s = Access::store(0x104, 9);
        assert!(s.kind.is_store());
        assert_eq!(s.to_string(), "store 0x00000104 = 0x00000009");
    }

    #[test]
    fn counting_sink_counts() {
        let mut c = CountingSink::new();
        c.on_access(Access::load(0, 0));
        c.on_access(Access::store(4, 1));
        c.on_access(Access::store(8, 2));
        c.on_alloc(Region::new(0x100, 2, RegionKind::Heap));
        c.on_free(Region::new(0x100, 2, RegionKind::Heap));
        c.on_finish();
        assert_eq!(c.loads(), 1);
        assert_eq!(c.stores(), 2);
        assert_eq!(c.accesses(), 3);
        assert_eq!(c.allocs(), 1);
        assert_eq!(c.frees(), 1);
        assert!(c.finished());
    }

    #[test]
    fn fanout_delivers_to_all() {
        let mut a = CountingSink::new();
        let mut b = CountingSink::new();
        {
            let mut fan = Fanout::new(vec![&mut a, &mut b]);
            assert_eq!(fan.len(), 2);
            assert!(!fan.is_empty());
            fan.on_access(Access::load(0, 0));
            fan.on_finish();
        }
        assert_eq!(a.accesses(), 1);
        assert_eq!(b.accesses(), 1);
        assert!(a.finished() && b.finished());
    }
}
