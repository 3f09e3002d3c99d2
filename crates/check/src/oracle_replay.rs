//! A deliberately naive scalar replayer and an order-sensitive sink.
//!
//! The optimized replay paths ([`fvl_mem::Trace::replay_into`]
//! monomorphization, the [`fvl_mem::PackedTrace`] columnar walk) are
//! diffed against [`scalar_replay`]: a plain loop over the event slice
//! that feeds exactly one sink, one event at a time, with dynamic
//! dispatch and no batching.

use fvl_mem::{Access, AccessKind, AccessSink, Region, Trace, TraceEvent};

/// Replays `trace` into `sink` one event at a time.
///
/// This is the reference semantics every fast path must reproduce:
/// events are delivered strictly in program order and `on_finish` fires
/// exactly once at the end.
pub fn scalar_replay(trace: &Trace, sink: &mut dyn AccessSink) {
    for event in trace.events() {
        match *event {
            TraceEvent::Access(access) => sink.on_access(access),
            TraceEvent::Alloc(region) => sink.on_alloc(region),
            TraceEvent::Free(region) => sink.on_free(region),
        }
    }
    sink.on_finish();
}

/// An order-sensitive event digest.
///
/// Two replays that deliver the same events in the same order produce
/// equal `DigestSink`s; any reordering, duplication, drop, or
/// load/store swap changes the digest. The mix is FNV-flavoured —
/// multiply by the FNV-1a 64-bit prime, fold in the event — with
/// distinct rotations for allocation and free events so region
/// bookkeeping cannot be confused with accesses.
///
/// # Example
///
/// ```
/// use fvl_check::DigestSink;
/// use fvl_mem::{Access, AccessSink};
///
/// let mut a = DigestSink::new();
/// let mut b = DigestSink::new();
/// a.on_access(Access::load(0x10, 1));
/// a.on_access(Access::store(0x14, 2));
/// b.on_access(Access::store(0x14, 2));
/// b.on_access(Access::load(0x10, 1));
/// assert_ne!(a, b, "order matters");
/// ```
#[derive(Copy, Clone, Default, Eq, PartialEq, Debug)]
pub struct DigestSink {
    /// Load events observed.
    pub loads: u64,
    /// Store events observed.
    pub stores: u64,
    /// Allocation events observed.
    pub allocs: u64,
    /// Free events observed.
    pub frees: u64,
    /// Times `on_finish` fired.
    pub finished: u64,
    /// Order-sensitive mix of every event.
    pub digest: u64,
}

impl DigestSink {
    /// A fresh, empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    fn mix(&mut self, word: u64) {
        self.digest = self
            .digest
            .wrapping_mul(0x0000_0100_0000_01b3)
            .wrapping_add(word);
    }

    fn region_word(region: &Region) -> u64 {
        (u64::from(region.base) << 32) | u64::from(region.words) | ((region.kind as u64) << 16)
    }
}

impl AccessSink for DigestSink {
    fn on_access(&mut self, access: Access) {
        match access.kind {
            AccessKind::Load => self.loads += 1,
            AccessKind::Store => self.stores += 1,
        }
        let kind_bit = u64::from(access.kind.is_store());
        self.mix((u64::from(access.addr) << 32) | u64::from(access.value));
        self.mix(kind_bit);
    }

    fn on_alloc(&mut self, region: Region) {
        self.allocs += 1;
        let w = Self::region_word(&region).rotate_left(7);
        self.mix(w);
    }

    fn on_free(&mut self, region: Region) {
        self.frees += 1;
        let w = Self::region_word(&region).rotate_left(11);
        self.mix(w);
    }

    fn on_finish(&mut self) {
        self.finished += 1;
        self.mix(0xfeed_f00d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvl_mem::RegionKind;

    #[test]
    fn scalar_replay_visits_everything_once() {
        let trace = Trace::from_events(vec![
            TraceEvent::Alloc(Region::new(0x100, 4, RegionKind::Heap)),
            TraceEvent::Access(Access::store(0x100, 1)),
            TraceEvent::Access(Access::load(0x100, 1)),
            TraceEvent::Free(Region::new(0x100, 4, RegionKind::Heap)),
        ]);
        let mut d = DigestSink::new();
        scalar_replay(&trace, &mut d);
        assert_eq!(
            (d.loads, d.stores, d.allocs, d.frees, d.finished),
            (1, 1, 1, 1, 1)
        );
    }

    #[test]
    fn digest_distinguishes_kind_swap() {
        let mut a = DigestSink::new();
        let mut b = DigestSink::new();
        a.on_access(Access::load(0x10, 5));
        b.on_access(Access::store(0x10, 5));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn digest_distinguishes_alloc_from_free() {
        let r = Region::new(0x200, 8, RegionKind::Stack);
        let mut a = DigestSink::new();
        let mut b = DigestSink::new();
        a.on_alloc(r);
        b.on_free(r);
        assert_ne!(a, b);
    }
}
