//! Recorded event logs and replay.
//!
//! Recording a workload once and replaying the [`Trace`] into many cache
//! configurations is how the experiment harness evaluates large design
//! spaces (e.g. Figure 12's 12 DMC configurations × 3 encodings) without
//! re-executing the workload.

use crate::access::{Access, AccessSink};
use crate::layout::Region;
use crate::live::LiveSet;
use crate::packed::{pack_addr, PackedTrace, RegionEvent};
use crate::sim_memory::SimMemory;
use crate::snapshot::MemorySnapshot;
use std::fmt;

/// One event in a recorded trace.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum TraceEvent {
    /// A word load or store.
    Access(Access),
    /// A region was allocated.
    Alloc(Region),
    /// A region was deallocated.
    Free(Region),
}

/// An [`AccessSink`] that records the event stream straight into the
/// columns of a [`PackedTrace`]: the `addr | STORE_BIT` and value
/// columns, plus the side table of allocation and free events.
///
/// [`TraceBuffer::into_packed`] hands the columns over as they are;
/// [`TraceBuffer::into_trace`] expands them into a [`Trace`] for
/// callers of the array-of-structs API.
///
/// # Panics
///
/// Recording an access whose address is not word aligned panics: the
/// packed layout keeps the access kind in the address's free low bit.
/// Every address [`crate::TracedMemory`] produces is aligned.
///
/// # Example
///
/// ```
/// use fvl_mem::{Bus, TraceBuffer, TracedMemory};
///
/// let mut buf = TraceBuffer::new();
/// {
///     let mut mem = TracedMemory::new(&mut buf);
///     let a = mem.alloc(1);
///     mem.store(a, 3);
/// }
/// let trace = buf.into_trace();
/// // The store plus the allocator's two chunk-header accesses.
/// assert_eq!(trace.accesses(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    /// Word-aligned addresses with [`crate::STORE_BIT`] folded in.
    addrs: Vec<u32>,
    /// The value of each access.
    values: Vec<u32>,
    /// Allocation and free events, positioned in the access stream.
    regions: Vec<RegionEvent>,
    /// Stop recording once this many accesses have been kept (see
    /// [`TraceBuffer::with_access_limit`]); `u64::MAX` means unlimited.
    limit: u64,
    /// Set when the first access beyond `limit` arrives; every later
    /// event is dropped.
    saturated: bool,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty buffer with room for `accesses` accesses, so
    /// recording a workload of known size never reallocates the
    /// columns.
    pub fn with_capacity(accesses: usize) -> Self {
        TraceBuffer {
            addrs: Vec::with_capacity(accesses),
            values: Vec::with_capacity(accesses),
            regions: Vec::new(),
            limit: u64::MAX,
            saturated: false,
        }
    }

    /// Caps recording at `max_accesses` access events. The recording
    /// equals [`Trace::into_prefix`]`(max_accesses)` of the unlimited
    /// one: allocation/free events are kept until the first access
    /// beyond the cap arrives, after which everything is dropped — but
    /// without ever materializing the events past the cut.
    pub fn with_access_limit(mut self, max_accesses: u64) -> Self {
        self.limit = max_accesses;
        self
    }

    /// Reserves room for at least `additional` more accesses.
    pub fn reserve(&mut self, additional: usize) {
        self.addrs.reserve(additional);
        self.values.reserve(additional);
    }

    /// Number of events recorded so far (accesses plus region events).
    pub fn len(&self) -> usize {
        self.addrs.len() + self.regions.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finalizes the recording into a [`PackedTrace`], trimming the
    /// columns to their length.
    pub fn into_packed(mut self) -> PackedTrace {
        self.addrs.shrink_to_fit();
        self.values.shrink_to_fit();
        self.regions.shrink_to_fit();
        PackedTrace::from_recording(self.addrs, self.values, self.regions)
    }

    /// Finalizes the recording into an array-of-structs [`Trace`].
    pub fn into_trace(self) -> Trace {
        self.into_packed().recorded_trace()
    }

    fn region(&mut self, is_alloc: bool, region: Region) {
        if !self.saturated {
            self.regions.push(RegionEvent {
                pos: self.addrs.len() as u64,
                is_alloc,
                region,
            });
        }
    }
}

impl AccessSink for TraceBuffer {
    #[inline]
    fn on_access(&mut self, access: Access) {
        if self.addrs.len() as u64 >= self.limit {
            self.saturated = true;
            return;
        }
        self.addrs.push(pack_addr(access));
        self.values.push(access.value);
    }

    fn on_alloc(&mut self, region: Region) {
        self.region(true, region);
    }

    fn on_free(&mut self, region: Region) {
        self.region(false, region);
    }
}

/// An immutable recorded event log.
#[derive(Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    accesses: u64,
}

impl Trace {
    /// Builds a trace directly from events (mostly for tests).
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        let accesses = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Access(_)))
            .count() as u64;
        Trace { events, accesses }
    }

    /// The recorded events, in program order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of access events in the trace.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of events of any kind.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Index of the first event *excluded* from a prefix of
    /// `max_accesses` access events, plus the number of accesses kept.
    fn prefix_cut(&self, max_accesses: u64) -> (usize, u64) {
        let mut seen = 0u64;
        for (i, event) in self.events.iter().enumerate() {
            if matches!(event, TraceEvent::Access(_)) {
                if seen == max_accesses {
                    return (i, seen);
                }
                seen += 1;
            }
        }
        (self.events.len(), seen)
    }

    /// Returns the prefix of this trace holding at most `max_accesses`
    /// access events (allocation/free events up to the cut point are
    /// preserved). Smoke-mode experiment runs use this to scale every
    /// workload down to a fixed reference budget. The copy is sized
    /// exactly once; prefer [`Trace::into_prefix`] when the original
    /// trace is no longer needed — it avoids copying entirely.
    pub fn prefix(&self, max_accesses: u64) -> Trace {
        if max_accesses >= self.accesses {
            return self.clone();
        }
        let (cut, seen) = self.prefix_cut(max_accesses);
        let mut events = Vec::with_capacity(cut);
        events.extend_from_slice(&self.events[..cut]);
        Trace {
            events,
            accesses: seen,
        }
    }

    /// Consuming variant of [`Trace::prefix`]: truncates the event log
    /// in place, so no event is ever copied — neither when the limit
    /// exceeds the trace (the trace is returned as-is) nor when it cuts
    /// (the vector is truncated, not rebuilt).
    pub fn into_prefix(mut self, max_accesses: u64) -> Trace {
        if max_accesses >= self.accesses {
            return self;
        }
        let (cut, seen) = self.prefix_cut(max_accesses);
        self.events.truncate(cut);
        self.accesses = seen;
        self
    }

    /// Iterates over access events only.
    pub fn iter_accesses(&self) -> impl Iterator<Item = Access> + '_ {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Access(a) => Some(*a),
            _ => None,
        })
    }

    /// Replays the trace into `sink` (accesses, allocs, frees, finish).
    ///
    /// Generic over the sink type, so per-event dispatch monomorphizes
    /// and the sink's `on_access` can inline into the replay loop — the
    /// hot path of every simulation. Also callable with a
    /// `&mut dyn AccessSink` (trait objects implement their own trait),
    /// which is exactly what [`Trace::replay`] does.
    ///
    /// No snapshots are emitted; use [`Trace::replay_with_snapshots_into`]
    /// when the sink performs occurrence sampling.
    pub fn replay_into<S: AccessSink + ?Sized>(&self, sink: &mut S) {
        for event in &self.events {
            match *event {
                TraceEvent::Access(a) => sink.on_access(a),
                TraceEvent::Alloc(r) => sink.on_alloc(r),
                TraceEvent::Free(r) => sink.on_free(r),
            }
        }
        sink.on_finish();
    }

    /// Dynamic-dispatch wrapper over [`Trace::replay_into`], for
    /// heterogeneous sink collections and object-safe call sites.
    pub fn replay(&self, sink: &mut dyn AccessSink) {
        self.replay_into(sink);
    }

    /// Replays the trace while reconstructing memory contents and the
    /// live-location set, emitting a [`MemorySnapshot`] every
    /// `sample_every` accesses exactly as the original
    /// [`crate::TracedMemory`] would have.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every` is zero.
    pub fn replay_with_snapshots(&self, sink: &mut dyn AccessSink, sample_every: u64) {
        self.replay_with_snapshots_opts_into(sink, sample_every, true);
    }

    /// Monomorphized variant of [`Trace::replay_with_snapshots`]; see
    /// [`Trace::replay_into`] for why the generic path is the fast one.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every` is zero.
    pub fn replay_with_snapshots_into<S: AccessSink + ?Sized>(
        &self,
        sink: &mut S,
        sample_every: u64,
    ) {
        self.replay_with_snapshots_opts_into(sink, sample_every, true);
    }

    /// Like [`Trace::replay_with_snapshots`], but with control over
    /// whether *heap* deallocations remove locations from the live set.
    /// Passing `false` reproduces the paper's measurement setup ("we
    /// were able to track deallocations of stack memory but not that of
    /// heap memory"); stack frees are always tracked.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every` is zero.
    pub fn replay_with_snapshots_opts(
        &self,
        sink: &mut dyn AccessSink,
        sample_every: u64,
        track_heap_free: bool,
    ) {
        self.replay_with_snapshots_opts_into(sink, sample_every, track_heap_free);
    }

    /// Monomorphized variant of [`Trace::replay_with_snapshots_opts`];
    /// see [`Trace::replay_into`] for why the generic path is the fast
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `sample_every` is zero.
    pub fn replay_with_snapshots_opts_into<S: AccessSink + ?Sized>(
        &self,
        sink: &mut S,
        sample_every: u64,
        track_heap_free: bool,
    ) {
        assert!(sample_every > 0, "sampling interval must be positive");
        let mut mem = SimMemory::new();
        let mut live = LiveSet::new();
        let mut count: u64 = 0;
        let mut next = sample_every;
        for event in &self.events {
            match *event {
                TraceEvent::Access(a) => {
                    if a.kind.is_store() {
                        mem.write(a.addr, a.value);
                    }
                    live.mark(a.addr);
                    count += 1;
                    sink.on_access(a);
                    if count >= next {
                        next = count + sample_every;
                        let snap = MemorySnapshot::new(&mem, &live, count);
                        sink.on_snapshot(&snap);
                    }
                }
                TraceEvent::Alloc(r) => sink.on_alloc(r),
                TraceEvent::Free(r) => {
                    if track_heap_free || r.kind != crate::layout::RegionKind::Heap {
                        live.clear_region(&r);
                    }
                    sink.on_free(r);
                }
            }
        }
        sink.on_finish();
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("events", &self.events.len())
            .field("accesses", &self.accesses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::CountingSink;
    use crate::bus::{Bus, BusExt};
    use crate::traced::TracedMemory;

    fn record_simple() -> Trace {
        let mut buf = TraceBuffer::new();
        {
            let mut m = TracedMemory::new(&mut buf);
            let a = m.alloc(4);
            for i in 0..4 {
                m.store_idx(a, i, 7);
            }
            for i in 0..4 {
                let _ = m.load_idx(a, i);
            }
            m.free(a);
        }
        buf.into_trace()
    }

    #[test]
    fn record_and_replay_preserves_counts() {
        let trace = record_simple();
        // 8 program accesses + 2 malloc-header accesses each on alloc
        // and free.
        assert_eq!(trace.accesses(), 12);
        assert_eq!(trace.iter_accesses().count(), 12);
        assert!(!trace.is_empty());

        let mut sink = CountingSink::new();
        trace.replay(&mut sink);
        assert_eq!(sink.accesses(), 12);
        assert_eq!(sink.allocs(), 1);
        assert_eq!(sink.frees(), 1);
        assert!(sink.finished());
    }

    #[test]
    fn replay_with_snapshots_reconstructs_memory() {
        struct SnapCheck {
            seen: u32,
        }
        impl AccessSink for SnapCheck {
            fn on_access(&mut self, _a: Access) {}
            fn on_snapshot(&mut self, s: &MemorySnapshot<'_>) {
                self.seen += 1;
                // Live words hold 7 (program data) or the malloc header.
                for (_a, v) in s.iter() {
                    assert!(v == 7 || v == 0x601 || v == 0x600, "value {v:#x}");
                }
            }
        }
        let trace = record_simple();
        let mut sink = SnapCheck { seen: 0 };
        trace.replay_with_snapshots(&mut sink, 4);
        assert_eq!(sink.seen, 3); // at accesses 4, 8 and 12
    }

    #[test]
    fn replay_snapshot_respects_frees() {
        let mut buf = TraceBuffer::new();
        {
            let mut m = TracedMemory::new(&mut buf);
            let a = m.alloc(2);
            m.store(a, 1);
            m.free(a);
            let b = m.global(2);
            m.store(b, 2);
            m.store(b + 4, 3);
        }
        let trace = buf.into_trace();
        struct LastSnap(u64);
        impl AccessSink for LastSnap {
            fn on_access(&mut self, _a: Access) {}
            fn on_snapshot(&mut self, s: &MemorySnapshot<'_>) {
                self.0 = s.live_locations();
            }
        }
        let mut sink = LastSnap(999);
        trace.replay_with_snapshots(&mut sink, 3);
        // The last snapshot lands at access 6 (the store to the first
        // global): the freed heap words (and header) are gone, and one
        // global is live so far.
        assert_eq!(sink.0, 1);
    }

    #[test]
    fn prefix_truncates_at_access_boundary() {
        let trace = record_simple();
        let cut = trace.prefix(5);
        assert_eq!(cut.accesses(), 5);
        assert_eq!(cut.iter_accesses().count(), 5);
        // A prefix at least as long as the trace is the whole trace.
        let whole = trace.prefix(1_000_000);
        assert_eq!(whole.events(), trace.events());
        // Zero keeps no accesses.
        assert_eq!(trace.prefix(0).accesses(), 0);
    }

    #[test]
    fn into_prefix_matches_prefix_without_copying_full_traces() {
        let trace = record_simple();
        for cut in [0u64, 5, 12, 1_000_000] {
            let borrowed = trace.prefix(cut);
            let consumed = trace.clone().into_prefix(cut);
            assert_eq!(borrowed.events(), consumed.events(), "cut at {cut}");
            assert_eq!(borrowed.accesses(), consumed.accesses());
        }
        // The borrowing path sizes its copy exactly.
        let cut = trace.prefix(5);
        assert_eq!(cut.events.len(), cut.events.capacity());
    }

    #[test]
    fn generic_replay_matches_dyn_replay() {
        let trace = record_simple();
        let mut generic = CountingSink::new();
        trace.replay_into(&mut generic);
        let mut dynamic = CountingSink::new();
        trace.replay(&mut dynamic);
        assert_eq!(generic, dynamic);

        let mut generic = CountingSink::new();
        trace.replay_with_snapshots_into(&mut generic, 4);
        let mut dynamic = CountingSink::new();
        trace.replay_with_snapshots(&mut dynamic, 4);
        assert_eq!(generic, dynamic);
        assert_eq!(generic.snapshots(), 3);
    }

    #[test]
    fn limited_buffer_matches_into_prefix() {
        let run = |buf: &mut TraceBuffer| {
            let mut m = TracedMemory::new(buf);
            let a = m.alloc(4);
            for i in 0..4 {
                m.store_idx(a, i, 7);
            }
            let f = m.push_frame(2);
            m.store(f, 9);
            m.pop_frame();
            m.free(a);
        };
        let mut full = TraceBuffer::new();
        run(&mut full);
        let full = full.into_trace();
        for cut in [0u64, 1, 5, 7, full.accesses(), 1_000_000] {
            let mut limited = TraceBuffer::with_capacity(4).with_access_limit(cut);
            run(&mut limited);
            let limited = limited.into_trace();
            let expect = full.clone().into_prefix(cut);
            assert_eq!(limited.events(), expect.events(), "cut at {cut}");
            assert_eq!(limited.accesses(), expect.accesses());
        }
    }

    #[test]
    fn buffer_capacity_and_reserve() {
        let mut buf = TraceBuffer::with_capacity(8);
        assert!(buf.is_empty());
        buf.on_access(Access::load(0, 0));
        buf.on_alloc(Region::new(0x100, 1, crate::layout::RegionKind::Heap));
        buf.reserve(16);
        assert_eq!(buf.len(), 2);
        assert!(buf.addrs.capacity() >= 17 && buf.values.capacity() >= 17);
        // The recording is trimmed to its length.
        let packed = buf.into_packed();
        assert_eq!(
            packed.approx_bytes(),
            8 + std::mem::size_of::<RegionEvent>()
        );
    }

    #[test]
    fn default_buffer_records_without_a_limit() {
        let mut buf = TraceBuffer::default();
        buf.on_access(Access::store(4, 1));
        assert_eq!(buf.into_trace().accesses(), 1);
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn misaligned_access_is_rejected() {
        TraceBuffer::new().on_access(Access::load(0x1002, 0));
    }

    #[test]
    fn from_events_counts_accesses() {
        let t = Trace::from_events(vec![
            TraceEvent::Access(Access::load(0, 0)),
            TraceEvent::Access(Access::store(4, 1)),
        ]);
        assert_eq!(t.accesses(), 2);
        assert_eq!(t.len(), 2);
    }
}
