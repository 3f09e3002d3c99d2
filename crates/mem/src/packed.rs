//! Columnar (structure-of-arrays) trace storage.
//!
//! The paper's methodology replays one recorded load/store stream into
//! many cache designs (Sections 3–4 evaluate 21 experiments over the
//! same traces), so replay throughput and resident trace footprint are
//! the scaling levers of the whole harness. [`Trace`] keeps an
//! array-of-structs `Vec<TraceEvent>` — a 16-byte tagged enum per event
//! for what is logically 8 bytes of word-aligned address + value.
//! [`PackedTrace`] stores the same stream column-wise:
//!
//! * `addrs` — one `u32` per access, the word-aligned byte address with
//!   the load/store bit folded into the free low bit,
//! * `values` — one `u32` per access,
//! * a small side table of [`RegionEvent`]s (allocations and frees are
//!   orders of magnitude rarer than accesses), each recording *where*
//!   in the access stream it fired.
//!
//! Replay walks the two dense arrays in runs between region-event
//! breakpoints — no per-event tag dispatch, half the memory traffic.
//! Several sinks are fed by replaying once per sink, or through one
//! [`crate::Fanout`].

use crate::access::{Access, AccessKind, AccessSink};
use crate::layout::{Region, WORD_BYTES};
use crate::live::LiveSet;
use crate::sim_memory::SimMemory;
use crate::simd::SimdLevel;
use crate::snapshot::MemorySnapshot;
use crate::trace::{Trace, TraceEvent};
use std::fmt;

/// Low address bit holding the access kind inside a packed address
/// word. Word alignment leaves bits 0–1 of every address free; bit 0
/// set means *store*, clear means *load*.
pub const STORE_BIT: u32 = 1;

/// An allocation or deallocation hoisted out of the access stream into
/// the [`PackedTrace`] side table.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct RegionEvent {
    /// Number of access events that precede this event in program
    /// order — i.e. the event fires after access `pos - 1` and before
    /// access `pos`. Non-decreasing across the side table.
    pub pos: u64,
    /// `true` for an allocation, `false` for a deallocation.
    pub is_alloc: bool,
    /// The region allocated or freed.
    pub region: Region,
}

impl RegionEvent {
    /// The event as a [`TraceEvent`] (for interleaved iteration).
    #[inline]
    pub fn to_event(self) -> TraceEvent {
        if self.is_alloc {
            TraceEvent::Alloc(self.region)
        } else {
            TraceEvent::Free(self.region)
        }
    }
}

/// A recorded event log in columnar form. Semantically identical to a
/// [`Trace`] (see [`PackedTrace::from_trace`] / [`PackedTrace::to_trace`])
/// but ~8 bytes per access instead of 16, with replay running
/// branchlessly over dense `u32` columns between region-event
/// breakpoints.
///
/// # Example
///
/// ```
/// use fvl_mem::{Bus, CountingSink, PackedTrace, TraceBuffer, TracedMemory};
///
/// let mut buf = TraceBuffer::new();
/// {
///     let mut mem = TracedMemory::new(&mut buf);
///     let a = mem.alloc(1);
///     mem.store(a, 3);
/// }
/// let packed = PackedTrace::from_trace(&buf.into_trace());
/// let mut sink = CountingSink::new();
/// packed.replay_into(&mut sink);
/// assert_eq!(sink.accesses(), 3);
/// assert_eq!(sink.allocs(), 1);
/// ```
#[derive(Clone, Default)]
pub struct PackedTrace {
    /// Word-aligned byte addresses with [`STORE_BIT`] folded in.
    addrs: Vec<u32>,
    /// The 32-bit value of each access.
    values: Vec<u32>,
    /// Rare allocation/free events, ordered by [`RegionEvent::pos`].
    regions: Vec<RegionEvent>,
}

impl PackedTrace {
    /// Packs an event log into columnar form.
    ///
    /// # Panics
    ///
    /// Panics if any access address is not word aligned (the packed
    /// form stores the access kind in the address's free low bits;
    /// every address produced by [`crate::TracedMemory`] is aligned).
    pub fn from_trace(trace: &Trace) -> Self {
        let accesses = trace.accesses() as usize;
        let mut addrs = Vec::with_capacity(accesses);
        let mut values = Vec::with_capacity(accesses);
        let mut regions = Vec::new();
        for event in trace.events() {
            match *event {
                TraceEvent::Access(a) => {
                    assert_eq!(
                        a.addr % WORD_BYTES,
                        0,
                        "packed traces require word-aligned addresses, got {:#x}",
                        a.addr
                    );
                    addrs.push(a.addr | if a.kind.is_store() { STORE_BIT } else { 0 });
                    values.push(a.value);
                }
                TraceEvent::Alloc(region) => regions.push(RegionEvent {
                    pos: addrs.len() as u64,
                    is_alloc: true,
                    region,
                }),
                TraceEvent::Free(region) => regions.push(RegionEvent {
                    pos: addrs.len() as u64,
                    is_alloc: false,
                    region,
                }),
            }
        }
        regions.shrink_to_fit();
        PackedTrace {
            addrs,
            values,
            regions,
        }
    }

    /// Builds a packed trace directly from its columns (used by the
    /// binary-format reader).
    ///
    /// # Errors
    ///
    /// Returns a descriptive error when the columns disagree in length,
    /// a packed address has its second-lowest bit set (the decoded
    /// address would not be word aligned), or the region side table is
    /// not ordered by position within the access stream.
    pub fn from_columns(
        addrs: Vec<u32>,
        values: Vec<u32>,
        regions: Vec<RegionEvent>,
    ) -> Result<Self, String> {
        if addrs.len() != values.len() {
            return Err(format!(
                "column length mismatch: {} addresses vs {} values",
                addrs.len(),
                values.len()
            ));
        }
        let misaligned = addrs.iter().fold(0u32, |acc, &a| acc | a) & (WORD_BYTES - 1) & !STORE_BIT;
        if misaligned != 0 {
            return Err("packed address decodes to a non-word-aligned address".to_string());
        }
        let mut prev = 0u64;
        for event in &regions {
            if event.pos < prev || event.pos > addrs.len() as u64 {
                return Err(format!(
                    "region event position {} out of order (previous {prev}, {} accesses)",
                    event.pos,
                    addrs.len()
                ));
            }
            prev = event.pos;
        }
        Ok(PackedTrace {
            addrs,
            values,
            regions,
        })
    }

    /// Expands the columns back into an array-of-structs [`Trace`].
    pub fn to_trace(&self) -> Trace {
        Trace::from_events(self.iter_events().collect())
    }

    /// The packed address column ([`STORE_BIT`] folded in).
    pub fn addrs(&self) -> &[u32] {
        &self.addrs
    }

    /// The value column.
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// The region-event side table, ordered by position.
    pub fn region_events(&self) -> &[RegionEvent] {
        &self.regions
    }

    /// Number of access events.
    pub fn accesses(&self) -> u64 {
        self.addrs.len() as u64
    }

    /// Number of events of any kind (accesses plus region events).
    pub fn len(&self) -> usize {
        self.addrs.len() + self.regions.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty() && self.regions.is_empty()
    }

    /// Heap bytes resident for this trace (column capacities plus the
    /// side table) — the footprint the capture store pays to keep it.
    pub fn approx_bytes(&self) -> usize {
        self.addrs.capacity() * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<u32>()
            + self.regions.capacity() * std::mem::size_of::<RegionEvent>()
    }

    /// Resident bytes per event; ~8 for access-dominated traces versus
    /// 16 for the `Vec<TraceEvent>` representation.
    pub fn bytes_per_event(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.approx_bytes() as f64 / self.len() as f64
        }
    }

    /// Decodes the access at column index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.accesses()`.
    #[inline]
    pub fn access(&self, i: usize) -> Access {
        decode(self.addrs[i], self.values[i])
    }

    /// Iterates over access events only.
    pub fn iter_accesses(&self) -> impl Iterator<Item = Access> + '_ {
        self.addrs
            .iter()
            .zip(&self.values)
            .map(|(&a, &v)| decode(a, v))
    }

    /// Iterates over all events in program order, re-interleaving the
    /// region side table with the access columns.
    pub fn iter_events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let mut next_access = 0usize;
        let mut next_region = 0usize;
        std::iter::from_fn(move || {
            if let Some(event) = self.regions.get(next_region) {
                if event.pos as usize <= next_access {
                    next_region += 1;
                    return Some(event.to_event());
                }
            }
            if next_access < self.addrs.len() {
                let access = self.access(next_access);
                next_access += 1;
                return Some(TraceEvent::Access(access));
            }
            None
        })
    }

    /// Returns the prefix holding at most `max_accesses` access events,
    /// keeping the region events that precede the cut exactly as
    /// [`Trace::prefix`] does.
    pub fn prefix(&self, max_accesses: u64) -> PackedTrace {
        if max_accesses >= self.accesses() {
            return self.clone();
        }
        let cut = max_accesses as usize;
        let keep = self
            .regions
            .iter()
            .filter(|e| e.pos <= max_accesses)
            .count();
        PackedTrace {
            addrs: self.addrs[..cut].to_vec(),
            values: self.values[..cut].to_vec(),
            regions: self.regions[..keep].to_vec(),
        }
    }

    /// Feeds the accesses in columns `lo..hi` to `sink` one event at a
    /// time.
    #[inline]
    fn feed<S: AccessSink + ?Sized>(&self, lo: usize, hi: usize, sink: &mut S) {
        for (&a, &v) in self.addrs[lo..hi].iter().zip(&self.values[lo..hi]) {
            sink.on_access(decode(a, v));
        }
    }

    /// Replays the trace into `sink` (accesses, allocs, frees, finish),
    /// equivalent to [`Trace::replay_into`] over the unpacked events.
    ///
    /// Accesses stream from the dense columns in runs between region
    /// breakpoints, so the loop carries no per-event tag dispatch and
    /// touches half the memory of the `Vec<TraceEvent>` walk.
    pub fn replay_into<S: AccessSink + ?Sized>(&self, sink: &mut S) {
        self.feed_into(sink);
        sink.on_finish();
    }

    /// [`PackedTrace::replay_into`]; `level` is always
    /// [`SimdLevel::Scalar`]. Held for the benchmark package, which
    /// still calls it (see [`crate::simd`]).
    pub fn replay_into_with<S: AccessSink + ?Sized>(&self, _level: SimdLevel, sink: &mut S) {
        self.replay_into(sink);
    }

    /// Delivers every event of this trace to `sink` **without** calling
    /// [`AccessSink::on_finish`] — the streaming building block chunked
    /// out-of-core replay uses: one logical trace arrives as many
    /// [`PackedTrace`] pieces (see [`crate::MappedTrace`]), each fed in
    /// turn, and the caller finishes the sink exactly once at the end.
    pub fn feed_into<S: AccessSink + ?Sized>(&self, sink: &mut S) {
        let mut lo = 0usize;
        for &event in &self.regions {
            let hi = event.pos as usize;
            self.feed(lo, hi, sink);
            if event.is_alloc {
                sink.on_alloc(event.region);
            } else {
                sink.on_free(event.region);
            }
            lo = hi;
        }
        self.feed(lo, self.addrs.len(), sink);
    }

    /// Dynamic-dispatch wrapper over [`PackedTrace::replay_into`].
    pub fn replay(&self, sink: &mut dyn AccessSink) {
        self.replay_into(sink);
    }

    /// Replays while reconstructing memory and the live-location set,
    /// emitting a [`MemorySnapshot`] every `sample_every` accesses —
    /// equivalent to [`Trace::replay_with_snapshots_opts_into`].
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
        let mut regions = self.regions.iter().peekable();
        for i in 0..self.addrs.len() {
            while let Some(&&event) = regions.peek().filter(|e| e.pos as usize <= i) {
                regions.next();
                snapshot_region(sink, &mut live, event, track_heap_free);
            }
            let access = self.access(i);
            if access.kind.is_store() {
                mem.write(access.addr, access.value);
            }
            live.mark(access.addr);
            count += 1;
            sink.on_access(access);
            if count >= next {
                next = count + sample_every;
                let snap = MemorySnapshot::new(&mem, &live, count);
                sink.on_snapshot(&snap);
            }
        }
        for &event in regions {
            snapshot_region(sink, &mut live, event, track_heap_free);
        }
        sink.on_finish();
    }

    /// [`PackedTrace::replay_with_snapshots_opts_into`] with heap frees
    /// tracked, matching [`Trace::replay_with_snapshots_into`].
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
}

/// Applies one region event during a snapshot replay: frees clear the
/// live set (heap frees only when tracked, mirroring the paper's
/// stack-only deallocation tracking), then the sink is notified.
fn snapshot_region<S: AccessSink + ?Sized>(
    sink: &mut S,
    live: &mut LiveSet,
    event: RegionEvent,
    track_heap_free: bool,
) {
    if event.is_alloc {
        sink.on_alloc(event.region);
    } else {
        if track_heap_free || event.region.kind != crate::layout::RegionKind::Heap {
            live.clear_region(&event.region);
        }
        sink.on_free(event.region);
    }
}

/// Unpacks one column pair into an [`Access`].
#[inline]
fn decode(addr: u32, value: u32) -> Access {
    // `seeded-bugs` is a TEST-ONLY mutation used by the `fvl-check`
    // conformance harness: the load/store bit is decoded inverted, so
    // every packed load replays as a store and vice versa.
    #[cfg(feature = "seeded-bugs")]
    let is_store = addr & STORE_BIT == 0;
    #[cfg(not(feature = "seeded-bugs"))]
    let is_store = addr & STORE_BIT != 0;
    Access {
        addr: addr & !STORE_BIT,
        value,
        kind: if is_store {
            AccessKind::Store
        } else {
            AccessKind::Load
        },
    }
}

impl fmt::Debug for PackedTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedTrace")
            .field("accesses", &self.addrs.len())
            .field("region_events", &self.regions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::CountingSink;
    use crate::bus::{Bus, BusExt};
    use crate::trace::TraceBuffer;
    use crate::traced::TracedMemory;
    use fvl_cacheless_test_sinks::*;

    /// Minimal stats-bearing sink: counts loads/stores/allocs/frees and
    /// xors every (addr, value) so replay order differences show up.
    mod fvl_cacheless_test_sinks {
        use super::*;

        #[derive(Default, Debug, PartialEq, Eq, Clone, Copy)]
        pub struct DigestSink {
            pub loads: u64,
            pub stores: u64,
            pub allocs: u64,
            pub frees: u64,
            pub digest: u64,
            pub finished: u32,
        }

        impl AccessSink for DigestSink {
            fn on_access(&mut self, a: Access) {
                if a.kind.is_store() {
                    self.stores += 1;
                } else {
                    self.loads += 1;
                }
                self.digest = self
                    .digest
                    .wrapping_mul(0x100000001b3)
                    .wrapping_add(u64::from(a.addr) << 32 | u64::from(a.value));
            }
            fn on_alloc(&mut self, r: Region) {
                self.allocs += 1;
                self.digest = self.digest.rotate_left(7) ^ u64::from(r.base);
            }
            fn on_free(&mut self, r: Region) {
                self.frees += 1;
                self.digest = self.digest.rotate_left(11) ^ u64::from(r.base);
            }
            fn on_finish(&mut self) {
                self.finished += 1;
            }
        }
    }

    fn record_mixed() -> Trace {
        let mut buf = TraceBuffer::new();
        {
            let mut m = TracedMemory::new(&mut buf);
            let a = m.alloc(4);
            m.fill(a, 4, 7);
            let f = m.push_frame(2);
            m.store(f, 9);
            for i in 0..4 {
                let _ = m.load_idx(a, i);
            }
            m.pop_frame();
            m.free(a);
        }
        buf.into_trace()
    }

    #[test]
    fn round_trips_through_columns() {
        let trace = record_mixed();
        let packed = PackedTrace::from_trace(&trace);
        assert_eq!(packed.accesses(), trace.accesses());
        assert_eq!(packed.len(), trace.len());
        let unpacked = packed.to_trace();
        assert_eq!(unpacked.events(), trace.events());
        assert_eq!(
            packed.iter_accesses().collect::<Vec<_>>(),
            trace.iter_accesses().collect::<Vec<_>>()
        );
    }

    #[test]
    fn replay_matches_legacy_replay() {
        let trace = record_mixed();
        let packed = PackedTrace::from_trace(&trace);
        let mut legacy = DigestSink::default();
        trace.replay_into(&mut legacy);
        let mut columnar = DigestSink::default();
        packed.replay_into(&mut columnar);
        assert_eq!(legacy, columnar);
        assert_eq!(columnar.finished, 1, "on_finish exactly once");
        let mut dynamic = DigestSink::default();
        packed.replay(&mut dynamic);
        assert_eq!(legacy, dynamic);
    }

    #[test]
    fn snapshot_replay_matches_legacy() {
        let trace = record_mixed();
        let packed = PackedTrace::from_trace(&trace);
        for track_heap in [true, false] {
            for every in [1u64, 3, 100] {
                let mut legacy = CountingSink::new();
                trace.replay_with_snapshots_opts_into(&mut legacy, every, track_heap);
                let mut columnar = CountingSink::new();
                packed.replay_with_snapshots_opts_into(&mut columnar, every, track_heap);
                assert_eq!(legacy, columnar, "every={every} heap={track_heap}");
            }
        }
    }

    #[test]
    fn prefix_matches_legacy_prefix() {
        let trace = record_mixed();
        let packed = PackedTrace::from_trace(&trace);
        for cut in [0u64, 1, 5, trace.accesses(), 1_000_000] {
            let legacy = PackedTrace::from_trace(&trace.prefix(cut));
            let columnar = packed.prefix(cut);
            assert_eq!(legacy.addrs(), columnar.addrs(), "cut {cut}");
            assert_eq!(legacy.values(), columnar.values(), "cut {cut}");
            assert_eq!(
                legacy.region_events(),
                columnar.region_events(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn footprint_is_near_eight_bytes_per_access() {
        // Region events are rare in real workloads; model that mix.
        let mut buf = TraceBuffer::new();
        {
            let mut m = TracedMemory::new(&mut buf);
            let a = m.alloc(64);
            for round in 0..20u32 {
                m.fill(a, 64, round);
            }
            m.free(a);
        }
        let packed = PackedTrace::from_trace(&buf.into_trace());
        assert!(
            packed.bytes_per_event() <= 8.5,
            "{}",
            packed.bytes_per_event()
        );
        // The legacy representation pays 16 bytes per event.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 16);
    }

    #[test]
    fn from_columns_validates() {
        assert!(PackedTrace::from_columns(vec![0, 4], vec![1], vec![]).is_err());
        assert!(PackedTrace::from_columns(vec![2], vec![1], vec![]).is_err());
        let out_of_order = vec![
            RegionEvent {
                pos: 1,
                is_alloc: true,
                region: Region::new(0, 1, crate::layout::RegionKind::Heap),
            },
            RegionEvent {
                pos: 0,
                is_alloc: false,
                region: Region::new(0, 1, crate::layout::RegionKind::Heap),
            },
        ];
        assert!(PackedTrace::from_columns(vec![0, 4], vec![1, 2], out_of_order).is_err());
        let ok = PackedTrace::from_columns(vec![STORE_BIT, 4], vec![1, 2], vec![]).unwrap();
        assert_eq!(ok.access(0), Access::store(0, 1));
        assert_eq!(ok.access(1), Access::load(4, 2));
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn misaligned_access_is_rejected() {
        let trace = Trace::from_events(vec![TraceEvent::Access(Access::load(0x1002, 0))]);
        let _ = PackedTrace::from_trace(&trace);
    }
}
