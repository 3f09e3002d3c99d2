//! Model-based property tests for the memory substrate.
//!
//! Gated behind the `proptest` feature so the default test run stays
//! fast: `cargo test -p fvl-mem --features proptest`.
#![cfg(feature = "proptest")]

use fvl_mem::{
    varint, Access, AccessSink, Bus, CountingSink, HeapAllocator, LiveSet, MappedTrace,
    PackedTrace, Region, RegionKind, SimMemory, Trace, TraceBuffer, TraceEvent, TracedMemory,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Arbitrary interleavings of word-aligned accesses and region events —
/// the full input space of a recorded trace.
fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..1 << 16, any::<u32>(), any::<bool>()).prop_map(|(slot, v, st)| {
                let a = slot * 4;
                TraceEvent::Access(if st {
                    Access::store(a, v)
                } else {
                    Access::load(a, v)
                })
            }),
            (0u32..1 << 16, 1u32..64).prop_map(|(slot, w)| {
                TraceEvent::Alloc(Region::new(slot * 4, w, RegionKind::Heap))
            }),
            (0u32..1 << 16, 1u32..64).prop_map(|(slot, w)| {
                TraceEvent::Free(Region::new(slot * 4, w, RegionKind::Stack))
            }),
        ],
        0..200,
    )
}

/// Records every event in order, and how often the run finished.
#[derive(Clone, Default, Debug, PartialEq)]
struct Recorder {
    events: Vec<TraceEvent>,
    finished: u32,
}

impl AccessSink for Recorder {
    fn on_access(&mut self, a: Access) {
        self.events.push(TraceEvent::Access(a));
    }
    fn on_alloc(&mut self, r: Region) {
        self.events.push(TraceEvent::Alloc(r));
    }
    fn on_free(&mut self, r: Region) {
        self.events.push(TraceEvent::Free(r));
    }
    fn on_finish(&mut self) {
        self.finished += 1;
    }
}

/// Forwards every event to the recorder and to a second sink.
struct Tee<'a, S>(&'a mut TraceBuffer, &'a mut S);

impl<S: AccessSink> AccessSink for Tee<'_, S> {
    fn on_access(&mut self, a: Access) {
        self.0.on_access(a);
        self.1.on_access(a);
    }
    fn on_alloc(&mut self, r: Region) {
        self.0.on_alloc(r);
        self.1.on_alloc(r);
    }
    fn on_free(&mut self, r: Region) {
        self.0.on_free(r);
        self.1.on_free(r);
    }
}

/// Bases that put word offsets of up to 16 KiB across a 4 KiB page
/// boundary, a 4 MiB top-level boundary (0x40_0000, 0x100_0000) and up
/// to the last word of the address space.
const BASES: [u32; 4] = [0x0000_0000, 0x003f_e000, 0x00ff_f000, 0xffff_c000];

/// A word address near one of [`BASES`].
fn arb_addr() -> impl Strategy<Value = u32> {
    (0usize..4, 0u32..4096).prop_map(|(base, word)| BASES[base] + word * 4)
}

/// One operation on the two page-table-backed structures.
#[derive(Clone, Debug)]
enum PageOp {
    Read(u32),
    Write(u32, u32),
    ReadLine(u32, usize),
    WriteLine(u32, Vec<u32>),
    Mark(u32),
    Clear(u32, u32),
}

/// Words from `addr` up to `len`, stopping at the top of memory.
fn fit(addr: u32, len: usize) -> usize {
    len.min(((1u64 << 32) - u64::from(addr)) as usize / 4)
}

fn arb_page_ops() -> impl Strategy<Value = Vec<PageOp>> {
    prop::collection::vec(
        prop_oneof![
            arb_addr().prop_map(PageOp::Read),
            (arb_addr(), any::<u32>()).prop_map(|(a, v)| PageOp::Write(a, v)),
            (arb_addr(), 1usize..80).prop_map(|(a, n)| PageOp::ReadLine(a, fit(a, n))),
            (arb_addr(), prop::collection::vec(0u32..3, 1..80)).prop_map(|(a, mut words)| {
                words.truncate(fit(a, words.len()));
                PageOp::WriteLine(a, words)
            }),
            arb_addr().prop_map(PageOp::Mark),
            (arb_addr(), 1u32..80).prop_map(|(a, n)| PageOp::Clear(a, fit(a, n as usize) as u32)),
        ],
        1..300,
    )
}

proptest! {
    /// The recorder's packed columns hold the stream a tee'd sink saw,
    /// cut at a cap exactly as `Trace::into_prefix` cuts it, with the
    /// region events that sit at the cap.
    #[test]
    fn recorder_matches_a_tee_sink(events in arb_events(), cap in prop::option::of(0u32..120)) {
        let cap = cap.map(u64::from);
        let mut buf = TraceBuffer::new();
        if let Some(cap) = cap {
            buf = TraceBuffer::with_capacity(cap as usize).with_access_limit(cap);
        }
        let mut seen = Recorder::default();
        {
            let mut tee = Tee(&mut buf, &mut seen);
            Trace::from_events(events).replay_into(&mut tee);
        }
        let mut expect = Trace::from_events(seen.events);
        if let Some(cap) = cap {
            expect = expect.into_prefix(cap);
        }
        prop_assert_eq!(buf.len(), expect.len());
        let packed = buf.into_packed();
        prop_assert_eq!(packed.accesses(), expect.accesses());
        prop_assert_eq!(packed.to_trace().events(), expect.events());
        prop_assert_eq!(packed.approx_bytes(), PackedTrace::from_trace(&expect).approx_bytes());
    }

    /// `SimMemory` and `LiveSet` behave like `BTreeMap` models under
    /// word and line reads and writes, marks and region clears, with
    /// lines and regions across page and top-level boundaries; the live
    /// set iterates in ascending address order.
    #[test]
    fn page_tables_match_ordered_models(ops in arb_page_ops()) {
        let mut mem = SimMemory::new();
        let mut live = LiveSet::new();
        let mut words: BTreeMap<u32, u32> = BTreeMap::new();
        let mut marked: BTreeMap<u32, ()> = BTreeMap::new();
        let word = |words: &BTreeMap<u32, u32>, a: u32| words.get(&a).copied().unwrap_or(0);
        for op in ops {
            match op {
                PageOp::Read(a) => prop_assert_eq!(mem.read(a), word(&words, a)),
                PageOp::Write(a, v) => {
                    mem.write(a, v);
                    words.insert(a, v);
                }
                PageOp::ReadLine(a, n) => {
                    let mut line = vec![u32::MAX; n];
                    mem.read_line(a, &mut line);
                    for (i, &v) in line.iter().enumerate() {
                        prop_assert_eq!(v, word(&words, a + 4 * i as u32));
                    }
                }
                PageOp::WriteLine(a, line) => {
                    mem.write_line(a, &line);
                    for (i, &v) in line.iter().enumerate() {
                        words.insert(a + 4 * i as u32, v);
                    }
                }
                PageOp::Mark(a) => {
                    live.mark(a);
                    marked.insert(a, ());
                    prop_assert!(live.contains(a));
                }
                PageOp::Clear(a, n) => {
                    live.clear_region(&Region::new(a, n, RegionKind::Heap));
                    for i in 0..n {
                        marked.remove(&(a + 4 * i));
                    }
                    prop_assert!(!live.contains(a));
                }
            }
            prop_assert_eq!(live.len(), marked.len() as u64);
        }
        for (&a, &v) in &words {
            prop_assert_eq!(mem.read(a), v);
        }
        let iterated: Vec<u32> = live.iter().collect();
        let expected: Vec<u32> = marked.keys().copied().collect();
        prop_assert_eq!(iterated, expected);
    }

    /// The columnar layout is lossless: any trace survives
    /// Trace -> PackedTrace -> Trace with its event order intact, and
    /// both layouts deliver identical streams to a sink.
    #[test]
    fn packed_trace_round_trips_arbitrary_events(events in arb_events()) {
        let trace = Trace::from_events(events);
        let packed = PackedTrace::from_trace(&trace);
        prop_assert_eq!(packed.accesses(), trace.accesses());
        prop_assert_eq!(packed.to_trace().events(), trace.events());
        let mut legacy = CountingSink::new();
        trace.replay_into(&mut legacy);
        let mut columnar = CountingSink::new();
        packed.replay_into(&mut columnar);
        prop_assert_eq!(columnar.accesses(), legacy.accesses());
        prop_assert_eq!(columnar.loads(), legacy.loads());
        prop_assert_eq!(columnar.stores(), legacy.stores());
        prop_assert_eq!(columnar.allocs(), legacy.allocs());
        prop_assert_eq!(columnar.frees(), legacy.frees());
    }

    /// The chunk-indexed v2.2 format round-trips any trace at any chunk
    /// size, through both the resident decode and the lazy
    /// chunk-by-chunk replay. Small chunk sizes put region events
    /// on and around chunk boundaries; the generated access counts land
    /// on exact-multiple and straggler chunk splits.
    #[test]
    fn trace_format_v22_round_trips(events in arb_events(), chunk_accesses in 1u32..300) {
        let trace = Trace::from_events(events);
        let packed = PackedTrace::from_trace(&trace);
        let mut v22 = Vec::new();
        packed.write_v22_with(&mut v22, chunk_accesses).unwrap();

        // Strict layout validation, the resident decode, chunk
        // concatenation and lazy replay must all reproduce the trace.
        let mapped = MappedTrace::from_bytes(v22).unwrap();
        prop_assert_eq!(mapped.accesses(), packed.accesses());
        let resident = mapped.to_packed().unwrap();
        prop_assert_eq!(resident.addrs(), packed.addrs());
        prop_assert_eq!(resident.values(), packed.values());
        prop_assert_eq!(resident.region_events(), packed.region_events());
        let mut concat_addrs: Vec<u32> = Vec::new();
        for i in 0..mapped.chunk_count() {
            concat_addrs.extend_from_slice(mapped.decode_chunk(i).unwrap().addrs());
        }
        prop_assert_eq!(concat_addrs.as_slice(), packed.addrs());
        let mut lazy = Recorder::default();
        mapped.replay_into(&mut lazy).unwrap();
        prop_assert_eq!(&lazy.events[..], trace.events());
        prop_assert_eq!(lazy.finished, 1);
    }

    /// The stream-split address codec round-trips any packed address
    /// column, including full-range words (maximum positive and
    /// negative deltas) and every store-bit combination.
    #[test]
    fn split_addr_codec_round_trips(
        words in prop::collection::vec((0u32..=u32::MAX >> 2, any::<bool>()), 0..300),
    ) {
        let addrs: Vec<u32> = words
            .into_iter()
            .map(|(word, store)| (word << 2) | u32::from(store))
            .collect();
        let mut encoded = Vec::new();
        varint::encode_addr_chunk_split(&addrs, &mut encoded);
        let control = addrs.len().div_ceil(4);
        prop_assert!(encoded.len() <= control + addrs.len() * varint::MAX_SPLIT_BYTES_PER_ADDR);
        let mut decoded = Vec::new();
        varint::decode_addr_chunk_split_into(&encoded, addrs.len(), &mut decoded).unwrap();
        prop_assert_eq!(decoded, addrs);
    }

    /// SimMemory behaves exactly like a HashMap with a zero default.
    #[test]
    fn sim_memory_matches_map_model(
        ops in prop::collection::vec((0u32..1 << 20, prop::option::of(any::<u32>())), 1..300),
    ) {
        let mut mem = SimMemory::new();
        let mut model: HashMap<u32, u32> = HashMap::new();
        for (slot, op) in ops {
            let addr = slot * 4;
            match op {
                Some(value) => {
                    mem.write(addr, value);
                    model.insert(addr, value);
                }
                None => {
                    prop_assert_eq!(mem.read(addr), model.get(&addr).copied().unwrap_or(0));
                }
            }
        }
    }

    /// LiveSet behaves exactly like a HashSet under mark/clear_region.
    #[test]
    fn live_set_matches_set_model(
        ops in prop::collection::vec((0u32..4096, 0u32..8, any::<bool>()), 1..300),
    ) {
        let mut live = LiveSet::new();
        let mut model: HashSet<u32> = HashSet::new();
        for (slot, span, is_clear) in ops {
            let addr = slot * 4;
            if is_clear {
                let words = span + 1;
                live.clear_region(&Region::new(addr, words, RegionKind::Heap));
                for w in 0..words {
                    model.remove(&(addr + w * 4));
                }
            } else {
                live.mark(addr);
                model.insert(addr);
            }
            prop_assert_eq!(live.len(), model.len() as u64);
        }
        let collected: HashSet<u32> = live.iter().collect();
        prop_assert_eq!(collected, model);
    }

    /// Live heap allocations never overlap, and frees recycle exactly.
    #[test]
    fn heap_allocations_never_overlap(
        ops in prop::collection::vec((1u32..64, any::<bool>()), 1..200),
    ) {
        let mut heap = HeapAllocator::new();
        let mut live: Vec<Region> = Vec::new();
        for (words, free_instead) in ops {
            if free_instead && !live.is_empty() {
                let region = live.swap_remove(words as usize % live.len());
                let freed = heap.free(region.base);
                prop_assert_eq!(freed, region);
            } else {
                let region = heap.alloc(words);
                prop_assert!(region.words >= words);
                for other in &live {
                    prop_assert!(
                        region.end() <= other.base as u64 || other.end() <= region.base as u64,
                        "overlap: {:?} vs {:?}",
                        region,
                        other
                    );
                }
                live.push(region);
            }
        }
        prop_assert_eq!(heap.live_allocs(), live.len());
    }

    /// A TracedMemory run replayed from its trace delivers the identical
    /// event stream to a sink.
    #[test]
    fn record_replay_equivalence(
        program in prop::collection::vec((0u32..256, prop::option::of(any::<u32>())), 1..150),
    ) {
        let mut buf = TraceBuffer::new();
        let mut direct = CountingSink::new();
        {
            let mut tee = Tee(&mut buf, &mut direct);
            let mut mem = TracedMemory::new(&mut tee);
            let base = mem.global(256);
            for (slot, op) in &program {
                match op {
                    Some(v) => mem.store(base + slot * 4, *v),
                    None => {
                        let _ = mem.load(base + slot * 4);
                    }
                }
            }
        }
        let mut replayed = CountingSink::new();
        buf.into_trace().replay(&mut replayed);
        prop_assert_eq!(replayed.accesses(), direct.accesses());
        prop_assert_eq!(replayed.loads(), direct.loads());
        prop_assert_eq!(replayed.stores(), direct.stores());
    }
}
