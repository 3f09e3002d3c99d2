//! Format pin: a committed `FVLTRC22` trace file (at `tests/data/`)
//! must keep decoding to the same events through both read paths and
//! must re-encode byte-identically. It holds the event stream of the
//! original `FVLTRC1` golden file, transcoded at two accesses per chunk
//! so that region events sit on chunk boundaries. If an encoding change
//! ever breaks existing files, this test fails before the change ships.

#![cfg(not(feature = "seeded-bugs"))]

use fvl_mem::{
    Access, AccessSink, MappedTrace, PackedTrace, Region, RegionKind, Trace, TraceEvent,
};

const GOLDEN_V22: &[u8] = include_bytes!("data/golden_v22.fvltrc");

/// The chunk size the golden file was written with.
const GOLDEN_CHUNK_ACCESSES: u32 = 2;

/// The event stream the golden file was generated from.
fn expected_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Alloc(Region::new(0x1000, 16, RegionKind::Global)),
        TraceEvent::Access(Access::load(0x1000, 7)),
        TraceEvent::Access(Access::store(0x1004, 0xDEAD_BEEF)),
        TraceEvent::Alloc(Region::new(0x2000, 8, RegionKind::Heap)),
        TraceEvent::Access(Access::store(0x2000, 0)),
        TraceEvent::Access(Access::load(0x2000, 0)),
        TraceEvent::Access(Access::store(0x2004, 0xFFFF_FFFF)),
        TraceEvent::Alloc(Region::new(0x3FFC, 1, RegionKind::Stack)),
        TraceEvent::Access(Access::load(0x3FFC, 42)),
        TraceEvent::Free(Region::new(0x3FFC, 1, RegionKind::Stack)),
        TraceEvent::Access(Access::store(0x1008, 1)),
        TraceEvent::Free(Region::new(0x2000, 8, RegionKind::Heap)),
        TraceEvent::Access(Access::load(0x100C, 0x8000_0000)),
    ]
}

/// Records the event stream a replay delivers.
#[derive(Default)]
struct Recorder(Vec<TraceEvent>);

impl AccessSink for Recorder {
    fn on_access(&mut self, a: Access) {
        self.0.push(TraceEvent::Access(a));
    }
    fn on_alloc(&mut self, r: Region) {
        self.0.push(TraceEvent::Alloc(r));
    }
    fn on_free(&mut self, r: Region) {
        self.0.push(TraceEvent::Free(r));
    }
}

#[test]
fn golden_v22_file_decodes_to_the_archived_events() {
    let mapped = MappedTrace::from_bytes(GOLDEN_V22).expect("golden v2.2 trace must open");
    assert_eq!(mapped.chunk_accesses(), GOLDEN_CHUNK_ACCESSES);
    assert_eq!(mapped.chunk_count(), 4);
    let packed = mapped.to_packed().expect("golden v2.2 trace must decode");
    assert_eq!(packed.to_trace().events(), expected_events().as_slice());
    assert_eq!(packed.accesses(), 8);
    assert_eq!(packed.region_events().len(), 5);
    // The allocs before the third and the seventh access open chunks 1
    // and 3.
    let boundary = u64::from(GOLDEN_CHUNK_ACCESSES);
    let on_boundaries = packed
        .region_events()
        .iter()
        .filter(|e| e.pos > 0 && e.pos % boundary == 0)
        .count();
    assert_eq!(on_boundaries, 2);
}

#[test]
fn golden_v22_file_replays_the_archived_events_lazily() {
    let mapped = MappedTrace::from_bytes(GOLDEN_V22).unwrap();
    let mut events = Recorder::default();
    mapped.replay_into(&mut events).unwrap();
    assert_eq!(events.0, expected_events());
}

#[test]
fn golden_v22_file_round_trips_byte_identically() {
    let decoded = MappedTrace::from_bytes(GOLDEN_V22)
        .and_then(|m| m.to_packed())
        .unwrap();
    let mut rewritten = Vec::new();
    decoded
        .write_v22_with(&mut rewritten, GOLDEN_CHUNK_ACCESSES)
        .unwrap();
    assert_eq!(rewritten.as_slice(), GOLDEN_V22, "v2.2 decoder drifted");
    let mut encoded = Vec::new();
    PackedTrace::from_trace(&Trace::from_events(expected_events()))
        .write_v22_with(&mut encoded, GOLDEN_CHUNK_ACCESSES)
        .unwrap();
    assert_eq!(encoded.as_slice(), GOLDEN_V22, "v2.2 encoder drifted");
}
