//! Corrupt-input matrix for the trace codecs: truncated v1/v2/v2.2
//! streams, bad magic headers, hostile length fields, malformed record
//! bodies and chunk layouts the writer never produces. Every case must
//! come back as an `Err` — never a panic, and never an attempt to
//! allocate a buffer sized by attacker-controlled header counts. And no
//! case may read as two different traces: the sequential reader and the
//! mapped reader's lazy chunk-by-chunk decode each either reject it or
//! decode the same trace.

use fvl_mem::{
    Access, AccessSink, MappedTrace, PackedTrace, Region, RegionKind, Trace, TraceEvent,
};
use std::io::ErrorKind;

/// A small trace exercising every event tag: loads, stores, and
/// alloc/free region events in both formats.
fn sample_trace() -> Trace {
    Trace::from_events(vec![
        TraceEvent::Alloc(Region::new(0x1000, 8, RegionKind::Heap)),
        TraceEvent::Access(Access::store(0x1000, 7)),
        TraceEvent::Access(Access::load(0x1000, 7)),
        TraceEvent::Access(Access::load(0x1004, 0)),
        TraceEvent::Free(Region::new(0x1000, 8, RegionKind::Heap)),
        TraceEvent::Alloc(Region::new(0x8000_0000, 2, RegionKind::Stack)),
        TraceEvent::Access(Access::store(0x8000_0000, 3)),
    ])
}

fn v1_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    sample_trace().write_to(&mut bytes).unwrap();
    bytes
}

fn v2_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    PackedTrace::from_trace(&sample_trace())
        .write_to(&mut bytes)
        .unwrap();
    bytes
}

/// The sample trace in the chunk-indexed v2.2 format at a chunk size of
/// two accesses, so the four accesses split across two chunks and the
/// footer index has multiple entries to corrupt.
fn v22_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    PackedTrace::from_trace(&sample_trace())
        .write_v22_with(&mut bytes, 2)
        .unwrap();
    bytes
}

/// A raw v2.2 header with attacker-chosen counts, the correct codec id,
/// and no body.
fn v22_header(accesses: u64, regions: u64, chunks: u64, chunk_accesses: u32) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"FVLTRC22");
    bytes.extend_from_slice(&accesses.to_le_bytes());
    bytes.extend_from_slice(&regions.to_le_bytes());
    bytes.extend_from_slice(&chunks.to_le_bytes());
    bytes.extend_from_slice(&chunk_accesses.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes()); // codec id: split
    bytes
}

/// Records the event stream a reader delivers.
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

/// The two readers must never accept `bytes` as two different traces:
/// [`PackedTrace::read_from`] (the in-RAM sweep and serve uploads) and
/// [`MappedTrace::replay_into`] (the corpus sweep's lazy path) each
/// either reject it or deliver the same events.
fn assert_readers_agree(bytes: &[u8], what: &str) {
    let streamed = PackedTrace::read_from(bytes).ok();
    let lazy = MappedTrace::from_bytes(bytes.to_vec()).ok().and_then(|m| {
        let mut events = Recorder::default();
        m.replay_into(&mut events).ok().map(|()| events.0)
    });
    if let (Some(streamed), Some(lazy)) = (streamed, lazy) {
        assert_eq!(
            streamed.iter_events().collect::<Vec<_>>(),
            lazy,
            "the readers decode {what} as two different traces"
        );
    }
}

/// The mapped reader must reject `bytes` with a decode-shaped error.
fn assert_mapped_rejected(bytes: &[u8], what: &str) {
    assert_readers_agree(bytes, what);
    let err = MappedTrace::from_bytes(bytes.to_vec())
        .err()
        .unwrap_or_else(|| panic!("MappedTrace accepted {what}"));
    assert!(
        matches!(
            err.kind(),
            ErrorKind::InvalidData | ErrorKind::UnexpectedEof
        ),
        "MappedTrace on {what}: unexpected error kind {:?}",
        err.kind()
    );
}

/// The mapped reader opens `bytes` (the index is sound) but its lazy
/// decode must fail.
fn assert_lazy_decode_fails(bytes: Vec<u8>, what: &str) {
    let mapped = MappedTrace::from_bytes(bytes).expect("the index is sound");
    let mut events = Recorder::default();
    assert!(
        mapped.replay_into(&mut events).is_err(),
        "lazy decode accepted {what}"
    );
}

/// Both decoders must reject `bytes` with a decode-shaped error.
fn assert_rejected(bytes: &[u8], what: &str) {
    assert_readers_agree(bytes, what);
    for (reader, err) in [
        ("Trace", Trace::read_from(bytes).err()),
        ("PackedTrace", PackedTrace::read_from(bytes).err()),
    ] {
        let err = err.unwrap_or_else(|| panic!("{reader} accepted {what}"));
        assert!(
            matches!(
                err.kind(),
                ErrorKind::InvalidData | ErrorKind::UnexpectedEof
            ),
            "{reader} on {what}: unexpected error kind {:?}",
            err.kind()
        );
    }
}

#[test]
fn every_strict_prefix_of_a_v1_stream_is_rejected() {
    let bytes = v1_bytes();
    for len in 0..bytes.len() {
        assert_rejected(&bytes[..len], &format!("v1 prefix of {len} bytes"));
    }
    assert!(Trace::read_from(bytes.as_slice()).is_ok(), "full stream ok");
}

#[test]
fn every_strict_prefix_of_a_v2_stream_is_rejected() {
    let bytes = v2_bytes();
    for len in 0..bytes.len() {
        assert_rejected(&bytes[..len], &format!("v2 prefix of {len} bytes"));
    }
    assert!(
        PackedTrace::read_from(bytes.as_slice()).is_ok(),
        "full stream ok"
    );
}

#[test]
fn bad_magic_variants_are_invalid_data() {
    let variants: [&[u8]; 6] = [
        b"NOTATRACEATALL",
        b"FVLTRC3\n\0\0\0\0\0\0\0\0",   // future version
        b"FVLTRC1 \0\0\0\0\0\0\0\0",    // missing the newline terminator
        b"fvltrc1\n\0\0\0\0\0\0\0\0",   // wrong case
        b"\nFVLTRC1\0\0\0\0\0\0\0\0",   // shifted by one
        b"\x7fELF\x02\x01\x01\0\0\0\0", // a different file family entirely
    ];
    for bytes in variants {
        assert_readers_agree(bytes, "a bad magic");
        for err in [
            Trace::read_from(bytes).unwrap_err(),
            PackedTrace::read_from(bytes).unwrap_err(),
        ] {
            assert_eq!(err.kind(), ErrorKind::InvalidData, "input {bytes:?}");
        }
    }
}

#[test]
fn hostile_v1_event_count_fails_without_allocating() {
    // len = u64::MAX: the decoder must not size a buffer from the header
    // (that would be a ~2^64-entry allocation) — it reads events until
    // the stream runs dry and reports truncation.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"FVLTRC1\n");
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    assert_rejected(&bytes, "v1 with len=u64::MAX");

    // Same with one valid event present: count still unsatisfiable.
    bytes.push(0); // TAG_LOAD
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    assert_rejected(&bytes, "v1 with len=u64::MAX and one event");
}

#[test]
fn oversized_v2_header_counts_are_rejected() {
    // accesses > u32::MAX is structurally impossible for packed columns.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"FVLTRC2\n");
    bytes.extend_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    assert_rejected(&bytes, "v2 with accesses=u32::MAX+1");

    // region_count far beyond the guard.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"FVLTRC2\n");
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    assert_rejected(&bytes, "v2 with region_count=u64::MAX");

    // region_count exactly at the 2^32 boundary with an empty body must
    // error on truncation, not allocate 2^32 records up front.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"FVLTRC2\n");
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&(1u64 << 32).to_le_bytes());
    assert_rejected(&bytes, "v2 with region_count=2^32 and no body");
}

#[test]
fn v2_header_larger_than_the_body_is_truncation() {
    // Claim 1000 accesses but supply only 4 words of column data.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"FVLTRC2\n");
    bytes.extend_from_slice(&1000u64.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    for w in 0u32..4 {
        bytes.extend_from_slice(&(w * 4).to_le_bytes());
    }
    assert_rejected(&bytes, "v2 with a short address column");
}

#[test]
fn truncated_v2_region_table_is_rejected() {
    // Valid columns, two region events declared, only one present.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"FVLTRC2\n");
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&2u64.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes()); // pos
    bytes.push(1); // is_alloc
    bytes.push(1); // heap
    bytes.extend_from_slice(&0x1000u32.to_le_bytes());
    bytes.extend_from_slice(&8u32.to_le_bytes());
    assert_rejected(&bytes, "v2 with a truncated region table");
}

#[test]
fn corrupt_v1_record_bodies_are_invalid_data() {
    // Bad event tag.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"FVLTRC1\n");
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.push(250);
    assert_rejected(&bytes, "v1 with tag 250");

    // Valid alloc tag, bad region kind byte.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"FVLTRC1\n");
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.push(2); // TAG_ALLOC
    bytes.push(9); // no such RegionKind
    bytes.extend_from_slice(&0x1000u32.to_le_bytes());
    bytes.extend_from_slice(&8u32.to_le_bytes());
    assert_rejected(&bytes, "v1 with region kind 9");
}

#[test]
fn corrupt_v2_record_bodies_are_invalid_data() {
    // A misaligned packed address (bit 1 set survives the store-bit
    // mask) must be rejected by column validation.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"FVLTRC2\n");
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&0x1002u32.to_le_bytes()); // addr column
    bytes.extend_from_slice(&7u32.to_le_bytes()); // value column
    assert_rejected(&bytes, "v2 with a misaligned packed address");

    // A region event positioned past the access count.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"FVLTRC2\n");
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&0x1000u32.to_le_bytes());
    bytes.extend_from_slice(&7u32.to_le_bytes());
    bytes.extend_from_slice(&99u64.to_le_bytes()); // pos > accesses
    bytes.push(1);
    bytes.push(1);
    bytes.extend_from_slice(&0x1000u32.to_le_bytes());
    bytes.extend_from_slice(&8u32.to_le_bytes());
    assert_rejected(&bytes, "v2 with a region event past the end");
}

#[test]
fn hostile_v22_chunk_headers_fail_without_allocating() {
    // The first chunk's inline header sits right after the 40-byte file
    // header: chunk_len at +40, addr_bytes at +44.
    let mut bytes = v22_bytes();
    bytes[44..48].copy_from_slice(&u32::MAX.to_le_bytes());
    // addr_bytes=u32::MAX exceeds the split ceiling (one control byte
    // per four addresses plus 4 payload bytes per address) for a
    // two-access chunk: both decoders must reject it before allocating
    // a 4 GiB column buffer. The mapped reader also sees it disagree
    // with the footer index entry.
    assert_rejected(&bytes, "v2.2 with inline addr_bytes=u32::MAX");
    assert_mapped_rejected(&bytes, "v2.2 with inline addr_bytes=u32::MAX");

    // An inline chunk_len that disagrees with the geometry the file
    // header promises (and with the footer index entry).
    let mut bytes = v22_bytes();
    bytes[40..44].copy_from_slice(&3u32.to_le_bytes());
    assert_rejected(&bytes, "v2.2 with inline chunk_len=3");
    assert_mapped_rejected(&bytes, "v2.2 with inline chunk_len=3");
}

#[test]
fn hostile_v22_chunk_index_entries_are_rejected() {
    // The footer is invisible to the streaming decoders, so these cases
    // target the mapped reader's strict index validation alone.
    let good = v22_bytes();
    let len = good.len();
    let index_offset = len - 8 - 2 * 16;

    // Trailing index offset pointing outside the file, or inconsistent
    // with the file length.
    for bogus in [u64::MAX, 0, index_offset as u64 - 1] {
        let mut bytes = good.clone();
        bytes[len - 8..].copy_from_slice(&bogus.to_le_bytes());
        assert_mapped_rejected(&bytes, &format!("v2.2 with index_offset={bogus}"));
    }

    // First index entry: payload_offset at +0, chunk_len at +8,
    // addr_bytes at +12. A payload offset at u64::MAX must not wrap
    // into an in-bounds slice, one past the region table must not read
    // region bytes as chunk payload.
    for bogus in [u64::MAX, len as u64, 0] {
        let mut bytes = good.clone();
        bytes[index_offset..index_offset + 8].copy_from_slice(&bogus.to_le_bytes());
        assert_mapped_rejected(&bytes, &format!("v2.2 with payload_offset={bogus}"));
    }

    // Index-entry chunk geometry that disagrees with the file header
    // (and the inline chunk header). addr_bytes=u32::MAX must be
    // rejected by the per-chunk ceiling before any decode allocates.
    let mut bytes = good.clone();
    bytes[index_offset + 8..index_offset + 12].copy_from_slice(&7u32.to_le_bytes());
    assert_mapped_rejected(&bytes, "v2.2 with index chunk_len=7");
    let mut bytes = good.clone();
    bytes[index_offset + 12..index_offset + 16].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_mapped_rejected(&bytes, "v2.2 with index addr_bytes=u32::MAX");
}

#[test]
fn aliased_and_gapped_chunk_layouts_are_rejected() {
    // Four loads at two accesses per chunk. Both chunks hold two
    // one-byte tokens, so their inline headers are identical and each
    // index entry passes the inline cross-check wherever it points.
    let trace = Trace::from_events(
        [0x10, 0x14, 0x40, 0x44]
            .into_iter()
            .map(|addr| TraceEvent::Access(Access::load(addr, 0)))
            .collect(),
    );
    let mut good = Vec::new();
    PackedTrace::from_trace(&trace)
        .write_v22_with(&mut good, 2)
        .unwrap();
    // Two index entries of 16 bytes each sit before the trailing index
    // offset; with no region events the index follows chunk 1 directly.
    let entry = |bytes: &[u8], i: usize| bytes.len() - 8 - (2 - i) * 16;
    let offset_of = |bytes: &[u8], i: usize| {
        let at = entry(bytes, i);
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
    };
    let (chunk1, payload_end) = (offset_of(&good, 1), entry(&good, 0));
    assert_eq!(offset_of(&good, 0), 40);
    assert_eq!(
        good[40..48],
        good[chunk1..chunk1 + 8],
        "inline headers differ"
    );

    // Chunk 1's entry aliases chunk 0's payload: the lazy decode would
    // replay 0x10 0x14 0x10 0x14 while the sequential reader decodes
    // 0x10 0x14 0x40 0x44.
    let mut aliased = good.clone();
    let at = entry(&aliased, 1);
    aliased[at..at + 8].copy_from_slice(&40u64.to_le_bytes());
    assert!(PackedTrace::read_from(aliased.as_slice()).is_ok());
    assert_mapped_rejected(&aliased, "chunk 1 aliasing chunk 0");
    let err = MappedTrace::from_bytes(aliased).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");

    // Gaps: four stray bytes before chunk 1 (its entry moved to match),
    // and four between the last chunk and the region table, each with
    // the trailing index offset shifted to the index's new place.
    for (gap, what) in [
        (chunk1, "a gap before chunk 1"),
        (payload_end, "a gap after chunk 1"),
    ] {
        let mut gapped = good[..gap].to_vec();
        gapped.extend_from_slice(&[0xa5; 4]);
        gapped.extend_from_slice(&good[gap..]);
        if gap == chunk1 {
            let at = entry(&gapped, 1);
            gapped[at..at + 8].copy_from_slice(&(chunk1 as u64 + 4).to_le_bytes());
        }
        let index_offset = entry(&gapped, 0) as u64;
        let at = gapped.len() - 8;
        gapped[at..].copy_from_slice(&index_offset.to_le_bytes());
        assert_mapped_rejected(&gapped, what);
        let err = MappedTrace::from_bytes(gapped).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
    }
}

#[test]
fn every_strict_prefix_of_a_v22_stream_is_rejected() {
    let bytes = v22_bytes();
    let full = MappedTrace::from_bytes(bytes.clone()).expect("full v2.2 stream ok");
    assert_eq!(full.chunk_count(), 2);
    let footer = full.chunk_count() as usize * 16 + 8;
    let payload_end = bytes.len() - footer;
    for len in 0..payload_end {
        assert_rejected(&bytes[..len], &format!("v2.2 prefix of {len} bytes"));
    }
    for len in 0..bytes.len() {
        assert_mapped_rejected(&bytes[..len], &format!("v2.2 prefix of {len} bytes"));
    }
    assert!(
        PackedTrace::read_from(bytes.as_slice()).is_ok(),
        "full stream ok"
    );
    assert_readers_agree(&bytes, "the full v2.2 stream");
}

#[test]
fn hostile_v22_header_counts_fail_without_allocating() {
    let bytes = v22_header(u64::from(u32::MAX) + 1, 0, 1, 1);
    assert_rejected(&bytes, "v2.2 with accesses=u32::MAX+1");
    assert_mapped_rejected(&bytes, "v2.2 with accesses=u32::MAX+1");

    let bytes = v22_header(4, 0, u64::MAX, 2);
    assert_rejected(&bytes, "v2.2 with chunk_count=u64::MAX");
    assert_mapped_rejected(&bytes, "v2.2 with chunk_count=u64::MAX");

    let bytes = v22_header(4, 0, 2, 0);
    assert_rejected(&bytes, "v2.2 with chunk_accesses=0");
    assert_mapped_rejected(&bytes, "v2.2 with chunk_accesses=0");

    let bytes = v22_header(0, u64::MAX, 0, 2);
    assert_rejected(&bytes, "v2.2 with region_count=u64::MAX");
    assert_mapped_rejected(&bytes, "v2.2 with region_count=u64::MAX");
}

#[test]
fn v22_codec_id_mismatch_is_rejected() {
    // A v2.2 magic whose reserved word does not carry the split codec
    // id is a header/codec disagreement, not a decodable file.
    for bogus in [0u32, 7, u32::MAX] {
        let mut bytes = v22_bytes();
        bytes[36..40].copy_from_slice(&bogus.to_le_bytes());
        assert_rejected(&bytes, &format!("v2.2 with codec id {bogus}"));
        assert_mapped_rejected(&bytes, &format!("v2.2 with codec id {bogus}"));
    }
}

#[test]
fn v22_control_payload_stream_mismatches_are_rejected() {
    // Chunk 0 of the sample v2.2 file holds two accesses: tokens 0x1001
    // (two payload bytes) and 0x0 (one), so its address column is one
    // control byte `0b01` at offset 48 (40-byte file header + 8-byte
    // inline chunk header) followed by a three-byte payload stream.
    let good = v22_bytes();
    assert_eq!(good[48] & 0x0f, 0b01, "control byte moved — update test");

    // Inflating lane 0's length code makes the control stream claim
    // more payload than the chunk carries: strict under-run.
    let mut bytes = good.clone();
    bytes[48] = 0b11;
    assert_rejected(&bytes, "v2.2 control over-claims payload");
    assert_lazy_decode_fails(bytes, "an over-claiming control stream");

    // Shrinking it leaves payload bytes no control code accounts for:
    // the decoder must flag the orphaned trailing bytes.
    let mut bytes = good.clone();
    bytes[48] = 0b00;
    assert_rejected(&bytes, "v2.2 control under-claims payload");
    assert_lazy_decode_fails(bytes, "orphaned payload bytes");

    // Unused high lanes of the last control byte must be zero: a
    // non-canonical encoding is rejected before any token decodes.
    let mut bytes = good.clone();
    bytes[48] |= 0xf0;
    assert_rejected(&bytes, "v2.2 non-canonical control padding");
    assert_lazy_decode_fails(bytes, "non-canonical padding");

    // An inline addr_bytes below the structural floor (control bytes +
    // one payload byte per address) cannot describe any valid column
    // and must be rejected before the splitter allocates.
    let mut bytes = good.clone();
    bytes[44..48].copy_from_slice(&2u32.to_le_bytes());
    assert_rejected(&bytes, "v2.2 with addr_bytes below the split floor");
    assert_mapped_rejected(&bytes, "v2.2 with addr_bytes below the split floor");
}

#[test]
fn trailing_garbage_after_a_complete_trace_is_ignored() {
    // The formats are length-prefixed: a decoder consumes exactly the
    // declared records and must not choke on what follows (e.g. a trace
    // embedded in a larger container).
    for (mut bytes, accesses) in [(v1_bytes(), 4u64), (v2_bytes(), 4u64), (v22_bytes(), 4u64)] {
        bytes.extend_from_slice(b"GARBAGE AFTER THE TRACE \xff\xfe\xfd");
        assert_readers_agree(&bytes, "a trace with trailing garbage");
        let trace = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(trace.accesses(), accesses);
        let packed = PackedTrace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(packed.accesses(), accesses);
    }
    // The mapped reader is the exception by design: its footer lives at
    // the end of the file, so trailing garbage shifts the index out from
    // under it and must be rejected, not silently misparsed.
    let mut bytes = v22_bytes();
    bytes.extend_from_slice(b"GARBAGE AFTER THE TRACE \xff\xfe\xfd");
    assert_mapped_rejected(&bytes, "v2.2 with trailing garbage");
}
