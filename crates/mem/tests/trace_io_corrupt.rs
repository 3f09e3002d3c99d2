//! Corrupt-input matrix for the one trace reader: truncated `FVLTRC22`
//! files, bad and retired magic headers, hostile length fields,
//! malformed region records, chunk layouts the writer never produces
//! and trailing bytes. Every case must come back as an `Err` — never a
//! panic, and never an attempt to allocate a buffer sized by
//! attacker-controlled header counts — from [`MappedTrace::from_bytes`]
//! or, where the layout is sound but a chunk's payload is not, from both
//! [`MappedTrace::to_packed`] and the lazy [`MappedTrace::replay_into`].

use fvl_mem::{
    Access, AccessSink, MappedTrace, PackedTrace, Region, RegionKind, Trace, TraceEvent,
};
use std::io::{self, ErrorKind};

/// A small trace exercising every event kind: loads, stores, and
/// alloc/free region events.
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

fn assert_decode_shaped(err: &io::Error, what: &str) {
    assert!(
        matches!(
            err.kind(),
            ErrorKind::InvalidData | ErrorKind::UnexpectedEof
        ),
        "{what}: unexpected error kind {:?}",
        err.kind()
    );
}

/// The reader must refuse to open `bytes`, with a decode-shaped error.
fn assert_rejected(bytes: &[u8], what: &str) {
    let err = MappedTrace::from_bytes(bytes)
        .err()
        .unwrap_or_else(|| panic!("MappedTrace accepted {what}"));
    assert_decode_shaped(&err, what);
}

/// The reader opens `bytes` (the layout is sound) but both the resident
/// and the lazy decode must fail.
fn assert_decode_fails(bytes: &[u8], what: &str) {
    let mapped = MappedTrace::from_bytes(bytes).expect("the layout is sound");
    let err = mapped
        .to_packed()
        .err()
        .unwrap_or_else(|| panic!("to_packed accepted {what}"));
    assert_decode_shaped(&err, what);
    let mut events = Recorder::default();
    let err = mapped
        .replay_into(&mut events)
        .err()
        .unwrap_or_else(|| panic!("lazy decode accepted {what}"));
    assert_decode_shaped(&err, what);
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
        let err = MappedTrace::from_bytes(bytes).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "input {bytes:?}");
    }
    // The retired formats' magics on an otherwise well-formed v2.2
    // body: the layout alone never makes a file readable.
    for magic in [b"FVLTRC1\n", b"FVLTRC2\n", b"FVLTRC21"] {
        let mut bytes = v22_bytes();
        bytes[..8].copy_from_slice(magic);
        let err = MappedTrace::from_bytes(bytes).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "magic {magic:?}");
    }
}

#[test]
fn hostile_v22_chunk_headers_fail_without_allocating() {
    // The first chunk's inline header sits right after the 40-byte file
    // header: chunk_len at +40, addr_bytes at +44.
    let mut bytes = v22_bytes();
    bytes[44..48].copy_from_slice(&u32::MAX.to_le_bytes());
    // addr_bytes=u32::MAX exceeds the split ceiling (one control byte
    // per four addresses plus 4 payload bytes per address) for a
    // two-access chunk, and it disagrees with the footer index entry:
    // the reader must reject it before allocating a 4 GiB column
    // buffer.
    assert_rejected(&bytes, "v2.2 with inline addr_bytes=u32::MAX");

    // An inline chunk_len that disagrees with the geometry the file
    // header promises (and with the footer index entry).
    let mut bytes = v22_bytes();
    bytes[40..44].copy_from_slice(&3u32.to_le_bytes());
    assert_rejected(&bytes, "v2.2 with inline chunk_len=3");
}

#[test]
fn hostile_v22_chunk_index_entries_are_rejected() {
    let good = v22_bytes();
    let len = good.len();
    let index_offset = len - 8 - 2 * 16;

    // Trailing index offset pointing outside the file, or inconsistent
    // with the file length.
    for bogus in [u64::MAX, 0, index_offset as u64 - 1] {
        let mut bytes = good.clone();
        bytes[len - 8..].copy_from_slice(&bogus.to_le_bytes());
        assert_rejected(&bytes, &format!("v2.2 with index_offset={bogus}"));
    }

    // First index entry: payload_offset at +0, chunk_len at +8,
    // addr_bytes at +12. A payload offset at u64::MAX must not wrap
    // into an in-bounds slice, one past the region table must not read
    // region bytes as chunk payload.
    for bogus in [u64::MAX, len as u64, 0] {
        let mut bytes = good.clone();
        bytes[index_offset..index_offset + 8].copy_from_slice(&bogus.to_le_bytes());
        assert_rejected(&bytes, &format!("v2.2 with payload_offset={bogus}"));
    }

    // Index-entry chunk geometry that disagrees with the file header
    // (and the inline chunk header). addr_bytes=u32::MAX must be
    // rejected by the per-chunk ceiling before any decode allocates.
    let mut bytes = good.clone();
    bytes[index_offset + 8..index_offset + 12].copy_from_slice(&7u32.to_le_bytes());
    assert_rejected(&bytes, "v2.2 with index chunk_len=7");
    let mut bytes = good.clone();
    bytes[index_offset + 12..index_offset + 16].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_rejected(&bytes, "v2.2 with index addr_bytes=u32::MAX");
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

    // Chunk 1's entry aliases chunk 0's payload: an index-driven
    // decode would read 0x10 0x14 0x10 0x14, while the bytes in file
    // order hold 0x10 0x14 0x40 0x44.
    let mut aliased = good.clone();
    let at = entry(&aliased, 1);
    aliased[at..at + 8].copy_from_slice(&40u64.to_le_bytes());
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
        let err = MappedTrace::from_bytes(gapped).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
    }
}

#[test]
fn every_strict_prefix_of_a_v22_stream_is_rejected() {
    let bytes = v22_bytes();
    let full = MappedTrace::from_bytes(bytes.as_slice()).expect("full v2.2 stream ok");
    assert_eq!(full.chunk_count(), 2);
    assert_eq!(
        full.to_packed().unwrap().to_trace().events(),
        sample_trace().events()
    );
    for len in 0..bytes.len() {
        assert_rejected(&bytes[..len], &format!("v2.2 prefix of {len} bytes"));
    }
}

#[test]
fn hostile_v22_header_counts_fail_without_allocating() {
    let bytes = v22_header(u64::from(u32::MAX) + 1, 0, 1, 1);
    assert_rejected(&bytes, "v2.2 with accesses=u32::MAX+1");

    let bytes = v22_header(4, 0, u64::MAX, 2);
    assert_rejected(&bytes, "v2.2 with chunk_count=u64::MAX");

    let bytes = v22_header(4, 0, 2, 0);
    assert_rejected(&bytes, "v2.2 with chunk_accesses=0");

    let bytes = v22_header(0, u64::MAX, 0, 2);
    assert_rejected(&bytes, "v2.2 with region_count=u64::MAX");
}

#[test]
fn v22_codec_id_mismatch_is_rejected() {
    // A v2.2 magic whose reserved word does not carry the split codec
    // id is a header/codec disagreement, not a decodable file.
    for bogus in [0u32, 7, u32::MAX] {
        let mut bytes = v22_bytes();
        bytes[36..40].copy_from_slice(&bogus.to_le_bytes());
        assert_rejected(&bytes, &format!("v2.2 with codec id {bogus}"));
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
    assert_decode_fails(&bytes, "an over-claiming control stream");

    // Shrinking it leaves payload bytes no control code accounts for:
    // the decoder must flag the orphaned trailing bytes.
    let mut bytes = good.clone();
    bytes[48] = 0b00;
    assert_decode_fails(&bytes, "orphaned payload bytes");

    // Unused high lanes of the last control byte must be zero: a
    // non-canonical encoding is rejected before any token decodes.
    let mut bytes = good.clone();
    bytes[48] |= 0xf0;
    assert_decode_fails(&bytes, "non-canonical padding");

    // An inline addr_bytes below the structural floor (control bytes +
    // one payload byte per address) cannot describe any valid column
    // and must be rejected before the splitter allocates.
    let mut bytes = good.clone();
    bytes[44..48].copy_from_slice(&2u32.to_le_bytes());
    assert_rejected(&bytes, "v2.2 with addr_bytes below the split floor");
}

#[test]
fn trailing_bytes_after_a_complete_trace_are_rejected() {
    // The footer's index offset must sit in the file's last eight
    // bytes, so anything appended shifts the index out from under the
    // reader: rejected, not silently ignored or misparsed.
    for tail in [&b"\0"[..], b"GARBAGE AFTER THE TRACE \xff\xfe\xfd"] {
        let mut bytes = v22_bytes();
        bytes.extend_from_slice(tail);
        assert_rejected(&bytes, &format!("v2.2 with {} trailing bytes", tail.len()));
    }
    // Appending a whole second trace is no exception.
    let mut twice = v22_bytes();
    twice.extend_from_slice(&v22_bytes());
    assert_rejected(&twice, "two v2.2 traces back to back");
}

#[test]
fn corrupt_v22_region_records_are_invalid_data() {
    // The sample's three region events (at accesses 0, 3 and 3) sit
    // between chunk 1 and the index, 18 bytes each: pos u64 | is_alloc
    // u8 | kind u8 | base u32 | words u32.
    let good = v22_bytes();
    let table = good.len() - 8 - 2 * 16 - 3 * 18;
    let cases: [(usize, &[u8], &str); 6] = [
        (8, &[7], "region event flag 7"),
        (9, &[9], "region kind 9"),
        (
            0,
            &99u64.to_le_bytes(),
            "a region event past the last access",
        ),
        (2 * 18, &1u64.to_le_bytes(), "region events out of order"),
        // `Region::new` panics on these two, so the reader must refuse
        // them first.
        (10, &0x1002u32.to_le_bytes(), "a misaligned region base"),
        (
            14,
            &u32::MAX.to_le_bytes(),
            "a region wrapping the address space",
        ),
    ];
    for (at, patch, what) in cases {
        let mut bytes = good.clone();
        bytes[table + at..table + at + patch.len()].copy_from_slice(patch);
        assert_rejected(&bytes, what);
    }
}
