//! Out-of-core trace access: lazy, chunk-granular decode of
//! chunk-indexed (`FVLTRC22`) trace files through positioned reads.
//!
//! [`PackedTrace::read_from`] materializes a whole trace in RAM, which
//! caps corpus studies at resident-set size. [`MappedTrace`] instead
//! reads only the fixed header, the region side table, and the footer
//! chunk index (all small) at open, and leaves the column payloads on
//! disk. Each [`MappedTrace::decode_chunk`] reads one
//! [`crate::CHUNK_ACCESSES`]-access chunk's payload into a fresh buffer
//! with one positioned read and decodes it into a throwaway
//! [`PackedTrace`] that feeds the ordinary replay path. Nothing is
//! memory-mapped and nothing is cached: sequential replay holds one
//! chunk's read buffer and columns no matter how large the trace is,
//! and random access is O(chunk) — the primitives the corpus manager in
//! `fvl-bench` builds its one-pass, bounded-residency sweep on.
//!
//! Every offset and length in the index is bounds-checked against the
//! file before use, so hostile files fail with `InvalidData` instead of
//! reading out of bounds or allocating unboundedly. The index must also
//! describe exactly the layout the writer produces — chunks back to
//! back from the end of the header, the region table right after the
//! last one — so the lazy path decodes the same bytes as the
//! sequential [`PackedTrace::read_from`]. A file truncated after open
//! fails its next read with an `UnexpectedEof` error.

use crate::access::AccessSink;
use crate::layout::Region;
use crate::packed::{PackedTrace, RegionEvent};
use crate::trace_io::{
    bad_data, byte_to_kind, check_codec_id, ChunkedHeader, CHUNKED_HEADER_BYTES, INDEX_ENTRY_BYTES,
    MAGIC_V22, REGION_RECORD_BYTES,
};
use crate::varint;
use std::borrow::Cow;
#[cfg(unix)]
use std::fs::File;
use std::io;
use std::path::Path;

/// One validated footer-index entry.
#[derive(Copy, Clone, Debug)]
struct ChunkEntry {
    /// Absolute file offset of the chunk's inline header.
    payload_offset: u64,
    /// Accesses in the chunk.
    chunk_len: u32,
    /// Encoded bytes of the chunk's address column.
    addr_bytes: u32,
}

impl ChunkEntry {
    /// Bytes of the address and value columns after the inline header.
    fn payload_bytes(&self) -> u64 {
        u64::from(self.addr_bytes) + 4 * u64::from(self.chunk_len)
    }
}

/// Where a [`MappedTrace`]'s bytes come from.
#[derive(Debug)]
enum Source {
    /// An open file, read with positioned reads; `len` is its size at
    /// open.
    #[cfg(unix)]
    File { file: File, len: u64 },
    /// Bytes in memory: [`MappedTrace::from_bytes`], and the whole file
    /// on targets without positioned reads.
    Bytes(Vec<u8>),
}

impl Source {
    fn len(&self) -> u64 {
        match self {
            #[cfg(unix)]
            Source::File { len, .. } => *len,
            Source::Bytes(bytes) => bytes.len() as u64,
        }
    }

    /// The `len` bytes at offset `off`, bounds-checked against the size
    /// at open: one positioned read into a fresh buffer from a file, a
    /// borrowed slice from memory.
    fn read_at(&self, off: u64, len: u64) -> io::Result<Cow<'_, [u8]>> {
        let end = off
            .checked_add(len)
            .ok_or_else(|| bad_data("file offset overflows"))?;
        if end > self.len() {
            return Err(bad_data(format!(
                "range {off}..{end} outside the {}-byte file",
                self.len()
            )));
        }
        match self {
            #[cfg(unix)]
            Source::File { file, .. } => {
                use std::os::unix::fs::FileExt;
                let len = usize::try_from(len)
                    .map_err(|_| bad_data(format!("a {len}-byte read does not fit in memory")))?;
                let mut buf = vec![0; len];
                file.read_exact_at(&mut buf, off)?;
                Ok(Cow::Owned(buf))
            }
            Source::Bytes(bytes) => Ok(Cow::Borrowed(&bytes[off as usize..end as usize])),
        }
    }
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

/// A v2.2 trace file opened for lazy, chunk-at-a-time decoding.
///
/// A trace opened from a path keeps its file open and holds one file
/// descriptor until it is dropped (a memory mapping held none after
/// open), so a sweep over `n` files holds `n` descriptors.
///
/// # Example
///
/// ```
/// use fvl_mem::{Access, CountingSink, MappedTrace, PackedTrace, Trace, TraceEvent};
///
/// let trace = Trace::from_events(
///     (0..100u32).map(|i| TraceEvent::Access(Access::store(i * 4, i))).collect(),
/// );
/// let packed = PackedTrace::from_trace(&trace);
/// let mut bytes = Vec::new();
/// packed.write_v22_with(&mut bytes, 16).unwrap();
///
/// let mapped = MappedTrace::from_bytes(bytes).unwrap();
/// assert_eq!(mapped.chunk_count(), 7);
/// let mut sink = CountingSink::new();
/// mapped.replay_into(&mut sink).unwrap();
/// assert_eq!(sink.accesses(), 100);
/// ```
#[derive(Debug)]
pub struct MappedTrace {
    source: Source,
    header: ChunkedHeader,
    chunks: Vec<ChunkEntry>,
    regions: Vec<RegionEvent>,
}

impl MappedTrace {
    /// Opens a v2.2 trace file and validates its header, region table
    /// and chunk index; chunk payloads stay on disk until decoded. On
    /// targets without positioned reads the whole file is read into
    /// memory instead.
    ///
    /// # Errors
    ///
    /// Fails with the underlying I/O error if the file cannot be
    /// opened or read, and `InvalidData` if it is not a structurally
    /// valid `FVLTRC22` file (see [`MappedTrace::from_bytes`]).
    pub fn open(path: &Path) -> io::Result<MappedTrace> {
        #[cfg(unix)]
        let source = {
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            Source::File { file, len }
        };
        #[cfg(not(unix))]
        let source = Source::Bytes(std::fs::read(path)?);
        MappedTrace::parse(source)
    }

    /// Wraps in-memory v2.2 bytes for lazy decoding — the hermetic
    /// entry point differential tests use.
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` when the bytes are not a well-formed
    /// `FVLTRC22` file: wrong magic or codec id, inconsistent header
    /// geometry, a footer index whose entries disagree with the inline
    /// chunk headers or do not lay the chunks back to back from the end
    /// of the header up to the region table, or a region table out of
    /// order.
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<MappedTrace> {
        MappedTrace::parse(Source::Bytes(bytes))
    }

    /// Validates the header, footer index, and region table, reading
    /// each with one read; column payloads are only bounds-checked
    /// here and decoded lazily.
    fn parse(source: Source) -> io::Result<MappedTrace> {
        let len = source.len();
        if len < CHUNKED_HEADER_BYTES as u64 + 8 {
            return Err(bad_data("file too short for a chunk-indexed trace"));
        }
        let head = source.read_at(0, CHUNKED_HEADER_BYTES as u64)?;
        if &head[..8] != MAGIC_V22 {
            return Err(bad_data(
                "not an FVLTRC22 file (only the chunk-indexed format supports lazy reads)",
            ));
        }
        let header = ChunkedHeader {
            accesses: u64_at(&head, 8),
            region_count: u64_at(&head, 16),
            chunk_count: u64_at(&head, 24),
            chunk_accesses: u32_at(&head, 32),
        }
        .validate()?;
        check_codec_id(u32_at(&head, 36))?;

        // Footer: the trailing u64 locates the index, whose size the
        // header fixes; both must agree exactly.
        let index_bytes = header.chunk_count * INDEX_ENTRY_BYTES as u64;
        let index_offset = u64_at(&source.read_at(len - 8, 8)?, 0);
        let expected_offset = len
            .checked_sub(8 + index_bytes)
            .ok_or_else(|| bad_data("file too short for its chunk index"))?;
        if index_offset != expected_offset || index_offset < CHUNKED_HEADER_BYTES as u64 {
            return Err(bad_data(format!(
                "chunk index offset {index_offset} inconsistent with file length {len}"
            )));
        }

        // Region side table, immediately before the index.
        let region_bytes = header.region_count * REGION_RECORD_BYTES as u64;
        let regions_offset = index_offset
            .checked_sub(region_bytes)
            .filter(|&off| off >= CHUNKED_HEADER_BYTES as u64)
            .ok_or_else(|| bad_data("region table overlaps the header"))?;
        let table = source.read_at(regions_offset, region_bytes)?;
        let mut regions = Vec::with_capacity(header.region_count as usize);
        let mut prev_pos = 0u64;
        for record in table.chunks_exact(REGION_RECORD_BYTES) {
            let pos = u64_at(record, 0);
            let is_alloc = match record[8] {
                0 => false,
                1 => true,
                other => return Err(bad_data(format!("bad region event flag {other}"))),
            };
            let kind = byte_to_kind(record[9])?;
            if pos < prev_pos || pos > header.accesses {
                return Err(bad_data(format!(
                    "region event position {pos} out of order"
                )));
            }
            prev_pos = pos;
            regions.push(RegionEvent {
                pos,
                is_alloc,
                region: Region::new(u32_at(record, 10), u32_at(record, 14), kind),
            });
        }

        // Chunk index: every entry cross-checked against its inline
        // chunk header, and the entries must lay the chunks back to back
        // from the end of the header in index order, ending where the
        // region table starts — the layout the writer produces. Nothing
        // else is accepted, so no two entries can share a payload and no
        // bytes can hide between chunks: the lazy decode reads exactly
        // the bytes the sequential reader does.
        let index = source.read_at(index_offset, index_bytes)?;
        let mut chunks = Vec::with_capacity(header.chunk_count as usize);
        let mut next_offset = CHUNKED_HEADER_BYTES as u64;
        for (i, record) in (0u64..).zip(index.chunks_exact(INDEX_ENTRY_BYTES)) {
            let entry = ChunkEntry {
                payload_offset: u64_at(record, 0),
                chunk_len: u32_at(record, 8),
                addr_bytes: u32_at(record, 12),
            };
            header.check_chunk(i, entry.chunk_len, entry.addr_bytes)?;
            if entry.payload_offset != next_offset {
                return Err(bad_data(format!(
                    "chunk {i} starts at byte {}, expected {next_offset}",
                    entry.payload_offset
                )));
            }
            next_offset += 8 + entry.payload_bytes();
            if next_offset > regions_offset {
                return Err(bad_data(format!(
                    "chunk {i} payload {}..{next_offset} outside the payload area",
                    entry.payload_offset
                )));
            }
            let inline = source.read_at(entry.payload_offset, 8)?;
            if u32_at(&inline, 0) != entry.chunk_len || u32_at(&inline, 4) != entry.addr_bytes {
                return Err(bad_data(format!(
                    "chunk {i} index entry disagrees with its inline header"
                )));
            }
            chunks.push(entry);
        }
        if next_offset != regions_offset {
            return Err(bad_data(format!(
                "{} unaccounted bytes between the last chunk and the region table",
                regions_offset - next_offset
            )));
        }
        // In-memory reads borrow `source`, which moves into the trace.
        drop((head, table, index));

        Ok(MappedTrace {
            source,
            header,
            chunks,
            regions,
        })
    }

    /// Number of access events across the whole trace.
    pub fn accesses(&self) -> u64 {
        self.header.accesses
    }

    /// Number of lazily decodable chunks.
    pub fn chunk_count(&self) -> u64 {
        self.header.chunk_count
    }

    /// Accesses per chunk (the last chunk may be shorter).
    pub fn chunk_accesses(&self) -> u32 {
        self.header.chunk_accesses
    }

    /// Accesses in chunk `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.chunk_count()`.
    pub fn chunk_len(&self, i: u64) -> u32 {
        self.entry(i).chunk_len
    }

    /// The region-event side table (decoded eagerly — it is tiny).
    pub fn region_events(&self) -> &[RegionEvent] {
        &self.regions
    }

    /// Total bytes of the underlying file (or buffer).
    pub fn file_bytes(&self) -> u64 {
        self.source.len()
    }

    fn entry(&self, i: u64) -> ChunkEntry {
        self.chunks[usize::try_from(i).expect("chunk index")]
    }

    /// Heap bytes chunk `i` holds while it is live: the buffer its
    /// payload is read into, plus the two decoded `u32` columns and its
    /// slice of the region table. This is the unit the corpus manager's
    /// residency budget accounts in.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.chunk_count()`.
    pub fn chunk_resident_bytes(&self, i: u64) -> u64 {
        let entry = self.entry(i);
        let (lo, hi) = self.header.chunk_range(i);
        let regions = self.chunk_regions(i, lo, hi).count() as u64;
        entry.payload_bytes()
            + 8 * u64::from(entry.chunk_len)
            + regions * std::mem::size_of::<RegionEvent>() as u64
    }

    /// The region events belonging to chunk `i` (positions in
    /// `[lo, hi)`, and `pos == accesses` for the final chunk).
    fn chunk_regions(&self, i: u64, lo: u64, hi: u64) -> impl Iterator<Item = RegionEvent> + '_ {
        let last = i + 1 == self.header.chunk_count;
        self.regions
            .iter()
            .filter(move |e| e.pos >= lo && (e.pos < hi || (last && e.pos == hi)))
            .map(move |e| RegionEvent {
                pos: e.pos - lo,
                ..*e
            })
    }

    /// Reads chunk `i`'s payload with one positioned read and decodes
    /// it into a standalone [`PackedTrace`]: split address column
    /// expanded, raw values copied, and the chunk's region events
    /// rebased to chunk-local positions.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.chunk_count()`.
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` when the chunk's payload bytes are
    /// corrupt (truncated or malformed streams, deltas leaving the
    /// address space), and with the read's I/O error — `UnexpectedEof`
    /// when the file was truncated after open.
    pub fn decode_chunk(&self, i: u64) -> io::Result<PackedTrace> {
        let entry = self.entry(i);
        let (lo, hi) = self.header.chunk_range(i);
        let payload = self
            .source
            .read_at(entry.payload_offset + 8, entry.payload_bytes())?;
        let (encoded, raw_values) = payload.split_at(entry.addr_bytes as usize);
        let addrs = varint::decode_addr_chunk_split(encoded, entry.chunk_len as usize)?;
        let values: Vec<u32> = raw_values
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let regions: Vec<RegionEvent> = self.chunk_regions(i, lo, hi).collect();
        PackedTrace::from_columns(addrs, values, regions).map_err(bad_data)
    }

    /// Streams the whole trace into `sink` chunk by chunk, decoding
    /// each chunk lazily and finishing the sink exactly once — the
    /// event stream is identical to replaying the fully resident
    /// [`PackedTrace`], but only one chunk's columns are ever live.
    ///
    /// # Errors
    ///
    /// Propagates chunk read and decode failures; the sink may have
    /// consumed a prefix of the trace (and is not finished) when that
    /// happens.
    pub fn replay_into(&self, sink: &mut (impl AccessSink + ?Sized)) -> io::Result<()> {
        if self.header.chunk_count == 0 {
            for event in &self.regions {
                if event.is_alloc {
                    sink.on_alloc(event.region);
                } else {
                    sink.on_free(event.region);
                }
            }
        } else {
            for i in 0..self.header.chunk_count {
                self.decode_chunk(i)?.feed_into(sink);
            }
        }
        sink.on_finish();
        Ok(())
    }

    /// Reads the whole file with one read and decodes it into one
    /// resident [`PackedTrace`] through the sequential reader.
    ///
    /// # Errors
    ///
    /// Propagates read and decode failures.
    pub fn to_packed(&self) -> io::Result<PackedTrace> {
        PackedTrace::read_from(&*self.source.read_at(0, self.source.len())?)
    }
}

#[cfg(all(test, not(feature = "seeded-bugs")))]
mod tests {
    use super::*;
    use crate::access::{Access, CountingSink};
    use crate::layout::RegionKind;
    use crate::trace::{Trace, TraceEvent};

    fn mixed_trace(accesses: u32) -> Trace {
        let mut events: Vec<TraceEvent> = (0..accesses)
            .map(|i| {
                TraceEvent::Access(if i % 3 == 0 {
                    Access::store((i % 257) * 4, i)
                } else {
                    Access::load((i % 509) * 4, i ^ 0x5a5a)
                })
            })
            .collect();
        let region = Region::new(0x4000, 8, RegionKind::Heap);
        // Region events at the start, mid-stream off a chunk boundary,
        // exactly on a chunk boundary (chunk size 16 below), and at
        // the very end.
        if accesses >= 40 {
            events.insert(0, TraceEvent::Alloc(region));
            events.insert(10, TraceEvent::Alloc(region));
            events.insert(34, TraceEvent::Free(region));
            events.push(TraceEvent::Free(region));
        }
        Trace::from_events(events)
    }

    fn v22_bytes(trace: &Trace, chunk_accesses: u32) -> Vec<u8> {
        let packed = PackedTrace::from_trace(trace);
        let mut bytes = Vec::new();
        packed.write_v22_with(&mut bytes, chunk_accesses).unwrap();
        bytes
    }

    fn temp_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "fvl-mapped-test-{tag}-{}.fvltrc",
            std::process::id()
        ));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn lazy_replay_matches_resident_replay() {
        for accesses in [0u32, 1, 15, 16, 17, 100, 1000] {
            let trace = mixed_trace(accesses);
            let packed = PackedTrace::from_trace(&trace);
            let mapped = MappedTrace::from_bytes(v22_bytes(&trace, 16)).unwrap();
            let mut resident = CountingSink::new();
            packed.replay_into(&mut resident);
            let mut lazy = CountingSink::new();
            mapped.replay_into(&mut lazy).unwrap();
            assert_eq!(lazy, resident, "{accesses} accesses");
        }
    }

    #[test]
    fn chunks_concatenate_to_the_full_columns() {
        let trace = mixed_trace(100);
        let packed = PackedTrace::from_trace(&trace);
        let mapped = MappedTrace::from_bytes(v22_bytes(&trace, 16)).unwrap();
        assert_eq!(mapped.accesses(), packed.accesses());
        assert_eq!(mapped.chunk_count(), packed.accesses().div_ceil(16));
        let mut addrs = Vec::new();
        let mut values = Vec::new();
        let mut regions = 0usize;
        for i in 0..mapped.chunk_count() {
            let chunk = mapped.decode_chunk(i).unwrap();
            assert_eq!(u64::from(mapped.chunk_len(i)), chunk.accesses());
            // Read buffer (at least one byte per address plus the raw
            // values) and the two decoded columns.
            assert!(mapped.chunk_resident_bytes(i) >= 13 * chunk.accesses());
            addrs.extend_from_slice(chunk.addrs());
            values.extend_from_slice(chunk.values());
            regions += chunk.region_events().len();
        }
        assert_eq!(addrs, packed.addrs());
        assert_eq!(values, packed.values());
        assert_eq!(regions, packed.region_events().len());
        assert_eq!(mapped.region_events(), packed.region_events());
        assert_eq!(mapped.to_packed().unwrap().addrs(), packed.addrs());
    }

    #[test]
    fn open_matches_from_bytes() {
        let trace = mixed_trace(500);
        let bytes = v22_bytes(&trace, 64);
        let path = temp_file("open", &bytes);
        let opened = MappedTrace::open(&path).unwrap();
        assert_eq!(opened.file_bytes(), bytes.len() as u64);
        let hermetic = MappedTrace::from_bytes(bytes).unwrap();
        let mut a = CountingSink::new();
        let mut b = CountingSink::new();
        opened.replay_into(&mut a).unwrap();
        hermetic.replay_into(&mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            opened.to_packed().unwrap().values(),
            hermetic.to_packed().unwrap().values()
        );
        std::fs::remove_file(&path).unwrap();
        assert!(MappedTrace::open(&path).is_err(), "a missing file opens");
    }

    #[cfg(unix)]
    #[test]
    fn a_file_truncated_after_open_fails_with_an_error() {
        // Several pages, so the cut drops whole pages: a memory mapping
        // of this file raised SIGBUS on the first read past the cut.
        let trace = mixed_trace(20_000);
        let bytes = v22_bytes(&trace, 1024);
        let path = temp_file("truncated", &bytes);
        let opened = MappedTrace::open(&path).unwrap();
        let last = opened.chunk_count() - 1;
        opened.decode_chunk(last).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(bytes.len() as u64 / 2)
            .unwrap();
        let err = opened.decode_chunk(last).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        let mut sink = CountingSink::new();
        assert!(opened.replay_into(&mut sink).is_err());
        assert!(opened.to_packed().is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_v22_files_are_refused() {
        let packed = PackedTrace::from_trace(&mixed_trace(10));
        let mut v2 = Vec::new();
        packed.write_to(&mut v2).unwrap();
        let err = MappedTrace::from_bytes(v2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(MappedTrace::from_bytes(Vec::new()).is_err());
    }
}
