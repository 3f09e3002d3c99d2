//! Out-of-core trace access: lazy, chunk-granular decode of
//! chunk-indexed (`FVLTRC22`) trace files through a memory mapping.
//!
//! [`PackedTrace::read_from`] materializes a whole trace in RAM, which
//! caps corpus studies at resident-set size. [`MappedTrace`] instead
//! parses only the fixed header, the region side table, and the footer
//! chunk index (all small), keeps the column payloads as mapped file
//! bytes, and decodes one [`crate::CHUNK_ACCESSES`]-access chunk at a
//! time into a throwaway [`PackedTrace`] that feeds the ordinary
//! block-replay path. Sequential replay therefore holds one chunk's
//! columns resident regardless of trace size, and random access
//! (`decode_chunk`) is O(chunk) — the primitives the corpus manager in
//! `fvl-bench` builds its bounded-residency sweeps on.
//!
//! The mapping comes from [`MapSource::open`], which falls back to a
//! buffered whole-file read when mapping is unavailable; every offset
//! and length in the index is bounds-checked against the file before
//! use, so hostile files fail with `InvalidData` instead of reading
//! out of bounds or allocating unboundedly. The index must also
//! describe exactly the layout the writer produces — chunks back to
//! back from the end of the header, the region table right after the
//! last one — so the lazy path decodes the same bytes as the
//! sequential [`PackedTrace::read_from`].
//!
//! Two additions serve multi-pass, pipelined sweeps:
//! [`MappedTrace::prefetch_chunk`] issues `madvise(MADV_WILLNEED)` for
//! a chunk's payload so page-in overlaps with simulating the previous
//! chunk, and an opt-in decoded-chunk LRU
//! ([`MappedTrace::decode_chunk_cached`], capacity via
//! [`MappedTrace::set_chunk_cache_capacity`]) lets a digest pass and a
//! simulation pass share one decode per chunk.

use crate::access::AccessSink;
use crate::layout::Region;
use crate::mmap::MapSource;
use crate::packed::{PackedTrace, RegionEvent};
use crate::trace_io::{
    bad_data, byte_to_kind, check_codec_id, ChunkedHeader, CHUNKED_HEADER_BYTES, INDEX_ENTRY_BYTES,
    MAGIC_V22, REGION_RECORD_BYTES,
};
use crate::varint;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

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

/// A v2.2 trace file opened for lazy, chunk-at-a-time decoding.
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
    source: MapSource,
    header: ChunkedHeader,
    chunks: Vec<ChunkEntry>,
    regions: Vec<RegionEvent>,
    cache: Mutex<ChunkCache>,
}

/// Counters describing a [`MappedTrace`] decoded-chunk cache — all
/// byte figures are in decoded (resident) bytes, the same unit as
/// [`MappedTrace::chunk_decoded_bytes`].
#[derive(Copy, Clone, Default, Debug)]
pub struct ChunkCacheStats {
    /// Configured capacity (0 = caching disabled, the default).
    pub capacity: u64,
    /// Decoded bytes currently held.
    pub resident: u64,
    /// High-water mark of `resident`.
    pub peak: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to decode.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// One cached decoded chunk.
#[derive(Debug)]
struct CacheEntry {
    index: u64,
    bytes: u64,
    stamp: u64,
    chunk: Arc<PackedTrace>,
}

/// A small LRU over decoded chunks, so multi-pass corpus sweeps decode
/// each chunk once. Linear-scan recency (entries are few — chunks are
/// 32 KiB-class) with a monotone stamp; disabled until a capacity is
/// set.
#[derive(Default, Debug)]
struct ChunkCache {
    capacity: u64,
    stamp: u64,
    resident: u64,
    peak: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    entries: Vec<CacheEntry>,
}

impl ChunkCache {
    /// Evicts least-recently-stamped entries until `resident <= target`.
    fn evict_to(&mut self, target: u64) {
        while self.resident > target && !self.entries.is_empty() {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("non-empty entries");
            let evicted = self.entries.swap_remove(oldest);
            self.resident -= evicted.bytes;
            self.evictions += 1;
        }
    }
}

/// Bounds-checked subslice at a (file-offset, length) pair.
fn slice(bytes: &[u8], off: u64, len: u64) -> io::Result<&[u8]> {
    let end = off
        .checked_add(len)
        .ok_or_else(|| bad_data("file offset overflows"))?;
    if end > bytes.len() as u64 {
        return Err(bad_data(format!(
            "range {off}..{end} outside the {}-byte file",
            bytes.len()
        )));
    }
    Ok(&bytes[off as usize..end as usize])
}

fn get_u32(bytes: &[u8], off: u64) -> io::Result<u32> {
    let b = slice(bytes, off, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn get_u64(bytes: &[u8], off: u64) -> io::Result<u64> {
    let b = slice(bytes, off, 8)?;
    Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
}

impl MappedTrace {
    /// Opens a v2.2 trace file, memory-mapping it when the platform
    /// allows and falling back to a buffered read otherwise.
    ///
    /// # Errors
    ///
    /// Fails with the underlying I/O error if the file cannot be
    /// opened, and `InvalidData` if it is not a structurally valid
    /// `FVLTRC22` file (see [`MappedTrace::from_bytes`]).
    pub fn open(path: &Path) -> io::Result<MappedTrace> {
        MappedTrace::parse(MapSource::open(path)?)
    }

    /// Opens a v2.2 trace file through a buffered whole-file read,
    /// never mapping — the explicit fallback (and the mmap-vs-read A/B
    /// baseline).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MappedTrace::open`].
    pub fn open_buffered(path: &Path) -> io::Result<MappedTrace> {
        MappedTrace::parse(MapSource::read(path)?)
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
        MappedTrace::parse(MapSource::Heap(bytes))
    }

    /// Validates the header, footer index, and region table; column
    /// payloads are only bounds-checked here and decoded lazily.
    fn parse(source: MapSource) -> io::Result<MappedTrace> {
        let bytes = source.bytes();
        let len = bytes.len() as u64;
        if bytes.len() < CHUNKED_HEADER_BYTES + 8 {
            return Err(bad_data("file too short for a chunk-indexed trace"));
        }
        if &bytes[..8] != MAGIC_V22 {
            return Err(bad_data(
                "not an FVLTRC22 file (only the chunk-indexed format supports mapped reads)",
            ));
        }
        let header = ChunkedHeader {
            accesses: get_u64(bytes, 8)?,
            region_count: get_u64(bytes, 16)?,
            chunk_count: get_u64(bytes, 24)?,
            chunk_accesses: get_u32(bytes, 32)?,
        }
        .validate()?;
        check_codec_id(get_u32(bytes, 36)?)?;

        // Footer: the trailing u64 locates the index, whose size the
        // header fixes; both must agree exactly.
        let index_bytes = header.chunk_count * INDEX_ENTRY_BYTES as u64;
        let index_offset = get_u64(bytes, len - 8)?;
        let expected_offset = len
            .checked_sub(8 + index_bytes)
            .ok_or_else(|| bad_data("file too short for its chunk index"))?;
        if index_offset != expected_offset || index_offset < CHUNKED_HEADER_BYTES as u64 {
            return Err(bad_data(format!(
                "chunk index offset {index_offset} inconsistent with file length {len}"
            )));
        }

        // Region side table, immediately before the index.
        let regions_offset = index_offset
            .checked_sub(header.region_count * REGION_RECORD_BYTES as u64)
            .filter(|&off| off >= CHUNKED_HEADER_BYTES as u64)
            .ok_or_else(|| bad_data("region table overlaps the header"))?;
        let mut regions = Vec::with_capacity(header.region_count.min(1 << 20) as usize);
        let mut prev_pos = 0u64;
        for i in 0..header.region_count {
            let off = regions_offset + i * REGION_RECORD_BYTES as u64;
            let pos = get_u64(bytes, off)?;
            let is_alloc = match slice(bytes, off + 8, 1)?[0] {
                0 => false,
                1 => true,
                other => return Err(bad_data(format!("bad region event flag {other}"))),
            };
            let kind = byte_to_kind(slice(bytes, off + 9, 1)?[0])?;
            let base = get_u32(bytes, off + 10)?;
            let words = get_u32(bytes, off + 14)?;
            if pos < prev_pos || pos > header.accesses {
                return Err(bad_data(format!(
                    "region event position {pos} out of order"
                )));
            }
            prev_pos = pos;
            regions.push(RegionEvent {
                pos,
                is_alloc,
                region: Region::new(base, words, kind),
            });
        }

        // Chunk index: every entry cross-checked against its inline
        // chunk header, and the entries must lay the chunks back to back
        // from the end of the header in index order, ending where the
        // region table starts — the layout the writer produces. Nothing
        // else is accepted, so no two entries can share a payload and no
        // bytes can hide between chunks: the lazy decode reads exactly
        // the bytes the sequential reader does.
        let mut chunks = Vec::with_capacity(header.chunk_count.min(1 << 20) as usize);
        let mut next_offset = CHUNKED_HEADER_BYTES as u64;
        for i in 0..header.chunk_count {
            let off = index_offset + i * INDEX_ENTRY_BYTES as u64;
            let entry = ChunkEntry {
                payload_offset: get_u64(bytes, off)?,
                chunk_len: get_u32(bytes, off + 8)?,
                addr_bytes: get_u32(bytes, off + 12)?,
            };
            header.check_chunk(i, entry.chunk_len, entry.addr_bytes)?;
            if entry.payload_offset != next_offset {
                return Err(bad_data(format!(
                    "chunk {i} starts at byte {}, expected {next_offset}",
                    entry.payload_offset
                )));
            }
            next_offset += 8 + u64::from(entry.addr_bytes) + 4 * u64::from(entry.chunk_len);
            if next_offset > regions_offset {
                return Err(bad_data(format!(
                    "chunk {i} payload {}..{next_offset} outside the payload area",
                    entry.payload_offset
                )));
            }
            let inline_len = get_u32(bytes, entry.payload_offset)?;
            let inline_bytes = get_u32(bytes, entry.payload_offset + 4)?;
            if inline_len != entry.chunk_len || inline_bytes != entry.addr_bytes {
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

        Ok(MappedTrace {
            source,
            header,
            chunks,
            regions,
            cache: Mutex::new(ChunkCache::default()),
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
        self.chunks[usize::try_from(i).expect("chunk index")].chunk_len
    }

    /// The region-event side table (decoded eagerly — it is tiny).
    pub fn region_events(&self) -> &[RegionEvent] {
        &self.regions
    }

    /// Total bytes of the underlying file (or buffer).
    pub fn file_bytes(&self) -> u64 {
        self.source.bytes().len() as u64
    }

    /// Whether the payload bytes come from a kernel memory mapping
    /// (false on the buffered-read fallback and for in-memory bytes).
    pub fn is_mapped(&self) -> bool {
        self.source.is_mapped()
    }

    /// Resident heap bytes decoding chunk `i` will allocate: the two
    /// `u32` columns plus its slice of the region table. This is the
    /// unit the corpus manager's residency budget accounts in.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.chunk_count()`.
    pub fn chunk_decoded_bytes(&self, i: u64) -> u64 {
        let entry = self.chunks[usize::try_from(i).expect("chunk index")];
        let (lo, hi) = self.header.chunk_range(i);
        let regions = self.chunk_regions(i, lo, hi).count() as u64;
        8 * u64::from(entry.chunk_len) + regions * std::mem::size_of::<RegionEvent>() as u64
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

    /// Decodes chunk `i` into a standalone [`PackedTrace`]: split
    /// address column expanded, raw values copied, and the chunk's
    /// region events rebased to chunk-local positions.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.chunk_count()`.
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` when the chunk's payload bytes are
    /// corrupt (truncated or malformed streams, deltas leaving the
    /// address space).
    pub fn decode_chunk(&self, i: u64) -> io::Result<PackedTrace> {
        let entry = self.chunks[usize::try_from(i).expect("chunk index")];
        let bytes = self.source.bytes();
        let (lo, hi) = self.header.chunk_range(i);
        let addr_off = entry.payload_offset + 8;
        let encoded = slice(bytes, addr_off, u64::from(entry.addr_bytes))?;
        let addrs = varint::decode_addr_chunk_split(encoded, entry.chunk_len as usize)?;
        let values_off = addr_off + u64::from(entry.addr_bytes);
        let values: Vec<u32> = slice(bytes, values_off, 4 * u64::from(entry.chunk_len))?
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let regions: Vec<RegionEvent> = self.chunk_regions(i, lo, hi).collect();
        PackedTrace::from_columns(addrs, values, regions).map_err(bad_data)
    }

    /// Hints the kernel to page in chunk `i`'s payload bytes ahead of
    /// its decode (`madvise(MADV_WILLNEED)` on the mapped path, no-op
    /// otherwise). Purely advisory — never fails.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.chunk_count()`.
    pub fn prefetch_chunk(&self, i: u64) {
        let entry = self.chunks[usize::try_from(i).expect("chunk index")];
        let len = 8 + u64::from(entry.addr_bytes) + 4 * u64::from(entry.chunk_len);
        self.source.advise_willneed(entry.payload_offset, len);
    }

    /// Enables (or resizes) the decoded-chunk LRU cache used by
    /// [`MappedTrace::decode_chunk_cached`], evicting immediately if
    /// the current contents exceed the new capacity. Capacity 0 (the
    /// default) disables caching. The unit is decoded bytes, as
    /// returned by [`MappedTrace::chunk_decoded_bytes`].
    ///
    /// Each call starts a fresh accounting epoch: the hit/miss/eviction
    /// counters reset and `peak` rebases to the surviving residency, so
    /// [`MappedTrace::chunk_cache_stats`] describes only the use since
    /// the capacity was last set.
    pub fn set_chunk_cache_capacity(&self, bytes: u64) {
        let mut cache = self.cache.lock().expect("chunk cache poisoned");
        cache.capacity = bytes;
        let target = cache.capacity;
        cache.evict_to(target);
        cache.hits = 0;
        cache.misses = 0;
        cache.evictions = 0;
        cache.peak = cache.resident;
    }

    /// Snapshot of the decoded-chunk cache counters.
    pub fn chunk_cache_stats(&self) -> ChunkCacheStats {
        let cache = self.cache.lock().expect("chunk cache poisoned");
        ChunkCacheStats {
            capacity: cache.capacity,
            resident: cache.resident,
            peak: cache.peak,
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
        }
    }

    /// Returns chunk `i` from the decoded-chunk cache without decoding
    /// anything: `Some` (counted as a hit) when resident, `None` when
    /// absent or the cache is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.chunk_count()`.
    pub fn cached_chunk(&self, i: u64) -> Option<Arc<PackedTrace>> {
        assert!(i < self.header.chunk_count, "chunk index out of range");
        let mut cache = self.cache.lock().expect("chunk cache poisoned");
        if cache.capacity == 0 {
            return None;
        }
        cache.stamp += 1;
        let stamp = cache.stamp;
        if let Some(entry) = cache.entries.iter_mut().find(|e| e.index == i) {
            entry.stamp = stamp;
            let chunk = Arc::clone(&entry.chunk);
            cache.hits += 1;
            return Some(chunk);
        }
        None
    }

    /// [`MappedTrace::decode_chunk`] through the decoded-chunk cache:
    /// a resident chunk is returned without touching the file; a miss
    /// decodes, inserts (evicting least-recently-used entries to make
    /// room), and returns the fresh chunk. Chunks larger than the whole
    /// capacity are returned uncached. With the cache disabled this is
    /// exactly `decode_chunk` plus an `Arc`.
    ///
    /// Concurrent misses on the same chunk may decode it twice; both
    /// results are identical and the first insert wins.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.chunk_count()`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MappedTrace::decode_chunk`].
    pub fn decode_chunk_cached(&self, i: u64) -> io::Result<Arc<PackedTrace>> {
        if let Some(chunk) = self.cached_chunk(i) {
            return Ok(chunk);
        }
        // Decode outside the lock so concurrent misses on different
        // chunks proceed in parallel.
        let decoded = Arc::new(self.decode_chunk(i)?);
        let bytes = self.chunk_decoded_bytes(i);
        let mut cache = self.cache.lock().expect("chunk cache poisoned");
        if cache.capacity == 0 {
            return Ok(decoded);
        }
        cache.misses += 1;
        if bytes > cache.capacity {
            return Ok(decoded);
        }
        if let Some(entry) = cache.entries.iter().find(|e| e.index == i) {
            // Lost a decode race; keep the incumbent.
            return Ok(Arc::clone(&entry.chunk));
        }
        let target = cache.capacity - bytes;
        cache.evict_to(target);
        cache.stamp += 1;
        let stamp = cache.stamp;
        cache.entries.push(CacheEntry {
            index: i,
            bytes,
            stamp,
            chunk: Arc::clone(&decoded),
        });
        cache.resident += bytes;
        cache.peak = cache.peak.max(cache.resident);
        Ok(decoded)
    }

    /// Streams the whole trace into `sink` chunk by chunk, decoding
    /// each chunk lazily and finishing the sink exactly once — the
    /// event stream is identical to replaying the fully resident
    /// [`PackedTrace`], but only one chunk's columns are ever live.
    ///
    /// # Errors
    ///
    /// Propagates chunk-decode failures; the sink may have consumed a
    /// prefix of the trace (and is not finished) when that happens.
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

    /// Decodes the entire trace into one resident [`PackedTrace`] (the
    /// in-RAM A/B baseline for the lazy path).
    ///
    /// # Errors
    ///
    /// Propagates decode failures.
    pub fn to_packed(&self) -> io::Result<PackedTrace> {
        PackedTrace::read_from(self.source.bytes())
    }
}

#[cfg(all(test, not(feature = "seeded-bugs")))]
mod tests {
    use super::*;
    use crate::access::{Access, CountingSink};
    use crate::layout::RegionKind;
    use crate::trace::{Trace, TraceEvent};
    use std::io::Write;

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
            assert!(mapped.chunk_decoded_bytes(i) >= 8 * chunk.accesses());
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
    fn open_maps_and_matches_from_bytes() {
        let trace = mixed_trace(500);
        let bytes = v22_bytes(&trace, 64);
        let mut path = std::env::temp_dir();
        path.push(format!("fvl-mapped-test-{}.fvltrc", std::process::id()));
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&bytes)
            .unwrap();

        let mapped = MappedTrace::open(&path).unwrap();
        let buffered = MappedTrace::open_buffered(&path).unwrap();
        #[cfg(target_os = "linux")]
        assert!(mapped.is_mapped());
        assert!(!buffered.is_mapped());
        assert_eq!(mapped.file_bytes(), bytes.len() as u64);

        let hermetic = MappedTrace::from_bytes(bytes).unwrap();
        let mut a = CountingSink::new();
        let mut b = CountingSink::new();
        let mut c = CountingSink::new();
        mapped.replay_into(&mut a).unwrap();
        buffered.replay_into(&mut b).unwrap();
        hermetic.replay_into(&mut c).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
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

    #[test]
    fn prefetch_is_harmless_on_every_source() {
        let trace = mixed_trace(100);
        let mapped = MappedTrace::from_bytes(v22_bytes(&trace, 16)).unwrap();
        for i in 0..mapped.chunk_count() {
            mapped.prefetch_chunk(i);
        }
        let mut sink = CountingSink::new();
        mapped.replay_into(&mut sink).unwrap();
        assert_eq!(sink.accesses(), mapped.accesses());
    }

    #[test]
    fn chunk_cache_hits_evicts_and_respects_capacity() {
        let trace = mixed_trace(200);
        let mapped = MappedTrace::from_bytes(v22_bytes(&trace, 16)).unwrap();
        let n = mapped.chunk_count();
        assert!(n >= 4, "test wants several chunks, got {n}");
        // Disabled by default: no hits, nothing retained.
        assert!(mapped.cached_chunk(0).is_none());
        let first = mapped.decode_chunk_cached(0).unwrap();
        assert_eq!(mapped.chunk_cache_stats().resident, 0);
        assert!(mapped.cached_chunk(0).is_none());

        // Capacity for roughly two chunks.
        let per_chunk = mapped.chunk_decoded_bytes(0);
        mapped.set_chunk_cache_capacity(2 * per_chunk);
        let again = mapped.decode_chunk_cached(0).unwrap();
        assert_eq!(first.addrs(), again.addrs());
        assert!(mapped.cached_chunk(0).is_some(), "0 should now be resident");
        let stats = mapped.chunk_cache_stats();
        assert_eq!(stats.misses, 1);
        assert!(stats.hits >= 1);
        assert_eq!(stats.resident, per_chunk);

        // Filling past capacity evicts the least recently used.
        mapped.decode_chunk_cached(1).unwrap();
        mapped.cached_chunk(0); // refresh 0 so 1 is the LRU victim
        mapped.decode_chunk_cached(2).unwrap();
        let stats = mapped.chunk_cache_stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(stats.resident <= stats.capacity, "{stats:?}");
        assert!(stats.peak <= stats.capacity, "{stats:?}");
        assert!(mapped.cached_chunk(1).is_none(), "LRU victim survived");
        assert!(mapped.cached_chunk(0).is_some());
        assert!(mapped.cached_chunk(2).is_some());

        // Cached decode still yields correct chunks everywhere.
        for i in 0..n {
            assert_eq!(
                mapped.decode_chunk_cached(i).unwrap().addrs(),
                mapped.decode_chunk(i).unwrap().addrs(),
                "chunk {i}"
            );
        }

        // Shrinking to zero flushes and disables.
        mapped.set_chunk_cache_capacity(0);
        assert_eq!(mapped.chunk_cache_stats().resident, 0);
        assert!(mapped.cached_chunk(0).is_none());
    }
}
