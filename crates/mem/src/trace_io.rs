//! Binary serialization of traces.
//!
//! Recorded traces can be written to disk and replayed later, so an
//! expensive workload execution (or an externally collected trace) can
//! drive many simulation campaigns. Three little-endian formats exist,
//! all dependency-free and distinguished by their magic header:
//!
//! * `FVLTRC1` — the original per-event record stream (tag byte plus
//!   fields per event). Still written by [`Trace::write_to`] so
//!   existing tooling and archived traces keep working.
//! * `FVLTRC2` — the columnar format written by
//!   [`PackedTrace::write_to`]: one header, the packed address column,
//!   the value column, then the region-event side table. Roughly half
//!   the bytes of v1 for access-dominated traces, and decoding is two
//!   bulk column reads instead of per-event tag dispatch.
//! * `FVLTRC22` — the chunk-indexed v2.2 format written by
//!   [`PackedTrace::write_v22_to`]: the columns are split into
//!   [`CHUNK_ACCESSES`]-access chunks, each chunk's address column is
//!   delta-coded in the stream-split layout of
//!   [`crate::varint::encode_addr_chunk_split`] (a control stream of
//!   2-bit length codes, then the trimmed little-endian token bytes,
//!   which decodes branch-free), and a footer index records every
//!   chunk's file offset so the lazy reader ([`crate::MappedTrace`])
//!   can read and decode chunks one at a time and out of order.
//!   Layout:
//!
//!   ```text
//!   magic "FVLTRC22"
//!   accesses u64 | region_count u64 | chunk_count u64
//!   chunk_accesses u32 | codec id u32 (1, the split codec)
//!   per chunk:  chunk_len u32 | addr_bytes u32
//!               split address column (addr_bytes) | values (4 * chunk_len)
//!   per region event: the 18-byte v2 record
//!   footer index, per chunk: payload_offset u64 | chunk_len u32
//!                            | addr_bytes u32
//!   index_offset u64
//!   ```
//!
//!   The inline chunk headers make the stream self-delimiting, so the
//!   sequential readers below never look at the footer (trailing bytes
//!   stay tolerated, as for v1/v2); the footer is validated only by the
//!   random-access lazy reader. An `FVLTRC21` file — the same
//!   container with LEB128 address columns, from an earlier version —
//!   is rejected as an unknown format.
//!
//! [`Trace::read_from`] and [`PackedTrace::read_from`] sniff the
//! magic and accept **any** format, converting as needed — old v1
//! files load into packed pipelines and new v2/v2.2 files load into
//! the event-log form.
//!
//! All encoding goes through an explicit chunk buffer
//! ([`CHUNK_BYTES`]-sized `write_all` calls instead of one syscall-ish
//! write per field) and reads mirror that chunking.

use crate::access::{Access, AccessKind};
use crate::layout::{Region, RegionKind};
use crate::packed::{PackedTrace, RegionEvent};
use crate::trace::{Trace, TraceEvent};
use std::io::{self, Read, Write};

const MAGIC_V1: &[u8; 8] = b"FVLTRC1\n";
const MAGIC_V2: &[u8; 8] = b"FVLTRC2\n";
pub(crate) const MAGIC_V22: &[u8; 8] = b"FVLTRC22";

/// Size of the encode/decode staging buffer: every `write_all` to the
/// underlying writer (and every `read` from the underlying reader)
/// moves about this many bytes, not one field's worth.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Default accesses per v2.2 chunk — the unit of lazy reads and decodes
/// for [`crate::MappedTrace`] and of residency accounting for the
/// corpus manager. 8192 accesses is 64 KiB of decoded columns plus a
/// read buffer of a few tens of KiB per chunk.
pub const CHUNK_ACCESSES: u32 = 8192;

/// Bytes of the v2.2 fixed header: magic + accesses + region_count +
/// chunk_count + chunk_accesses + codec id.
pub(crate) const CHUNKED_HEADER_BYTES: usize = 8 + 8 + 8 + 8 + 4 + 4;

/// Bytes per v2.2 footer-index entry: payload_offset u64 + chunk_len
/// u32 + addr_bytes u32.
pub(crate) const INDEX_ENTRY_BYTES: usize = 16;

const TAG_LOAD: u8 = 0;
const TAG_STORE: u8 = 1;
const TAG_ALLOC: u8 = 2;
const TAG_FREE: u8 = 3;

/// Bytes per v2 region-event record: u64 pos + u8 is_alloc + u8 kind +
/// u32 base + u32 words.
pub(crate) const REGION_RECORD_BYTES: usize = 18;

fn kind_to_byte(kind: RegionKind) -> u8 {
    match kind {
        RegionKind::Global => 0,
        RegionKind::Heap => 1,
        RegionKind::Stack => 2,
    }
}

pub(crate) fn byte_to_kind(b: u8) -> io::Result<RegionKind> {
    match b {
        0 => Ok(RegionKind::Global),
        1 => Ok(RegionKind::Heap),
        2 => Ok(RegionKind::Stack),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad region kind byte {other}"),
        )),
    }
}

pub(crate) fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Accumulates encoded bytes and flushes them to the underlying writer
/// one [`CHUNK_BYTES`] block at a time.
struct ChunkedWriter<W: Write> {
    writer: W,
    buf: Vec<u8>,
}

impl<W: Write> ChunkedWriter<W> {
    fn new(writer: W) -> Self {
        ChunkedWriter {
            writer,
            buf: Vec::with_capacity(CHUNK_BYTES),
        }
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.buf.len() + bytes.len() > CHUNK_BYTES {
            self.flush()?;
            if bytes.len() >= CHUNK_BYTES {
                // Oversized payloads go straight through.
                return self.writer.write_all(bytes);
            }
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    #[inline]
    fn put_u32(&mut self, v: u32) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    #[inline]
    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.writer.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn finish(mut self) -> io::Result<()> {
        self.flush()
    }
}

/// Mirror of [`ChunkedWriter`] for decoding: refills a
/// [`CHUNK_BYTES`] staging buffer from the underlying reader and hands
/// out exact-sized slices from it.
struct ChunkedReader<R: Read> {
    reader: R,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
}

impl<R: Read> ChunkedReader<R> {
    fn new(reader: R) -> Self {
        ChunkedReader {
            reader,
            buf: vec![0u8; CHUNK_BYTES],
            pos: 0,
            len: 0,
        }
    }

    fn take(&mut self, out: &mut [u8]) -> io::Result<()> {
        let mut filled = 0;
        while filled < out.len() {
            if self.pos == self.len {
                self.len = self.reader.read(&mut self.buf)?;
                self.pos = 0;
                if self.len == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "trace stream truncated",
                    ));
                }
            }
            let n = (out.len() - filled).min(self.len - self.pos);
            out[filled..filled + n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            filled += n;
        }
        Ok(())
    }

    #[inline]
    fn take_u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.take(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    #[inline]
    fn take_u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.take(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    #[inline]
    fn take_u8(&mut self) -> io::Result<u8> {
        let mut b = [0u8; 1];
        self.take(&mut b)?;
        Ok(b[0])
    }

    /// Reads a whole `u32` column of `len` entries, chunk by chunk.
    fn take_u32_column(&mut self, len: usize) -> io::Result<Vec<u32>> {
        let mut column = Vec::new();
        self.take_u32_column_into(len, &mut column)?;
        Ok(column)
    }

    /// [`Self::take_u32_column`] appending into a caller-owned column,
    /// so a multi-chunk reader avoids a per-chunk staging allocation.
    fn take_u32_column_into(&mut self, len: usize, column: &mut Vec<u32>) -> io::Result<()> {
        column.reserve(len.min(1 << 24));
        let mut chunk = [0u8; CHUNK_BYTES];
        let mut remaining = len;
        while remaining > 0 {
            let n = remaining.min(CHUNK_BYTES / 4);
            self.take(&mut chunk[..n * 4])?;
            column.extend(
                chunk[..n * 4]
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            );
            remaining -= n;
        }
        Ok(())
    }
}

/// Reads one format-sniffed trace in whichever layout the file holds.
fn read_any<R: Read>(reader: R) -> io::Result<ReadTrace> {
    let mut chunked = ChunkedReader::new(reader);
    let mut magic = [0u8; 8];
    chunked.take(&mut magic)?;
    match &magic {
        m if m == MAGIC_V1 => read_v1(&mut chunked).map(ReadTrace::Legacy),
        m if m == MAGIC_V2 => read_v2(&mut chunked).map(ReadTrace::Packed),
        m if m == MAGIC_V22 => read_v22(&mut chunked).map(ReadTrace::Packed),
        _ => Err(bad_data("not an FVLTRC1/FVLTRC2/FVLTRC22 trace")),
    }
}

/// A decoded trace, still in the layout the file stored it in.
enum ReadTrace {
    Legacy(Trace),
    Packed(PackedTrace),
}

fn read_v1<R: Read>(reader: &mut ChunkedReader<R>) -> io::Result<Trace> {
    let len = reader.take_u64()?;
    let mut events = Vec::with_capacity(len.min(1 << 24) as usize);
    for _ in 0..len {
        let tag = reader.take_u8()?;
        let event = match tag {
            TAG_LOAD | TAG_STORE => {
                let addr = reader.take_u32()?;
                let value = reader.take_u32()?;
                let kind = if tag == TAG_LOAD {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                };
                TraceEvent::Access(Access { addr, value, kind })
            }
            TAG_ALLOC | TAG_FREE => {
                let kind = byte_to_kind(reader.take_u8()?)?;
                let base = reader.take_u32()?;
                let words = reader.take_u32()?;
                let region = Region::new(base, words, kind);
                if tag == TAG_ALLOC {
                    TraceEvent::Alloc(region)
                } else {
                    TraceEvent::Free(region)
                }
            }
            other => return Err(bad_data(format!("bad event tag {other}"))),
        };
        events.push(event);
    }
    Ok(Trace::from_events(events))
}

fn read_v2<R: Read>(reader: &mut ChunkedReader<R>) -> io::Result<PackedTrace> {
    let accesses = reader.take_u64()?;
    let region_count = reader.take_u64()?;
    if accesses > u64::from(u32::MAX) || region_count > 1 << 32 {
        return Err(bad_data("v2 trace header counts out of range"));
    }
    let addrs = reader.take_u32_column(accesses as usize)?;
    let values = reader.take_u32_column(accesses as usize)?;
    let regions = read_regions(reader, region_count)?;
    PackedTrace::from_columns(addrs, values, regions).map_err(bad_data)
}

/// Reads `region_count` v2-layout region records (shared by the v2 and
/// v2.2 decoders).
fn read_regions<R: Read>(
    reader: &mut ChunkedReader<R>,
    region_count: u64,
) -> io::Result<Vec<RegionEvent>> {
    let mut regions = Vec::with_capacity(region_count.min(1 << 20) as usize);
    for _ in 0..region_count {
        let pos = reader.take_u64()?;
        let is_alloc = match reader.take_u8()? {
            0 => false,
            1 => true,
            other => return Err(bad_data(format!("bad region event flag {other}"))),
        };
        let kind = byte_to_kind(reader.take_u8()?)?;
        let base = reader.take_u32()?;
        let words = reader.take_u32()?;
        regions.push(RegionEvent {
            pos,
            is_alloc,
            region: Region::new(base, words, kind),
        });
    }
    Ok(regions)
}

/// The address-column codec of a chunk-indexed trace file, recorded in
/// the header word at offset 36.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum AddrCodec {
    /// Stream-split control + payload streams
    /// ([`crate::varint::encode_addr_chunk_split`]) — the `FVLTRC22`
    /// codec, decodable branch-free.
    Split,
}

impl AddrCodec {
    /// Codec id stored in the header word at offset 36.
    pub(crate) fn id(self) -> u32 {
        match self {
            AddrCodec::Split => 1,
        }
    }
}

/// The fixed v2.2 header fields (minus the magic and the codec id),
/// validated.
#[derive(Copy, Clone, Debug)]
pub(crate) struct ChunkedHeader {
    /// Total access events across all chunks.
    pub accesses: u64,
    /// Region-event records after the chunk payloads.
    pub region_count: u64,
    /// Number of chunks; always `accesses.div_ceil(chunk_accesses)`.
    pub chunk_count: u64,
    /// Accesses per chunk (every chunk but the last is exactly full).
    pub chunk_accesses: u32,
}

impl ChunkedHeader {
    /// Validates the header invariants hostile inputs could break:
    /// counts in range, chunk geometry consistent with the access
    /// count, and a nonzero chunk size whenever there are accesses.
    pub(crate) fn validate(self) -> io::Result<ChunkedHeader> {
        if self.accesses > u64::from(u32::MAX) || self.region_count > 1 << 32 {
            return Err(bad_data("v2.2 trace header counts out of range"));
        }
        let expect_chunks = if self.accesses == 0 {
            0
        } else if self.chunk_accesses == 0 {
            return Err(bad_data("v2.2 chunk size is zero"));
        } else {
            self.accesses.div_ceil(u64::from(self.chunk_accesses))
        };
        if self.chunk_count != expect_chunks {
            return Err(bad_data(format!(
                "v2.2 chunk count {} inconsistent with {} accesses of {} per chunk",
                self.chunk_count, self.accesses, self.chunk_accesses
            )));
        }
        Ok(self)
    }

    /// The access-column range `[lo, hi)` chunk `i` covers.
    pub(crate) fn chunk_range(&self, i: u64) -> (u64, u64) {
        let lo = i * u64::from(self.chunk_accesses);
        let hi = (lo + u64::from(self.chunk_accesses)).min(self.accesses);
        (lo, hi)
    }

    /// Checks one chunk's inline (or index) header against the
    /// geometry this header promises, bounding `addr_bytes` before any
    /// allocation happens.
    pub(crate) fn check_chunk(&self, i: u64, chunk_len: u32, addr_bytes: u32) -> io::Result<()> {
        let (lo, hi) = self.chunk_range(i);
        if u64::from(chunk_len) != hi - lo {
            return Err(bad_data(format!(
                "v2.2 chunk {i} declares {chunk_len} accesses, expected {}",
                hi - lo
            )));
        }
        // Split columns carry ceil(len/4) control bytes plus 1–4
        // payload bytes per address; both bounds hold for every
        // well-formed column, so a hostile field outside them is
        // rejected before any allocation.
        let len = u64::from(chunk_len);
        let control = len.div_ceil(4);
        let (min, max) = (
            control + len,
            control + crate::varint::MAX_SPLIT_BYTES_PER_ADDR as u64 * len,
        );
        if u64::from(addr_bytes) < min || u64::from(addr_bytes) > max {
            return Err(bad_data(format!(
                "v2.2 chunk {i} declares {addr_bytes} address bytes for {chunk_len} accesses"
            )));
        }
        Ok(())
    }
}

/// Checks the header's codec word, which must name the split codec so
/// a magic/codec mismatch cannot decode garbage.
pub(crate) fn check_codec_id(id: u32) -> io::Result<()> {
    let split = AddrCodec::Split.id();
    if id != split {
        return Err(bad_data(format!(
            "FVLTRC22 header declares codec id {id}, expected {split}"
        )));
    }
    Ok(())
}

/// Sequential decoder for the chunk-indexed v2.2 format.
fn read_v22<R: Read>(reader: &mut ChunkedReader<R>) -> io::Result<PackedTrace> {
    let header = ChunkedHeader {
        accesses: reader.take_u64()?,
        region_count: reader.take_u64()?,
        chunk_count: reader.take_u64()?,
        chunk_accesses: reader.take_u32()?,
    }
    .validate()?;
    check_codec_id(reader.take_u32()?)?;
    let mut addrs = Vec::with_capacity((header.accesses as usize).min(1 << 24));
    let mut values = Vec::with_capacity((header.accesses as usize).min(1 << 24));
    let mut encoded = Vec::new();
    for chunk in 0..header.chunk_count {
        let chunk_len = reader.take_u32()?;
        let addr_bytes = reader.take_u32()?;
        header.check_chunk(chunk, chunk_len, addr_bytes)?;
        encoded.clear();
        encoded.resize(addr_bytes as usize, 0);
        reader.take(&mut encoded)?;
        crate::varint::decode_addr_chunk_split_into(&encoded, chunk_len as usize, &mut addrs)?;
        reader.take_u32_column_into(chunk_len as usize, &mut values)?;
    }
    let regions = read_regions(reader, header.region_count)?;
    // The footer index is for random access; the sequential decode is
    // complete without it, so it reads as tolerated trailing bytes.
    PackedTrace::from_columns(addrs, values, regions).map_err(bad_data)
}

impl Trace {
    /// Writes the trace to `writer` in the original `FVLTRC1` per-event
    /// binary format (kept as the write default for compatibility with
    /// existing tooling; use [`PackedTrace::write_to`] for the columnar
    /// `FVLTRC2` format).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer. A `&mut` reference can
    /// be passed for writers you need back afterwards.
    pub fn write_to<W: Write>(&self, writer: W) -> io::Result<()> {
        let mut out = ChunkedWriter::new(writer);
        out.put(MAGIC_V1)?;
        out.put_u64(self.events().len() as u64)?;
        for event in self.events() {
            match *event {
                TraceEvent::Access(a) => {
                    let tag = match a.kind {
                        AccessKind::Load => TAG_LOAD,
                        AccessKind::Store => TAG_STORE,
                    };
                    out.put(&[tag])?;
                    out.put_u32(a.addr)?;
                    out.put_u32(a.value)?;
                }
                TraceEvent::Alloc(r) | TraceEvent::Free(r) => {
                    let tag = if matches!(event, TraceEvent::Alloc(_)) {
                        TAG_ALLOC
                    } else {
                        TAG_FREE
                    };
                    out.put(&[tag, kind_to_byte(r.kind)])?;
                    out.put_u32(r.base)?;
                    out.put_u32(r.words)?;
                }
            }
        }
        out.finish()
    }

    /// Reads a trace written by either [`Trace::write_to`] (`FVLTRC1`)
    /// or [`PackedTrace::write_to`] (`FVLTRC2`); columnar files are
    /// expanded into the event-log layout.
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` on a bad magic header or corrupt record,
    /// and propagates underlying I/O errors. A `&mut` reference can be
    /// passed for readers you need back afterwards.
    pub fn read_from<R: Read>(reader: R) -> io::Result<Trace> {
        match read_any(reader)? {
            ReadTrace::Legacy(trace) => Ok(trace),
            ReadTrace::Packed(packed) => Ok(packed.to_trace()),
        }
    }
}

impl PackedTrace {
    /// Writes the trace to `writer` in the columnar `FVLTRC2` format:
    /// header (magic, access count, region-event count), the packed
    /// address column, the value column, then the region side table —
    /// each streamed through [`CHUNK_BYTES`]-sized `write_all` calls.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer. A `&mut` reference can
    /// be passed for writers you need back afterwards.
    pub fn write_to<W: Write>(&self, writer: W) -> io::Result<()> {
        let mut out = ChunkedWriter::new(writer);
        out.put(MAGIC_V2)?;
        out.put_u64(self.accesses())?;
        out.put_u64(self.region_events().len() as u64)?;
        for &addr in self.addrs() {
            out.put_u32(addr)?;
        }
        for &value in self.values() {
            out.put_u32(value)?;
        }
        for event in self.region_events() {
            out.put_u64(event.pos)?;
            out.put(&[u8::from(event.is_alloc), kind_to_byte(event.region.kind)])?;
            out.put_u32(event.region.base)?;
            out.put_u32(event.region.words)?;
        }
        out.finish()
    }

    /// Reads a trace written by either [`PackedTrace::write_to`]
    /// (`FVLTRC2`) or [`Trace::write_to`] (`FVLTRC1`); per-event files
    /// are packed into the columnar layout.
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` on a bad magic header or corrupt record,
    /// and propagates underlying I/O errors. A `&mut` reference can be
    /// passed for readers you need back afterwards.
    pub fn read_from<R: Read>(reader: R) -> io::Result<PackedTrace> {
        match read_any(reader)? {
            ReadTrace::Legacy(trace) => Ok(PackedTrace::from_trace(&trace)),
            ReadTrace::Packed(packed) => Ok(packed),
        }
    }

    /// Encoded size of this trace in the `FVLTRC2` format, without
    /// writing it: header + two `u32` columns + region records.
    pub fn encoded_len(&self) -> u64 {
        8 + 8 + 8 + 8 * self.accesses() + (self.region_events().len() * REGION_RECORD_BYTES) as u64
    }

    /// Writes the trace in the chunk-indexed `FVLTRC22` (v2.2) format
    /// with the default [`CHUNK_ACCESSES`] chunk size: per-chunk
    /// stream-split address columns
    /// ([`crate::varint::encode_addr_chunk_split`]), raw value columns,
    /// the v2 region table, and a footer chunk index for random access
    /// (see the module docs for the layout). On-disk size is typically
    /// well under the resident form's 8 bytes per access.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_v22_to<W: Write>(&self, writer: W) -> io::Result<()> {
        self.write_v22_with(writer, CHUNK_ACCESSES)
    }

    /// [`PackedTrace::write_v22_to`] with an explicit chunk size —
    /// small chunks let tests and CI exercise many-chunk files without
    /// huge traces.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_accesses` is zero.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_v22_with<W: Write>(&self, writer: W, chunk_accesses: u32) -> io::Result<()> {
        assert!(chunk_accesses > 0, "chunk size must be positive");
        let accesses = self.accesses();
        let ca = u64::from(chunk_accesses);
        let chunk_count = accesses.div_ceil(ca);
        let mut out = ChunkedWriter::new(writer);
        out.put(MAGIC_V22)?;
        out.put_u64(accesses)?;
        out.put_u64(self.region_events().len() as u64)?;
        out.put_u64(chunk_count)?;
        out.put_u32(chunk_accesses)?;
        out.put_u32(AddrCodec::Split.id())?;
        let mut index: Vec<(u64, u32, u32)> = Vec::with_capacity(chunk_count as usize);
        let mut offset = CHUNKED_HEADER_BYTES as u64;
        let mut encoded = Vec::new();
        let (addrs, values) = (self.addrs(), self.values());
        for chunk in 0..chunk_count {
            let lo = (chunk * ca) as usize;
            let hi = ((chunk + 1) * ca).min(accesses) as usize;
            let chunk_len = (hi - lo) as u32;
            encoded.clear();
            crate::varint::encode_addr_chunk_split(&addrs[lo..hi], &mut encoded);
            let addr_bytes = encoded.len() as u32;
            index.push((offset, chunk_len, addr_bytes));
            out.put_u32(chunk_len)?;
            out.put_u32(addr_bytes)?;
            out.put(&encoded)?;
            for &v in &values[lo..hi] {
                out.put_u32(v)?;
            }
            offset += 8 + u64::from(addr_bytes) + 4 * u64::from(chunk_len);
        }
        for event in self.region_events() {
            out.put_u64(event.pos)?;
            out.put(&[u8::from(event.is_alloc), kind_to_byte(event.region.kind)])?;
            out.put_u32(event.region.base)?;
            out.put_u32(event.region.words)?;
        }
        let index_offset = offset + (self.region_events().len() * REGION_RECORD_BYTES) as u64;
        for (payload_offset, chunk_len, addr_bytes) in index {
            out.put_u64(payload_offset)?;
            out.put_u32(chunk_len)?;
            out.put_u32(addr_bytes)?;
        }
        out.put_u64(index_offset)?;
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::CountingSink;
    use crate::bus::{Bus, BusExt};
    use crate::traced::TracedMemory;

    fn sample_trace() -> Trace {
        let mut buf = crate::trace::TraceBuffer::new();
        {
            let mut m = TracedMemory::new(&mut buf);
            let a = m.alloc(4);
            m.fill(a, 4, 7);
            let f = m.push_frame(2);
            m.store(f, 9);
            let _ = m.load(a);
            m.pop_frame();
            m.free(a);
        }
        buf.into_trace()
    }

    #[test]
    fn round_trip_preserves_every_event() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let loaded = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(loaded.events(), trace.events());
        assert_eq!(loaded.accesses(), trace.accesses());
        // Replays identically.
        let mut a = CountingSink::new();
        let mut b = CountingSink::new();
        trace.replay(&mut a);
        loaded.replay(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn v2_round_trip_preserves_columns() {
        let packed = PackedTrace::from_trace(&sample_trace());
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        assert_eq!(bytes.len() as u64, packed.encoded_len());
        assert_eq!(&bytes[..8], MAGIC_V2);
        let loaded = PackedTrace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(loaded.addrs(), packed.addrs());
        assert_eq!(loaded.values(), packed.values());
        assert_eq!(loaded.region_events(), packed.region_events());
    }

    #[test]
    fn formats_cross_load() {
        let trace = sample_trace();
        // v1 bytes load into a PackedTrace…
        let mut v1 = Vec::new();
        trace.write_to(&mut v1).unwrap();
        let packed = PackedTrace::read_from(v1.as_slice()).unwrap();
        assert_eq!(packed.accesses(), trace.accesses());
        // …and v2 bytes load into a legacy Trace.
        let mut v2 = Vec::new();
        packed.write_to(&mut v2).unwrap();
        let unpacked = Trace::read_from(v2.as_slice()).unwrap();
        assert_eq!(unpacked.events(), trace.events());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = Trace::read_from(&b"NOTATRACE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = PackedTrace::read_from(&b"NOTATRACE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let trace = sample_trace();
        let mut v1 = Vec::new();
        trace.write_to(&mut v1).unwrap();
        v1.truncate(v1.len() - 3);
        assert!(Trace::read_from(v1.as_slice()).is_err());

        let mut v2 = Vec::new();
        PackedTrace::from_trace(&trace).write_to(&mut v2).unwrap();
        v2.truncate(v2.len() - 3);
        assert!(PackedTrace::read_from(v2.as_slice()).is_err());
    }

    #[test]
    fn bad_tag_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V1);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.push(99); // invalid tag
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_v2_region_flag_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC_V2);
        bytes.extend_from_slice(&0u64.to_le_bytes()); // no accesses
        bytes.extend_from_slice(&1u64.to_le_bytes()); // one region event
        bytes.extend_from_slice(&0u64.to_le_bytes()); // pos
        bytes.push(7); // invalid is_alloc flag
        bytes.push(0);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        let err = PackedTrace::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::from_events(vec![]);
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let loaded = Trace::read_from(bytes.as_slice()).unwrap();
        assert!(loaded.is_empty());

        let packed = PackedTrace::from_trace(&trace);
        let mut bytes = Vec::new();
        packed.write_to(&mut bytes).unwrap();
        assert!(PackedTrace::read_from(bytes.as_slice()).unwrap().is_empty());
    }

    #[cfg(not(feature = "seeded-bugs"))]
    #[test]
    fn v22_round_trips_across_chunk_sizes() {
        let packed = PackedTrace::from_trace(&sample_trace());
        for chunk_accesses in [1u32, 2, 3, 7, CHUNK_ACCESSES] {
            let mut bytes = Vec::new();
            packed.write_v22_with(&mut bytes, chunk_accesses).unwrap();
            assert_eq!(&bytes[..8], MAGIC_V22);
            assert_eq!(bytes[36..40], 1u32.to_le_bytes()); // codec id
            let loaded = PackedTrace::read_from(bytes.as_slice()).unwrap();
            assert_eq!(loaded.addrs(), packed.addrs(), "chunk {chunk_accesses}");
            assert_eq!(loaded.values(), packed.values(), "chunk {chunk_accesses}");
            assert_eq!(loaded.region_events(), packed.region_events());
            // The legacy reader sniffs v2.2 too.
            let unpacked = Trace::read_from(bytes.as_slice()).unwrap();
            assert_eq!(unpacked.events(), packed.to_trace().events());
        }
    }

    #[cfg(not(feature = "seeded-bugs"))]
    #[test]
    fn v22_empty_trace_round_trips() {
        let packed = PackedTrace::from_trace(&Trace::from_events(vec![]));
        let mut bytes = Vec::new();
        packed.write_v22_to(&mut bytes).unwrap();
        assert_eq!(bytes.len(), CHUNKED_HEADER_BYTES + 8);
        assert!(PackedTrace::read_from(bytes.as_slice()).unwrap().is_empty());
    }

    #[cfg(not(feature = "seeded-bugs"))]
    #[test]
    fn v22_re_encodes_identically_and_beats_v2_on_local_streams() {
        let mut events = Vec::new();
        for i in 0u32..20_000 {
            events.push(TraceEvent::Access(Access::store((i % 4096) * 4, i)));
        }
        let packed = PackedTrace::from_trace(&Trace::from_events(events));
        let mut v22 = Vec::new();
        packed.write_v22_to(&mut v22).unwrap();
        // Decoding and re-encoding is byte-lossless.
        let decoded = PackedTrace::read_from(v22.as_slice()).unwrap();
        let mut v22_again = Vec::new();
        decoded.write_v22_to(&mut v22_again).unwrap();
        assert_eq!(v22, v22_again);
        // Small deltas shrink the addr column to ~1.25 bytes per access,
        // so the whole file stays well under the raw v2 form.
        let mut v2 = Vec::new();
        packed.write_to(&mut v2).unwrap();
        assert!(
            v22.len() * 10 < v2.len() * 8,
            "v2.2 {} vs v2 {}",
            v22.len(),
            v2.len()
        );
    }

    #[test]
    fn v22_codec_id_mismatch_is_rejected() {
        let packed = PackedTrace::from_trace(&sample_trace());
        let mut bytes = Vec::new();
        packed.write_v22_with(&mut bytes, 4).unwrap();
        // Zero the codec word: the v2.2 magic now disagrees with it.
        bytes[36..40].copy_from_slice(&0u32.to_le_bytes());
        let err = PackedTrace::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("codec id"), "{err}");
    }

    #[test]
    fn v22_inconsistent_chunk_geometry_is_rejected() {
        let packed = PackedTrace::from_trace(&sample_trace());
        let mut bytes = Vec::new();
        packed.write_v22_with(&mut bytes, 4).unwrap();
        // Corrupt the chunk_count field (offset 24) to a huge value:
        // the reader must reject it from the header alone, not try to
        // allocate or read that many chunks.
        bytes[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = PackedTrace::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // And a zero chunk size with nonzero accesses.
        let mut bytes2 = Vec::new();
        packed.write_v22_with(&mut bytes2, 4).unwrap();
        bytes2[32..36].copy_from_slice(&0u32.to_le_bytes());
        assert!(PackedTrace::read_from(bytes2.as_slice()).is_err());
    }

    #[test]
    fn large_trace_crosses_chunk_boundaries() {
        // > 64 KiB in both formats so the chunk buffer flushes mid-column.
        let mut events = Vec::new();
        for i in 0u32..20_000 {
            events.push(TraceEvent::Access(Access::store((i % 4096) * 4, i)));
        }
        let trace = Trace::from_events(events);
        let mut v1 = Vec::new();
        trace.write_to(&mut v1).unwrap();
        assert!(v1.len() > CHUNK_BYTES);
        assert_eq!(
            Trace::read_from(v1.as_slice()).unwrap().events(),
            trace.events()
        );

        let packed = PackedTrace::from_trace(&trace);
        let mut v2 = Vec::new();
        packed.write_to(&mut v2).unwrap();
        assert!(v2.len() > CHUNK_BYTES);
        // Access-dominated traces shrink to ~8/9 of the v1 encoding.
        assert!(
            v2.len() < v1.len(),
            "v2 ({}) >= v1 ({})",
            v2.len(),
            v1.len()
        );
        let loaded = PackedTrace::read_from(v2.as_slice()).unwrap();
        assert_eq!(loaded.addrs(), packed.addrs());
        assert_eq!(loaded.values(), packed.values());
    }
}
