//! The trace file format and its one encoder.
//!
//! Recorded traces can be written to disk and replayed later, so an
//! expensive workload execution (or an externally collected trace) can
//! drive many simulation campaigns. Every tool writes and reads one
//! dependency-free little-endian format, `FVLTRC22` (v2.2), written by
//! [`PackedTrace::write_v22_with`]: the columns are split into
//! [`CHUNK_ACCESSES`]-access chunks, each chunk's address column is
//! delta-coded in the stream-split layout of
//! [`crate::varint::encode_addr_chunk_split`] (a control stream of 2-bit
//! length codes, then the trimmed little-endian token bytes, which
//! decodes branch-free), and a footer index records every chunk's file
//! offset so [`crate::MappedTrace`] can read and decode chunks one at a
//! time and out of order. Layout:
//!
//! ```text
//! magic "FVLTRC22"
//! accesses u64 | region_count u64 | chunk_count u64
//! chunk_accesses u32 | codec id u32 (1, the split codec)
//! per chunk:  chunk_len u32 | addr_bytes u32
//!             split address column (addr_bytes) | values (4 * chunk_len)
//! per region event: pos u64 | is_alloc u8 | kind u8 | base u32 | words u32
//! footer index, per chunk: payload_offset u64 | chunk_len u32
//!                          | addr_bytes u32
//! index_offset u64
//! ```
//!
//! [`crate::MappedTrace`] is the one reader. A file is accepted only if
//! it has exactly this layout: chunks back to back from the end of the
//! header, the region table right after the last chunk, the index right
//! after the region table, and nothing after the index offset. Files in
//! the earlier `FVLTRC1`, `FVLTRC2` and `FVLTRC21` formats are rejected
//! as unknown.
//!
//! Encoding goes through an explicit chunk buffer ([`CHUNK_BYTES`]-sized
//! `write_all` calls instead of one syscall-ish write per field).

use crate::layout::RegionKind;
use crate::packed::PackedTrace;
use std::io::{self, Write};

pub(crate) const MAGIC: &[u8; 8] = b"FVLTRC22";

/// Size of the encoder's staging buffer: every `write_all` to the
/// underlying writer moves about this many bytes, not one field's
/// worth.
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

/// Bytes per region-event record: u64 pos + u8 is_alloc + u8 kind +
/// u32 base + u32 words.
pub(crate) const REGION_RECORD_BYTES: usize = 18;

fn kind_to_byte(kind: RegionKind) -> u8 {
    match kind {
        RegionKind::Global => 0,
        RegionKind::Heap => 1,
        RegionKind::Stack => 2,
    }
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

impl PackedTrace {
    /// Writes the trace in the chunk-indexed `FVLTRC22` (v2.2) format
    /// with the default [`CHUNK_ACCESSES`] chunk size: per-chunk
    /// stream-split address columns
    /// ([`crate::varint::encode_addr_chunk_split`]), raw value columns,
    /// the region table, and a footer chunk index for random access
    /// (see the module docs for the layout). On-disk size is typically
    /// well under the resident form's 8 bytes per access.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer. A `&mut` reference can
    /// be passed for writers you need back afterwards.
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
        out.put(MAGIC)?;
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

#[cfg(all(test, not(feature = "seeded-bugs")))]
mod tests {
    use super::*;
    use crate::access::{Access, CountingSink};
    use crate::bus::{Bus, BusExt};
    use crate::mapped::MappedTrace;
    use crate::trace::{Trace, TraceEvent};
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

    fn decode(bytes: &[u8]) -> PackedTrace {
        MappedTrace::from_bytes(bytes).unwrap().to_packed().unwrap()
    }

    #[test]
    fn v22_round_trips_across_chunk_sizes() {
        let trace = sample_trace();
        let packed = PackedTrace::from_trace(&trace);
        for chunk_accesses in [1u32, 2, 3, 7, CHUNK_ACCESSES] {
            let mut bytes = Vec::new();
            packed.write_v22_with(&mut bytes, chunk_accesses).unwrap();
            assert_eq!(&bytes[..8], MAGIC);
            assert_eq!(bytes[36..40], 1u32.to_le_bytes()); // codec id
            let loaded = decode(&bytes);
            assert_eq!(loaded.addrs(), packed.addrs(), "chunk {chunk_accesses}");
            assert_eq!(loaded.values(), packed.values(), "chunk {chunk_accesses}");
            assert_eq!(loaded.region_events(), packed.region_events());
            assert_eq!(loaded.to_trace().events(), trace.events());
            // Replays identically.
            let mut a = CountingSink::new();
            let mut b = CountingSink::new();
            trace.replay(&mut a);
            loaded.replay(&mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn v22_empty_trace_round_trips() {
        let packed = PackedTrace::from_trace(&Trace::from_events(vec![]));
        let mut bytes = Vec::new();
        packed.write_v22_to(&mut bytes).unwrap();
        assert_eq!(bytes.len(), CHUNKED_HEADER_BYTES + 8);
        assert!(decode(&bytes).is_empty());
    }

    #[test]
    fn v22_re_encodes_identically_and_beats_raw_columns_on_local_streams() {
        // > 64 KiB of raw columns, so the staging buffer flushes
        // mid-column.
        let mut events = Vec::new();
        for i in 0u32..20_000 {
            events.push(TraceEvent::Access(Access::store((i % 4096) * 4, i)));
        }
        let packed = PackedTrace::from_trace(&Trace::from_events(events));
        let mut v22 = Vec::new();
        packed.write_v22_to(&mut v22).unwrap();
        // Decoding and re-encoding is byte-lossless.
        let decoded = decode(&v22);
        assert_eq!(decoded.addrs(), packed.addrs());
        let mut v22_again = Vec::new();
        decoded.write_v22_to(&mut v22_again).unwrap();
        assert_eq!(v22, v22_again);
        // Small deltas shrink the addr column to ~1.25 bytes per access,
        // so the whole file stays well under the 8 bytes per access of
        // the raw columns.
        let raw = 8 * packed.accesses() as usize;
        assert!(raw > CHUNK_BYTES);
        assert!(v22.len() * 10 < raw * 8, "v2.2 {} vs raw {raw}", v22.len());
    }

    #[test]
    fn v22_codec_id_mismatch_is_rejected() {
        let packed = PackedTrace::from_trace(&sample_trace());
        let mut bytes = Vec::new();
        packed.write_v22_with(&mut bytes, 4).unwrap();
        // Zero the codec word: the v2.2 magic now disagrees with it.
        bytes[36..40].copy_from_slice(&0u32.to_le_bytes());
        let err = MappedTrace::from_bytes(bytes).unwrap_err();
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
        let err = MappedTrace::from_bytes(bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // And a zero chunk size with nonzero accesses.
        let mut bytes2 = Vec::new();
        packed.write_v22_with(&mut bytes2, 4).unwrap();
        bytes2[32..36].copy_from_slice(&0u32.to_le_bytes());
        assert!(MappedTrace::from_bytes(bytes2).is_err());
    }
}
