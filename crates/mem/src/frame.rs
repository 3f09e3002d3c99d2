//! Length-prefixed wire frames for the `fvl-serve` protocol.
//!
//! The simulation service (`crates/serve`) and its clients exchange a
//! byte stream of *frames*. The codec lives here, next to the trace
//! readers, because the same validation discipline applies: every
//! length field in the header is checked against a hard ceiling
//! **before** it is allowed to size an allocation, and payload bytes
//! are buffered incrementally as they actually arrive, so a hostile
//! header announcing `u64::MAX` (or `2^32`) bytes is rejected with a
//! typed error without reserving a single byte for it.
//!
//! # Frame grammar
//!
//! ```text
//! frame   := kind seq len payload
//! kind    := u8          (one of FrameKind; anything else fails closed)
//! seq     := u32 LE      (per-direction counter, starts at 0, +1 per frame)
//! len     := u64 LE      (payload byte count; must be <= MAX_FRAME_LEN)
//! payload := len bytes   (frame-kind-specific)
//! ```
//!
//! The sequence number makes response-stream faults *observable*: a
//! dropped frame leaves a gap, a duplicated frame repeats a number, a
//! reordered frame arrives out of order — the fault-injection tests in
//! `crates/serve` rely on exactly this. Sequence checking is the
//! *connection's* job (the codec only carries the number), because the
//! counter is per-direction state.
//!
//! Trace payloads ([`FrameKind::Trace`]) carry a complete `FVLTRC22`
//! trace file; the receiver revalidates it with the one trace reader
//! ([`crate::MappedTrace`]), so a frame that survives the codec can
//! still be rejected as a bad trace.
//!
//! # Example
//!
//! ```
//! use fvl_mem::frame::{read_frame, write_frame, Frame, FrameKind};
//!
//! let mut wire = Vec::new();
//! write_frame(&mut wire, FrameKind::Hello, 0, b"tenant=ci").unwrap();
//! let frame = read_frame(&mut wire.as_slice()).unwrap();
//! assert_eq!(frame.kind, FrameKind::Hello);
//! assert_eq!(frame.seq, 0);
//! assert_eq!(frame.payload, b"tenant=ci");
//! ```

use std::fmt;
use std::io::{self, Read, Write};

/// Hard ceiling on a frame payload (16 MiB). Anything larger is a
/// protocol violation answered with [`ErrorCode::TooLarge`]; the limit
/// exists so no untrusted length field can size an allocation.
pub const MAX_FRAME_LEN: u64 = 16 * 1024 * 1024;

/// Bytes of a frame header: kind (1) + seq (4) + len (8).
pub const FRAME_HEADER_LEN: usize = 13;

/// Largest single buffer growth while reading a payload. The payload
/// buffer grows in steps of at most this many bytes, each step filled
/// from the wire before the next is reserved, so memory held for a
/// connection is bounded by bytes actually received (plus one step).
pub const PAYLOAD_READ_STEP: usize = 64 * 1024;

/// Frame kinds. Client-originated kinds live below `0x80`,
/// server-originated kinds at `0x80` and above; an unknown kind byte
/// fails the connection closed with [`ErrorCode::BadFrame`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: opens a session. Payload: `key=value` lines
    /// (`tenant`, `input`, `seed`, `smoke`).
    Hello = 0x01,
    /// Client → server: run one named experiment. Payload: the
    /// experiment name (e.g. `fig10`).
    Job = 0x02,
    /// Client → server: upload a trace file. Payload: the bytes of one
    /// `FVLTRC22` file.
    Trace = 0x03,
    /// Client → server: simulate the uploaded trace. Payload:
    /// `key=value` lines (`size`, `line`, `assoc`, `write`, `policy`).
    Sim = 0x04,
    /// Client → server: request the session metrics document.
    /// Payload: `json` or `csv`.
    MetricsReq = 0x05,
    /// Client → server: orderly goodbye.
    Bye = 0x06,
    /// Server → client: session accepted. Payload: `key=value` lines
    /// (`session`, `budget`).
    Welcome = 0x81,
    /// Server → client: one chunk of an experiment report (stdout
    /// bytes, streamed in order).
    Stdout = 0x82,
    /// Server → client: a schema-v1 metrics document (JSON or CSV,
    /// matching the request or the per-job incremental push).
    Metrics = 0x83,
    /// Server → client: a job/upload finished. Payload: `key=value`
    /// lines (`refs`, `accesses`).
    Done = 0x84,
    /// Server → client: result of a [`FrameKind::Sim`] request.
    /// Payload: `key=value` lines of counters.
    SimResult = 0x85,
    /// Server → client: typed rejection. Payload: one [`ErrorCode`]
    /// byte followed by a UTF-8 message.
    Error = 0x86,
}

impl FrameKind {
    /// Decodes a kind byte, `None` for anything off-grammar.
    pub fn from_byte(byte: u8) -> Option<FrameKind> {
        Some(match byte {
            0x01 => FrameKind::Hello,
            0x02 => FrameKind::Job,
            0x03 => FrameKind::Trace,
            0x04 => FrameKind::Sim,
            0x05 => FrameKind::MetricsReq,
            0x06 => FrameKind::Bye,
            0x81 => FrameKind::Welcome,
            0x82 => FrameKind::Stdout,
            0x83 => FrameKind::Metrics,
            0x84 => FrameKind::Done,
            0x85 => FrameKind::SimResult,
            0x86 => FrameKind::Error,
            _ => return None,
        })
    }
}

/// Typed rejection codes carried in the first byte of an
/// [`FrameKind::Error`] payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The byte stream violated the frame grammar (bad kind byte,
    /// truncated header/payload, malformed payload).
    BadFrame = 1,
    /// A length field exceeded [`MAX_FRAME_LEN`].
    TooLarge = 2,
    /// Admission control: the daemon (or the tenant) is at its
    /// concurrent-session cap.
    Busy = 3,
    /// Admission control: the tenant's reference budget is exhausted.
    OverBudget = 4,
    /// The connection idled past the server's read/idle timeout.
    Timeout = 5,
    /// The requested experiment name is not in the registry.
    UnknownJob = 6,
    /// The daemon is draining (SIGTERM); no new work is admitted.
    Draining = 7,
    /// A [`FrameKind::Trace`] payload failed trace validation.
    BadTrace = 8,
    /// A frame arrived in the wrong session state (e.g. a job before
    /// the hello handshake).
    BadState = 9,
}

impl ErrorCode {
    /// Decodes a code byte, `None` for anything off-grammar.
    pub fn from_byte(byte: u8) -> Option<ErrorCode> {
        Some(match byte {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::TooLarge,
            3 => ErrorCode::Busy,
            4 => ErrorCode::OverBudget,
            5 => ErrorCode::Timeout,
            6 => ErrorCode::UnknownJob,
            7 => ErrorCode::Draining,
            8 => ErrorCode::BadTrace,
            9 => ErrorCode::BadState,
            _ => return None,
        })
    }

    /// Stable lower-case label (used in logs and test assertions).
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::TooLarge => "too-large",
            ErrorCode::Busy => "busy",
            ErrorCode::OverBudget => "over-budget",
            ErrorCode::Timeout => "timeout",
            ErrorCode::UnknownJob => "unknown-job",
            ErrorCode::Draining => "draining",
            ErrorCode::BadTrace => "bad-trace",
            ErrorCode::BadState => "bad-state",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What the frame is.
    pub kind: FrameKind,
    /// Per-direction sequence number.
    pub seq: u32,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Parses an [`FrameKind::Error`] payload into its code and
    /// message. Returns `None` when the frame is not an error frame or
    /// the payload is off-grammar.
    pub fn as_error(&self) -> Option<(ErrorCode, String)> {
        if self.kind != FrameKind::Error {
            return None;
        }
        let (&code, msg) = self.payload.split_first()?;
        Some((
            ErrorCode::from_byte(code)?,
            String::from_utf8_lossy(msg).into_owned(),
        ))
    }
}

/// Writes one frame. `seq` is the sender's per-direction counter.
///
/// # Errors
///
/// Fails when the payload exceeds [`MAX_FRAME_LEN`] (callers chunk
/// large streams) or on any underlying I/O error.
pub fn write_frame<W: Write>(
    mut writer: W,
    kind: FrameKind,
    seq: u32,
    payload: &[u8],
) -> io::Result<()> {
    let len = payload.len() as u64;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0] = kind as u8;
    header[1..5].copy_from_slice(&seq.to_le_bytes());
    header[5..13].copy_from_slice(&len.to_le_bytes());
    writer.write_all(&header)?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Convenience: writes an [`FrameKind::Error`] frame.
///
/// # Errors
///
/// Propagates I/O errors from [`write_frame`].
pub fn write_error<W: Write>(writer: W, seq: u32, code: ErrorCode, msg: &str) -> io::Result<()> {
    let mut payload = Vec::with_capacity(1 + msg.len());
    payload.push(code as u8);
    payload.extend_from_slice(msg.as_bytes());
    write_frame(writer, FrameKind::Error, seq, &payload)
}

/// How a frame read failed, split so connections can answer with the
/// right [`ErrorCode`] before failing closed.
#[derive(Debug)]
pub enum FrameReadError {
    /// The peer closed the connection cleanly *between* frames.
    Closed,
    /// The header's length field exceeded [`MAX_FRAME_LEN`]. Carries
    /// the hostile value; **no allocation was sized from it**.
    TooLarge(u64),
    /// The header's kind byte is not in the grammar.
    BadKind(u8),
    /// The stream ended inside a header or payload, or another I/O
    /// error occurred (including read timeouts).
    Io(io::Error),
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Closed => write!(f, "connection closed"),
            FrameReadError::TooLarge(len) => {
                write!(f, "declared payload of {len} bytes exceeds MAX_FRAME_LEN")
            }
            FrameReadError::BadKind(byte) => write!(f, "unknown frame kind byte {byte:#04x}"),
            FrameReadError::Io(err) => write!(f, "frame read failed: {err}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

impl From<FrameReadError> for io::Error {
    fn from(err: FrameReadError) -> io::Error {
        match err {
            FrameReadError::Io(io) => io,
            FrameReadError::Closed => io::Error::new(io::ErrorKind::UnexpectedEof, err.to_string()),
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Reads one frame, validating everything the header claims before
/// acting on it.
///
/// The declared payload length is compared against [`MAX_FRAME_LEN`]
/// **before** any buffer is sized from it, and the payload buffer then
/// grows in [`PAYLOAD_READ_STEP`] increments, each filled from the
/// wire before the next is reserved — a peer that declares a large
/// length but never sends the bytes holds at most one step of memory.
///
/// # Errors
///
/// [`FrameReadError::Closed`] on clean EOF between frames; the other
/// variants as documented on [`FrameReadError`].
pub fn read_frame<R: Read>(mut reader: R) -> Result<Frame, FrameReadError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // Distinguish "closed between frames" from "died mid-header".
    match reader.read(&mut header) {
        Ok(0) => return Err(FrameReadError::Closed),
        Ok(n) => reader
            .read_exact(&mut header[n..])
            .map_err(FrameReadError::Io)?,
        Err(err) => return Err(FrameReadError::Io(err)),
    }
    let kind = FrameKind::from_byte(header[0]).ok_or(FrameReadError::BadKind(header[0]))?;
    let seq = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes"));
    let declared = u64::from_le_bytes(header[5..13].try_into().expect("8 bytes"));
    if declared > MAX_FRAME_LEN {
        return Err(FrameReadError::TooLarge(declared));
    }
    // `seeded-bugs` is the TEST-ONLY mutation switch used by the
    // `fvl-check` mutation smoke tier: an off-by-one in the trusted
    // length desynchronizes the stream (every non-empty payload loses
    // its last byte to the next frame's header), which `diff_serve`
    // must catch. Never enabled in a normal build.
    #[cfg(feature = "seeded-bugs")]
    let declared = declared.saturating_sub(1);
    let len = declared as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        let step = (len - payload.len()).min(PAYLOAD_READ_STEP);
        let start = payload.len();
        payload.resize(start + step, 0);
        reader
            .read_exact(&mut payload[start..])
            .map_err(FrameReadError::Io)?;
    }
    Ok(Frame { kind, seq, payload })
}

/// Parses a `key=value`-lines payload (the convention used by hello,
/// welcome, done and sim frames). Later duplicates win; lines without
/// `=` are ignored.
pub fn parse_kv(payload: &[u8]) -> Vec<(String, String)> {
    let text = String::from_utf8_lossy(payload);
    text.lines()
        .filter_map(|line| {
            let (k, v) = line.split_once('=')?;
            Some((k.trim().to_string(), v.trim().to_string()))
        })
        .collect()
}

/// Looks up one key in a [`parse_kv`] result.
pub fn kv_get<'a>(kv: &'a [(String, String)], key: &str) -> Option<&'a str> {
    kv.iter()
        .rev()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(feature = "seeded-bugs", allow(dead_code))]
    fn wire(kind: FrameKind, seq: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, kind, seq, payload).unwrap();
        out
    }

    #[cfg(not(feature = "seeded-bugs"))]
    #[test]
    fn round_trips_every_kind() {
        for (i, kind) in [
            FrameKind::Hello,
            FrameKind::Job,
            FrameKind::Trace,
            FrameKind::Sim,
            FrameKind::MetricsReq,
            FrameKind::Bye,
            FrameKind::Welcome,
            FrameKind::Stdout,
            FrameKind::Metrics,
            FrameKind::Done,
            FrameKind::SimResult,
            FrameKind::Error,
        ]
        .into_iter()
        .enumerate()
        {
            let payload = vec![i as u8; i * 37];
            let bytes = wire(kind, i as u32, &payload);
            let frame = read_frame(&mut bytes.as_slice()).unwrap();
            assert_eq!((frame.kind, frame.seq), (kind, i as u32));
            assert_eq!(frame.payload, payload);
        }
    }

    #[cfg(not(feature = "seeded-bugs"))]
    #[test]
    fn consecutive_frames_parse_in_order() {
        let mut bytes = wire(FrameKind::Hello, 0, b"tenant=a");
        bytes.extend(wire(FrameKind::Job, 1, b"fig1"));
        let mut cursor = bytes.as_slice();
        let first = read_frame(&mut cursor).unwrap();
        let second = read_frame(&mut cursor).unwrap();
        assert_eq!(first.kind, FrameKind::Hello);
        assert_eq!(second.kind, FrameKind::Job);
        assert_eq!(second.payload, b"fig1");
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameReadError::Closed)
        ));
    }

    #[test]
    fn hostile_lengths_are_rejected_without_allocating() {
        for hostile in [u64::MAX, 1 << 32, MAX_FRAME_LEN + 1] {
            let mut header = [0u8; FRAME_HEADER_LEN];
            header[0] = FrameKind::Hello as u8;
            header[5..13].copy_from_slice(&hostile.to_le_bytes());
            match read_frame(&mut header.as_slice()) {
                Err(FrameReadError::TooLarge(len)) => assert_eq!(len, hostile),
                other => panic!("hostile length {hostile} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_kind_fails_closed() {
        for byte in [0x00u8, 0x07, 0x42, 0x80, 0x87, 0xff] {
            let mut header = [0u8; FRAME_HEADER_LEN];
            header[0] = byte;
            match read_frame(&mut header.as_slice()) {
                Err(FrameReadError::BadKind(b)) => assert_eq!(b, byte),
                other => panic!("kind byte {byte:#04x} accepted: {other:?}"),
            }
        }
    }

    #[cfg(not(feature = "seeded-bugs"))]
    #[test]
    fn every_strict_prefix_fails_cleanly() {
        let bytes = wire(FrameKind::Trace, 9, &vec![0xabu8; 300]);
        for cut in 0..bytes.len() {
            match read_frame(&mut &bytes[..cut]) {
                Err(FrameReadError::Closed) => assert_eq!(cut, 0),
                Err(FrameReadError::Io(err)) => {
                    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}")
                }
                other => panic!("prefix of {cut} bytes parsed: {other:?}"),
            }
        }
        assert!(read_frame(&mut bytes.as_slice()).is_ok());
    }

    #[test]
    fn oversized_writes_are_refused() {
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let err = write_frame(std::io::sink(), FrameKind::Trace, 0, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(write_frame(std::io::sink(), FrameKind::Trace, 0, &payload[..1]).is_ok());
    }

    #[test]
    fn error_frames_carry_typed_codes() {
        let mut bytes = Vec::new();
        write_error(&mut bytes, 3, ErrorCode::OverBudget, "tenant ci exhausted").unwrap();
        let frame = read_frame(&mut bytes.as_slice()).unwrap();
        #[cfg(not(feature = "seeded-bugs"))]
        {
            let (code, msg) = frame.as_error().expect("error payload");
            assert_eq!(code, ErrorCode::OverBudget);
            assert_eq!(msg, "tenant ci exhausted");
        }
        assert_eq!(frame.kind, FrameKind::Error);
    }

    #[test]
    fn kv_payloads_parse() {
        let kv = parse_kv(b"tenant=ci\ninput=test\nseed=7\nsmoke=1\nnoise\n");
        assert_eq!(kv_get(&kv, "tenant"), Some("ci"));
        assert_eq!(kv_get(&kv, "seed"), Some("7"));
        assert_eq!(kv_get(&kv, "missing"), None);
    }

    #[test]
    fn codes_round_trip() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::TooLarge,
            ErrorCode::Busy,
            ErrorCode::OverBudget,
            ErrorCode::Timeout,
            ErrorCode::UnknownJob,
            ErrorCode::Draining,
            ErrorCode::BadTrace,
            ErrorCode::BadState,
        ] {
            assert_eq!(ErrorCode::from_byte(code as u8), Some(code));
            assert!(!code.label().is_empty());
        }
        assert_eq!(ErrorCode::from_byte(0), None);
        assert_eq!(ErrorCode::from_byte(200), None);
    }
}
