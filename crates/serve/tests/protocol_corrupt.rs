//! Protocol torture tier: hostile, corrupt and truncated frames.
//!
//! Every test drives a real loopback daemon with raw socket bytes and
//! asserts the connection fails *closed*: a typed [`FrameKind::Error`]
//! frame (or a clean close for an EOF between frames), then EOF —
//! never a hang, never a crash, and never an allocation sized by an
//! untrusted length (the hostile-length test sends only a 13-byte
//! header, so the rejection can only come from the declared length).

use fvl_bench::remote::{RemoteClient, RemoteError, SessionSpec, MAX_SIM_CACHE_BYTES};
use fvl_mem::frame::{self, ErrorCode, FrameKind, FrameReadError, MAX_FRAME_LEN};
use fvl_serve::{Daemon, DaemonHandle, ServeConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

fn daemon() -> DaemonHandle {
    Daemon::builder("127.0.0.1:0")
        .config(ServeConfig {
            read_timeout: Duration::from_millis(500),
            drain_grace: Duration::from_secs(2),
            ..ServeConfig::default()
        })
        .log(Box::new(std::io::sink()))
        .spawn()
        .expect("daemon starts")
}

fn connect(handle: &DaemonHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    stream
}

/// A raw frame header: kind byte, little-endian seq, declared length.
fn raw_header(kind: u8, seq: u32, declared: u64) -> Vec<u8> {
    let mut header = vec![kind];
    header.extend_from_slice(&seq.to_le_bytes());
    header.extend_from_slice(&declared.to_le_bytes());
    header
}

/// Reads the daemon's one response off a failing connection: the typed
/// error code, or `None` when the daemon closed without a frame.
fn read_error(stream: &mut TcpStream) -> Option<ErrorCode> {
    match frame::read_frame(&mut *stream) {
        Ok(f) => {
            assert_eq!(f.kind, FrameKind::Error, "non-error response {:?}", f.kind);
            let (code, _) = f.as_error().expect("typed error payload");
            Some(code)
        }
        Err(FrameReadError::Closed) => None,
        Err(e) => panic!("unreadable response: {e}"),
    }
}

/// Asserts the daemon closed the connection: reads drain to EOF.
fn assert_closed(stream: &mut TcpStream) {
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) => panic!("expected EOF, got {e}"),
        }
    }
}

/// Truncating a valid hello at *every* strict prefix must produce a
/// clean close (cut before any byte) or a typed BAD_FRAME error (cut
/// anywhere inside the frame), never a hang or a protocol desync.
#[test]
fn truncated_frames_fail_closed_at_every_strict_prefix() {
    let handle = daemon();
    let mut wire = Vec::new();
    frame::write_frame(
        &mut wire,
        FrameKind::Hello,
        0,
        &SessionSpec::smoke("corrupt").to_payload(),
    )
    .expect("in-memory write");
    for cut in 0..wire.len() {
        let mut stream = connect(&handle);
        stream.write_all(&wire[..cut]).expect("send prefix");
        stream.shutdown(Shutdown::Write).expect("half-close");
        match read_error(&mut stream) {
            None => assert_eq!(cut, 0, "prefix {cut}: closed without an error frame"),
            Some(code) => {
                assert_ne!(cut, 0, "empty prefix answered with a frame");
                assert_eq!(code, ErrorCode::BadFrame, "prefix {cut}");
            }
        }
        assert_closed(&mut stream);
    }
    handle.shutdown();
}

/// Hostile declared lengths — `u64::MAX`, `2^32`, one past the frame
/// ceiling — are refused from the 13 header bytes alone: no payload is
/// ever sent, so the daemon must reject before sizing any buffer.
#[test]
fn hostile_lengths_are_rejected_before_sizing_any_buffer() {
    let handle = daemon();
    for declared in [u64::MAX, 1u64 << 32, MAX_FRAME_LEN + 1] {
        let mut stream = connect(&handle);
        stream
            .write_all(&raw_header(FrameKind::Hello as u8, 0, declared))
            .expect("send header");
        let code = read_error(&mut stream).expect("typed error frame");
        assert_eq!(code, ErrorCode::TooLarge, "declared {declared}");
        assert_closed(&mut stream);
    }
    handle.shutdown();
}

/// Unknown frame-kind bytes are a typed BAD_FRAME, read no payload,
/// and close the connection.
#[test]
fn garbage_frame_kinds_are_rejected() {
    let handle = daemon();
    for kind in [0x00u8, 0x07, 0x42, 0x80, 0xff] {
        let mut stream = connect(&handle);
        stream
            .write_all(&raw_header(kind, 0, 0))
            .expect("send header");
        let code = read_error(&mut stream).expect("typed error frame");
        assert_eq!(code, ErrorCode::BadFrame, "kind {kind:#04x}");
        assert_closed(&mut stream);
    }
    handle.shutdown();
}

/// A client that opens with anything but a hello is refused with
/// BAD_STATE before any session state exists.
#[test]
fn job_before_hello_is_bad_state() {
    let handle = daemon();
    let mut stream = connect(&handle);
    frame::write_frame(&mut stream, FrameKind::Job, 0, b"fig1").expect("send job");
    let code = read_error(&mut stream).expect("typed error frame");
    assert_eq!(code, ErrorCode::BadState);
    assert_closed(&mut stream);
    handle.shutdown();
}

/// Server-originated frame kinds arriving *from* a client are a
/// BAD_STATE violation even on an established session.
#[test]
fn server_originated_kinds_from_client_are_bad_state() {
    let handle = daemon();
    let mut stream = connect(&handle);
    frame::write_frame(
        &mut stream,
        FrameKind::Hello,
        0,
        &SessionSpec::smoke("corrupt").to_payload(),
    )
    .expect("send hello");
    let welcome = frame::read_frame(&mut stream).expect("welcome");
    assert_eq!(welcome.kind, FrameKind::Welcome);
    frame::write_frame(&mut stream, FrameKind::Welcome, 1, b"").expect("send bogus");
    let code = read_error(&mut stream).expect("typed error frame");
    assert_eq!(code, ErrorCode::BadState);
    assert_closed(&mut stream);
    handle.shutdown();
}

/// A hello whose `input` knob names no input size is a BAD_FRAME, not
/// a silently defaulted session.
#[test]
fn unknown_input_size_is_a_bad_frame() {
    let handle = daemon();
    let mut stream = connect(&handle);
    frame::write_frame(
        &mut stream,
        FrameKind::Hello,
        0,
        b"tenant=corrupt\ninput=bogus\n",
    )
    .expect("send hello");
    let code = read_error(&mut stream).expect("typed error frame");
    assert_eq!(code, ErrorCode::BadFrame);
    assert_closed(&mut stream);
    handle.shutdown();
}

/// An unknown job name is a *recoverable* typed refusal: the session
/// answers UNKNOWN_JOB and keeps serving, so the same connection can
/// still run a real job and part with a clean bye.
#[test]
fn unknown_job_is_refused_but_the_session_survives() {
    let handle = daemon();
    let mut stream = connect(&handle);
    frame::write_frame(
        &mut stream,
        FrameKind::Hello,
        0,
        &SessionSpec::smoke("corrupt").to_payload(),
    )
    .expect("send hello");
    assert_eq!(
        frame::read_frame(&mut stream).expect("welcome").kind,
        FrameKind::Welcome
    );
    frame::write_frame(&mut stream, FrameKind::Job, 1, b"no-such-experiment").expect("send job");
    let refusal = frame::read_frame(&mut stream).expect("refusal");
    let (code, _) = refusal.as_error().expect("typed error payload");
    assert_eq!(code, ErrorCode::UnknownJob);
    frame::write_frame(&mut stream, FrameKind::Bye, 2, b"").expect("send bye");
    assert_closed(&mut stream);
    handle.shutdown();
}

/// An idle connection is answered with a typed TIMEOUT error frame and
/// closed once the daemon's read timeout elapses — it is not held open
/// indefinitely.
#[test]
fn idle_connections_get_a_timeout_error_frame() {
    let handle = daemon();
    let mut stream = connect(&handle);
    let code = read_error(&mut stream).expect("typed error frame");
    assert_eq!(code, ErrorCode::Timeout);
    assert_closed(&mut stream);
    handle.shutdown();
}

/// A peer that declares a length, sends part of the payload and
/// disconnects mid-frame must not take the daemon with it: the very
/// next connection handshakes normally.
#[test]
fn mid_frame_disconnect_leaves_the_daemon_serving() {
    let handle = daemon();
    {
        let mut stream = connect(&handle);
        stream
            .write_all(&raw_header(FrameKind::Hello as u8, 0, 1000))
            .expect("send header");
        stream.write_all(&[0u8; 10]).expect("send partial payload");
        stream.shutdown(Shutdown::Both).expect("disconnect");
    }
    let client = RemoteClient::connect(
        handle.local_addr(),
        &SessionSpec::smoke("corrupt"),
        Duration::from_secs(10),
    )
    .expect("daemon still serving after the mid-frame disconnect");
    client.bye().expect("clean close");
    handle.shutdown();
}

/// A cache configuration the daemon must not build is a typed
/// BAD_FRAME refusal, answered before any allocation: one larger than
/// `MAX_SIM_CACHE_BYTES` (2^28 four-byte lines, several GiB of line
/// storage), and two whose line count overflows a `u32` (2^38 sets;
/// 2^32 lines of 2^30 ways). The session keeps serving, and so does
/// the daemon.
#[test]
fn oversized_cache_configs_are_refused_before_allocating() {
    let handle = daemon();
    let mut upload = Vec::new();
    fvl_bench::corpus::synth_trace(1000, 7)
        .write_v22_to(&mut upload)
        .expect("in-memory write");
    let session = || {
        let mut client = RemoteClient::connect(
            handle.local_addr(),
            &SessionSpec::smoke("corrupt"),
            Duration::from_secs(10),
        )
        .expect("session opens");
        assert_eq!(client.upload_trace(&upload).expect("upload"), 1000);
        client
    };
    let valid = "size=1024\nline=16\nassoc=1\n";
    let mut client = session();
    for config in [
        format!("size={}\nline=4\n", 64 * MAX_SIM_CACHE_BYTES),
        "size=1099511627776\nline=4\nassoc=1\n".to_string(),
        "size=17179869184\nline=4\nassoc=1073741824\n".to_string(),
    ] {
        match client.simulate(&config) {
            Err(RemoteError::Rejected(code, msg)) => {
                assert_eq!(code, ErrorCode::BadFrame, "{config:?}");
                assert!(msg.contains("bad geometry"), "{config:?}: {msg}");
            }
            other => panic!("{config:?}: expected a typed refusal, got {other:?}"),
        }
    }
    let same_session = client.simulate(valid).expect("session still serves");
    client.bye().expect("clean close");
    let mut next = session();
    assert_eq!(
        next.simulate(valid).expect("daemon still serves"),
        same_session
    );
    next.bye().expect("clean close");
    handle.shutdown();
}

/// Builds the hand-made files the one-format rule refuses, beside the
/// clean v2.2 trace they are variants of: the retired `FVLTRC1`
/// (per-event records), `FVLTRC2` (raw columns) and `FVLTRC21`
/// (LEB128 address columns) layouts, a v2.2 file with trailing bytes,
/// and a v2.2 file whose chunk index aliases one chunk's payload for
/// another's.
fn refused_trace_files() -> (Vec<u8>, Vec<(&'static str, Vec<u8>)>) {
    // Four loads at two accesses per chunk: both chunks hold two
    // one-byte address tokens, so their inline headers are identical
    // and an aliased index entry passes the inline cross-check.
    let trace = fvl_mem::PackedTrace::from_trace(&fvl_mem::Trace::from_events(
        [0x10, 0x14, 0x40, 0x44]
            .into_iter()
            .map(|addr| fvl_mem::TraceEvent::Access(fvl_mem::Access::load(addr, 0)))
            .collect(),
    ));
    let mut v22 = Vec::new();
    trace.write_v22_with(&mut v22, 2).expect("in-memory write");

    let mut v1 = b"FVLTRC1\n".to_vec();
    v1.extend_from_slice(&1u64.to_le_bytes()); // one event
    v1.push(0); // a load
    v1.extend_from_slice(&0x10u32.to_le_bytes());
    v1.extend_from_slice(&0u32.to_le_bytes());

    let mut v2 = b"FVLTRC2\n".to_vec();
    v2.extend_from_slice(&1u64.to_le_bytes()); // one access
    v2.extend_from_slice(&0u64.to_le_bytes()); // no region events
    v2.extend_from_slice(&0x10u32.to_le_bytes()); // address column
    v2.extend_from_slice(&0u32.to_le_bytes()); // value column

    // The v2.1 header: its magic and a zero reserved word where v2.2
    // keeps its codec id.
    let mut v21 = v22.clone();
    v21[..8].copy_from_slice(b"FVLTRC21");
    v21[36..40].copy_from_slice(&0u32.to_le_bytes());

    let mut trailing = v22.clone();
    trailing.extend_from_slice(b"TRAILING");

    // The index's second entry (16 bytes before the trailing index
    // offset) points at chunk 0's payload, right after the 40-byte
    // header.
    let mut aliased = v22.clone();
    let at = aliased.len() - 8 - 16;
    aliased[at..at + 8].copy_from_slice(&40u64.to_le_bytes());

    let refused = vec![
        ("FVLTRC1", v1),
        ("FVLTRC2", v2),
        ("FVLTRC21", v21),
        ("v2.2 with trailing bytes", trailing),
        ("v2.2 with an aliased chunk index", aliased),
    ];
    (v22, refused)
}

/// The retired trace formats (`FVLTRC1`, `FVLTRC2`, `FVLTRC21`) are
/// unknown formats now, and a v2.2 file is accepted only in exactly the
/// layout the writer produces: trailing bytes or an aliased chunk index
/// are refused too. Each file fails with `InvalidData` in the reader
/// and in `parse_trace_bytes` (the local `corpus sim` path), and an
/// upload of it is refused with a typed BAD_TRACE error, after which
/// the same session still accepts and simulates a clean v2.2 trace.
#[test]
fn fvltrc21_files_are_rejected_everywhere() {
    let (v22, refused) = refused_trace_files();
    let config = "size=1024\nline=16\nassoc=1\n";
    let clean = fvl_bench::remote::parse_trace_bytes(&v22).expect("clean v2.2 parses");
    let want = frame::parse_kv(
        fvl_bench::remote::simulate_packed(&clean, config)
            .expect("valid config")
            .as_bytes(),
    );

    let handle = daemon();
    let mut client = RemoteClient::connect(
        handle.local_addr(),
        &SessionSpec::smoke("formats"),
        Duration::from_secs(10),
    )
    .expect("session opens");
    for (what, bytes) in refused {
        let err = fvl_mem::MappedTrace::from_bytes(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        let err = fvl_bench::remote::parse_trace_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        match client.upload_trace(&bytes) {
            Err(RemoteError::Rejected(code, msg)) => {
                assert_eq!(code, ErrorCode::BadTrace, "{what}: {msg}");
            }
            other => panic!("{what}: expected a BAD_TRACE refusal, got {other:?}"),
        }
        assert_eq!(client.upload_trace(&v22).expect("v2.2 upload"), 4, "{what}");
        assert_eq!(client.simulate(config).expect("sim"), want, "{what}");
    }
    client.bye().expect("clean close");
    handle.shutdown();
}
