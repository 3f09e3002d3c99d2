//! Per-connection session state machine.
//!
//! ```text
//!             hello ok                    bye / EOF / error
//!  Connected ─────────▶ Established ────────────────────────▶ Closed
//!      │                    │  ▲
//!      │ busy/over-budget/  │  │ job / trace / sim / metrics
//!      │ draining/bad frame ▼  │ (each answered in full before
//!      └──────▶ Closed      loop  the next request is read)
//! ```
//!
//! The protocol is strictly request/response: the client sends one
//! frame, the session answers with one or more frames (a job streams
//! `Stdout`* `Metrics` `Done`), and only then is the next request
//! read. Every refusal is an explicit typed [`FrameKind::Error`]
//! frame; the connection fails *closed* — after a grammar violation
//! (bad kind byte, hostile length, truncated frame) nothing more is
//! read from the peer.
//!
//! Determinism: each session runs its jobs on its own serial
//! [`Engine`], so the session's cell-record log — and therefore its
//! stdout bytes and its schema-v1 metrics export — depends only on the
//! (input, seed, smoke) knobs and the job order the client sent, never
//! on what other sessions are doing. Sharing happens one layer down,
//! in the capture-once [`TraceStore`].
//!
//! [`Engine`]: fvl_bench::Engine
//! [`TraceStore`]: fvl_bench::TraceStore

use crate::admission::Refusal;
use crate::daemon::Shared;
use crate::fault::FaultKind;
use fvl_bench::data::SMOKE_REFS;
use fvl_bench::metrics::{self, RunInfo};
use fvl_bench::{experiments, remote, EngineCore, ExperimentContext};
use fvl_mem::frame::{
    kv_get, parse_kv, read_frame, write_frame, ErrorCode, Frame, FrameKind, FrameReadError,
    PAYLOAD_READ_STEP,
};
use fvl_mem::PackedTrace;
use fvl_workloads::InputSize;
use std::io::{self, Read, Write};

/// The response side of one connection: the per-direction sequence
/// counter (which must span the whole connection) and the one-slot
/// holdback a `delay:N` fault uses. The stream itself is borrowed per
/// send, because requests are read from the same object.
struct RespState<'a> {
    seq: u32,
    shared: &'a Shared,
    held: Option<(FrameKind, u32, Vec<u8>)>,
}

impl<'a> RespState<'a> {
    fn new(shared: &'a Shared) -> Self {
        RespState {
            seq: 0,
            shared,
            held: None,
        }
    }

    /// Sends one response frame, applying the daemon's fault plan.
    fn send<W: Write>(&mut self, mut writer: W, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
        let seq = self.seq;
        self.seq += 1;
        match self.shared.fault.next_action() {
            Some(FaultKind::Drop) => self.flush_held(writer), // seq consumed, frame never sent
            Some(FaultKind::Dup) => {
                self.flush_held(&mut writer)?;
                write_frame(&mut writer, kind, seq, payload)?;
                write_frame(&mut writer, kind, seq, payload)
            }
            Some(FaultKind::Delay) => {
                self.held = Some((kind, seq, payload.to_vec()));
                Ok(())
            }
            None => {
                write_frame(&mut writer, kind, seq, payload)?;
                self.flush_held(writer)
            }
        }
    }

    /// Emits a held (delayed) frame *after* the frame that followed it.
    fn flush_held<W: Write>(&mut self, mut writer: W) -> io::Result<()> {
        if let Some((kind, seq, payload)) = self.held.take() {
            write_frame(&mut writer, kind, seq, payload.as_slice())?;
        }
        Ok(())
    }

    fn send_error<W: Write>(&mut self, writer: W, code: ErrorCode, msg: &str) -> io::Result<()> {
        let mut payload = Vec::with_capacity(1 + msg.len());
        payload.push(code as u8);
        payload.extend_from_slice(msg.as_bytes());
        self.send(writer, FrameKind::Error, &payload)
    }
}

/// Everything a welcomed session knows.
struct Session {
    id: u64,
    tenant: String,
    ctx: ExperimentContext,
    run: RunInfo,
    uploaded: Option<PackedTrace>,
}

/// Runs one connection to completion. `stream` must already carry the
/// daemon's read timeout. Errors resolve to a typed error frame (best
/// effort) and connection teardown; the daemon itself never dies with
/// a session.
pub(crate) fn run_session<S: Read + Write>(mut stream: S, shared: &Shared) {
    let id = shared.next_session_id();
    if let Err(err) = drive(&mut stream, shared, id) {
        shared.log(&format!("session {id}: closed on error: {err}"));
    }
}

fn drive<S: Read + Write>(stream: &mut S, shared: &Shared, id: u64) -> io::Result<()> {
    let mut resp = RespState::new(shared);

    // ---- Connected: the first frame must be a hello. ----
    let hello = match read_request(stream, shared, id) {
        Ok(frame) => frame,
        Err(ReadOutcome::Closed) => return Ok(()),
        Err(ReadOutcome::Fatal(code, msg)) => {
            let _ = resp.send_error(&mut *stream, code, &msg);
            return Ok(());
        }
    };
    if hello.kind != FrameKind::Hello {
        let _ = resp.send_error(&mut *stream, ErrorCode::BadState, "expected hello");
        return Ok(());
    }
    if shared.is_draining() {
        let _ = resp.send_error(&mut *stream, ErrorCode::Draining, "daemon is draining");
        return Ok(());
    }
    let kv = parse_kv(&hello.payload);
    let tenant = kv_get(&kv, "tenant").unwrap_or("anon").to_string();
    let _permit = match shared.admission.admit(&tenant) {
        Ok(permit) => permit,
        Err(refusal) => {
            let (code, msg) = refusal_frame(refusal, &tenant);
            shared.log(&format!(
                "session {id}: reject {} tenant={tenant}",
                code.label()
            ));
            let _ = resp.send_error(&mut *stream, code, &msg);
            return Ok(());
        }
    };
    let input = match kv_get(&kv, "input").unwrap_or("test") {
        "test" => InputSize::Test,
        "train" => InputSize::Train,
        "reference" => InputSize::Ref,
        other => {
            let msg = format!("unknown input size {other}");
            let _ = resp.send_error(&mut *stream, ErrorCode::BadFrame, &msg);
            return Ok(());
        }
    };
    let seed: u64 = kv_get(&kv, "seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let smoke = kv_get(&kv, "smoke")
        .map(|v| v == "1" || v == "true")
        .unwrap_or(false);
    let max_refs = if smoke {
        Some(SMOKE_REFS)
    } else {
        shared.config.force_max_refs
    };
    let ctx = ExperimentContext::session(EngineCore::session_on(shared.store()))
        .with_input(input)
        .with_seed(seed)
        .with_max_refs(max_refs);
    let run = RunInfo::new(
        match input {
            InputSize::Test => "test",
            InputSize::Train => "train",
            InputSize::Ref => "reference",
        },
        seed,
        smoke,
    );
    let mut session = Session {
        id,
        tenant,
        ctx,
        run,
        uploaded: None,
    };
    shared.log(&format!(
        "session {id}: hello tenant={} input={} seed={seed} smoke={smoke}",
        session.tenant, session.run.input,
    ));
    let budget = shared.admission.remaining_budget(&session.tenant);
    resp.send(
        &mut *stream,
        FrameKind::Welcome,
        format!("session={id}\nbudget={budget}\n").as_bytes(),
    )?;

    // ---- Established: request/response until bye or error. ----
    loop {
        let request = match read_request(stream, shared, id) {
            Ok(frame) => frame,
            Err(ReadOutcome::Closed) => break,
            Err(ReadOutcome::Fatal(code, msg)) => {
                let _ = resp.send_error(&mut *stream, code, &msg);
                break;
            }
        };
        match request.kind {
            FrameKind::Job => {
                let name = String::from_utf8_lossy(&request.payload).into_owned();
                handle_job(stream, &mut resp, shared, &mut session, &name)?;
            }
            FrameKind::Trace => {
                handle_trace(stream, &mut resp, shared, &mut session, &request.payload)?;
            }
            FrameKind::Sim => handle_sim(stream, &mut resp, &mut session, &request.payload)?,
            FrameKind::MetricsReq => {
                let format = String::from_utf8_lossy(&request.payload).into_owned();
                handle_metrics(stream, &mut resp, &session, format.trim())?;
            }
            FrameKind::Bye => {
                shared.log(&format!("session {id}: bye"));
                break;
            }
            FrameKind::Hello => {
                resp.send_error(
                    &mut *stream,
                    ErrorCode::BadState,
                    "session already established",
                )?;
            }
            _ => {
                resp.send_error(
                    &mut *stream,
                    ErrorCode::BadState,
                    "server-originated frame kind from client",
                )?;
                break;
            }
        }
    }
    // A trailing delayed frame still gets delivered before close.
    resp.flush_held(&mut *stream)
}

/// Why reading a request stopped.
enum ReadOutcome {
    /// Clean close (EOF between frames).
    Closed,
    /// Grammar/transport violation: answer with this error, then close.
    Fatal(ErrorCode, String),
}

fn read_request<R: Read>(reader: &mut R, shared: &Shared, id: u64) -> Result<Frame, ReadOutcome> {
    match read_frame(reader) {
        Ok(frame) => Ok(frame),
        Err(FrameReadError::Closed) => Err(ReadOutcome::Closed),
        Err(FrameReadError::TooLarge(len)) => {
            shared.log(&format!(
                "session {id}: hostile length {len} rejected before allocation"
            ));
            Err(ReadOutcome::Fatal(
                ErrorCode::TooLarge,
                format!("declared {len} bytes exceeds the frame ceiling"),
            ))
        }
        Err(FrameReadError::BadKind(byte)) => Err(ReadOutcome::Fatal(
            ErrorCode::BadFrame,
            format!("unknown frame kind byte {byte:#04x}"),
        )),
        Err(FrameReadError::Io(err))
            if matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Err(ReadOutcome::Fatal(
                ErrorCode::Timeout,
                "read/idle timeout".to_string(),
            ))
        }
        Err(FrameReadError::Io(err)) => Err(ReadOutcome::Fatal(
            ErrorCode::BadFrame,
            format!("truncated frame: {err}"),
        )),
    }
}

fn refusal_frame(refusal: Refusal, tenant: &str) -> (ErrorCode, String) {
    match refusal {
        Refusal::Busy => (
            ErrorCode::Busy,
            format!("tenant {tenant}: session caps reached, retry later"),
        ),
        Refusal::OverBudget => (
            ErrorCode::OverBudget,
            format!("tenant {tenant}: reference budget exhausted"),
        ),
    }
}

fn handle_job<S: Read + Write>(
    stream: &mut S,
    resp: &mut RespState<'_>,
    shared: &Shared,
    session: &mut Session,
    name: &str,
) -> io::Result<()> {
    if shared.is_draining() {
        return resp.send_error(
            &mut *stream,
            ErrorCode::Draining,
            "daemon is draining, no new jobs",
        );
    }
    if let Err(refusal) = shared.admission.may_run(&session.tenant) {
        let (code, msg) = refusal_frame(refusal, &session.tenant);
        return resp.send_error(&mut *stream, code, &msg);
    }
    let Some(&(_, runner)) = experiments::all().iter().find(|(n, _)| *n == name) else {
        let msg = format!("unknown experiment {name}");
        return resp.send_error(&mut *stream, ErrorCode::UnknownJob, &msg);
    };
    let refs_before = session.ctx.engine().throughput().references;
    let report = runner(&session.ctx);
    // Byte-for-byte what the local CLI's `println!("{report}")` emits.
    let mut text = report.to_string();
    text.push('\n');
    for chunk in text.as_bytes().chunks(PAYLOAD_READ_STEP) {
        resp.send(&mut *stream, FrameKind::Stdout, chunk)?;
    }
    let doc = metrics::json_report_full(
        session.ctx.engine(),
        &session.run,
        Some(session.ctx.store()),
        false,
    );
    let mut body = doc.render_pretty();
    body.push('\n');
    resp.send(&mut *stream, FrameKind::Metrics, body.as_bytes())?;
    let refs = session
        .ctx
        .engine()
        .throughput()
        .references
        .saturating_sub(refs_before);
    let over = shared.admission.charge(&session.tenant, refs).is_err();
    shared.log(&format!(
        "session {}: job {name} refs={refs}{}",
        session.id,
        if over { " (budget exhausted)" } else { "" },
    ));
    resp.send(
        &mut *stream,
        FrameKind::Done,
        format!("refs={refs}\n").as_bytes(),
    )
}

fn handle_trace<S: Read + Write>(
    stream: &mut S,
    resp: &mut RespState<'_>,
    shared: &Shared,
    session: &mut Session,
    bytes: &[u8],
) -> io::Result<()> {
    // The codec only bounded the length; the *content* is revalidated
    // by the same sniffing reader the CLI uses (PackedTrace::read_from,
    // which accepts v1, v2 and v2.2).
    match remote::parse_trace_bytes(bytes) {
        Ok(trace) => {
            let accesses = trace.accesses();
            session.uploaded = Some(trace);
            shared.log(&format!(
                "session {}: trace upload accesses={accesses}",
                session.id
            ));
            resp.send(
                &mut *stream,
                FrameKind::Done,
                format!("accesses={accesses}\n").as_bytes(),
            )
        }
        Err(err) => {
            let msg = format!("trace rejected: {err}");
            resp.send_error(&mut *stream, ErrorCode::BadTrace, &msg)
        }
    }
}

fn handle_sim<S: Read + Write>(
    stream: &mut S,
    resp: &mut RespState<'_>,
    session: &mut Session,
    payload: &[u8],
) -> io::Result<()> {
    let Some(trace) = session.uploaded.as_ref() else {
        return resp.send_error(&mut *stream, ErrorCode::BadState, "no trace uploaded");
    };
    let config = String::from_utf8_lossy(payload).into_owned();
    // Same parsing + simulation code the `corpus sim` local mode runs,
    // so remote and local counter lines agree by construction.
    match remote::simulate_packed(trace, &config) {
        Ok(body) => resp.send(&mut *stream, FrameKind::SimResult, body.as_bytes()),
        Err(msg) => resp.send_error(&mut *stream, ErrorCode::BadFrame, &msg),
    }
}

fn handle_metrics<S: Read + Write>(
    stream: &mut S,
    resp: &mut RespState<'_>,
    session: &Session,
    format: &str,
) -> io::Result<()> {
    match format {
        "json" | "" => {
            let doc = metrics::json_report_full(
                session.ctx.engine(),
                &session.run,
                Some(session.ctx.store()),
                false,
            );
            let mut body = doc.render_pretty();
            body.push('\n');
            resp.send(&mut *stream, FrameKind::Metrics, body.as_bytes())
        }
        "csv" => {
            let body = metrics::csv_report(session.ctx.engine());
            resp.send(&mut *stream, FrameKind::Metrics, body.as_bytes())
        }
        other => {
            let msg = format!("unknown metrics format {other}");
            resp.send_error(&mut *stream, ErrorCode::BadFrame, &msg)
        }
    }
}
