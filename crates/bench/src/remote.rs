//! Client side of the `fvl-serve` protocol.
//!
//! The daemon lives in `crates/serve`; this module is everything a
//! *client* needs: address parsing (`unix:PATH` or TCP `host:port`),
//! the hello/welcome handshake, sequenced request/response exchanges
//! with duplicate suppression and gap detection, and a retry wrapper
//! ([`RemoteRunner`]) that re-runs a job on a fresh connection when
//! the response stream times out or desynchronizes (the fault-injection
//! tests drive exactly those paths).
//!
//! The client's stdout contract: for a given job, the concatenated
//! [`FrameKind::Stdout`] payloads are byte-identical to what the local
//! `experiments` CLI would have printed for the same experiment under
//! the same (input, seed, smoke) knobs — the daemon runs the very same
//! registry runner on the very same engine code.

use fvl_cache::{CacheGeometry, CacheSim, ReplacementKind, WritePolicy};
use fvl_mem::frame::{
    kv_get, parse_kv, read_frame, write_frame, ErrorCode, Frame, FrameKind, FrameReadError,
};
use fvl_mem::PackedTrace;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Default per-read timeout for client connections.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Default number of *extra* attempts a [`RemoteRunner`] makes after a
/// timeout or a desynchronized response stream.
pub const DEFAULT_RETRIES: u32 = 2;

/// One client connection: a Unix or TCP stream.
#[derive(Debug)]
pub enum Conn {
    /// TCP (`host:port`).
    Tcp(TcpStream),
    /// Unix domain socket (`unix:/path`).
    Unix(UnixStream),
}

impl Conn {
    /// Connects to `addr`: `unix:PATH` selects a Unix socket, anything
    /// else is a TCP `host:port`.
    ///
    /// # Errors
    ///
    /// Propagates connect and socket-option errors.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Conn> {
        let conn = match addr.strip_prefix("unix:") {
            Some(path) => Conn::Unix(UnixStream::connect(path)?),
            None => Conn::Tcp(TcpStream::connect(addr)?),
        };
        conn.set_read_timeout(timeout)?;
        Ok(conn)
    }

    fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(timeout)),
            Conn::Unix(s) => s.set_read_timeout(Some(timeout)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// What a session asks the daemon to be: the knobs that must match the
/// local CLI for stdout to be byte-identical.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Tenant identity for admission control.
    pub tenant: String,
    /// Input-size label: `test`, `train` or `reference`.
    pub input: String,
    /// Base deterministic seed.
    pub seed: u64,
    /// Smoke mode (truncate captures to the smoke reference budget).
    pub smoke: bool,
}

impl SessionSpec {
    /// A smoke-mode spec — what the CI serve job and the tests use.
    pub fn smoke(tenant: &str) -> Self {
        SessionSpec {
            tenant: tenant.to_string(),
            input: "test".to_string(),
            seed: 1,
            smoke: true,
        }
    }

    /// The hello payload (`key=value` lines).
    pub fn to_payload(&self) -> Vec<u8> {
        format!(
            "tenant={}\ninput={}\nseed={}\nsmoke={}\n",
            self.tenant,
            self.input,
            self.seed,
            if self.smoke { 1 } else { 0 }
        )
        .into_bytes()
    }
}

/// Why a remote exchange failed.
#[derive(Debug)]
pub enum RemoteError {
    /// Transport-level failure (connect, read, write).
    Io(io::Error),
    /// The read timed out waiting for the next response frame.
    Timeout,
    /// The daemon rejected the request with a typed error frame.
    Rejected(ErrorCode, String),
    /// The response stream skipped a sequence number — a frame was
    /// lost between daemon and client.
    SeqGap {
        /// The sequence number the client expected next.
        expected: u32,
        /// The sequence number that actually arrived.
        got: u32,
    },
    /// The response violated the protocol in some other way.
    Protocol(String),
}

impl RemoteError {
    /// Whether a fresh connection + replay of the request could
    /// plausibly succeed (transient stream faults), as opposed to a
    /// deterministic rejection (bad name, over budget, draining).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RemoteError::Timeout | RemoteError::SeqGap { .. } | RemoteError::Io(_)
        )
    }
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Io(err) => write!(f, "transport error: {err}"),
            RemoteError::Timeout => write!(f, "timed out waiting for a response frame"),
            RemoteError::Rejected(code, msg) => write!(f, "rejected ({code}): {msg}"),
            RemoteError::SeqGap { expected, got } => {
                write!(f, "response stream gap: expected seq {expected}, got {got}")
            }
            RemoteError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<io::Error> for RemoteError {
    fn from(err: io::Error) -> Self {
        if matches!(
            err.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            RemoteError::Timeout
        } else {
            RemoteError::Io(err)
        }
    }
}

impl From<FrameReadError> for RemoteError {
    fn from(err: FrameReadError) -> Self {
        match err {
            FrameReadError::Io(io) => RemoteError::from(io),
            other => RemoteError::Protocol(other.to_string()),
        }
    }
}

/// Result of one remote job.
#[derive(Clone, Debug, Default)]
pub struct JobSummary {
    /// References the daemon charged for this job.
    pub references: u64,
    /// Latest incremental schema-v1 metrics document pushed after the
    /// job (JSON bytes), if any.
    pub metrics: Option<Vec<u8>>,
}

/// An authenticated (welcomed) session with the daemon.
#[derive(Debug)]
pub struct RemoteClient {
    conn: Conn,
    tx_seq: u32,
    rx_seq: u32,
}

impl RemoteClient {
    /// Connects and performs the hello/welcome handshake.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`RemoteError::Rejected`] when admission
    /// control answers with `BUSY` / `OVER_BUDGET` / `DRAINING`.
    pub fn connect(
        addr: &str,
        spec: &SessionSpec,
        timeout: Duration,
    ) -> Result<RemoteClient, RemoteError> {
        let conn = Conn::connect(addr, timeout)?;
        let mut client = RemoteClient {
            conn,
            tx_seq: 0,
            rx_seq: 0,
        };
        client.send(FrameKind::Hello, &spec.to_payload())?;
        let frame = client.recv()?;
        match frame.kind {
            FrameKind::Welcome => Ok(client),
            _ => Err(reject_or_protocol(&frame, "welcome")),
        }
    }

    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), RemoteError> {
        write_frame(&mut self.conn, kind, self.tx_seq, payload)?;
        self.tx_seq += 1;
        Ok(())
    }

    /// Receives the next non-duplicate response frame, enforcing the
    /// sequence discipline: a repeated number is a duplicated frame and
    /// is skipped; a skipped number means a frame was dropped and the
    /// exchange is unrecoverable on this connection.
    fn recv(&mut self) -> Result<Frame, RemoteError> {
        loop {
            let frame = read_frame(&mut self.conn)?;
            if frame.seq < self.rx_seq {
                continue; // duplicate of an already-consumed frame
            }
            if frame.seq > self.rx_seq {
                return Err(RemoteError::SeqGap {
                    expected: self.rx_seq,
                    got: frame.seq,
                });
            }
            self.rx_seq += 1;
            return Ok(frame);
        }
    }

    /// Runs one named experiment, streaming its report bytes into
    /// `out` as they arrive.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures as [`RemoteError`]; a daemon-side
    /// rejection (unknown name, budget) as [`RemoteError::Rejected`].
    pub fn run_experiment<W: Write>(
        &mut self,
        name: &str,
        mut out: W,
    ) -> Result<JobSummary, RemoteError> {
        self.send(FrameKind::Job, name.as_bytes())?;
        let mut summary = JobSummary::default();
        loop {
            let frame = self.recv()?;
            match frame.kind {
                FrameKind::Stdout => out.write_all(&frame.payload).map_err(RemoteError::Io)?,
                FrameKind::Metrics => summary.metrics = Some(frame.payload),
                FrameKind::Done => {
                    let kv = parse_kv(&frame.payload);
                    summary.references = kv_get(&kv, "refs")
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0);
                    return Ok(summary);
                }
                _ => return Err(reject_or_protocol(&frame, "stdout/metrics/done")),
            }
        }
    }

    /// Uploads a complete trace file (any FVLTRC format) for later
    /// [`RemoteClient::simulate`] calls. Returns the daemon-reported
    /// access count.
    ///
    /// # Errors
    ///
    /// [`RemoteError::Rejected`] with [`ErrorCode::BadTrace`] when the
    /// daemon's readers refuse the bytes; transport errors otherwise.
    pub fn upload_trace(&mut self, bytes: &[u8]) -> Result<u64, RemoteError> {
        self.send(FrameKind::Trace, bytes)?;
        let frame = self.recv()?;
        match frame.kind {
            FrameKind::Done => {
                let kv = parse_kv(&frame.payload);
                Ok(kv_get(&kv, "accesses")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0))
            }
            _ => Err(reject_or_protocol(&frame, "done")),
        }
    }

    /// Simulates the uploaded trace against one cache configuration.
    /// `config` is `key=value` lines (`size`, `line`, `assoc`,
    /// `write`, `policy`); returns the daemon's counter lines.
    ///
    /// # Errors
    ///
    /// [`RemoteError::Rejected`] for bad configs or a missing upload.
    pub fn simulate(&mut self, config: &str) -> Result<Vec<(String, String)>, RemoteError> {
        self.send(FrameKind::Sim, config.as_bytes())?;
        let frame = self.recv()?;
        match frame.kind {
            FrameKind::SimResult => Ok(parse_kv(&frame.payload)),
            _ => Err(reject_or_protocol(&frame, "sim-result")),
        }
    }

    /// Fetches the session's full schema-v1 metrics document
    /// (`format` is `json` or `csv`).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures as [`RemoteError`].
    pub fn metrics(&mut self, format: &str) -> Result<Vec<u8>, RemoteError> {
        self.send(FrameKind::MetricsReq, format.as_bytes())?;
        let frame = self.recv()?;
        match frame.kind {
            FrameKind::Metrics => Ok(frame.payload),
            _ => Err(reject_or_protocol(&frame, "metrics")),
        }
    }

    /// Orderly goodbye; consumes the client.
    ///
    /// # Errors
    ///
    /// Propagates the write error if the goodbye cannot be sent.
    pub fn bye(mut self) -> Result<(), RemoteError> {
        self.send(FrameKind::Bye, b"")
    }
}

fn reject_or_protocol(frame: &Frame, wanted: &str) -> RemoteError {
    if let Some((code, msg)) = frame.as_error() {
        RemoteError::Rejected(code, msg)
    } else {
        RemoteError::Protocol(format!("expected {wanted}, got {:?}", frame.kind))
    }
}

/// Job-level retry wrapper: each attempt is a fresh connection +
/// handshake + job, so a desynchronized or timed-out response stream
/// never bleeds into the next attempt. Deterministic: attempts are
/// bounded, outcomes depend only on the daemon's (seeded) fault plan.
#[derive(Clone, Debug)]
pub struct RemoteRunner {
    /// Daemon address (`unix:PATH` or `host:port`).
    pub addr: String,
    /// Session spec sent on every attempt.
    pub spec: SessionSpec,
    /// Per-read timeout.
    pub timeout: Duration,
    /// Extra attempts after a retryable failure.
    pub retries: u32,
}

/// A completed [`RemoteRunner`] job with its attempt count.
#[derive(Clone, Debug)]
pub struct RetriedJob {
    /// The job's streamed stdout bytes (from the successful attempt).
    pub stdout: Vec<u8>,
    /// The job summary (from the successful attempt).
    pub summary: JobSummary,
    /// 1-based number of the attempt that succeeded.
    pub attempts: u32,
}

impl RemoteRunner {
    /// A runner with default timeout/retry knobs.
    pub fn new(addr: &str, spec: SessionSpec) -> Self {
        RemoteRunner {
            addr: addr.to_string(),
            spec,
            timeout: DEFAULT_TIMEOUT,
            retries: DEFAULT_RETRIES,
        }
    }

    /// Runs one experiment, retrying retryable failures on fresh
    /// connections. Stdout is buffered per attempt, so a failed
    /// attempt contributes no bytes.
    ///
    /// # Errors
    ///
    /// The last failure when every attempt fails, or immediately on a
    /// non-retryable rejection.
    pub fn run_experiment(&self, name: &str) -> Result<RetriedJob, RemoteError> {
        let mut last = None;
        for attempt in 1..=self.retries + 1 {
            match self.try_once(name) {
                Ok((stdout, summary)) => {
                    return Ok(RetriedJob {
                        stdout,
                        summary,
                        attempts: attempt,
                    })
                }
                Err(err) if err.is_retryable() && attempt <= self.retries => last = Some(err),
                Err(err) => return Err(err),
            }
        }
        Err(last.unwrap_or(RemoteError::Timeout))
    }

    fn try_once(&self, name: &str) -> Result<(Vec<u8>, JobSummary), RemoteError> {
        let mut client = RemoteClient::connect(&self.addr, &self.spec, self.timeout)?;
        let mut stdout = Vec::new();
        let summary = client.run_experiment(name, &mut stdout)?;
        let _ = client.bye();
        Ok((stdout, summary))
    }
}

/// Parses a complete trace file in any on-disk FVLTRC format (v1, v2
/// or v2.2) into a resident [`PackedTrace`] with the sniffing
/// [`PackedTrace::read_from`]. This is the one decoder both the
/// `corpus sim` local mode and the daemon's trace-upload handler use,
/// so a file means the same thing on both sides by construction.
///
/// # Errors
///
/// The reader's validation error when no format accepts the bytes.
pub fn parse_trace_bytes(bytes: &[u8]) -> io::Result<PackedTrace> {
    PackedTrace::read_from(bytes)
}

/// Largest cache, in bytes, [`simulate_packed`] builds: 256× the
/// largest cache any experiment simulates (64 KiB). The configuration
/// comes from a daemon client, and the cache's line storage is
/// allocated up front, so a larger request is refused before any
/// allocation rather than aborting the process on a failed one.
pub const MAX_SIM_CACHE_BYTES: u64 = 16 << 20;

/// Simulates `trace` against one cache configuration given as
/// `key=value` lines (`size`, `line`, `assoc`, `write`=`back`|
/// `through`, `policy`), returning the counter lines a
/// [`FrameKind::SimResult`] frame carries. Shared by the daemon's sim
/// handler and the `corpus sim` local mode — remote and local output
/// are the same bytes because they are the same function.
///
/// # Errors
///
/// A human-readable message for an invalid geometry or policy, or a
/// cache larger than [`MAX_SIM_CACHE_BYTES`].
pub fn simulate_packed(trace: &PackedTrace, config: &str) -> Result<String, String> {
    let kv = parse_kv(config.as_bytes());
    let size: u64 = kv_get(&kv, "size")
        .map(|v| v.parse().map_err(|_| format!("bad size {v}")))
        .transpose()?
        .unwrap_or(1024);
    let line: u32 = kv_get(&kv, "line")
        .map(|v| v.parse().map_err(|_| format!("bad line {v}")))
        .transpose()?
        .unwrap_or(16);
    let assoc: u32 = kv_get(&kv, "assoc")
        .map(|v| v.parse().map_err(|_| format!("bad assoc {v}")))
        .transpose()?
        .unwrap_or(1);
    let geom = CacheGeometry::new(size, line, assoc).map_err(|e| format!("bad geometry: {e}"))?;
    if size > MAX_SIM_CACHE_BYTES {
        return Err(format!(
            "bad geometry: a {size}-byte cache exceeds the {MAX_SIM_CACHE_BYTES}-byte limit"
        ));
    }
    let write = match kv_get(&kv, "write").unwrap_or("back") {
        "back" => WritePolicy::WriteBack,
        "through" => WritePolicy::WriteThrough,
        other => return Err(format!("bad write policy {other}")),
    };
    let replacement = match kv_get(&kv, "policy") {
        None => ReplacementKind::Lru,
        Some(name) => ReplacementKind::parse(name).map_err(|e| format!("bad policy: {e}"))?,
    };
    let mut sim = CacheSim::new(geom)
        .with_write_policy(write)
        .with_replacement(replacement);
    trace.replay_into(&mut sim);
    let stats = sim.stats();
    Ok(format!(
        "accesses={}\nhits={}\nmisses={}\ntraffic_words={}\n",
        stats.accesses(),
        stats.hits(),
        stats.misses(),
        sim.traffic_words(),
    ))
}
