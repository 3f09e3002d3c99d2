//! The daemon: listener, shared state, graceful drain.
//!
//! One [`Daemon`] owns a TCP or Unix listener and a `Shared` block —
//! the capture-once [`TraceStore`] every session deduplicates through,
//! the [`Admission`] caps, the fault plan, and the drain flag. Each
//! accepted connection gets its own thread running the
//! `session` state machine; the accept loop itself is
//! non-blocking so a drain request (SIGTERM in the binary,
//! [`DaemonHandle::drain`] in tests) is observed within one poll tick.
//!
//! Drain semantics: stop accepting, answer any *new* hello or job on a
//! live connection with [`ErrorCode::Draining`], let requests already
//! executing finish and flush their response frames, then exit once
//! the active-session count reaches zero (or the drain grace period
//! expires).
//!
//! [`ErrorCode::Draining`]: fvl_mem::frame::ErrorCode::Draining
//! [`TraceStore`]: fvl_bench::TraceStore

use crate::admission::Admission;
use crate::fault::FaultPlan;
use fvl_bench::store::ProfileStats;
use fvl_bench::TraceStore;
use std::fmt;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration. Everything has a safe default; the builder
/// and the binary's flags override.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Global concurrent-session cap (`BUSY` beyond it).
    pub max_sessions: usize,
    /// Per-tenant concurrent-session cap (`BUSY` beyond it).
    pub max_sessions_per_tenant: usize,
    /// Per-tenant lifetime reference budget (`OVER_BUDGET` beyond it);
    /// `None` is unmetered.
    pub tenant_budget_refs: Option<u64>,
    /// Per-read timeout on session sockets; an idle or stalled peer is
    /// answered with a `TIMEOUT` error frame and closed.
    pub read_timeout: Duration,
    /// Reference cap applied to non-smoke captures (`None`: uncapped).
    /// Smoke sessions always use the smoke budget.
    pub force_max_refs: Option<u64>,
    /// How long a drain waits for active sessions before giving up.
    pub drain_grace: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 64,
            max_sessions_per_tenant: 16,
            tenant_budget_refs: None,
            read_timeout: Duration::from_secs(30),
            force_max_refs: None,
            drain_grace: Duration::from_secs(30),
        }
    }
}

/// State shared by the accept loop and every session thread.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) admission: Arc<Admission>,
    pub(crate) fault: FaultPlan,
    store: Arc<TraceStore>,
    draining: AtomicBool,
    session_ids: AtomicU64,
    log: Mutex<Box<dyn Write + Send>>,
}

impl Shared {
    pub(crate) fn store(&self) -> Arc<TraceStore> {
        Arc::clone(&self.store)
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    pub(crate) fn next_session_id(&self) -> u64 {
        self.session_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub(crate) fn log(&self, line: &str) {
        let mut log = self.log.lock().unwrap();
        let _ = writeln!(log, "fvl-serve: {line}");
        let _ = log.flush();
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => io::Read::read(s, buf),
            Stream::Unix(s) => io::Read::read(s, buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Builder for a [`Daemon`].
pub struct DaemonBuilder {
    addr: String,
    config: ServeConfig,
    fault: Option<FaultPlan>,
    log: Option<Box<dyn Write + Send>>,
}

impl fmt::Debug for DaemonBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DaemonBuilder")
            .field("addr", &self.addr)
            .field("config", &self.config)
            .finish()
    }
}

impl DaemonBuilder {
    /// Overrides the whole config block.
    pub fn config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs a fault plan (tests); the binary reads
    /// `FVL_SERVE_FAULT` instead.
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Redirects the daemon log (default: stderr).
    pub fn log(mut self, log: Box<dyn Write + Send>) -> Self {
        self.log = Some(log);
        self
    }

    /// Binds the listener and spawns the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind errors (address in use, bad socket path).
    pub fn spawn(self) -> io::Result<DaemonHandle> {
        let listener = match self.addr.strip_prefix("unix:") {
            Some(path) => {
                let path = PathBuf::from(path);
                // A previous daemon's socket file would make bind fail.
                let _ = std::fs::remove_file(&path);
                Listener::Unix(UnixListener::bind(&path)?, path)
            }
            None => Listener::Tcp(TcpListener::bind(self.addr.as_str())?),
        };
        let local_addr = match &listener {
            Listener::Tcp(l) => l.local_addr()?.to_string(),
            Listener::Unix(_, path) => format!("unix:{}", path.display()),
        };
        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
        }
        let shared = Arc::new(Shared {
            admission: Arc::new(Admission::new(
                self.config.max_sessions,
                self.config.max_sessions_per_tenant,
                self.config.tenant_budget_refs,
            )),
            fault: self.fault.unwrap_or_default(),
            store: Arc::new(TraceStore::new()),
            draining: AtomicBool::new(false),
            session_ids: AtomicU64::new(0),
            log: Mutex::new(self.log.unwrap_or_else(|| Box::new(io::stderr()))),
            config: self.config,
        });
        shared.log(&format!("listening on {local_addr}"));
        let accept_shared = Arc::clone(&shared);
        let join = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(DaemonHandle {
            local_addr,
            shared,
            join: Some(join),
        })
    }
}

/// A running daemon.
#[derive(Debug)]
pub struct Daemon;

impl Daemon {
    /// Starts building a daemon bound to `addr` (`unix:PATH`, or a TCP
    /// address — `127.0.0.1:0` picks a free port, reported by
    /// [`DaemonHandle::local_addr`]).
    pub fn builder(addr: &str) -> DaemonBuilder {
        DaemonBuilder {
            addr: addr.to_string(),
            config: ServeConfig::default(),
            fault: None,
            log: None,
        }
    }
}

/// Handle to a spawned daemon: its resolved address and its lifecycle.
pub struct DaemonHandle {
    local_addr: String,
    shared: Arc<Shared>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for DaemonHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DaemonHandle")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl DaemonHandle {
    /// The bound address in client form (`host:port` or `unix:PATH`).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// Capture-once statistics of the store's trace latch: `(distinct
    /// keys, executions, cache hits)`.
    pub fn store_stats(&self) -> (usize, u64, u64) {
        let store = &self.shared.store;
        (
            store.distinct_keys(),
            store.total_misses(),
            store.total_hits(),
        )
    }

    /// Per-key counts of the store's profile latch, which serves the
    /// profile-only runners (Figures 1–2, Tables 1–2): hits, executions
    /// and executions the reference budget stopped — what the stress
    /// suite asserts capture-once and the smoke budget with.
    pub fn profile_stats(&self) -> Vec<ProfileStats> {
        self.shared.store.profile_stats()
    }

    /// Currently active sessions.
    pub fn active_sessions(&self) -> usize {
        self.shared.admission.active_sessions()
    }

    /// Requests a drain: stop accepting, refuse new work, let running
    /// requests finish. Returns immediately; [`DaemonHandle::shutdown`]
    /// waits.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.log("drain requested");
    }

    /// Drains and waits for the accept loop (and, within the grace
    /// period, every active session) to finish.
    pub fn shutdown(mut self) {
        self.drain();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

const ACCEPT_POLL: Duration = Duration::from_millis(10);

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.is_draining() {
        let accepted = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        match accepted {
            Ok(stream) => {
                let timeout = shared.config.read_timeout;
                let ok = match &stream {
                    Stream::Tcp(s) => s.set_read_timeout(Some(timeout)).is_ok(),
                    Stream::Unix(s) => s.set_read_timeout(Some(timeout)).is_ok(),
                };
                if !ok {
                    continue;
                }
                let session_shared = Arc::clone(&shared);
                workers.push(std::thread::spawn(move || {
                    crate::session::run_session(stream, &session_shared);
                }));
                workers.retain(|w| !w.is_finished());
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(err) => {
                shared.log(&format!("accept failed: {err}"));
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
    // Drain: wait for active sessions, bounded by the grace period.
    let deadline = Instant::now() + shared.config.drain_grace;
    while shared.admission.active_sessions() > 0 && Instant::now() < deadline {
        std::thread::sleep(ACCEPT_POLL);
    }
    for worker in workers {
        if worker.is_finished() {
            let _ = worker.join();
        }
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    shared.log("drained, exiting");
}
