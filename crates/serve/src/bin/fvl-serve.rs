//! The `fvl-serve` daemon binary.
//!
//! ```text
//! fvl-serve [--addr ADDR] [--max-sessions N] [--tenant-sessions N]
//!           [--tenant-budget REFS] [--timeout SECS] [--log FILE]
//! ```
//!
//! `ADDR` is `host:port` (TCP; `127.0.0.1:0` picks a free port, which
//! is printed as `listening on ...`) or `unix:PATH`. SIGTERM triggers
//! a graceful drain: the listener closes, in-flight requests finish,
//! new work is refused with a typed `DRAINING` frame, and the process
//! exits once active sessions reach zero (or the grace period ends).
//! `FVL_SERVE_FAULT` arms the deterministic response-frame fault
//! injector (test harnesses only; see `fvl_serve::fault`).

use fvl_serve::{Daemon, FaultPlan, ServeConfig};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the SIGTERM/SIGINT handler; polled by the main thread.
static DRAIN_REQUESTED: AtomicBool = AtomicBool::new(false);

// The repo is zero-dependency: declare the one libc symbol needed
// (libc is already linked by std) instead of pulling in a
// signal-handling crate.
#[cfg(unix)]
mod sys {
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;

    extern "C" {
        pub fn signal(signum: i32, handler: usize) -> usize;
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // Only an atomic store: async-signal-safe.
    DRAIN_REQUESTED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    // SAFETY: registers an async-signal-safe handler (a single atomic
    // store) for SIGTERM/SIGINT; `signal` itself cannot fault.
    unsafe {
        sys::signal(sys::SIGTERM, on_signal as *const () as usize);
        sys::signal(sys::SIGINT, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fvl-serve [--addr ADDR] [--max-sessions N] [--tenant-sessions N]\n\
         \x20                [--tenant-budget REFS] [--timeout SECS] [--log FILE]\n\
         ADDR: host:port (default 127.0.0.1:7471) or unix:PATH\n\
         --max-sessions N     global concurrent-session cap (default 64)\n\
         --tenant-sessions N  per-tenant concurrent-session cap (default 16)\n\
         --tenant-budget R    per-tenant lifetime reference budget (default unmetered)\n\
         --timeout SECS       per-read/idle timeout on sessions (default 30)\n\
         --log FILE           append the daemon log to FILE (default stderr)"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7471".to_string();
    let mut config = ServeConfig::default();
    let mut log_path: Option<String> = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => match iter.next() {
                Some(a) => addr = a,
                None => return usage(),
            },
            "--max-sessions" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => config.max_sessions = n,
                _ => return usage(),
            },
            "--tenant-sessions" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => config.max_sessions_per_tenant = n,
                _ => return usage(),
            },
            "--tenant-budget" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(n) => config.tenant_budget_refs = Some(n),
                None => return usage(),
            },
            "--timeout" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(secs) => config.read_timeout = Duration::from_secs(secs),
                None => return usage(),
            },
            "--log" => match iter.next() {
                Some(path) => log_path = Some(path),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    install_signal_handlers();
    let mut builder = Daemon::builder(&addr)
        .config(config)
        .fault(FaultPlan::from_env());
    if let Some(path) = &log_path {
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(file) => builder = builder.log(Box::new(file)),
            Err(err) => {
                eprintln!("fvl-serve: cannot open log {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let handle = match builder.spawn() {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("fvl-serve: cannot bind {addr}: {err}");
            return ExitCode::FAILURE;
        }
    };
    // The startup line clients (and the CI job) wait for.
    println!("listening on {}", handle.local_addr());
    while !DRAIN_REQUESTED.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("fvl-serve: signal received, draining");
    handle.shutdown();
    ExitCode::SUCCESS
}
