//! Concurrency stress tier: many tenants, shared capture-once store.
//!
//! The daemon multiplexes every session onto one [`TraceStore`], while
//! each session runs its jobs on its own serial engine. These tests
//! pin down the two halves of that contract under real concurrency:
//! per-session output is byte-identical to a serial in-process run of
//! the same job (stdout *and* schema-v1 metrics), and the shared store
//! executes each distinct capture exactly once no matter how many
//! sessions race for it. Admission control must refuse — promptly,
//! with typed frames, and without deadlocking — once caps or budgets
//! are hit.
//!
//! [`TraceStore`]: fvl_bench::TraceStore

use fvl_bench::data::SMOKE_REFS;
use fvl_bench::metrics::{self, RunInfo};
use fvl_bench::remote::{RemoteClient, RemoteError, SessionSpec};
use fvl_bench::{experiments, EngineCore, ExperimentContext};
use fvl_mem::frame::ErrorCode;
use fvl_serve::{Daemon, DaemonHandle, ServeConfig};
use fvl_workloads::InputSize;
use std::time::{Duration, Instant};

/// The smoke job every stress session runs.
const JOB: &str = "fig1";

fn daemon_with(config: ServeConfig) -> DaemonHandle {
    Daemon::builder("127.0.0.1:0")
        .config(config)
        .log(Box::new(std::io::sink()))
        .spawn()
        .expect("daemon starts")
}

/// What the local CLI emits for the smoke job, computed serially in
/// process on a private store: `(stdout bytes, metrics bytes)`.
fn serial_baseline() -> (Vec<u8>, Vec<u8>) {
    let ctx = ExperimentContext::session(EngineCore::serial())
        .with_input(InputSize::Test)
        .with_seed(1)
        .with_max_refs(Some(SMOKE_REFS));
    let &(_, runner) = experiments::all()
        .iter()
        .find(|(name, _)| *name == JOB)
        .expect("the smoke job exists");
    let mut text = runner(&ctx).to_string();
    text.push('\n');
    let run = RunInfo::new("test", 1, true);
    let mut body =
        metrics::json_report_full(ctx.engine(), &run, Some(ctx.store()), false).render_pretty();
    body.push('\n');
    (text.into_bytes(), body.into_bytes())
}

/// N threads × M sessions, mixed tenants, all running the same job
/// concurrently: every session's stdout and metrics must equal the
/// serial baseline byte for byte, and the shared store must have
/// executed each distinct capture exactly once (every other request
/// was a cache hit).
#[test]
fn concurrent_sessions_match_serial_and_capture_once() {
    const THREADS: usize = 4;
    const SESSIONS: usize = 2;
    let handle = daemon_with(ServeConfig::default());
    let (want_stdout, want_metrics) = serial_baseline();
    let addr = handle.local_addr().to_string();

    let results: Vec<(Vec<u8>, Option<Vec<u8>>, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..SESSIONS {
                        let spec = SessionSpec::smoke(&format!("tenant-{t}"));
                        let mut client =
                            RemoteClient::connect(&addr, &spec, Duration::from_secs(60))
                                .expect("admitted");
                        let mut stdout = Vec::new();
                        let summary = client
                            .run_experiment(JOB, &mut stdout)
                            .expect("job completes");
                        client.bye().expect("clean close");
                        out.push((stdout, summary.metrics, summary.references));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker panicked"))
            .collect()
    });

    assert_eq!(results.len(), THREADS * SESSIONS);
    let refs = results[0].2;
    for (i, (stdout, job_metrics, references)) in results.iter().enumerate() {
        assert_eq!(
            stdout, &want_stdout,
            "session {i}: stdout diverged from the serial run"
        );
        assert_eq!(
            job_metrics.as_deref(),
            Some(want_metrics.as_slice()),
            "session {i}: metrics diverged from the serial run"
        );
        assert_eq!(*references, refs, "session {i}: reference count diverged");
    }

    // The job (Figure 1) reads only value profiles: the shared store
    // keeps no trace, and its profile latch dedups the captures.
    assert_eq!(
        handle.store_stats(),
        (0, 0, 0),
        "a profile-only job kept a trace"
    );
    let stats = handle.profile_stats();
    let distinct = stats.len();
    let misses: u64 = stats.iter().map(|s| s.misses).sum();
    let hits: u64 = stats.iter().map(|s| s.hits).sum();
    assert!(distinct > 0, "the job captured nothing");
    assert_eq!(
        misses,
        distinct as u64,
        "a capture executed more than once across {} sessions",
        THREADS * SESSIONS
    );
    assert!(
        hits >= ((THREADS * SESSIONS - 1) * distinct) as u64,
        "later sessions did not reuse the shared captures: {hits} hits for {distinct} keys"
    );
    handle.shutdown();
}

/// A smoke session on reference inputs: the job's captures record the
/// smoke budget's first references of the reference-size programs,
/// and each stops at the budget rather than running to completion.
#[test]
fn reference_smoke_session_stops_every_capture_at_the_budget() {
    let handle = daemon_with(ServeConfig::default());
    let spec = SessionSpec {
        input: "reference".to_string(),
        ..SessionSpec::smoke("tenant-ref")
    };
    let mut client = RemoteClient::connect(handle.local_addr(), &spec, Duration::from_secs(60))
        .expect("admitted");
    let mut stdout = Vec::new();
    client
        .run_experiment(JOB, &mut stdout)
        .expect("job completes");
    client.bye().expect("clean close");

    let stats = handle.profile_stats();
    assert!(!stats.is_empty(), "the job captured nothing");
    for s in &stats {
        assert_eq!(
            (s.key.input, s.key.max_refs),
            (InputSize::Ref, Some(SMOKE_REFS))
        );
        assert_eq!((s.misses, s.stopped), (1, 1), "{}", s.key);
    }
    handle.shutdown();
}

/// A one-reference tenant budget: the first job runs (budgets are
/// charged after the fact, never retroactively), the second job on the
/// same session is refused OVER_BUDGET but the session stays usable, a
/// stampede of fresh sessions for the tenant is refused at the door
/// without deadlock, and an unspent tenant is unaffected.
#[test]
fn budget_exhaustion_refuses_without_deadlock() {
    let handle = daemon_with(ServeConfig {
        tenant_budget_refs: Some(1),
        ..ServeConfig::default()
    });
    let addr = handle.local_addr().to_string();
    let spec = SessionSpec::smoke("metered");

    let mut client =
        RemoteClient::connect(&addr, &spec, Duration::from_secs(60)).expect("first session");
    let mut stdout = Vec::new();
    let summary = client
        .run_experiment(JOB, &mut stdout)
        .expect("first job runs before the budget gate");
    assert!(summary.references > 1, "smoke job spent no references");
    let err = client
        .run_experiment(JOB, &mut Vec::new())
        .expect_err("second job must be over budget");
    assert!(
        matches!(err, RemoteError::Rejected(ErrorCode::OverBudget, _)),
        "{err:?}"
    );
    client.bye().expect("refusal keeps the session usable");

    std::thread::scope(|scope| {
        for _ in 0..8 {
            let addr = addr.clone();
            let spec = spec.clone();
            scope.spawn(move || {
                let start = Instant::now();
                let err = RemoteClient::connect(&addr, &spec, Duration::from_secs(10))
                    .expect_err("exhausted tenant must be refused");
                assert!(
                    matches!(err, RemoteError::Rejected(ErrorCode::OverBudget, _)),
                    "{err:?}"
                );
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "refusal was not prompt: {:?}",
                    start.elapsed()
                );
            });
        }
    });

    RemoteClient::connect(
        &addr,
        &SessionSpec::smoke("unspent"),
        Duration::from_secs(60),
    )
    .expect("an unspent tenant is admitted")
    .bye()
    .expect("clean close");
    handle.shutdown();
}

/// A per-tenant session cap of one: the second concurrent session for
/// the tenant is BUSY, a different tenant still fits, and closing the
/// first session releases the permit.
#[test]
fn per_tenant_session_cap_answers_busy() {
    let handle = daemon_with(ServeConfig {
        max_sessions_per_tenant: 1,
        ..ServeConfig::default()
    });
    let addr = handle.local_addr().to_string();
    let spec = SessionSpec::smoke("capped");

    let first = RemoteClient::connect(&addr, &spec, Duration::from_secs(60)).expect("first");
    let err = RemoteClient::connect(&addr, &spec, Duration::from_secs(10))
        .expect_err("second concurrent session must be busy");
    assert!(
        matches!(err, RemoteError::Rejected(ErrorCode::Busy, _)),
        "{err:?}"
    );
    RemoteClient::connect(&addr, &SessionSpec::smoke("other"), Duration::from_secs(60))
        .expect("a different tenant still fits")
        .bye()
        .expect("clean close");
    first.bye().expect("clean close");

    // The permit is released on session teardown, which finishes just
    // after the bye: poll briefly rather than race it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match RemoteClient::connect(&addr, &spec, Duration::from_secs(10)) {
            Ok(client) => {
                client.bye().expect("clean close");
                break;
            }
            Err(RemoteError::Rejected(ErrorCode::Busy, _)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(err) => panic!("permit never released: {err:?}"),
        }
    }
    handle.shutdown();
}

/// Draining: established sessions keep their connection and part
/// cleanly, but new jobs on them are refused DRAINING, and new
/// connections are no longer served.
#[test]
fn drain_refuses_new_work_but_lets_sessions_part_cleanly() {
    let handle = daemon_with(ServeConfig {
        drain_grace: Duration::from_secs(5),
        ..ServeConfig::default()
    });
    let addr = handle.local_addr().to_string();
    let mut client =
        RemoteClient::connect(&addr, &SessionSpec::smoke("drain"), Duration::from_secs(60))
            .expect("session before drain");
    handle.drain();
    let err = client
        .run_experiment(JOB, &mut Vec::new())
        .expect_err("no new jobs while draining");
    assert!(
        matches!(err, RemoteError::Rejected(ErrorCode::Draining, _)),
        "{err:?}"
    );
    client.bye().expect("draining session parts cleanly");
    // New sessions are refused: either the listener is already gone
    // (connection error) or the hello is answered DRAINING.
    match RemoteClient::connect(&addr, &SessionSpec::smoke("late"), Duration::from_secs(5)) {
        Err(RemoteError::Rejected(ErrorCode::Draining, _))
        | Err(RemoteError::Io(_))
        | Err(RemoteError::Timeout) => {}
        Ok(_) => panic!("a draining daemon admitted a new session"),
        Err(err) => panic!("unexpected refusal shape: {err:?}"),
    }
    handle.shutdown();
}
