//! Fault-injection tier: dropped, duplicated and delayed responses.
//!
//! The daemon's [`FaultPlan`] (the programmatic face of the
//! `FVL_SERVE_FAULT` environment knob) perturbs its response stream by
//! daemon-lifetime response index, so every scenario here is
//! deterministic: the n-th response is dropped/duplicated/delayed, the
//! client observes exactly the failure the sequence discipline
//! prescribes — a bounded timeout for a drop, a transparent skip for a
//! duplicate, a sequence gap for a reorder — and [`RemoteRunner`]
//! recovers on a fresh connection in exactly one retry.

use fvl_bench::remote::{RemoteClient, RemoteError, RemoteRunner, SessionSpec};
use fvl_serve::{Daemon, DaemonHandle, FaultPlan, ServeConfig};
use std::time::{Duration, Instant};

/// The smoke job the fault scenarios run.
const JOB: &str = "fig1";

fn daemon_with_faults(plan: &str) -> DaemonHandle {
    Daemon::builder("127.0.0.1:0")
        .config(ServeConfig {
            read_timeout: Duration::from_secs(10),
            drain_grace: Duration::from_secs(2),
            ..ServeConfig::default()
        })
        .fault(FaultPlan::parse(plan).expect("valid fault plan"))
        .log(Box::new(std::io::sink()))
        .spawn()
        .expect("daemon starts")
}

/// The job's stdout from a fault-free daemon — what every recovered
/// run must still produce byte for byte.
fn clean_stdout() -> Vec<u8> {
    let handle = daemon_with_faults("");
    let runner = RemoteRunner::new(handle.local_addr(), SessionSpec::smoke("clean"));
    let job = runner.run_experiment(JOB).expect("clean run");
    assert_eq!(job.attempts, 1, "clean daemon required a retry");
    assert!(
        !job.summary.cross_check_failed,
        "fig1 has no cross-check to fail"
    );
    handle.shutdown();
    job.stdout
}

/// Dropping the welcome (response #1) surfaces as a client timeout —
/// deterministically, bounded by the configured read timeout, and
/// marked retryable. The fault is consumed with the response index, so
/// the next connection is clean.
#[test]
fn dropped_frame_surfaces_as_a_bounded_timeout() {
    let handle = daemon_with_faults("drop:1");
    let timeout = Duration::from_millis(300);
    let start = Instant::now();
    let err = RemoteClient::connect(handle.local_addr(), &SessionSpec::smoke("fault"), timeout)
        .expect_err("the welcome was dropped");
    let elapsed = start.elapsed();
    assert!(matches!(err, RemoteError::Timeout), "{err:?}");
    assert!(err.is_retryable());
    assert!(elapsed >= timeout, "timed out early: {elapsed:?}");
    assert!(
        elapsed < Duration::from_secs(10),
        "timeout unbounded: {elapsed:?}"
    );

    RemoteClient::connect(
        handle.local_addr(),
        &SessionSpec::smoke("fault"),
        Duration::from_secs(30),
    )
    .expect("the drop was consumed; the next connection is clean")
    .bye()
    .expect("clean close");
    handle.shutdown();
}

/// Duplicated frames are invisible above the sequence discipline: with
/// both the welcome and the first job response duplicated, the whole
/// exchange still completes with byte-identical stdout.
#[test]
fn duplicated_frames_are_skipped_transparently() {
    let want = clean_stdout();
    let handle = daemon_with_faults("dup:1,dup:2");
    let mut client = RemoteClient::connect(
        handle.local_addr(),
        &SessionSpec::smoke("fault"),
        Duration::from_secs(30),
    )
    .expect("duplicated welcome is transparent");
    let mut stdout = Vec::new();
    let summary = client
        .run_experiment(JOB, &mut stdout)
        .expect("duplicated response is transparent");
    assert_eq!(stdout, want, "stdout corrupted by duplication");
    assert!(summary.metrics.is_some());
    client.bye().expect("clean close");
    handle.shutdown();
}

/// A delayed (reordered) frame is unrecoverable on the connection: the
/// client reports exactly the sequence gap the one-slot holdback
/// creates, and flags it retryable.
#[test]
fn reordered_frame_is_a_sequence_gap() {
    let handle = daemon_with_faults("delay:2");
    let mut client = RemoteClient::connect(
        handle.local_addr(),
        &SessionSpec::smoke("fault"),
        Duration::from_secs(30),
    )
    .expect("the welcome (response #1) is clean");
    let err = client
        .run_experiment(JOB, &mut Vec::new())
        .expect_err("the reordered response must desync the stream");
    assert!(
        matches!(
            err,
            RemoteError::SeqGap {
                expected: 1,
                got: 2
            }
        ),
        "{err:?}"
    );
    assert!(err.is_retryable());
    handle.shutdown();
}

/// [`RemoteRunner`] turns that same reorder into exactly one retry on
/// a fresh connection, whose stdout is byte-identical to a fault-free
/// run.
#[test]
fn delayed_frame_forces_exactly_one_retry() {
    let want = clean_stdout();
    let handle = daemon_with_faults("delay:2");
    let mut runner = RemoteRunner::new(handle.local_addr(), SessionSpec::smoke("fault"));
    runner.timeout = Duration::from_secs(10);
    let job = runner.run_experiment(JOB).expect("the retry succeeds");
    assert_eq!(
        job.attempts, 2,
        "reordered attempt must fail, retry must succeed"
    );
    assert_eq!(job.stdout, want, "recovered stdout diverged");
    handle.shutdown();
}

/// Dropping a final response frame — the DONE acknowledging a trace
/// upload (response #2: welcome, done) — leaves the client with
/// nothing to desync against, so it surfaces as a bounded timeout; the
/// retry discipline (fresh connection, same request) then completes
/// cleanly. The upload is answered without any compute, so the
/// daemon-lifetime frame arithmetic cannot race the clock.
#[test]
fn dropped_done_frame_is_retried_to_success() {
    use fvl_mem::{Access, PackedTrace, Trace, TraceEvent};
    let trace = Trace::from_events(vec![
        TraceEvent::Access(Access::load(0x10, 7)),
        TraceEvent::Access(Access::store(0x20, 7)),
    ]);
    let mut bytes = Vec::new();
    PackedTrace::from_trace(&trace)
        .write_v22_to(&mut bytes)
        .expect("in-memory write");

    let handle = daemon_with_faults("drop:2");
    let spec = SessionSpec::smoke("fault");
    let timeout = Duration::from_millis(400);
    let mut client = RemoteClient::connect(handle.local_addr(), &spec, timeout)
        .expect("the welcome (response #1) is clean");
    let start = Instant::now();
    let err = client
        .upload_trace(&bytes)
        .expect_err("the done was dropped");
    assert!(matches!(err, RemoteError::Timeout), "{err:?}");
    assert!(err.is_retryable());
    assert!(start.elapsed() >= timeout, "timed out early");

    let mut retry = RemoteClient::connect(handle.local_addr(), &spec, Duration::from_secs(30))
        .expect("fresh connection after the drop");
    let accesses = retry.upload_trace(&bytes).expect("the retry succeeds");
    assert_eq!(accesses, 2);
    retry.bye().expect("clean close");
    handle.shutdown();
}
