//! `serve-mixed`: a closed loop of clients against an in-process daemon.
//!
//! Set-up spawns an `fvl-serve` daemon on a Unix socket, synthesizes
//! and v2.2-encodes the seeded traces clients upload, and computes
//! locally every answer the daemon must give: each trace's counters
//! under each cache config (`remote::simulate_packed`) and each job's
//! report on a local smoke context. Each set-up starts with no daemon
//! running; the last one's daemon serves the iterations.
//! One iteration is a fixed batch of
//! sessions run by [`crate::workers`] clients, each starting its next
//! session only when the last one ended (the daemon's real clients,
//! `experiments --remote` and `corpus sim --remote`, each wait for
//! their reply).

use crate::expected::{self, Expected};
use crate::measure::{digest, quantile, timed, Fnv, Sample};
use crate::spans::{self, Tracer};
use crate::{iterate, workers, Args, Metric, Run, Tally, SETUP_REPEATS};
use fvl_bench::corpus::synth_trace;
use fvl_bench::remote::{self, RemoteClient, RemoteError, SessionSpec, DEFAULT_TIMEOUT};
use fvl_bench::{experiments, ExperimentContext};
use fvl_serve::{Daemon, DaemonHandle};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Tenants the sessions rotate over.
const TENANTS: usize = 4;
/// Seeded traces the sessions rotate over.
const TRACES: usize = 4;
/// Accesses per uploaded trace (trace `i` has `i` more).
const TRACE_ACCESSES: u64 = 250_000;
/// Sessions per iteration for each client connection.
const SESSIONS_PER_CLIENT: usize = 30;
/// Cache configs every session simulates its upload against.
const CONFIGS: [&str; 4] = [
    "size=16384\nline=32\nassoc=1\nwrite=back\npolicy=lru\n",
    "size=16384\nline=32\nassoc=2\nwrite=back\npolicy=lru\n",
    "size=16384\nline=32\nassoc=2\nwrite=back\npolicy=random\n",
    "size=16384\nline=32\nassoc=4\nwrite=through\npolicy=lru\n",
];
/// Smoke experiment jobs, one per session in this rotation. An odd
/// count keeps the session median inside one job's latency cluster
/// rather than on the edge between two.
const JOBS: [&str; 5] = ["fig10", "fig13", "fig14", "ext5", "verify"];

/// A running daemon and the answers it must give.
struct Setup {
    daemon: DaemonHandle,
    uploads: Vec<Vec<u8>>,
    /// `sims[trace][config]`: the counter lines.
    sims: Vec<Vec<String>>,
    /// Report bytes of each job.
    jobs: Vec<Vec<u8>>,
    /// References each job charges.
    job_refs: Vec<u64>,
}

fn setup(scratch: &Path, k: usize, seed: u64) -> io::Result<Setup> {
    let addr = format!("unix:{}", scratch.join(format!("serve-{k}.sock")).display());
    let daemon = Daemon::builder(&addr).log(Box::new(io::sink())).spawn()?;
    let mut uploads = Vec::new();
    let mut sims = Vec::new();
    for i in 0..TRACES as u64 {
        let trace = synth_trace(TRACE_ACCESSES + i, seed.wrapping_add(i));
        let mut bytes = Vec::new();
        trace.write_v22_to(&mut bytes)?;
        uploads.push(bytes);
        sims.push(
            CONFIGS
                .iter()
                .map(|c| remote::simulate_packed(&trace, c).map_err(io::Error::other))
                .collect::<io::Result<Vec<_>>>()?,
        );
    }
    let ctx = ExperimentContext::smoke().with_seed(seed);
    let mut jobs = Vec::new();
    let mut job_refs = Vec::new();
    for name in JOBS {
        let (_, runner) = experiments::all()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("rotation names are experiments");
        let before = ctx.engine().throughput().references;
        jobs.push(format!("{}\n", runner(&ctx)).into_bytes());
        job_refs.push(ctx.engine().throughput().references - before);
    }
    Ok(Setup {
        daemon,
        uploads,
        sims,
        jobs,
        job_refs,
    })
}

/// What one session measured.
#[derive(Default)]
struct SessionOutcome {
    latency_s: f64,
    completed: bool,
    tally: Tally,
    refused: u64,
}

/// Runs one request inside a span; `f` returns the reply and whether
/// it was correct. A failed or wrong request ends the session.
fn request<T>(
    t: &Tracer,
    name: &str,
    parent: (Option<u64>, Option<u64>),
    out: &mut SessionOutcome,
    f: impl FnOnce() -> Result<(T, bool), RemoteError>,
) -> Option<T> {
    let open = t.open(name, parent.0, parent.1);
    let result = f();
    t.close(open);
    match result {
        Ok((value, ok)) => out.tally.check(ok).then_some(value),
        Err(err) => {
            eprintln!("session {:?}: {name} failed: {err}", parent.1);
            if matches!(err, RemoteError::Rejected(..)) {
                out.refused += 1;
            }
            out.tally.check(false);
            None
        }
    }
}

/// The requests of session `i`, checking every answer.
fn requests(
    s: &Setup,
    seed: u64,
    i: usize,
    t: &Tracer,
    parent: (Option<u64>, Option<u64>),
    out: &mut SessionOutcome,
) -> Option<()> {
    let spec = SessionSpec {
        tenant: format!("tenant-{}", i % TENANTS),
        seed,
        ..SessionSpec::smoke("")
    };
    let (trace, job) = (i % TRACES, i % JOBS.len());
    let addr = s.daemon.local_addr();
    let mut client = request(t, "serve.hello", parent, out, || {
        RemoteClient::connect(addr, &spec, DEFAULT_TIMEOUT).map(|c| (c, true))
    })?;
    request(t, "serve.upload", parent, out, || {
        let accesses = client.upload_trace(&s.uploads[trace])?;
        Ok(((), accesses == TRACE_ACCESSES + trace as u64))
    })?;
    for (k, config) in CONFIGS.iter().enumerate() {
        request(t, "serve.sim", parent, out, || {
            let lines = client.simulate(config)?;
            let text: String = lines.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
            Ok(((), text == s.sims[trace][k]))
        })?;
    }
    request(t, "serve.job", parent, out, || {
        let mut stdout = Vec::new();
        let summary = client.run_experiment(JOBS[job], &mut stdout)?;
        Ok((
            (),
            stdout == s.jobs[job] && summary.references == s.job_refs[job],
        ))
    })?;
    request(t, "serve.bye", parent, out, || {
        client.bye().map(|()| ((), true))
    })
}

/// Runs session `i` of an iteration on its own connection, hello to
/// bye; `id` is unique across the run.
fn session(s: &Setup, seed: u64, i: usize, id: u64, t: &Tracer) -> SessionOutcome {
    let mut out = SessionOutcome::default();
    let started = Instant::now();
    let root = t.open("serve.session", None, Some(id));
    let parent = (root.id(), Some(id));
    out.completed = requests(s, seed, i, t, parent, &mut out).is_some();
    t.close(root);
    out.latency_s = started.elapsed().as_secs_f64();
    out
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer, scratch: &Path) -> io::Result<Run> {
    let seed = args.seed;
    let mut run = Run::default();
    let mut tally = Tally::default();
    let mut kept: Option<Setup> = None;
    for k in 0..SETUP_REPEATS {
        let previous = kept.take().map(|old| {
            old.daemon.shutdown();
            (old.sims, old.jobs, old.job_refs)
        });
        let (s, sample) = timed(|| setup(scratch, k, seed));
        run.setup_s.push(sample.wall_s);
        let s = s?;
        if let Some((sims, jobs, job_refs)) = previous {
            tally.check(sims == s.sims && jobs == s.jobs && job_refs == s.job_refs);
        }
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");

    // The local references are pinned for the committed seeds.
    let mut refs_digest = Fnv::default();
    for sims in &s.sims {
        for text in sims {
            refs_digest.write(text.as_bytes());
        }
    }
    let mut digests = vec![("sims".to_string(), refs_digest.finish())];
    for (name, bytes) in JOBS.iter().zip(&s.jobs) {
        digests.push((format!("job.{name}"), digest(bytes)));
    }
    expected::check(
        &Expected::load("serve-mixed"),
        seed,
        &digests,
        &mut None,
        &mut tally,
    );

    let clients = workers();
    let sessions = clients * SESSIONS_PER_CLIENT;
    // Latency of every untraced session, and whether it completed.
    let untraced_latency = Mutex::new(Vec::new());
    let totals = Mutex::new((tally, 0u64));
    let mut first_id = 0;
    let (untraced, traced) = iterate(args, tracer, |t| {
        let base = first_id;
        first_id += sessions as u64;
        // Each client takes the next session when its last one ends, so
        // a client slowed by the host does fewer sessions instead of
        // holding up the iteration.
        let next = AtomicUsize::new(0);
        let ((), sample): ((), Sample) = timed(|| {
            std::thread::scope(|scope| {
                for _ in 0..clients {
                    let (s, totals, latency, next) = (&s, &totals, &untraced_latency, &next);
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= sessions {
                            break;
                        }
                        let o = session(s, seed, i, base + i as u64, t);
                        let mut totals = totals.lock().expect("tally lock poisoned");
                        totals.0.attempted += o.tally.attempted;
                        totals.0.failed += o.tally.failed;
                        totals.1 += o.refused;
                        if !t.enabled() {
                            latency
                                .lock()
                                .expect("latency lock poisoned")
                                .push((o.latency_s, o.completed));
                        }
                    });
                }
            });
        });
        sample
    });
    let (tally, refused) = totals.into_inner().expect("tally lock poisoned");
    run.untraced = untraced;
    run.traced = traced;
    run.tally = tally;
    let sim_refs: u64 = (0..sessions)
        .map(|i| (TRACE_ACCESSES + (i % TRACES) as u64) * CONFIGS.len() as u64)
        .sum();
    let job_refs: u64 = (0..sessions).map(|i| s.job_refs[i % JOBS.len()]).sum();
    run.refs = sim_refs + job_refs;
    run.refs_note =
        format!("{sim_refs} sim accesses + {job_refs} job references over {sessions} sessions");

    let (latency, completed): (Vec<f64>, Vec<bool>) = untraced_latency
        .into_inner()
        .expect("latency lock poisoned")
        .into_iter()
        .unzip();
    let wall = crate::measure::median(&run.untraced.iter().map(|x| x.wall_s).collect::<Vec<_>>());
    let n = latency.len();
    let completed_per_iteration =
        completed.iter().filter(|&&c| c).count() as f64 / run.untraced.len() as f64;
    run.extra = vec![
        Metric::new(
            "session_p50_ms",
            quantile(&latency, 0.50) * 1e3,
            "ms",
            format!("hello to bye, {n} sessions"),
        ),
        Metric::new(
            "session_p95_ms",
            if n >= 200 {
                quantile(&latency, 0.95) * 1e3
            } else {
                f64::NAN
            },
            "ms",
            format!(
                "{} sessions beyond it",
                n - (n as f64 * 0.95).ceil() as usize
            ),
        ),
        Metric::new(
            "sessions_per_s",
            completed_per_iteration / wall,
            "1/s",
            format!("completed of {sessions} sessions per iteration, {clients} clients"),
        ),
    ];
    if args.trace {
        layers(&mut run, tracer, &s.daemon, refused, clients);
    }
    s.daemon.shutdown();
    Ok(run)
}

fn layers(run: &mut Run, tracer: &Tracer, daemon: &DaemonHandle, refused: u64, clients: usize) {
    let spans = tracer.spans();
    let n = run.traced.len() as f64;
    let ms = |v: Vec<f64>, q: f64| quantile(&v, q) * 1e3;
    let (_, misses, hits) = daemon.store_stats();
    let requests = spans.iter().filter(|s| s.parent.is_some()).count();
    let l = &mut run.layers;
    l.push(Metric::new(
        "serve.hello_p50_ms",
        ms(spans::durations(&spans, "serve.hello"), 0.5),
        "ms",
        "connect + hello/welcome",
    ));
    l.push(Metric::new(
        "serve.hello_p95_ms",
        ms(spans::durations(&spans, "serve.hello"), 0.95),
        "ms",
        "",
    ));
    l.push(Metric::new(
        "serve.upload_p50_ms",
        ms(spans::durations(&spans, "serve.upload"), 0.5),
        "ms",
        "v2.2 trace upload",
    ));
    l.push(Metric::new(
        "serve.sim_p50_ms",
        ms(spans::durations(&spans, "serve.sim"), 0.5),
        "ms",
        "",
    ));
    l.push(Metric::new(
        "serve.job_p50_ms",
        ms(spans::durations(&spans, "serve.job"), 0.5),
        "ms",
        "smoke experiment job",
    ));
    l.push(Metric::new(
        "serve.job_p95_ms",
        ms(spans::durations(&spans, "serve.job"), 0.95),
        "ms",
        "",
    ));
    l.push(Metric::new(
        "serve.requests",
        requests as f64,
        "count",
        "requests in traced iterations",
    ));
    l.push(Metric::new(
        "serve.refused",
        refused as f64,
        "count",
        "requests the daemon refused, whole run",
    ));
    l.push(Metric::new(
        "serve.store_hits",
        hits as f64,
        "count",
        "daemon store, whole run",
    ));
    l.push(Metric::new(
        "serve.store_misses",
        misses as f64,
        "count",
        "daemon store, whole run",
    ));
    // Each client is busy for the whole iteration, so a request kind's
    // share of wall_s is its span time per client.
    let per_client = n * clients as f64;
    run.attribution = [
        "serve.hello",
        "serve.upload",
        "serve.sim",
        "serve.job",
        "serve.bye",
    ]
    .iter()
    .map(|name| {
        (
            name.to_string(),
            spans::total_secs(&spans, name) / per_client,
        )
    })
    .collect();
}
