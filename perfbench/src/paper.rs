//! `paper-quick`: the `experiments all --quick` path, in process.
//!
//! One iteration builds a fresh 2-worker engine and test-input context
//! (so every capture runs again, as in a fresh CLI process), runs every
//! runner of `experiments::all()` and renders the deterministic
//! metrics export. Set-up runs `all --smoke` on a serial engine: it
//! pages in code and warms the allocator, so the timed iterations do
//! not pay a first-touch cost that varies from run to run. It is serial
//! because thousands of tiny parallel cells would time thread hand-offs
//! more than work, which made the set-up time swing with host load.

use crate::expected::{self, Expected};
use crate::measure::{digest, quantile, timed, Sample};
use crate::spans::{self, Tracer};
use crate::{iterate, workers, Args, Metric, Run, Tally, SETUP_REPEATS};
use fvl_bench::engine::CellRecord;
use fvl_bench::experiments;
use fvl_bench::metrics::{self, RunInfo};
use fvl_bench::{Engine, ExperimentContext};
use std::sync::Arc;

/// What one pass over every runner left behind.
struct Pass {
    ctx: ExperimentContext,
    engine: Arc<Engine>,
    digests: Vec<(String, u64)>,
    json_bytes: usize,
}

/// Runs every experiment and the metrics export on `ctx`.
fn pass(ctx: ExperimentContext, engine: Arc<Engine>, seed: u64, tracer: &Tracer) -> Pass {
    let mut digests = Vec::new();
    for (name, runner) in experiments::all() {
        let report = tracer.span(&format!("exp.{name}"), None, || runner(&ctx));
        digests.push((name.to_string(), digest(format!("{report}\n").as_bytes())));
    }
    let run = RunInfo::new("test", seed, ctx.max_refs.is_some());
    let json = tracer.span("export.json", None, || {
        metrics::json_report_full(&engine, &run, Some(ctx.store()), false).render_pretty()
    });
    let csv = tracer.span("export.csv", None, || metrics::csv_report(&engine));
    digests.push(("export.json".to_string(), digest(json.as_bytes())));
    digests.push(("export.csv".to_string(), digest(csv.as_bytes())));
    Pass {
        ctx,
        engine,
        digests,
        json_bytes: json.len(),
    }
}

fn context(seed: u64, smoke: bool) -> (ExperimentContext, Arc<Engine>) {
    let (ctx, jobs) = if smoke {
        (ExperimentContext::smoke(), 1)
    } else {
        (ExperimentContext::quick(), workers())
    };
    let engine = Arc::new(Engine::new(jobs));
    (ctx.with_seed(seed).with_engine(Arc::clone(&engine)), engine)
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Run {
    let seed = args.seed;
    let mut tally = Tally::default();
    let mut run = Run::default();

    let mut smoke_digests = None;
    for _ in 0..SETUP_REPEATS {
        let (digests, sample) = timed(|| {
            let (ctx, engine) = context(seed, true);
            pass(ctx, engine, seed, &Tracer::new(false)).digests
        });
        run.setup_s.push(sample.wall_s);
        // The smoke pass must repeat itself exactly.
        let first = smoke_digests.get_or_insert_with(|| digests.clone());
        tally.check(*first == digests);
    }

    let expected = Expected::load("paper-quick");
    let mut baseline = None;
    let mut last_traced = None;
    let mut refs = None;
    let (untraced, traced) = iterate(args, tracer, |t| {
        let (done, sample): (Pass, Sample) = timed(|| {
            let (ctx, engine) = context(seed, false);
            pass(ctx, engine, seed, t)
        });
        expected::check(&expected, seed, &done.digests, &mut baseline, &mut tally);
        // Every pass simulates the same cells.
        let n = done.engine.throughput().references;
        tally.check(*refs.get_or_insert(n) == n);
        if t.enabled() {
            last_traced = Some(done);
        }
        sample
    });
    run.untraced = untraced;
    run.traced = traced;
    run.refs = refs.unwrap_or(0);
    run.refs_note = "engine references of one `all --quick` pass".to_string();
    run.tally = tally;
    if let Some(pass) = last_traced {
        layers(&mut run, &pass, tracer);
    }
    run
}

/// Per-layer metrics of the traced iterations; counts come from the
/// last one.
fn layers(run: &mut Run, pass: &Pass, tracer: &Tracer) {
    let spans = tracer.spans();
    let n = run.traced.len() as f64;
    let records: Vec<CellRecord> = pass.engine.cell_records();
    let store = pass.ctx.store();
    let ms = |nanos: f64| nanos * 1e-6;

    let capture: Vec<&CellRecord> = records
        .iter()
        .filter(|r| r.id.config.starts_with("capture"))
        .collect();
    let capture_s: f64 = capture.iter().map(|r| r.wall_nanos as f64 * 1e-9).sum();
    let (keys, misses, hits) = (
        store.distinct_keys(),
        store.total_misses(),
        store.total_hits(),
    );
    let resident_mib = store.resident_trace_bytes() as f64 / (1024.0 * 1024.0);
    let captured_accesses: u64 = store
        .stats()
        .iter()
        .map(|k| {
            store
                .get_or_capture(k.key.clone(), || {
                    unreachable!("every listed key is captured")
                })
                .trace
                .accesses()
        })
        .sum();

    let cell_ns: Vec<f64> = records.iter().map(|r| r.wall_nanos as f64).collect();
    let busy_s = cell_ns.iter().sum::<f64>() * 1e-9;
    let runner_s: f64 = spans
        .iter()
        .filter(|s| s.name.starts_with("exp."))
        .map(spans::Span::secs)
        .sum::<f64>()
        / n;
    let workers = pass.engine.jobs() as f64;
    let refs = pass.engine.throughput().references;

    let l = &mut run.layers;
    l.push(Metric::new(
        "capture.cell_s",
        capture_s,
        "s",
        format!("busy time of {} capture cells", capture.len()),
    ));
    l.push(Metric::new(
        "capture.accesses",
        captured_accesses as f64,
        "count",
        "accesses recorded by executed captures",
    ));
    l.push(Metric::new(
        "store.keys",
        keys as f64,
        "count",
        "distinct capture keys",
    ));
    l.push(Metric::new(
        "store.misses",
        misses as f64,
        "count",
        "captures executed",
    ));
    l.push(Metric::new(
        "store.hits",
        hits as f64,
        "count",
        "captures served from the store",
    ));
    l.push(Metric::new(
        "store.resident_mib",
        resident_mib,
        "MiB",
        "trace bytes held by the store",
    ));
    l.push(Metric::new(
        "engine.cells",
        records.len() as f64,
        "count",
        "recorded cells",
    ));
    l.push(Metric::new(
        "engine.refs",
        refs as f64,
        "count",
        "simulated references",
    ));
    l.push(Metric::new(
        "engine.cell_busy_s",
        busy_s,
        "s",
        "sum of cell wall times",
    ));
    l.push(Metric::new(
        "engine.utilization",
        busy_s / (workers * runner_s),
        "1",
        format!("cell busy / ({workers} workers x {runner_s:.3} s of runner wall)"),
    ));
    l.push(Metric::new(
        "engine.cell_p50_ms",
        ms(quantile(&cell_ns, 0.50)),
        "ms",
        "",
    ));
    l.push(Metric::new(
        "engine.cell_p98_ms",
        ms(quantile(&cell_ns, 0.98)),
        "ms",
        format!("{} cells", cell_ns.len()),
    ));
    l.push(Metric::new(
        "engine.cell_max_ms",
        ms(quantile(&cell_ns, 1.0)),
        "ms",
        "",
    ));
    for (name, _) in experiments::all() {
        let secs = spans::total_secs(&spans, &format!("exp.{name}")) / n;
        l.push(Metric::new(
            format!("exp.{name}_s"),
            secs,
            "s",
            "runner wall, mean per traced iteration",
        ));
    }
    l.push(Metric::new(
        "export.json_ms",
        spans::total_secs(&spans, "export.json") / n * 1e3,
        "ms",
        "",
    ));
    l.push(Metric::new(
        "export.csv_ms",
        spans::total_secs(&spans, "export.csv") / n * 1e3,
        "ms",
        "",
    ));
    l.push(Metric::new(
        "export.json_bytes",
        pass.json_bytes as f64,
        "bytes",
        "deterministic schema-v1 export",
    ));

    run.attribution = experiments::all()
        .iter()
        .map(|(name, _)| format!("exp.{name}"))
        .chain(["export.json".to_string(), "export.csv".to_string()])
        .map(|name| {
            let secs = spans::total_secs(&spans, &name) / n;
            (name, secs)
        })
        .collect();
}
