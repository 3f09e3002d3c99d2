//! `corpus-sweep`: the out-of-core sweep over a mapped v2.2 corpus.
//!
//! Set-up writes a seeded synthetic corpus with
//! `write_synthetic_corpus_with` and computes, from the same seeded
//! traces held in memory, the reference every sweep must reproduce:
//! access and store counts and the stats of every sweep geometry. One
//! iteration opens the directory and runs the mapped, pipelined sweep
//! under the default 4 MiB residency budget.

use crate::expected::{self, Expected};
use crate::measure::{digest, timed};
use crate::spans::{self, Tracer};
use crate::{iterate, Args, Metric, Run, Tally, SETUP_REPEATS};
use fvl_bench::corpus::{
    self, ChunkDecode, Corpus, CorpusReport, ReplayMode, TraceSummary, DEFAULT_BUDGET_BYTES,
    SWEEP_GEOMETRIES,
};
use fvl_cache::{CacheGeometry, CacheSim, CacheStats};
use fvl_mem::{AccessSink, AddrCodec, CountingSink, PackedTrace, CHUNK_ACCESSES};
use fvl_profile::ReuseProfiler;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Traces in the corpus.
const TRACES: usize = 4;
/// Accesses per trace (trace `i` has `i` more, as the generator does).
const ACCESSES: u64 = 1_500_000;
/// Sinks each access passes through in the sweep's simulation pass:
/// the three sweep geometries and the reuse profiler.
const SINK_PASSES: u64 = SWEEP_GEOMETRIES.len() as u64 + 1;

/// What a sweep of one trace must report.
#[derive(Debug, PartialEq)]
struct Reference {
    accesses: u64,
    stores: u64,
    geometries: Vec<(&'static str, CacheStats)>,
}

fn sweep_sinks() -> (Vec<CacheSim>, ReuseProfiler) {
    let sims = SWEEP_GEOMETRIES
        .iter()
        .map(|&(_, kb, line, assoc)| {
            CacheSim::new(
                CacheGeometry::new(kb * 1024, line, assoc).expect("sweep geometries are valid"),
            )
        })
        .collect();
    (sims, ReuseProfiler::new())
}

fn reference(trace: &PackedTrace) -> Reference {
    let mut count = CountingSink::new();
    trace.replay_into(&mut count);
    let (mut sims, _) = sweep_sinks();
    for sim in &mut sims {
        trace.replay_into(sim);
    }
    Reference {
        accesses: count.accesses(),
        stores: count.stores(),
        geometries: SWEEP_GEOMETRIES
            .iter()
            .zip(&sims)
            .map(|(g, s)| (g.0, *s.stats()))
            .collect(),
    }
}

fn setup(dir: &Path, seed: u64) -> io::Result<Vec<Reference>> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    corpus::write_synthetic_corpus_with(
        dir,
        TRACES,
        ACCESSES,
        seed,
        CHUNK_ACCESSES,
        AddrCodec::Split,
    )?;
    Ok((0..TRACES as u64)
        .map(|i| reference(&corpus::synth_trace(ACCESSES + i, seed.wrapping_add(i))))
        .collect())
}

/// Canonical text of everything a sweep reports for one trace.
fn render(s: &TraceSummary) -> String {
    let mut out = format!(
        "{} accesses={} stores={} chunks={} bytes={} digest={:016x}\n",
        s.name, s.accesses, s.stores, s.chunks, s.file_bytes, s.digest
    );
    for (label, st) in &s.geometries {
        let _ = writeln!(
            out,
            "{label} {} {} {} {} {} {}",
            st.read_hits, st.read_misses, st.write_hits, st.write_misses, st.writebacks, st.fetches
        );
    }
    let _ = writeln!(
        out,
        "curve line={} accesses={}",
        s.curve.line_bytes, s.curve.accesses
    );
    for p in &s.curve.points {
        let _ = writeln!(out, "{} {} {}", p.capacity_lines, p.hits, p.misses);
    }
    out
}

fn sweep(dir: &Path, t: &Tracer) -> io::Result<CorpusReport> {
    let corpus = t.span("corpus.open", None, || Corpus::open_dir(dir))?;
    t.span("corpus.sweep", None, || {
        corpus::sweep_corpus_with(
            &corpus,
            DEFAULT_BUDGET_BYTES,
            ReplayMode::Mapped,
            ChunkDecode::Pipelined,
        )
    })
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer, scratch: &Path) -> io::Result<Run> {
    let dir = scratch.join("corpus");
    let mut run = Run::default();
    let mut refs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (r, sample) = timed(|| setup(&dir, args.seed));
        refs = r?;
        run.setup_s.push(sample.wall_s);
    }

    let expected = Expected::load("corpus-sweep");
    let mut tally = Tally::default();
    let mut baseline = None;
    let mut last_traced = None;
    let (untraced, traced) = iterate(args, tracer, |t| {
        let (report, sample) = timed(|| sweep(&dir, t));
        match report {
            Ok(report) => {
                let mut digests = Vec::new();
                for (s, want) in report.summaries.iter().zip(&refs) {
                    let got = Reference {
                        accesses: s.accesses,
                        stores: s.stores,
                        geometries: s.geometries.clone(),
                    };
                    if !tally.check(got == *want) {
                        eprintln!("mismatch: {} differs from its in-memory reference", s.name);
                    }
                    digests.push((s.name.clone(), digest(render(s).as_bytes())));
                }
                tally.check(report.summaries.len() == TRACES);
                expected::check(&expected, args.seed, &digests, &mut baseline, &mut tally);
                if t.enabled() {
                    last_traced = Some(report);
                }
            }
            Err(err) => {
                eprintln!("sweep failed: {err}");
                tally.check(false);
            }
        }
        sample
    });
    run.untraced = untraced;
    run.traced = traced;
    run.refs = refs.iter().map(|r| r.accesses).sum::<u64>() * SINK_PASSES;
    run.refs_note = format!("accesses x {SINK_PASSES} simulation-pass sinks");
    if let Some(report) = last_traced {
        layers(&mut run, &report, &dir, tracer, &mut tally)?;
    }
    run.tally = tally;
    Ok(run)
}

/// Per-layer metrics: spans and budget/cache counts of the traced
/// sweeps, plus a serial split of the sweep's work into chunk decode
/// and sink replay, timed once after the iterations.
fn layers(
    run: &mut Run,
    report: &CorpusReport,
    dir: &Path,
    tracer: &Tracer,
    tally: &mut Tally,
) -> io::Result<()> {
    let spans = tracer.spans();
    let n = run.traced.len() as f64;
    let corpus = Corpus::open_dir(dir)?;
    let (packed, decode) = timed(|| {
        corpus
            .entries()
            .iter()
            .map(|e| e.trace.to_packed())
            .collect::<io::Result<Vec<_>>>()
    });
    let packed = packed?;
    let (stats, sinks) = timed(|| {
        packed
            .iter()
            .map(|p| {
                let (mut sims, mut profiler) = sweep_sinks();
                for sim in &mut sims {
                    p.replay_into(sim);
                }
                p.replay_into(&mut profiler as &mut dyn AccessSink);
                sims.iter().map(|s| *s.stats()).collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    for (got, summary) in stats.iter().zip(&report.summaries) {
        let want: Vec<CacheStats> = summary.geometries.iter().map(|g| g.1).collect();
        tally.check(*got == want);
    }
    let cache = &report.cache;
    let lookups = cache.hits + cache.misses;
    let l = &mut run.layers;
    l.push(Metric::new(
        "corpus.open_ms",
        spans::total_secs(&spans, "corpus.open") / n * 1e3,
        "ms",
        "Corpus::open_dir",
    ));
    l.push(Metric::new(
        "corpus.decode_s",
        decode.wall_s,
        "s",
        "serial decode of every chunk",
    ));
    l.push(Metric::new(
        "corpus.sinks_s",
        sinks.wall_s,
        "s",
        "serial replay through the sweep's sinks",
    ));
    l.push(Metric::new(
        "corpus.budget_waits",
        report.budget.waits as f64,
        "count",
        "admissions that waited",
    ));
    l.push(Metric::new(
        "corpus.budget_peak_mib",
        report.budget.peak as f64 / (1024.0 * 1024.0),
        "MiB",
        format!(
            "in-flight limit {:.2} MiB",
            report.budget.limit as f64 / (1024.0 * 1024.0)
        ),
    ));
    l.push(Metric::new(
        "corpus.chunk_cache_hits",
        cache.hits as f64,
        "count",
        "",
    ));
    l.push(Metric::new(
        "corpus.chunk_cache_misses",
        cache.misses as f64,
        "count",
        "",
    ));
    l.push(Metric::new(
        "corpus.chunk_cache_hit_ratio",
        cache.hits as f64 / lookups.max(1) as f64,
        "1",
        format!("of {lookups} lookups"),
    ));
    run.attribution = ["corpus.open", "corpus.sweep"]
        .iter()
        .map(|name| (name.to_string(), spans::total_secs(&spans, name) / n))
        .collect();
    Ok(())
}
