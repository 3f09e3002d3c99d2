//! CLI for out-of-core trace corpora.
//!
//! ```text
//! corpus gen <dir> [--traces N] [--accesses N] [--seed N] [--chunk-accesses N]
//! corpus sweep <dir> [--budget-bytes N]
//!              [--metrics FILE] [--metrics-csv FILE] [--metrics-timing]
//! corpus sim <file> [--size N] [--line N] [--assoc N] [--write back|through]
//!            [--policy P] [--remote ADDR]
//! ```
//!
//! `sim` replays one trace file (any FVLTRC format) against one cache
//! configuration and prints four counter lines; with `--remote ADDR`
//! the file is uploaded to an `fvl-serve` daemon and simulated there,
//! with byte-identical stdout (CI diffs the two modes).
//!
//! `gen` writes a directory of deterministic synthetic chunk-indexed
//! v2.2 trace files. `sweep` opens every `*.fvltrc` file in the
//! directory as a [`fvl_mem::MappedTrace`] (nothing is memory-mapped)
//! and runs the one-pass corpus sweep: each chunk is read with one
//! positioned read and decoded once, and that decode feeds the column
//! digest, the cache simulations and the reuse-distance curve. Chunk
//! read buffers and decoded columns stay under `--budget-bytes`.
//!
//! Sweep reports go to stdout and do not depend on the budget — CI
//! diffs a 256 KiB sweep against a default-budget one. Residency
//! accounting is scheduling-dependent, so it goes to stderr and, with
//! `--metrics-timing`, into a `corpus` block of the JSON export.

use fvl_bench::corpus::{
    sweep_corpus, Corpus, CorpusReport, DEFAULT_BUDGET_BYTES, SWEEP_GEOMETRIES,
};
use fvl_bench::engine::{CellId, ClassStats, Completed, Engine};
use fvl_bench::metrics::{self, RunInfo};
use fvl_bench::remote;
use fvl_mem::CHUNK_ACCESSES;
use fvl_obs::Json;
use fvl_profile::TOWER_LEVELS;
use std::path::PathBuf;
use std::process::ExitCode;

/// Class labels for the reuse-curve levels in the metrics export
/// (aligned with `fvl_bench::experiments::ext6::CAPACITY_LABELS`).
const CURVE_CLASSES: [&str; TOWER_LEVELS] = [
    "tower-32B",
    "tower-64B",
    "tower-128B",
    "tower-256B",
    "tower-512B",
    "tower-1KB",
    "tower-2KB",
    "tower-4KB",
    "tower-8KB",
    "tower-16KB",
    "tower-32KB",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: corpus gen <dir> [--traces N] [--accesses N] [--seed N] [--chunk-accesses N]\n\
         \x20      corpus sweep <dir> [--budget-bytes N]\n\
         \x20                  [--metrics FILE] [--metrics-csv FILE] [--metrics-timing]\n\
         gen writes N synthetic chunk-indexed v2.2 traces into <dir>\n\
         sweep reads every *.fvltrc in <dir> once, chunk by chunk, keeping chunk\n\
         \x20     read buffers and decoded columns under --budget-bytes\n\
         \x20     (default {DEFAULT_BUDGET_BYTES}); stdout does not depend on the budget\n\
         --metrics FILE writes the versioned JSON export; --metrics-timing adds\n\
         \x20     the scheduling-dependent corpus/residency block\n\
         \x20      corpus sim <file> [--size N] [--line N] [--assoc N]\n\
         \x20                [--write back|through] [--policy P] [--remote ADDR]\n\
         sim replays one trace file against one cache configuration (defaults\n\
         \x20     1024B/16B/1-way write-back LRU); --remote runs it on an\n\
         \x20     fvl-serve daemon with byte-identical stdout"
    );
    ExitCode::FAILURE
}

fn gen(dir: PathBuf, mut iter: std::vec::IntoIter<String>) -> ExitCode {
    let mut traces = 4usize;
    let mut accesses = 200_000u64;
    let mut seed = 1u64;
    let mut chunk_accesses = CHUNK_ACCESSES;
    while let Some(arg) = iter.next() {
        let value = iter.next();
        match (arg.as_str(), value.and_then(|v| v.parse::<u64>().ok())) {
            ("--traces", Some(n)) if n >= 1 => traces = n as usize,
            ("--accesses", Some(n)) => accesses = n,
            ("--seed", Some(s)) => seed = s,
            ("--chunk-accesses", Some(c)) if (1..=u32::MAX as u64).contains(&c) => {
                chunk_accesses = c as u32
            }
            _ => return usage(),
        }
    }
    match fvl_bench::corpus::write_synthetic_corpus(&dir, traces, accesses, seed, chunk_accesses) {
        Ok(paths) => {
            for path in &paths {
                let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                println!("wrote {} ({bytes} bytes)", path.display());
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: cannot write corpus to {}: {err}", dir.display());
            ExitCode::FAILURE
        }
    }
}

/// Renders the deterministic sweep report to stdout.
fn print_report(corpus: &Corpus, report: &CorpusReport) {
    println!(
        "# corpus sweep: {} trace{}, {} accesses, {} chunks, {} bytes on disk\n",
        corpus.len(),
        if corpus.len() == 1 { "" } else { "s" },
        corpus.total_accesses(),
        corpus.total_chunks(),
        corpus.total_file_bytes(),
    );
    for s in &report.summaries {
        println!(
            "trace {}: accesses={} stores={} chunks={} digest={:016x}",
            s.name, s.accesses, s.stores, s.chunks, s.digest
        );
        let rates: Vec<String> = s
            .geometries
            .iter()
            .map(|(label, stats)| format!("{label} {:.4}%", stats.miss_rate() * 100.0))
            .collect();
        println!("  miss: {}", rates.join(" | "));
        let curve: Vec<String> = s
            .curve
            .points
            .iter()
            .map(|p| format!("{}B {:.4}%", p.capacity_bytes, p.miss_rate * 100.0))
            .collect();
        println!("  curve: {}", curve.join(" | "));
    }
}

/// Residency accounting for the timing-gated `corpus` metrics block.
fn corpus_block(corpus: &Corpus, report: &CorpusReport) -> Json {
    let b = &report.budget;
    Json::object([
        ("files", Json::U64(corpus.len() as u64)),
        ("total_chunks", Json::U64(corpus.total_chunks())),
        ("total_accesses", Json::U64(corpus.total_accesses())),
        ("file_bytes", Json::U64(corpus.total_file_bytes())),
        ("budget_limit", Json::U64(b.limit)),
        ("resident_peak", Json::U64(b.peak)),
        ("waits", Json::U64(b.waits)),
        ("admissions", Json::U64(b.admissions)),
        ("admitted_bytes", Json::U64(b.admitted_bytes)),
    ])
}

fn sweep(dir: PathBuf, mut iter: std::vec::IntoIter<String>) -> ExitCode {
    let mut budget_bytes = DEFAULT_BUDGET_BYTES;
    let mut metrics_json: Option<String> = None;
    let mut metrics_csv: Option<String> = None;
    let mut metrics_timing = false;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--metrics-timing" => metrics_timing = true,
            "--budget-bytes" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(n) => budget_bytes = n,
                None => return usage(),
            },
            "--metrics" => match iter.next() {
                Some(path) => metrics_json = Some(path),
                None => return usage(),
            },
            "--metrics-csv" => match iter.next() {
                Some(path) => metrics_csv = Some(path),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let corpus = match Corpus::open_dir(&dir) {
        Ok(corpus) => corpus,
        Err(err) => {
            eprintln!("error: cannot open corpus {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    if corpus.is_empty() {
        eprintln!("error: no *.fvltrc files in {}", dir.display());
        return ExitCode::FAILURE;
    }
    let report = match sweep_corpus(&corpus, budget_bytes) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: corpus sweep failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    print_report(&corpus, &report);

    // Diagnostics: scheduling-dependent, stderr only.
    let b = &report.budget;
    eprintln!(
        "residency: budget={} peak={} waits={} admissions={} admitted={} bytes",
        b.limit, b.peak, b.waits, b.admissions, b.admitted_bytes,
    );

    // Re-record the summaries as engine cells so the corpus export
    // reuses the experiments' versioned metrics schema.
    if metrics_json.is_some() || metrics_csv.is_some() {
        let engine = Engine::serial();
        // Each access is charged once per consumer: the digest fold,
        // the reuse profiler and every sweep geometry.
        let replays = 2 + SWEEP_GEOMETRIES.len() as u64;
        engine.cells((0..report.summaries.len()).collect::<Vec<_>>(), |i| {
            let s = &report.summaries[i];
            let mut done = Completed::new((), replays * s.accesses).at(CellId::new(
                "corpus",
                s.name.clone(),
                "sweep",
            ));
            for (label, stats) in &s.geometries {
                done.classes.push(ClassStats::from_stats(label, stats));
            }
            for (label, point) in CURVE_CLASSES.iter().zip(&s.curve.points) {
                done.classes
                    .push(ClassStats::new(label, point.hits, point.misses));
            }
            done
        });
        if let Some(path) = metrics_json {
            let run = RunInfo::new(dir.display().to_string(), 0, false);
            let doc = metrics::json_report_with_extra(
                &engine,
                &run,
                None,
                metrics_timing,
                Some(("corpus", corpus_block(&corpus, &report))),
            );
            let mut body = doc.render_pretty();
            body.push('\n');
            if let Err(err) = std::fs::write(&path, body) {
                eprintln!("error: cannot write metrics file {path}: {err}");
                return ExitCode::FAILURE;
            }
            eprintln!("metrics: wrote {path}");
        }
        if let Some(path) = metrics_csv {
            if let Err(err) = std::fs::write(&path, metrics::csv_report(&engine)) {
                eprintln!("error: cannot write metrics CSV {path}: {err}");
                return ExitCode::FAILURE;
            }
            eprintln!("metrics: wrote {path}");
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        return usage();
    }
    let command = args.remove(0);
    let dir = PathBuf::from(args.remove(0));
    let iter = args.into_iter();
    match command.as_str() {
        "gen" => gen(dir, iter),
        "sweep" => sweep(dir, iter),
        "sim" => sim(dir, iter),
        _ => usage(),
    }
}

/// `corpus sim <file>`: one trace file, one cache configuration, four
/// counter lines on stdout. With `--remote` the trace is uploaded to
/// an `fvl-serve` daemon and simulated there; the daemon runs the same
/// `fvl_bench::remote::simulate_packed` code this binary runs locally,
/// so the stdout bytes are identical either way — CI diffs them.
fn sim(file: PathBuf, mut iter: std::vec::IntoIter<String>) -> ExitCode {
    let mut config = String::new();
    let mut addr: Option<String> = None;
    while let Some(arg) = iter.next() {
        let key = match arg.as_str() {
            "--size" => "size",
            "--line" => "line",
            "--assoc" => "assoc",
            "--write" => "write",
            "--policy" => "policy",
            "--remote" => {
                match iter.next() {
                    Some(a) => addr = Some(a),
                    None => return usage(),
                }
                continue;
            }
            _ => return usage(),
        };
        match iter.next() {
            Some(v) => config.push_str(&format!("{key}={v}\n")),
            None => return usage(),
        }
    }
    let bytes = match std::fs::read(&file) {
        Ok(bytes) => bytes,
        Err(err) => {
            eprintln!("error: cannot read {}: {err}", file.display());
            return ExitCode::FAILURE;
        }
    };
    let body = match addr {
        None => {
            let trace = match remote::parse_trace_bytes(&bytes) {
                Ok(trace) => trace,
                Err(err) => {
                    eprintln!("error: {}: not a readable trace: {err}", file.display());
                    return ExitCode::FAILURE;
                }
            };
            match remote::simulate_packed(&trace, &config) {
                Ok(body) => body,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
        Some(addr) => {
            let spec = remote::SessionSpec::smoke(
                &std::env::var("FVL_TENANT").unwrap_or_else(|_| "cli".to_string()),
            );
            let mut client =
                match remote::RemoteClient::connect(&addr, &spec, remote::DEFAULT_TIMEOUT) {
                    Ok(client) => client,
                    Err(err) => {
                        eprintln!("error: cannot open session on {addr}: {err}");
                        return ExitCode::FAILURE;
                    }
                };
            let outcome = client
                .upload_trace(&bytes)
                .and_then(|_| client.simulate(&config));
            let kv = match outcome {
                Ok(kv) => kv,
                Err(err) => {
                    eprintln!("error: remote simulation failed: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let _ = client.bye();
            kv.iter()
                .map(|(k, v)| format!("{k}={v}\n"))
                .collect::<String>()
        }
    };
    print!("{body}");
    ExitCode::SUCCESS
}
