//! CLI regenerating the paper's tables and figures.
//!
//! ```text
//! experiments <name>... [--quick|--train|--smoke] [--seed N] [--jobs N|--serial]
//!             [--metrics FILE] [--metrics-csv FILE] [--metrics-timing]
//!             [--remote ADDR]
//! experiments all [--smoke]
//! experiments list
//! ```
//!
//! With `--remote ADDR` (`host:port` or `unix:PATH`) the binary runs
//! the same experiment list as a thin client of an `fvl-serve` daemon:
//! one session, one job per experiment, report bytes streamed straight
//! to stdout. Stdout and the plain `--metrics` export are byte-
//! identical to the local run with the same (input, seed, smoke)
//! knobs — CI diffs them. The engine knob `--jobs` does not apply
//! remotely (the daemon owns its engine) and is ignored with a note on
//! stderr.
//!
//! Reports go to stdout; timing, engine-throughput, trace-store,
//! profile-store and simulation-memo lines go to stderr, so stdout is
//! bit-identical for any `--jobs` count. The `--metrics` export is
//! deterministic too, unless `--metrics-timing` opts into wall-clock
//! and cache hit/miss fields (see `fvl_bench::metrics`).
//!
//! A run exits 1, after printing every report and writing the
//! exports, when an experiment's cross-check between two independent
//! computations disagrees (ext6's one-pass tower against `CacheSim`),
//! or when `verify` finds a headline claim failing on uncapped
//! captures (`--smoke` runs are exempt). A `--remote` run reads the
//! verdict from each job's `Done` frame and exits the same way.

use fvl_bench::engine::Engine;
use fvl_bench::experiments;
use fvl_bench::metrics::{self, RunInfo};
use fvl_bench::remote;
use fvl_bench::ExperimentContext;
use fvl_workloads::InputSize;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <name>... [--quick|--train|--smoke] [--seed N] [--jobs N|--serial]\n\
         \x20                        [--metrics FILE] [--metrics-csv FILE] [--metrics-timing]\n\
         names: {} | all | list\n\
         --quick uses test inputs (seconds); default is reference inputs (minutes)\n\
         --smoke truncates every test-input trace to ~1000 references (CI)\n\
         --jobs N shards simulation cells over N workers (default: all cores); --serial = --jobs 1\n\
         --metrics FILE writes a versioned JSON metrics export (deterministic across --jobs)\n\
         --metrics-csv FILE writes the per-cell log as CSV\n\
         --metrics-timing adds wall-clock/throughput/cache-counter fields to the JSON export\n\
         --remote ADDR runs the jobs on an fvl-serve daemon (host:port or unix:PATH);\n\
         \x20             stdout and plain --metrics stay byte-identical to the local run",
        experiments::all()
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(" | ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let mut input = InputSize::Ref;
    let mut seed = 1u64;
    let mut smoke = false;
    let mut jobs: Option<usize> = None;
    let mut metrics_json: Option<String> = None;
    let mut metrics_csv: Option<String> = None;
    let mut metrics_timing = false;
    let mut remote: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => input = InputSize::Test,
            "--train" => input = InputSize::Train,
            "--smoke" => {
                input = InputSize::Test;
                smoke = true;
            }
            "--serial" => jobs = Some(1),
            "--jobs" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => return usage(),
            },
            "--seed" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
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
            "--metrics-timing" => metrics_timing = true,
            "--remote" => match iter.next() {
                Some(addr) => remote = Some(addr),
                None => return usage(),
            },
            "list" => {
                for (name, _) in experiments::all() {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => return usage(),
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        return usage();
    }
    let registry = experiments::all();
    let selected: Vec<_> = if names.iter().any(|n| n == "all") {
        registry
    } else {
        let mut picked = Vec::new();
        for name in &names {
            match registry.iter().find(|(n, _)| n == name) {
                Some(&entry) => picked.push(entry),
                None => {
                    eprintln!("unknown experiment: {name}");
                    return usage();
                }
            }
        }
        picked
    };

    if let Some(addr) = remote {
        if jobs.is_some() {
            eprintln!("note: the engine knob --jobs is daemon-side; ignored with --remote");
        }
        if metrics_timing {
            eprintln!("note: --metrics-timing is local-only; the daemon exports plain metrics");
        }
        let selected: Vec<&'static str> = selected.iter().map(|&(n, _)| n).collect();
        return run_remote(
            &addr,
            &selected,
            input,
            seed,
            smoke,
            metrics_json.as_deref(),
            metrics_csv.as_deref(),
        );
    }

    let engine = Arc::new(match jobs {
        Some(n) => Engine::new(n),
        None => Engine::auto(),
    });
    let ctx = ExperimentContext::default()
        .with_input(input)
        .with_seed(seed)
        .with_max_refs(smoke.then_some(fvl_bench::data::SMOKE_REFS))
        .with_engine(Arc::clone(&engine));
    println!(
        "# FVC reproduction experiments ({} inputs{}, seed {seed})\n",
        match input {
            InputSize::Test => "test",
            InputSize::Train => "train",
            InputSize::Ref => "reference",
        },
        if smoke { ", smoke" } else { "" },
    );
    let mut failed_checks = Vec::new();
    for (name, runner) in selected {
        let start = Instant::now();
        let report = runner(&ctx);
        println!("{report}");
        eprintln!("{name} completed in {:.1?}", start.elapsed());
        if report.cross_check_failed {
            failed_checks.push(name);
        }
    }
    eprintln!(
        "engine: {} worker{} — {}",
        engine.jobs(),
        if engine.jobs() == 1 { "" } else { "s" },
        engine.throughput(),
    );
    let store = ctx.store();
    let traces = store.stats();
    eprintln!(
        "trace store: {} distinct capture{}, {} executed ({} stopped at the budget), \
         {} served from cache",
        traces.len(),
        if traces.len() == 1 { "" } else { "s" },
        traces.iter().map(|s| s.misses).sum::<u64>(),
        traces.iter().map(|s| s.stopped).sum::<u64>(),
        traces.iter().map(|s| s.hits).sum::<u64>(),
    );
    let profiles = store.profile_stats();
    eprintln!(
        "profile store: {} distinct key{}, {} profiled without a trace ({} stopped at the \
         budget), {} served from cache",
        profiles.len(),
        if profiles.len() == 1 { "" } else { "s" },
        profiles.iter().map(|s| s.misses).sum::<u64>(),
        profiles.iter().map(|s| s.stopped).sum::<u64>(),
        profiles.iter().map(|s| s.hits).sum::<u64>(),
    );
    let sims = store.sim_totals();
    eprintln!(
        "sim memo: {} distinct simulation{}, {} executed, {} served from memo \
         ({} of {} accesses replayed)",
        sims.distinct,
        if sims.distinct == 1 { "" } else { "s" },
        sims.executed,
        sims.served,
        sims.executed_accesses,
        sims.executed_accesses + sims.served_accesses,
    );
    let resident_events = store.resident_events();
    eprintln!(
        "trace repr: {} events resident in {} KiB ({:.2} bytes/event)",
        resident_events,
        store.resident_trace_bytes() / 1024,
        if resident_events == 0 {
            0.0
        } else {
            store.resident_trace_bytes() as f64 / resident_events as f64
        },
    );
    if let Some(path) = metrics_json {
        let run = RunInfo::new(
            match input {
                InputSize::Test => "test",
                InputSize::Train => "train",
                InputSize::Ref => "reference",
            },
            seed,
            smoke,
        );
        let doc = metrics::json_report_full(&engine, &run, Some(ctx.store()), metrics_timing);
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
    if !failed_checks.is_empty() {
        eprintln!("error: cross-check failed in {}", failed_checks.join(", "));
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Thin-client mode: the same experiment list as one daemon session,
/// one job per experiment, report bytes streamed verbatim to stdout.
/// The header is printed locally (the client knows the knobs), so the
/// full stdout matches the local run byte for byte.
#[allow(clippy::too_many_arguments)]
fn run_remote(
    addr: &str,
    names: &[&'static str],
    input: InputSize,
    seed: u64,
    smoke: bool,
    metrics_json: Option<&str>,
    metrics_csv: Option<&str>,
) -> ExitCode {
    let input_label = match input {
        InputSize::Test => "test",
        InputSize::Train => "train",
        InputSize::Ref => "reference",
    };
    let spec = remote::SessionSpec {
        tenant: std::env::var("FVL_TENANT").unwrap_or_else(|_| "cli".to_string()),
        input: input_label.to_string(),
        seed,
        smoke,
    };
    let mut client = match remote::RemoteClient::connect(addr, &spec, remote::DEFAULT_TIMEOUT) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("error: cannot open session on {addr}: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# FVC reproduction experiments ({input_label} inputs{}, seed {seed})\n",
        if smoke { ", smoke" } else { "" },
    );
    let stdout = std::io::stdout();
    let mut failed_checks = Vec::new();
    for &name in names {
        let start = Instant::now();
        match client.run_experiment(name, stdout.lock()) {
            Ok(summary) => {
                eprintln!(
                    "{name} completed in {:.1?} (remote, {} refs)",
                    start.elapsed(),
                    summary.references,
                );
                if summary.cross_check_failed {
                    failed_checks.push(name);
                }
            }
            Err(err) => {
                eprintln!("error: remote job {name} failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (path, format) in [(metrics_json, "json"), (metrics_csv, "csv")] {
        let Some(path) = path else { continue };
        match client.metrics(format) {
            Ok(body) => {
                if let Err(err) = std::fs::write(path, body) {
                    eprintln!("error: cannot write metrics file {path}: {err}");
                    return ExitCode::FAILURE;
                }
                eprintln!("metrics: wrote {path}");
            }
            Err(err) => {
                eprintln!("error: remote metrics export failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let _ = client.bye();
    if !failed_checks.is_empty() {
        eprintln!("error: cross-check failed in {}", failed_checks.join(", "));
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
