//! End-to-end and per-layer benchmark of the simulator stack.
//!
//! ```text
//! fvl-perfbench --workload <paper-quick|corpus-sweep|serve-mixed>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload sets up its inputs from the seed several times (the
//! median is `setup_s`), then repeats one fixed unit of work — an
//! *iteration* — back to back until `--seconds` have passed, and
//! reports medians over the iterations. Every output is checked; the
//! last line of stdout is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The traced run
//! alternates untraced and traced iterations, prints the per-layer
//! table and the `wall_s` attribution, and writes its spans to
//! `.bench_work/spans-<workload>-<seed>.jsonl`. See `perfbench/README.md`.

mod corpus;
mod expected;
mod measure;
mod micro;
mod paper;
mod serve;
mod spans;

use fvl_obs::Json;
use measure::{median, Sample};
use spans::Tracer;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The end-to-end metrics the result line carries with `--trace 0`, in
/// order; BENCHMARK.json lists the same names.
const END_TO_END: [&str; 5] = ["setup_s", "wall_s", "cpu_s", "refs_per_s", "peak_rss_mib"];

/// The per-layer metrics the result line carries with `--trace 1`;
/// BENCHMARK.json lists the same names. They come from the micro
/// phase, which measures them identically on every workload.
const PER_LAYER: [&str; 17] = [
    "replay.null_scalar.ns_per_access",
    "replay.null_avx2.ns_per_access",
    "sink.cachesim_dm.ns_per_access",
    "sink.cachesim_4way.ns_per_access",
    "sink.cachesim_rand_wt.ns_per_access",
    "sink.hybrid.ns_per_access",
    "sink.online.ns_per_access",
    "sink.compressed.ns_per_access",
    "sink.victim.ns_per_access",
    "sink.value_counter.ns_per_access",
    "sink.occurrence.ns_per_access",
    "sink.reuse.ns_per_access",
    "codec.encode_v22.ns_per_event",
    "codec.decode_v22.ns_per_event",
    "codec.v22_bytes_per_event",
    "codec.parse_upload.ns_per_event",
    "capture.ns_per_access",
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the iterations run.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?.max(1)),
            trace: trace.unwrap_or(false),
        })
    }
}

const WORKLOADS: [&str; 3] = ["paper-quick", "corpus-sweep", "serve-mixed"];

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// What the value is, printed beside it.
    pub note: String,
}

impl Metric {
    /// A metric with a note.
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// Tally of checked operations.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or were wrong.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

/// What one workload's run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Untraced iterations.
    pub untraced: Vec<Sample>,
    /// Traced iterations (traced run only).
    pub traced: Vec<Sample>,
    /// Simulated references per iteration.
    pub refs: u64,
    /// How `refs` is counted.
    pub refs_note: String,
    /// Checked operations.
    pub tally: Tally,
    /// End-to-end metrics only this workload has.
    pub extra: Vec<Metric>,
    /// Per-layer metrics of the workload's own layers (traced run).
    pub layers: Vec<Metric>,
    /// Mean seconds per traced iteration spent in each top-level span.
    pub attribution: Vec<(String, f64)>,
}

/// Runs `iteration` back to back until `seconds` have passed. The
/// untraced run runs it at least once; the traced run alternates an
/// untraced and a traced iteration and runs at least one of each. The
/// closure gets the tracer to record into, which records nothing on
/// untraced iterations. Each iteration starts with a trimmed heap and
/// a reset peak-RSS counter, so its sample's `peak_rss_mib` is its own
/// peak.
pub fn iterate(
    args: &Args,
    traced: &Tracer,
    mut iteration: impl FnMut(&Tracer) -> Sample,
) -> (Vec<Sample>, Vec<Sample>) {
    let untraced = Tracer::new(false);
    let start = Instant::now();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    loop {
        let trace_this = args.trace && off.len() > on.len();
        measure::release_free_memory();
        measure::reset_peak_rss();
        let sample = iteration(if trace_this { traced } else { &untraced });
        eprintln!(
            "iteration {}{}: wall {:.4} s, cpu {:.4} s, peak {:.1} MiB",
            off.len() + on.len() + 1,
            if trace_this { " (traced)" } else { "" },
            sample.wall_s,
            sample.cpu_s,
            sample.peak_rss_mib
        );
        if trace_this {
            on.push(sample);
        } else {
            off.push(sample);
        }
        let enough = !off.is_empty() && (!args.trace || !on.is_empty());
        if enough && start.elapsed() >= args.seconds {
            return (off, on);
        }
    }
}

/// The directory runs write their inputs and spans into.
const WORK_DIR: &str = ".bench_work";

/// Worker threads and client connections the workloads use: two, or
/// fewer on a smaller host.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn run(args: &Args, tracer: &Tracer, scratch: &Path) -> std::io::Result<Run> {
    match args.workload.as_str() {
        "paper-quick" => Ok(paper::run(args, tracer)),
        "corpus-sweep" => corpus::run(args, tracer, scratch),
        "serve-mixed" => serve::run(args, tracer, scratch),
        _ => unreachable!("workload names are checked while parsing"),
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 1e7) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("\n{title}");
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        println!(
            "  {:<width$}  {:>14}  {:<6}  {}",
            m.name,
            fmt_value(m.value),
            m.unit,
            m.note
        );
    }
}

fn json_line(tally: Tally, metrics: &[&Metric]) -> String {
    let metrics = metrics.iter().map(|m| {
        let value = Json::object([("value", Json::F64(m.value)), ("unit", Json::from(m.unit))]);
        (m.name.clone(), value)
    });
    Json::object([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::U64(tally.attempted)),
        ("failed", Json::U64(tally.failed)),
        ("metrics", Json::object(metrics)),
    ])
    .render()
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let wall: Vec<f64> = run.untraced.iter().map(|s| s.wall_s).collect();
    let cpu: Vec<f64> = run.untraced.iter().map(|s| s.cpu_s).collect();
    let peak: Vec<f64> = run.untraced.iter().map(|s| s.peak_rss_mib).collect();
    let n = run.untraced.len();
    let wall_s = median(&wall);
    let failed_ratio = run.tally.failed as f64 / run.tally.attempted.max(1) as f64;
    let mut out = vec![
        Metric::new(
            "setup_s",
            median(&run.setup_s),
            "s",
            format!("median of {} set-ups", run.setup_s.len()),
        ),
        Metric::new("wall_s", wall_s, "s", format!("median of {n} iterations")),
        Metric::new(
            "cpu_s",
            median(&cpu),
            "s",
            format!("user+sys, median of {n} iterations"),
        ),
        Metric::new(
            "refs_per_s",
            run.refs as f64 / wall_s,
            "1/s",
            format!("{} refs per iteration: {}", run.refs, run.refs_note),
        ),
        Metric::new(
            "peak_rss_mib",
            median(&peak),
            "MiB",
            format!("VmHWM of each iteration, median of {n} iterations"),
        ),
        Metric::new(
            "failed_ratio",
            failed_ratio,
            "1",
            format!(
                "{} of {} checked operations failed",
                run.tally.failed, run.tally.attempted
            ),
        ),
    ];
    out.extend(run.extra.iter().cloned());
    out
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("fvl-perfbench: {msg}");
            eprintln!(
                "usage: fvl-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let level = fvl_mem::simd::active_level();
    let work = Path::new(WORK_DIR);
    let scratch = work.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&scratch) {
        eprintln!("fvl-perfbench: cannot create {}: {err}", scratch.display());
        return ExitCode::FAILURE;
    }
    let tracer = Tracer::new(args.trace);
    let result = run(&args, &tracer, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut run = match result {
        Ok(run) => run,
        Err(err) => {
            eprintln!("fvl-perfbench: {} failed: {err}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for (k, secs) in run.setup_s.iter().enumerate() {
        eprintln!("set-up {}: wall {secs:.4} s", k + 1);
    }

    println!(
        "# fvl-perfbench {} seed={} seconds={} trace={} workers={} simd={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        workers(),
        level.label()
    );
    let e2e = end_to_end(&run);
    print_table("end-to-end (untraced iterations)", &e2e);

    let mut layers = Vec::new();
    if args.trace {
        layers = micro::run(&args, &tracer, &mut run.tally);
        layers.extend(run.layers.iter().cloned());
        print_table("per-layer (traced run)", &layers);
        print_attribution(&run);
        let spans_path = work.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&spans_path) {
            Ok(()) => println!(
                "\nspans: {} written to {}",
                tracer.spans().len(),
                spans_path.display()
            ),
            Err(err) => {
                eprintln!(
                    "fvl-perfbench: cannot write {}: {err}",
                    spans_path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let (names, pool): (&[&str], &[Metric]) = if args.trace {
        (&PER_LAYER, &layers)
    } else {
        (&END_TO_END, &e2e)
    };
    let selected: Vec<&Metric> = names
        .iter()
        .map(|name| {
            pool.iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
        })
        .collect();
    println!("{}", json_line(run.tally, &selected));
    ExitCode::SUCCESS
}

fn print_attribution(run: &Run) {
    let traced: Vec<f64> = run.traced.iter().map(|s| s.wall_s).collect();
    let untraced: Vec<f64> = run.untraced.iter().map(|s| s.wall_s).collect();
    let wall = traced.iter().sum::<f64>() / traced.len().max(1) as f64;
    println!(
        "\nwall_s attribution (mean of {} traced iterations; set-up is outside wall_s)",
        traced.len()
    );
    println!(
        "  {:<28} {:>10.4} s",
        "set-up (median, not in wall)",
        median(&run.setup_s)
    );
    let mut attributed = 0.0;
    for (name, secs) in &run.attribution {
        attributed += secs;
        println!(
            "  {name:<28} {secs:>10.4} s  {:>5.1} %",
            100.0 * secs / wall
        );
    }
    let rest = wall - attributed;
    println!(
        "  {:<28} {rest:>10.4} s  {:>5.1} %",
        "unattributed",
        100.0 * rest / wall
    );
    println!("  {:<28} {wall:>10.4} s", "wall_s (traced)");
    println!(
        "tracing overhead: {:+.4} s per iteration (median traced {:.4} s - median untraced {:.4} s)",
        median(&traced) - median(&untraced),
        median(&traced),
        median(&untraced)
    );
}
