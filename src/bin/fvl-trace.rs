//! `fvl-trace` — record, inspect, and simulate workload traces.
//!
//! ```text
//! fvl-trace record <workload> <file> [--input test|train|ref] [--seed N]
//! fvl-trace info <file>
//! fvl-trace simulate <file> [--kb N] [--line N] [--assoc N] [--fvc ENTRIES] [--values K]
//! ```
//!
//! Traces are `FVLTRC22` files, the one format every tool in this
//! repository writes and reads: `record` writes them with
//! `fvl::mem::PackedTrace::write_v22_to`, and `info` and `simulate`
//! load them with `fvl::mem::MappedTrace`. Files from `corpus gen` and
//! conformance repros load here too, a recorded file can be simulated
//! by `corpus sim` or uploaded to a daemon, and externally collected
//! traces can be converted and fed to the simulators.

use fvl::cache::{CacheGeometry, CacheSim, Simulator};
use fvl::core::{FrequentValueSet, HybridCache, HybridConfig};
use fvl::mem::{MappedTrace, PackedTrace, TraceBuffer, TracedMemory};
use fvl::profile::ValueCounter;
use fvl::workloads::{by_name, InputSize};
use std::fs::File;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fvl-trace record <workload> <file> [--input test|train|ref] [--seed N]\n  \
         fvl-trace info <file>\n  \
         fvl-trace simulate <file> [--kb N] [--line N] [--assoc N] [--fvc ENTRIES] [--values K]"
    );
    ExitCode::FAILURE
}

struct Flags {
    input: InputSize,
    seed: u64,
    kb: u64,
    line: u32,
    assoc: u32,
    fvc: Option<u32>,
    values: usize,
}

fn parse_flags(args: &[String]) -> Option<Flags> {
    let mut flags = Flags {
        input: InputSize::Ref,
        seed: 1,
        kb: 16,
        line: 32,
        assoc: 1,
        fvc: None,
        values: 7,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut next = || it.next().cloned();
        match arg.as_str() {
            "--input" => {
                flags.input = match next()?.as_str() {
                    "test" => InputSize::Test,
                    "train" => InputSize::Train,
                    "ref" => InputSize::Ref,
                    _ => return None,
                }
            }
            "--seed" => flags.seed = next()?.parse().ok()?,
            "--kb" => flags.kb = next()?.parse().ok()?,
            "--line" => flags.line = next()?.parse().ok()?,
            "--assoc" => flags.assoc = next()?.parse().ok()?,
            "--fvc" => flags.fvc = Some(next()?.parse().ok()?),
            "--values" => flags.values = next()?.parse().ok()?,
            _ => return None,
        }
    }
    Some(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (positional, flag_args): (Vec<_>, Vec<_>) = {
        let mut pos = Vec::new();
        let mut rest = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if a.starts_with("--") {
                rest.push(a.clone());
                if let Some(v) = it.peek() {
                    if !v.starts_with("--") {
                        rest.push(it.next().expect("peeked").clone());
                    }
                }
            } else {
                pos.push(a.clone());
            }
        }
        (pos, rest)
    };
    let Some(flags) = parse_flags(&flag_args) else {
        return usage();
    };

    match positional.as_slice() {
        [cmd, name, path] if cmd == "record" => {
            let Some(mut workload) = by_name(name, flags.input, flags.seed) else {
                eprintln!("unknown workload {name}");
                return usage();
            };
            let mut buf = TraceBuffer::new();
            {
                let mut mem = TracedMemory::new(&mut buf);
                workload.run(&mut mem);
                mem.finish();
            }
            let trace = buf.into_packed();
            let file = match File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot create {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = trace.write_v22_to(file) {
                eprintln!("write failed: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "recorded {} accesses from {name} into {path}",
                trace.accesses()
            );
            ExitCode::SUCCESS
        }
        [cmd, path] if cmd == "info" => {
            let trace = match load(path) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let mut counter = ValueCounter::new();
            trace.replay(&mut counter);
            println!(
                "{path}: {} events, {} accesses",
                trace.len(),
                trace.accesses()
            );
            println!(
                "  {} loads / {} stores, {} distinct values",
                counter.loads(),
                counter.stores(),
                counter.distinct_values()
            );
            println!("  top-10 accessed values:");
            for (i, v) in counter.top_k(10).iter().enumerate() {
                println!(
                    "    {:>2}. {v:#010x}  {:5.2}%",
                    i + 1,
                    counter.count_of(*v) as f64 / counter.total() as f64 * 100.0
                );
            }
            ExitCode::SUCCESS
        }
        [cmd, path] if cmd == "simulate" => {
            let trace = match load(path) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let geom = match CacheGeometry::new(flags.kb * 1024, flags.line, flags.assoc) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("bad geometry: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut sim = CacheSim::new(geom);
            trace.replay(&mut sim);
            println!("{:<40} {}", sim.label(), sim.stats());
            if let Some(entries) = flags.fvc {
                let mut counter = ValueCounter::new();
                trace.replay(&mut counter);
                let values = match FrequentValueSet::from_ranking(&counter.ranking(), flags.values)
                {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("cannot build value set: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let mut hybrid = HybridCache::new(HybridConfig::new(geom, entries, values));
                trace.replay(&mut hybrid);
                println!(
                    "{:<40} {} ({:+.1}% misses)",
                    hybrid.label(),
                    hybrid.stats(),
                    -hybrid.stats().miss_reduction_vs(sim.stats())
                );
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn load(path: &str) -> Result<PackedTrace, ExitCode> {
    MappedTrace::open(Path::new(path))
        .and_then(|trace| trace.to_packed())
        .map_err(|e| {
            eprintln!("cannot load {path}: {e}");
            ExitCode::FAILURE
        })
}
