//! The engine's core guarantee: rendered experiment output is
//! bit-identical no matter how many workers shard the cells, and on a
//! multi-core machine the sharding actually buys wall-clock time.

use fvl_bench::engine::Engine;
use fvl_bench::experiments::{self, Runner};
use fvl_bench::ExperimentContext;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn runner(name: &str) -> Runner {
    experiments::all()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown experiment {name}"))
        .1
}

fn smoke_ctx(jobs: usize) -> ExperimentContext {
    ExperimentContext::smoke().with_engine(Arc::new(Engine::new(jobs)))
}

fn render(name: &str, jobs: usize) -> String {
    runner(name)(&smoke_ctx(jobs)).to_string()
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    for name in ["fig1", "fig9", "table1", "fig10", "table2", "verify"] {
        let serial = render(name, 1);
        for jobs in [2, 4, 7] {
            let parallel = render(name, jobs);
            assert_eq!(
                serial, parallel,
                "{name} diverged between --serial and --jobs {jobs}"
            );
        }
    }
}

#[test]
fn every_experiment_is_deterministic_across_worker_counts() {
    // A cheaper sweep over the full registry: two worker counts only.
    for (name, run) in experiments::all() {
        if name == "verify" {
            continue; // covered (more thoroughly) above
        }
        let serial = run(&smoke_ctx(1)).to_string();
        let parallel = run(&smoke_ctx(3)).to_string();
        assert_eq!(serial, parallel, "{name} diverged at 3 workers");
    }
}

/// A wall-clock speed-up assertion: beside other test binaries on two
/// vCPUs the parallel run can lose to the serial one, so the test is
/// ignored by default and CI runs it alone with `--ignored`.
#[test]
#[ignore = "timing-sensitive: fails beside other test binaries on 2 vCPUs; CI runs it alone"]
fn parallel_smoke_run_is_faster_on_multicore() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Cell-heavy experiments where sharding has something to grab.
    let names = ["fig10", "fig12", "ext3"];
    let time = |jobs: usize| -> Duration {
        let ctx = smoke_ctx(jobs);
        let start = Instant::now();
        for name in names {
            let _ = runner(name)(&ctx);
        }
        start.elapsed()
    };
    let _warmup = time(1);
    let serial = time(1);
    let parallel = time(cores);
    eprintln!(
        "smoke timing over {names:?}: serial {serial:.2?}, {cores}-way parallel {parallel:.2?}"
    );
    if cores >= 2 {
        assert!(
            parallel < serial,
            "sharding across {cores} cores should beat the serial run: \
             serial {serial:?}, parallel {parallel:?}"
        );
    }
}
