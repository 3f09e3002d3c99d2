//! The trace store's guarantees: one execution per distinct key and
//! latch no matter how many threads race for it, key separation by
//! every key component, profile-only requests that keep no trace, and
//! profiles that do not depend on which latch built them.

use fvl_bench::data::{Profiles, WorkloadData, SNAPSHOTS_PER_RUN};
use fvl_bench::engine::Engine;
use fvl_bench::experiments;
use fvl_bench::{ExperimentContext, TraceKey, TraceStore};
use fvl_profile::{OccurrenceSampler, ValueCounter};
use fvl_workloads::{by_name, InputSize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const CAP: Option<u64> = Some(200);

fn capture(name: &str, input: InputSize, seed: u64) -> WorkloadData {
    WorkloadData::capture_limited(by_name(name, input, seed).unwrap(), CAP)
}

fn profile(name: &str, input: InputSize, seed: u64) -> Profiles {
    Profiles::capture_limited(by_name(name, input, seed).unwrap(), CAP)
}

#[test]
fn concurrent_requests_share_one_execution() {
    let store = TraceStore::new();
    let executions = AtomicU64::new(0);
    let handles: Vec<Arc<WorkloadData>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    store.get_or_capture(TraceKey::new("li", InputSize::Test, 1, CAP), || {
                        executions.fetch_add(1, Ordering::SeqCst);
                        capture("li", InputSize::Test, 1)
                    })
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "eight racing threads must block on a single capture"
    );
    for h in &handles[1..] {
        assert!(Arc::ptr_eq(&handles[0], h), "all requests share one Arc");
    }
    assert_eq!(store.distinct_keys(), 1);
    assert_eq!(store.total_misses(), 1);
    assert_eq!(store.total_hits(), 7);
}

/// Eight threads behind a barrier on one key, half asking for the
/// trace and half for the profiles: each latch executes at most once,
/// and the trace latch exactly once.
#[test]
fn racing_trace_and_profile_requests_execute_once_per_latch() {
    let store = TraceStore::new();
    let key = TraceKey::new("go", InputSize::Test, 1, CAP);
    let (traces, profiles) = (AtomicU64::new(0), AtomicU64::new(0));
    let start = Barrier::new(8);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (store, key, start) = (&store, key.clone(), &start);
            let (traces, profiles) = (&traces, &profiles);
            scope.spawn(move || {
                start.wait();
                if t % 2 == 0 {
                    store.get_or_capture(key, || {
                        traces.fetch_add(1, Ordering::SeqCst);
                        capture("go", InputSize::Test, 1)
                    });
                } else {
                    store.get_or_profile(key, || {
                        profiles.fetch_add(1, Ordering::SeqCst);
                        profile("go", InputSize::Test, 1)
                    });
                }
            });
        }
    });
    let (traces, profiles) = (traces.into_inner(), profiles.into_inner());
    assert_eq!(traces, 1);
    assert!(profiles <= 1, "{profiles} profile executions");
    assert_eq!((store.total_misses(), store.total_hits()), (1, 3));
    let latch = &store.profile_stats()[0];
    assert_eq!((latch.misses, latch.hits), (profiles, 4 - profiles));
}

#[test]
fn racing_profile_requests_share_one_execution() {
    let store = TraceStore::new();
    let executions = AtomicU64::new(0);
    let start = Barrier::new(8);
    let handles: Vec<Arc<Profiles>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    store.get_or_profile(TraceKey::new("li", InputSize::Test, 1, CAP), || {
                        executions.fetch_add(1, Ordering::SeqCst);
                        profile("li", InputSize::Test, 1)
                    })
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(executions.into_inner(), 1);
    assert!(handles.iter().all(|h| Arc::ptr_eq(h, &handles[0])));
    assert_eq!(store.distinct_keys(), 0, "no trace was requested");
    let stats = store.profile_stats();
    assert_eq!((stats.len(), stats[0].misses, stats[0].hits), (1, 1, 7));
}

#[test]
fn keys_separate_by_name_input_seed_and_cap() {
    let store = TraceStore::new();
    let base = TraceKey::new("li", InputSize::Test, 1, CAP);
    let variants = [
        TraceKey::new("go", InputSize::Test, 1, CAP),
        TraceKey::new("li", InputSize::Train, 1, CAP),
        TraceKey::new("li", InputSize::Test, 2, CAP),
        TraceKey::new("li", InputSize::Test, 1, Some(300)),
        TraceKey::new("li", InputSize::Test, 1, None),
    ];
    for other in &variants {
        assert_ne!(&base, other);
    }
    let executions = AtomicU64::new(0);
    for key in std::iter::once(&base).chain(&variants) {
        let k = key.clone();
        store.get_or_capture(k.clone(), || {
            executions.fetch_add(1, Ordering::SeqCst);
            capture(&k.name, k.input, k.seed)
        });
    }
    assert_eq!(executions.load(Ordering::SeqCst), 6);
    assert_eq!(store.distinct_keys(), 6);
    assert_eq!(store.total_misses(), 6);
    // Re-request the base key: no new execution.
    store.get_or_capture(base, || unreachable!("must be cached"));
}

#[test]
fn context_capture_routes_through_the_store() {
    let ctx = ExperimentContext::smoke();
    let a = ctx.capture("go");
    let b = ctx.capture("go");
    assert!(Arc::ptr_eq(&a, &b));
    // A different seed is a different capture.
    let c = ctx.capture_with("go", ctx.input, ctx.seed + 1);
    assert!(!Arc::ptr_eq(&a, &c));
    assert_eq!(ctx.store().distinct_keys(), 2);
    assert_eq!(ctx.store().total_misses(), 2);
    assert_eq!(ctx.store().total_hits(), 1);
}

#[test]
fn a_trace_request_after_a_profile_request_only_records() {
    let ctx = ExperimentContext::smoke();
    let profiles = ctx.profile("li");
    let data = ctx.capture("li");
    // The capture reuses the latched profiles instead of building its
    // own, and the profile latch did not run again.
    assert!(Arc::ptr_eq(&profiles, data.profiles()));
    assert!(Arc::ptr_eq(&profiles, &ctx.profile("li")));
    let store = ctx.store();
    assert_eq!((store.total_misses(), store.total_hits()), (1, 0));
    let latch = &store.profile_stats()[0];
    assert_eq!((latch.misses, latch.hits), (1, 1));
}

#[test]
fn a_profile_request_after_a_trace_request_is_a_hit() {
    let ctx = ExperimentContext::smoke();
    let data = ctx.capture("li");
    let profiles = ctx.profile("li");
    assert!(Arc::ptr_eq(&profiles, data.profiles()));
    let latch = &ctx.store().profile_stats()[0];
    assert_eq!((latch.misses, latch.hits, latch.stopped), (0, 1, 0));
    let trace = &ctx.store().stats()[0];
    assert_eq!((trace.misses, trace.stopped), (1, 1));
}

/// A budget the program fits in stops nothing, in either latch.
#[test]
fn a_budget_beyond_the_workload_stops_no_execution() {
    let full = WorkloadData::capture(by_name("li", InputSize::Test, 1).unwrap());
    let full = full.trace.accesses();
    for cap in [None, Some(full), Some(full + 1)] {
        let ctx = ExperimentContext::quick().with_max_refs(cap);
        ctx.profile("li");
        assert_eq!(ctx.capture("li").trace.accesses(), full);
        let store = ctx.store();
        let trace_runs = store.stats().into_iter().map(|s| (s.misses, s.stopped));
        let profile_runs = store
            .profile_stats()
            .into_iter()
            .map(|s| (s.misses, s.stopped));
        let runs: Vec<(u64, u64)> = trace_runs.chain(profile_runs).collect();
        assert_eq!(runs, [(1, 0), (1, 0)], "cap {cap:?}");
    }
}

#[test]
fn stats_list_only_trace_keys() {
    let ctx = ExperimentContext::smoke();
    ctx.profile("go");
    ctx.capture("li");
    let store = ctx.store();
    let traced: Vec<String> = store.stats().iter().map(|s| s.key.name.clone()).collect();
    assert_eq!(traced, ["li"]);
    for s in store.stats() {
        store.get_or_capture(s.key, || unreachable!("every listed key is captured"));
    }
    let profiled: Vec<String> = store
        .profile_stats()
        .iter()
        .map(|s| s.key.name.clone())
        .collect();
    assert_eq!(profiled, ["go", "li"]);
    assert_eq!(store.distinct_keys(), 1);
    assert_eq!(
        store.resident_events(),
        ctx.capture("li").trace.len() as u64
    );
}

/// A latch's `(keys, misses, hits, stopped)` and its key list.
type Latch = ((u64, u64, u64, u64), Vec<TraceKey>);

/// The trace latch's and the profile latch's counts after one
/// `all --smoke` pass at `jobs` workers.
fn smoke_counts(jobs: usize) -> (Latch, Latch) {
    let ctx = ExperimentContext::smoke().with_engine(Arc::new(Engine::new(jobs)));
    for (_, run) in experiments::all() {
        run(&ctx);
    }
    let store = ctx.store();
    let latch = |counts: Vec<(TraceKey, u64, u64, u64)>| {
        let sum = |f: fn(&(TraceKey, u64, u64, u64)) -> u64| counts.iter().map(f).sum();
        let totals = (
            counts.len() as u64,
            sum(|c| c.1),
            sum(|c| c.2),
            sum(|c| c.3),
        );
        (totals, counts.into_iter().map(|c| c.0).collect())
    };
    (
        latch(
            store
                .stats()
                .into_iter()
                .map(|s| (s.key, s.misses, s.hits, s.stopped))
                .collect(),
        ),
        latch(
            store
                .profile_stats()
                .into_iter()
                .map(|s| (s.key, s.misses, s.hits, s.stopped))
                .collect(),
        ),
    )
}

#[test]
fn smoke_run_executes_once_per_key_and_latch_at_any_worker_count() {
    let serial = smoke_counts(1);
    assert_eq!(serial, smoke_counts(4));
    let ((traces, trace_keys), (profiles, profile_keys)) = serial;
    // The eight integer workloads are replayed; fig1 profiled them
    // first, so their captures only recorded. Every execution stopped
    // at the smoke budget.
    assert_eq!(traces, (8, 8, 90, 8));
    // fig1's 8 and fig2's 6 keys, and table2's 12 extra seeds.
    assert_eq!(profiles, (26, 26, 12, 26));
    let ctx = ExperimentContext::smoke();
    let int: Vec<&str> = ctx.all_int().to_vec();
    assert!(trace_keys.iter().all(|k| int.contains(&k.name.as_str())));
    for key in &profile_keys {
        let extra_seed = key.seed != ctx.seed;
        let fp = ctx.all_fp().contains(&key.name.as_str());
        assert_eq!(
            trace_keys.contains(key),
            !(extra_seed || fp),
            "{key}: only replayed keys hold a trace"
        );
    }
}

/// A profile-only capture's profiles, a trace capture's, and a fresh
/// replay of the trace capture's events through the array-of-structs
/// `Trace` agree in every figure the runners read.
fn assert_profiles_agree(name: &str, input: InputSize, seed: u64, cap: Option<u64>) {
    let what = format!("{name}/{input}/seed{seed}/{cap:?}");
    let only = Profiles::capture_limited(by_name(name, input, seed).unwrap(), cap);
    let data = WorkloadData::capture_limited(by_name(name, input, seed).unwrap(), cap);
    let trace = data.trace.to_trace();
    let mut counter = ValueCounter::new();
    trace.replay_into(&mut counter);
    let sample_every = (trace.accesses() / SNAPSHOTS_PER_RUN).max(1);
    let mut occ = OccurrenceSampler::new();
    trace.replay_with_snapshots_into(&mut occ, sample_every);
    for (profiles, by) in [(&only, "profile-only"), (data.profiles().as_ref(), "trace")] {
        let what = format!("{what} ({by})");
        assert_eq!(profiles.name, name, "{what}");
        assert_eq!(profiles.accesses, trace.accesses(), "{what}");
        // Every workload is longer than the smoke budget.
        assert_eq!(profiles.stopped, cap.is_some(), "{what}");
        assert_eq!(profiles.sample_every, sample_every, "{what}");
        let ranking = counter.ranking();
        assert_eq!(profiles.counter.ranking(), ranking, "{what}");
        for &v in &ranking {
            assert_eq!(profiles.counter.count_of(v), counter.count_of(v), "{what}");
        }
        assert_eq!(profiles.counter.loads(), counter.loads(), "{what}");
        let ranking = occ.ranking();
        assert_eq!(profiles.occ.ranking(), ranking, "{what}");
        for &v in &ranking {
            assert_eq!(
                profiles.occ.coverage_of(&[v]).to_bits(),
                occ.coverage_of(&[v]).to_bits(),
                "{what}"
            );
        }
        assert_eq!(profiles.occ.samples(), occ.samples(), "{what}");
        assert_eq!(
            profiles.occ.avg_locations().to_bits(),
            occ.avg_locations().to_bits(),
            "{what}"
        );
    }
}

#[test]
fn profile_only_captures_equal_trace_captures_for_every_smoke_key() {
    let ((_, trace_keys), (_, profile_keys)) = smoke_counts(1);
    assert!(trace_keys.iter().all(|k| profile_keys.contains(k)));
    for key in profile_keys {
        assert_profiles_agree(&key.name, key.input, key.seed, key.max_refs);
    }
}

/// The quick captures with the largest histograms, and gcc, whose heap
/// frees leave the census.
#[test]
fn profile_only_captures_equal_trace_captures_on_the_largest_histograms() {
    for name in ["m88ksim", "li", "mgrid", "gcc"] {
        assert_profiles_agree(name, InputSize::Test, 1, None);
    }
}
