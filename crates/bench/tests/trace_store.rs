//! The trace store's guarantees: one execution per distinct key no
//! matter how many threads race for it, and key separation by every
//! key component.

use fvl_bench::data::WorkloadData;
use fvl_bench::{ExperimentContext, TraceKey, TraceStore};
use fvl_workloads::{by_name, InputSize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CAP: Option<u64> = Some(200);

fn capture(name: &str, input: InputSize, seed: u64) -> WorkloadData {
    WorkloadData::capture_limited(by_name(name, input, seed).unwrap(), CAP)
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
