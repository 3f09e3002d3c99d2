//! Parallel design-space sweeps.
//!
//! The paper's figures evaluate dozens of cache configurations over the
//! same trace. Simulations are embarrassingly parallel — the trace is
//! immutable — so the sweep drivers fan configurations out across OS
//! threads (scoped; no dependencies) and return results in input order.
//!
//! Scheduling is lock-free: workers claim configurations from an
//! immutable slice through one atomic index and write results into
//! disjoint slots, so a sweep performs no mutex traffic at all.
//! [`parallel_broadcast`] additionally hands each worker a *batch* of
//! configurations per claim and replays the trace once per batch via
//! [`BroadcastReplay`], so a Figure-12-style sweep touches the trace
//! `ceil(configs / batch)` times instead of `configs` times.

use fvl_mem::{AccessSink, BroadcastReplay};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One result slot, written exactly once by the worker that claimed its
/// index.
struct Slot<R>(UnsafeCell<MaybeUninit<R>>);

// SAFETY: every index is claimed by exactly one worker (the atomic
// counter hands each index out once), so no two threads ever touch the
// same slot; the scope join orders all writes before the collecting
// reads.
unsafe impl<R: Send> Sync for Slot<R> {}

/// Runs `f` on worker threads until the claimed range is exhausted,
/// then collects the slots in index order. `f` is handed the shared
/// atomic counter and the slot slice and must initialize every slot
/// whose index it claims.
fn drive<R, F>(n: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&AtomicUsize, &[Slot<R>]) + Sync,
{
    let slots: Vec<Slot<R>> = (0..n)
        .map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit())))
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| f(&next, &slots));
        }
        f(&next, &slots);
    });
    slots
        .into_iter()
        // SAFETY: the workers claim every index below `n` from the
        // shared counter until it is exhausted, `f` initializes each
        // slot it claims, and the scope above joined every worker (a
        // panicking worker re-panics there, so this line is not
        // reached), so each slot holds an initialized `R`.
        .map(|slot| unsafe { slot.0.into_inner().assume_init() })
        .collect()
}

fn worker_count(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n)
        .max(1)
}

/// Runs `run(trace, config)` for every configuration, in parallel,
/// preserving input order in the result vector.
///
/// The trace parameter is any shared state (a `Trace`, `PackedTrace`,
/// `TraceRepr`, or something else entirely); configurations are borrowed
/// from an immutable slice, so claiming one is a single atomic
/// increment.
///
/// # Example
///
/// ```
/// use fvl_bench::sweep::parallel;
/// use fvl_cache::{CacheGeometry, CacheSim};
/// use fvl_mem::{Access, Trace, TraceEvent};
///
/// let trace = Trace::from_events(
///     (0..64).map(|i| TraceEvent::Access(Access::load(i * 64, 0))).collect(),
/// );
/// let sizes = vec![1u64, 2, 4];
/// let misses = parallel(&trace, sizes, |trace, &kb| {
///     let mut sim = CacheSim::new(CacheGeometry::new(kb * 1024, 32, 1).unwrap());
///     trace.replay_into(&mut sim);
///     sim.stats().misses()
/// });
/// assert_eq!(misses.len(), 3);
/// ```
pub fn parallel<T, C, R, F>(trace: &T, configs: Vec<C>, run: F) -> Vec<R>
where
    T: Sync + ?Sized,
    C: Sync,
    R: Send,
    F: Fn(&T, &C) -> R + Sync,
{
    let n = configs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = worker_count(n);
    if workers <= 1 {
        return configs.iter().map(|c| run(trace, c)).collect();
    }
    let configs = &configs[..];
    drive(n, workers, |next, slots| loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= n {
            break;
        }
        let result = run(trace, &configs[index]);
        // SAFETY: `index` was handed to this worker alone.
        unsafe { (*slots[index].0.get()).write(result) };
    })
}

/// Batched broadcast sweep: workers claim `batch` configurations at a
/// time, build one sink per configuration with `make`, replay the trace
/// **once** into the whole batch via [`BroadcastReplay`], and reduce
/// each sink with `finish`. Results preserve input order.
///
/// With `batch = 1` this degenerates to [`parallel`]; with larger
/// batches the trace is walked `ceil(configs / batch)` times total, so
/// memory bandwidth stops scaling with the size of the design space.
///
/// # Panics
///
/// Panics if `batch` is zero.
///
/// # Example
///
/// ```
/// use fvl_bench::sweep::parallel_broadcast;
/// use fvl_cache::{CacheGeometry, CacheSim};
/// use fvl_mem::{Access, PackedTrace, Trace, TraceEvent};
///
/// let trace = PackedTrace::from_trace(&Trace::from_events(
///     (0..64).map(|i| TraceEvent::Access(Access::load(i * 64, 0))).collect(),
/// ));
/// let misses = parallel_broadcast(
///     &trace,
///     vec![1u64, 2, 4],
///     4,
///     |&kb| CacheSim::new(CacheGeometry::new(kb * 1024, 32, 1).unwrap()),
///     |_, sim| sim.stats().misses(),
/// );
/// assert_eq!(misses.len(), 3);
/// ```
pub fn parallel_broadcast<T, C, S, R, FM, FF>(
    trace: &T,
    configs: Vec<C>,
    batch: usize,
    make: FM,
    finish: FF,
) -> Vec<R>
where
    T: BroadcastReplay + Sync + ?Sized,
    C: Sync,
    S: AccessSink,
    R: Send,
    FM: Fn(&C) -> S + Sync,
    FF: Fn(&C, S) -> R + Sync,
{
    assert!(batch > 0, "batch size must be positive");
    let n = configs.len();
    if n == 0 {
        return Vec::new();
    }
    let run_batch = |configs: &[C]| -> Vec<R> {
        let mut sinks: Vec<S> = configs.iter().map(&make).collect();
        trace.broadcast_replay(&mut sinks);
        configs
            .iter()
            .zip(sinks)
            .map(|(c, sink)| finish(c, sink))
            .collect()
    };
    let batches = n.div_ceil(batch);
    let workers = worker_count(batches);
    if workers <= 1 {
        let mut results = Vec::with_capacity(n);
        for chunk in configs.chunks(batch) {
            results.extend(run_batch(chunk));
        }
        return results;
    }
    let configs = &configs[..];
    drive(n, workers, |next, slots| loop {
        let start = next.fetch_add(batch, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + batch).min(n);
        for (offset, result) in run_batch(&configs[start..end]).into_iter().enumerate() {
            // SAFETY: the range `start..end` was handed to this worker
            // alone (each fetch_add claims a disjoint range).
            unsafe { (*slots[start + offset].0.get()).write(result) };
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvl_mem::{Access, CountingSink, PackedTrace, Trace, TraceEvent, TraceRepr, TraceReprKind};

    fn tiny_trace() -> Trace {
        Trace::from_events(
            (0..100u32)
                .map(|i| TraceEvent::Access(Access::load((i % 16) * 4, 0)))
                .collect(),
        )
    }

    #[test]
    fn preserves_input_order() {
        let trace = tiny_trace();
        let configs: Vec<u32> = (0..37).collect();
        let results = parallel(&trace, configs.clone(), |t, &c| (c, t.accesses()));
        let expected: Vec<(u32, u64)> = configs.into_iter().map(|c| (c, 100)).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn empty_sweep_is_empty() {
        let trace = tiny_trace();
        let results: Vec<u32> = parallel(&trace, Vec::<u32>::new(), |_, &c| c);
        assert!(results.is_empty());
        let packed = PackedTrace::from_trace(&trace);
        let none: Vec<u32> = parallel_broadcast(
            &packed,
            Vec::<u32>::new(),
            4,
            |_| CountingSink::new(),
            |&c, _| c,
        );
        assert!(none.is_empty());
    }

    #[test]
    fn parallel_matches_serial_simulation() {
        use fvl_cache::{CacheGeometry, CacheSim};
        let trace = tiny_trace();
        let configs = vec![(1u64, 16u32), (1, 32), (2, 16), (4, 64)];
        let simulate = |t: &Trace, &(kb, line): &(u64, u32)| {
            let mut sim = CacheSim::new(CacheGeometry::new(kb * 1024, line, 1).unwrap());
            t.replay_into(&mut sim);
            sim.stats().misses()
        };
        let par = parallel(&trace, configs.clone(), simulate);
        let ser: Vec<u64> = configs.iter().map(|c| simulate(&trace, c)).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn sweeps_run_over_any_representation() {
        let repr = TraceRepr::from_trace(tiny_trace(), TraceReprKind::Packed);
        let counts = parallel(&repr, vec![0u8; 5], |t, _| {
            let mut sink = CountingSink::new();
            t.replay_into(&mut sink);
            sink.accesses()
        });
        assert_eq!(counts, vec![100; 5]);
    }

    #[test]
    fn broadcast_matches_per_config_sweep() {
        use fvl_cache::{CacheGeometry, CacheSim};
        let trace = tiny_trace();
        let packed = PackedTrace::from_trace(&trace);
        let configs: Vec<u64> = vec![1, 1, 2, 4, 8, 1, 2, 4, 8, 16, 32];
        let make = |&kb: &u64| CacheSim::new(CacheGeometry::new(kb * 1024, 32, 1).unwrap());
        let expected: Vec<u64> = configs
            .iter()
            .map(|c| {
                let mut sim = make(c);
                trace.replay_into(&mut sim);
                sim.stats().misses()
            })
            .collect();
        for batch in [1usize, 2, 3, 8, 64] {
            let got = parallel_broadcast(&packed, configs.clone(), batch, make, |_, sim| {
                sim.stats().misses()
            });
            assert_eq!(got, expected, "batch size {batch}");
        }
    }
}
