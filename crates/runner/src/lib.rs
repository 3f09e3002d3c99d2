//! Scoped-thread work-queue pool for embarrassingly parallel sweeps.
//!
//! Reproduction infrastructure with no direct counterpart in the paper:
//! the paper's evaluation (Sections 2 and 4) sweeps many (workload ×
//! cache-configuration) points, and the experiment engine fans those
//! simulation cells out across OS threads. This crate provides the
//! scheduling substrate, with three properties the engine relies on:
//!
//! * **Determinism** — [`Pool::map`] returns results in input order, so
//!   downstream aggregation and formatting are bit-identical to a
//!   serial run no matter how cells interleave across workers.
//! * **Bounded concurrency under nesting** — a pool carries a global
//!   budget of *worker tokens* shared by every clone. A nested `map`
//!   (an experiment parallelizing its inner sweep while the experiment
//!   itself runs on a worker) borrows only the tokens still free, and
//!   falls back to inline serial execution when none are — so total
//!   OS threads never exceed the budget and nesting cannot deadlock.
//! * **No dependencies** — `std::thread::scope` only; borrows in the
//!   mapped closure need no `'static` bound.
//!
//! # Example
//!
//! ```
//! use fvl_runner::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.map((0u64..100).collect(), |n| n * n);
//! assert_eq!(squares[7], 49);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A work-queue pool with a shared worker-token budget.
///
/// Cloning is cheap and shares the budget: `map` calls from any clone
/// (including calls nested inside another `map`'s closure) draw from
/// the same token pool.
#[derive(Clone, Debug)]
pub struct Pool {
    /// Extra worker threads the whole pool may have live at once
    /// (the budget is `jobs - 1`: every `map` caller also works).
    extra: Arc<AtomicIsize>,
    jobs: usize,
}

impl Pool {
    /// A pool running at most `jobs` cells concurrently; `jobs` is
    /// clamped to at least 1.
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        Pool {
            extra: Arc::new(AtomicIsize::new(jobs as isize - 1)),
            jobs,
        }
    }

    /// A single-threaded pool: every `map` runs inline, in order.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// A pool sized to the machine (`std::thread::available_parallelism`).
    pub fn auto() -> Self {
        Pool::new(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        )
    }

    /// The configured concurrency ceiling.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Worker tokens currently unclaimed (for tests and diagnostics).
    pub fn idle_tokens(&self) -> usize {
        self.extra.load(Ordering::Relaxed).max(0) as usize
    }

    /// Tries to claim up to `want` extra worker tokens.
    fn acquire(&self, want: usize) -> usize {
        let mut got = 0;
        while got < want {
            let cur = self.extra.load(Ordering::Relaxed);
            if cur <= 0 {
                break;
            }
            if self
                .extra
                .compare_exchange(cur, cur - 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                got += 1;
            }
        }
        got
    }

    fn release(&self, n: usize) {
        self.extra.fetch_add(n as isize, Ordering::AcqRel);
    }

    /// Runs `f` over every item, in parallel when worker tokens are
    /// free, and returns the results **in input order**.
    ///
    /// The calling thread always participates, so a `map` makes
    /// progress even when the budget is exhausted (nested calls then
    /// degrade to inline serial execution rather than deadlocking).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let extra = if n > 1 { self.acquire(n - 1) } else { 0 };
        if extra == 0 {
            return items.into_iter().map(f).collect();
        }
        let queue: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let work = || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                break;
            }
            let item = queue[index]
                .lock()
                .expect("queue slot lock")
                .take()
                .expect("each queue index is claimed exactly once");
            let result = f(item);
            *slots[index].lock().expect("result slot lock") = Some(result);
        };
        std::thread::scope(|scope| {
            for _ in 0..extra {
                scope.spawn(work);
            }
            work();
        });
        self.release(extra);
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot lock")
                    .expect("every slot is filled before the scope ends")
            })
            .collect()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let pool = Pool::new(8);
        let items: Vec<u32> = (0..257).collect();
        let out = pool.map(items.clone(), |v| v * 3);
        assert_eq!(out, items.iter().map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_pool_matches_parallel_pool() {
        let work = |v: u64| {
            let mut acc = v;
            for i in 0..1_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let items: Vec<u64> = (0..64).collect();
        let serial = Pool::serial().map(items.clone(), work);
        let parallel = Pool::new(4).map(items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        assert!(pool.map(Vec::<u8>::new(), |v| v).is_empty());
        assert_eq!(pool.map(vec![9], |v| v + 1), vec![10]);
    }

    #[test]
    fn nested_maps_do_not_deadlock_and_stay_ordered() {
        let pool = Pool::new(3);
        let outer: Vec<u32> = (0..8).collect();
        let result = pool.map(outer, |i| {
            let inner: Vec<u32> = (0..8).map(|j| i * 8 + j).collect();
            pool.map(inner, |v| v + 1)
        });
        for (i, row) in result.iter().enumerate() {
            let expected: Vec<u32> = (0..8).map(|j| (i as u32) * 8 + j + 1).collect();
            assert_eq!(row, &expected);
        }
    }

    #[test]
    fn tokens_are_returned_after_map() {
        let pool = Pool::new(5);
        assert_eq!(pool.idle_tokens(), 4);
        let _ = pool.map((0..100u32).collect(), |v| v);
        assert_eq!(pool.idle_tokens(), 4);
    }

    #[test]
    fn jobs_clamps_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
        assert_eq!(Pool::serial().idle_tokens(), 0);
    }
}
