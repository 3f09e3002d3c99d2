//! Capture-once memoization of workload traces.
//!
//! The paper's methodology is "record each workload once, replay the
//! trace into many cache configurations" — but each of the 21
//! experiment modules historically captured its own copies, so a full
//! `all` sweep executed every workload roughly twenty times. The
//! [`TraceStore`] restores the record-once discipline: it memoizes
//! [`WorkloadData`] behind [`Arc`] handles keyed by
//! `(name, input, seed, max_refs)`, with per-key once-latch semantics
//! so concurrent engine shards requesting the same workload block on a
//! single capture instead of duplicating it.
//!
//! The store also counts hits and misses per key. Those counters are
//! deterministic for a given run configuration: every distinct key
//! misses exactly once no matter how many threads race for it. The
//! `experiments` binary surfaces them in the `--metrics-timing` export
//! and on stderr.
//!
//! The latch itself is a generic once-map. Each capture carries a
//! second one, its simulation memo ([`crate::sim`]), so a (capture,
//! cache) pair also replays once per run; the store sums those memo
//! counts for the same export.
//!
//! # Example
//!
//! ```
//! use fvl_bench::store::{TraceKey, TraceStore};
//! use fvl_bench::data::WorkloadData;
//! use fvl_workloads::{by_name, InputSize};
//!
//! let store = TraceStore::new();
//! let key = TraceKey::new("li", InputSize::Test, 1, Some(100));
//! let capture = || {
//!     WorkloadData::capture_limited(
//!         by_name("li", InputSize::Test, 1).unwrap(),
//!         Some(100),
//!     )
//! };
//! let a = store.get_or_capture(key.clone(), capture);
//! let b = store.get_or_capture(key.clone(), capture);
//! assert!(std::sync::Arc::ptr_eq(&a, &b), "second request is a cache hit");
//! assert_eq!((store.total_misses(), store.total_hits()), (1, 1));
//! ```

use crate::data::WorkloadData;
use crate::sim::MemoStats;
use fvl_workloads::InputSize;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Identity of one distinct workload capture. Two requests share a
/// cached capture exactly when every field matches — a different seed,
/// input size, or truncation budget records a different trace.
#[derive(Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub struct TraceKey {
    /// Workload name (e.g. `"m88ksim"`).
    pub name: String,
    /// Problem size the workload ran with.
    pub input: InputSize,
    /// Deterministic seed the workload ran with.
    pub seed: u64,
    /// Reference budget the trace was truncated to, if any.
    pub max_refs: Option<u64>,
}

impl TraceKey {
    /// Builds a key from its four components.
    pub fn new(
        name: impl Into<String>,
        input: InputSize,
        seed: u64,
        max_refs: Option<u64>,
    ) -> Self {
        TraceKey {
            name: name.into(),
            input,
            seed,
            max_refs,
        }
    }
}

impl fmt::Display for TraceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/seed{}", self.name, self.input, self.seed)?;
        match self.max_refs {
            Some(limit) => write!(f, "/cap{limit}"),
            None => write!(f, "/full"),
        }
    }
}

/// Hit/miss counts for one key, as returned by [`TraceStore::stats`].
#[derive(Clone, Debug)]
pub struct KeyStats {
    /// The capture's identity.
    pub key: TraceKey,
    /// Requests served from the cached capture.
    pub hits: u64,
    /// Requests that executed the workload (always 1 per key).
    pub misses: u64,
    /// Request counts of the capture's simulation memo.
    pub sims: MemoStats,
}

/// Per-key slot of a [`OnceMap`]: the once-latch plus its counters.
struct Slot<V> {
    latch: OnceLock<V>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for Slot<V> {
    fn default() -> Self {
        Slot {
            latch: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// One key of a [`OnceMap`], as listed by [`OnceMap::entries`].
pub(crate) struct Entry<K, V> {
    pub(crate) key: K,
    /// The latched value, or `None` while its first request runs.
    pub(crate) value: Option<V>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

/// A thread-safe map that computes each key's value at most once.
///
/// Both memos of a run use it: the [`TraceStore`] (one capture per
/// [`TraceKey`]) and each capture's simulation memo (one replay per
/// [`crate::sim::SimSpec`]). Every key counts a miss for the request
/// that ran its initializer and a hit for each request served from
/// the latch, so the counts are deterministic for a given set of
/// requests however many threads race for them.
pub(crate) struct OnceMap<K, V> {
    slots: Mutex<HashMap<K, Arc<Slot<V>>>>,
}

impl<K: Eq + Hash + Clone, V: Clone> OnceMap<K, V> {
    pub(crate) fn new() -> Self {
        OnceMap {
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the value for `key`, running `init` only on the key's
    /// first request; concurrent requests for the key wait for that
    /// one execution.
    pub(crate) fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> V {
        let slot = {
            let mut slots = self.slots.lock().expect("once-map poisoned");
            Arc::clone(slots.entry(key).or_default())
        };
        let mut executed = false;
        let value = slot
            .latch
            .get_or_init(|| {
                executed = true;
                init()
            })
            .clone();
        if executed {
            slot.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Number of distinct keys ever requested.
    pub(crate) fn len(&self) -> usize {
        self.slots.lock().expect("once-map poisoned").len()
    }

    /// Every key with its latched value and counters, in no particular
    /// order.
    pub(crate) fn entries(&self) -> Vec<Entry<K, V>> {
        let slots = self.slots.lock().expect("once-map poisoned");
        slots
            .iter()
            .map(|(key, slot)| Entry {
                key: key.clone(),
                value: slot.latch.get().cloned(),
                hits: slot.hits.load(Ordering::Relaxed),
                misses: slot.misses.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Thread-safe, capture-once store of [`WorkloadData`] handles.
///
/// See the [module docs](self) for the motivation and counting rules.
pub struct TraceStore {
    captures: OnceMap<TraceKey, Arc<WorkloadData>>,
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TraceStore {
            captures: OnceMap::new(),
        }
    }

    /// Returns the capture for `key`, running `capture` only when the
    /// key has never been captured.
    ///
    /// Concurrent requests for the same key block on one execution:
    /// the per-key latch is a [`OnceLock`], so exactly one caller runs
    /// `capture` and the rest wait for its result. Requests for
    /// *different* keys never contend beyond the brief slot lookup.
    pub fn get_or_capture(
        &self,
        key: TraceKey,
        capture: impl FnOnce() -> WorkloadData,
    ) -> Arc<WorkloadData> {
        self.captures.get_or_init(key, || Arc::new(capture()))
    }

    /// Number of distinct keys ever requested.
    pub fn distinct_keys(&self) -> usize {
        self.captures.len()
    }

    /// Heap bytes resident across every cached capture's trace — the
    /// footprint the capture-once discipline pays to keep ~26 traces
    /// alive for a full `all` sweep, at about 8 bytes per access in the
    /// columnar packed layout.
    pub fn resident_trace_bytes(&self) -> u64 {
        self.cached()
            .map(|data| data.trace.approx_bytes() as u64)
            .sum()
    }

    /// Total trace events (accesses plus region events) held by cached
    /// captures.
    pub fn resident_events(&self) -> u64 {
        self.cached().map(|data| data.trace.len() as u64).sum()
    }

    /// Every capture currently latched in the store.
    pub(crate) fn cached(&self) -> impl Iterator<Item = Arc<WorkloadData>> {
        self.captures
            .entries()
            .into_iter()
            .filter_map(|entry| entry.value)
    }

    /// Per-key hit/miss counts, with each capture's simulation-memo
    /// counts, sorted by key for deterministic output.
    pub fn stats(&self) -> Vec<KeyStats> {
        let mut stats: Vec<KeyStats> = self
            .captures
            .entries()
            .into_iter()
            .map(|entry| KeyStats {
                key: entry.key,
                hits: entry.hits,
                misses: entry.misses,
                sims: entry
                    .value
                    .map(|data| data.memo_stats())
                    .unwrap_or_default(),
            })
            .collect();
        stats.sort_by(|a, b| a.key.cmp(&b.key));
        stats
    }

    /// Total requests served from cache.
    pub fn total_hits(&self) -> u64 {
        self.stats().iter().map(|s| s.hits).sum()
    }

    /// Total requests that executed a workload.
    pub fn total_misses(&self) -> u64 {
        self.stats().iter().map(|s| s.misses).sum()
    }

    /// Simulation-memo counts summed over every cached capture.
    pub fn sim_totals(&self) -> MemoStats {
        self.stats().iter().map(|s| s.sims).sum()
    }
}

impl fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceStore")
            .field("distinct_keys", &self.distinct_keys())
            .finish()
    }
}
