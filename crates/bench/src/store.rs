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
use fvl_workloads::InputSize;
use std::collections::HashMap;
use std::fmt;
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
}

/// Per-key cache slot: the once-latch plus its counters.
#[derive(Default)]
struct Slot {
    latch: OnceLock<Arc<WorkloadData>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Thread-safe, capture-once store of [`WorkloadData`] handles.
///
/// See the [module docs](self) for the motivation and counting rules.
pub struct TraceStore {
    slots: Mutex<HashMap<TraceKey, Arc<Slot>>>,
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
            slots: Mutex::new(HashMap::new()),
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
        let slot = {
            let mut slots = self.slots.lock().expect("trace store poisoned");
            Arc::clone(slots.entry(key).or_default())
        };
        let mut executed = false;
        let data = Arc::clone(slot.latch.get_or_init(|| {
            executed = true;
            Arc::new(capture())
        }));
        if executed {
            slot.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.hits.fetch_add(1, Ordering::Relaxed);
        }
        data
    }

    /// Number of distinct keys ever requested.
    pub fn distinct_keys(&self) -> usize {
        self.slots.lock().expect("trace store poisoned").len()
    }

    /// Heap bytes resident across every cached capture's trace — the
    /// footprint the capture-once discipline pays to keep ~26 traces
    /// alive for a full `all` sweep. The columnar packed layout (the
    /// default) roughly halves this against the legacy event-log form.
    pub fn resident_trace_bytes(&self) -> u64 {
        self.fold_cached(|data| data.trace.approx_bytes() as u64)
    }

    /// Total trace events (accesses plus region events) held by cached
    /// captures.
    pub fn resident_events(&self) -> u64 {
        self.fold_cached(|data| data.trace.len() as u64)
    }

    /// The storage-representation label shared by every cached capture
    /// (`"packed"` / `"legacy"`), `Some("mixed")` when captures
    /// disagree, or `None` while nothing is cached yet.
    pub fn repr_label(&self) -> Option<&'static str> {
        let slots = self.slots.lock().expect("trace store poisoned");
        let mut labels: Vec<&'static str> = slots
            .values()
            .filter_map(|slot| slot.latch.get())
            .map(|data| data.trace.kind().label())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        match labels.len() {
            0 => None,
            1 => Some(labels[0]),
            _ => Some("mixed"),
        }
    }

    /// Sums `f` over every capture currently latched in the store.
    fn fold_cached(&self, f: impl Fn(&WorkloadData) -> u64) -> u64 {
        let slots = self.slots.lock().expect("trace store poisoned");
        slots
            .values()
            .filter_map(|slot| slot.latch.get())
            .map(|data| f(data))
            .sum()
    }

    /// Per-key hit/miss counts, sorted by key for deterministic output.
    pub fn stats(&self) -> Vec<KeyStats> {
        let slots = self.slots.lock().expect("trace store poisoned");
        let mut stats: Vec<KeyStats> = slots
            .iter()
            .map(|(key, slot)| KeyStats {
                key: key.clone(),
                hits: slot.hits.load(Ordering::Relaxed),
                misses: slot.misses.load(Ordering::Relaxed),
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
}

impl fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceStore")
            .field("distinct_keys", &self.distinct_keys())
            .finish()
    }
}
