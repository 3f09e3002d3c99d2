//! Workload execution and profiling shared by all experiments.

use crate::engine::{CellId, Completed, Engine, FnJob};
use crate::sim::{SimResult, SimSpec};
use crate::store::{OnceMap, TraceKey, TraceStore};
use fvl_mem::{TraceBuffer, TraceRepr, TraceReprKind, TracedMemory, Word};
use fvl_profile::{OccurrenceSampler, ValueCounter};
use fvl_workloads::{by_name, InputSize, Workload};
use std::fmt;
use std::sync::Arc;

/// Number of occurrence snapshots per run (the paper samples every 10M
/// instructions; we sample ~20 times per execution).
pub const SNAPSHOTS_PER_RUN: u64 = 20;

/// Reference budget per workload in `--smoke` runs: large enough that
/// every profile/simulation path is exercised, small enough that a
/// full `all` sweep finishes in seconds.
pub const SMOKE_REFS: u64 = 1000;

/// One workload's recorded trace plus its value profiles — everything an
/// experiment needs, produced by a single execution + two replays — and
/// the memo of the caches simulated on it ([`crate::sim`]).
pub struct WorkloadData {
    /// Short workload name (e.g. `"m88ksim"`).
    pub name: String,
    /// The recorded event log, in the representation the capture was
    /// asked for (columnar packed by default; see [`TraceReprKind`]).
    pub trace: TraceRepr,
    /// Frequently *accessed* value profile.
    pub counter: ValueCounter,
    /// Frequently *occurring* value profile (snapshot census).
    pub occ: OccurrenceSampler,
    /// Snapshot interval used for the occurrence census.
    pub sample_every: u64,
    /// Results of the caches simulated on this capture so far (see
    /// [`WorkloadData::simulate`]).
    pub(crate) sims: OnceMap<SimSpec, SimResult>,
}

impl WorkloadData {
    /// Runs `workload` to completion, recording and profiling it.
    pub fn capture(workload: Box<dyn Workload>) -> Self {
        Self::capture_limited(workload, None)
    }

    /// Like [`WorkloadData::capture`], but keeps only the first
    /// `max_refs` recorded references when a limit is given (smoke
    /// mode); the profiles are built from the truncated trace.
    pub fn capture_limited(workload: Box<dyn Workload>, max_refs: Option<u64>) -> Self {
        Self::capture_limited_as(workload, max_refs, TraceReprKind::default())
    }

    /// [`WorkloadData::capture_limited`] with an explicit trace storage
    /// layout. With a reference budget the recording buffer is
    /// pre-sized from the hint and capped *during* recording (no
    /// post-hoc truncation copy); the result is identical to recording
    /// everything and taking [`fvl_mem::Trace::into_prefix`].
    pub fn capture_limited_as(
        mut workload: Box<dyn Workload>,
        max_refs: Option<u64>,
        repr: TraceReprKind,
    ) -> Self {
        let mut buf = match max_refs {
            // Room for the capped accesses plus the (rare) region
            // events interleaved with them.
            Some(limit) => TraceBuffer::with_capacity(limit as usize + limit as usize / 8 + 32)
                .with_access_limit(limit),
            None => TraceBuffer::new(),
        };
        {
            let mut mem = TracedMemory::new(&mut buf);
            workload.run(&mut mem);
            mem.finish();
        }
        let trace = TraceRepr::from_trace(buf.into_trace(), repr);
        let mut counter = ValueCounter::new();
        trace.replay_into(&mut counter);
        let sample_every = (trace.accesses() / SNAPSHOTS_PER_RUN).max(1);
        let mut occ = OccurrenceSampler::new();
        trace.replay_with_snapshots_into(&mut occ, sample_every);
        WorkloadData {
            name: workload.name().to_string(),
            trace,
            counter,
            occ,
            sample_every,
            sims: OnceMap::new(),
        }
    }

    /// The top `k` frequently accessed values (the set the FVC uses).
    pub fn top_accessed(&self, k: usize) -> Vec<Word> {
        self.counter.top_k(k)
    }

    /// The top `k` frequently occurring values.
    pub fn top_occurring(&self, k: usize) -> Vec<Word> {
        self.occ.top_k(k)
    }
}

impl fmt::Debug for WorkloadData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkloadData")
            .field("name", &self.name)
            .field("accesses", &self.trace.accesses())
            .finish()
    }
}

/// The execution substrate a batch of experiments runs on: the engine
/// that schedules simulation cells and the [`TraceStore`] that makes
/// each distinct workload capture happen exactly once.
///
/// A core is the unit of *sharing*. The CLI builds one core per
/// process; the `fvl-serve` daemon builds one **store-sharing** core
/// per client session (fresh serial engine, so per-session cell
/// records stay deterministic, but one shared store, so two tenants
/// requesting the same `(workload, input, seed, refs)` key share a
/// single capture). [`ExperimentContext::session`] turns a core into a
/// fully configured context.
#[derive(Clone, Debug)]
pub struct EngineCore {
    /// The cell scheduler.
    engine: Arc<Engine>,
    /// Capture-once memoization.
    store: Arc<TraceStore>,
}

impl Default for EngineCore {
    fn default() -> Self {
        EngineCore::serial()
    }
}

impl EngineCore {
    /// A core from explicit parts.
    pub fn new(engine: Arc<Engine>, store: Arc<TraceStore>) -> Self {
        EngineCore { engine, store }
    }

    /// A serial engine with a fresh store — the default substrate.
    pub fn serial() -> Self {
        EngineCore {
            engine: Arc::new(Engine::serial()),
            store: Arc::new(TraceStore::new()),
        }
    }

    /// A fresh serial engine sharing `store` — one per daemon session,
    /// so sessions dedup captures across tenants while keeping their
    /// own deterministic cell-record logs.
    pub fn session_on(store: Arc<TraceStore>) -> Self {
        EngineCore {
            engine: Arc::new(Engine::serial()),
            store,
        }
    }

    /// The cell scheduler.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The capture-once store.
    pub fn store(&self) -> &Arc<TraceStore> {
        &self.store
    }
}

/// Shared configuration for a batch of experiments: input size, the
/// base seed (experiments that compare inputs derive further seeds),
/// the smoke-mode reference budget, and the [`EngineCore`] supplying
/// the cell scheduler and the capture-once [`TraceStore`].
#[derive(Clone, Debug)]
pub struct ExperimentContext {
    /// Problem size used for every workload.
    pub input: InputSize,
    /// Base deterministic seed.
    pub seed: u64,
    /// When set, every captured trace is truncated to this many
    /// references (the `--smoke` mode).
    pub max_refs: Option<u64>,
    /// Storage layout captures are kept in (packed by default; the
    /// `--legacy-trace` flag flips it for A/B runs).
    pub repr: TraceReprKind,
    /// The execution substrate (engine + store) for this batch.
    core: EngineCore,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        ExperimentContext {
            input: InputSize::Ref,
            seed: 1,
            max_refs: None,
            repr: TraceReprKind::default(),
            core: EngineCore::serial(),
        }
    }
}

impl ExperimentContext {
    /// A quick serial configuration for tests and benches.
    pub fn quick() -> Self {
        ExperimentContext {
            input: InputSize::Test,
            ..Self::default()
        }
    }

    /// A smoke configuration: test inputs truncated to
    /// [`SMOKE_REFS`] references, so every experiment path runs in
    /// milliseconds.
    pub fn smoke() -> Self {
        ExperimentContext {
            input: InputSize::Test,
            max_refs: Some(SMOKE_REFS),
            ..Self::default()
        }
    }

    /// A context bound to an existing substrate — the session-scoped
    /// constructor the daemon uses (and the CLI, after flag parsing).
    /// Starts from [`ExperimentContext::default`] knobs; chain the
    /// `with_*` builders for the rest.
    pub fn session(core: EngineCore) -> Self {
        ExperimentContext {
            core,
            ..Self::default()
        }
    }

    /// The substrate this context runs on.
    pub fn core(&self) -> &EngineCore {
        &self.core
    }

    /// Replaces the engine (e.g. with a parallel one).
    pub fn with_engine(mut self, engine: Arc<Engine>) -> Self {
        self.core.engine = engine;
        self
    }

    /// Replaces the capture-once store (e.g. with one shared across
    /// sessions by the daemon).
    pub fn with_store(mut self, store: Arc<TraceStore>) -> Self {
        self.core.store = store;
        self
    }

    /// Replaces the input size.
    pub fn with_input(mut self, input: InputSize) -> Self {
        self.input = input;
        self
    }

    /// Replaces the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps every captured trace at `max_refs` references.
    pub fn with_max_refs(mut self, max_refs: Option<u64>) -> Self {
        self.max_refs = max_refs;
        self
    }

    /// Selects the trace storage layout for every capture of this
    /// batch. All experiment results are representation-independent;
    /// packed (the default) halves the store's resident bytes and
    /// replays faster.
    pub fn with_trace_repr(mut self, repr: TraceReprKind) -> Self {
        self.repr = repr;
        self
    }

    /// The engine scheduling this batch's cells.
    pub fn engine(&self) -> &Engine {
        self.core.engine()
    }

    /// The capture-once store shared by this batch's experiments.
    pub fn store(&self) -> &TraceStore {
        self.core.store()
    }

    /// Runs one simulation cell per item through the engine, returning
    /// outputs in input order (see [`Engine::cells`]).
    pub fn cells<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> Completed<R> + Sync,
    {
        self.core.engine.cells(items, f)
    }

    /// Captures one workload by name, sharing the result through the
    /// batch's [`TraceStore`]: the first request for a given
    /// `(name, input, seed, max_refs)` key executes the workload, every
    /// later one returns the same [`Arc`] handle.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn capture(&self, name: &str) -> Arc<WorkloadData> {
        self.capture_with(name, self.input, self.seed)
    }

    /// Captures one workload with explicit input size and seed (used by
    /// the Table 2 input-sensitivity study), routed through the batch's
    /// [`TraceStore`].
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn capture_with(&self, name: &str, input: InputSize, seed: u64) -> Arc<WorkloadData> {
        let key = TraceKey::new(name, input, seed, self.max_refs);
        self.core.store.get_or_capture(key, || {
            let w = by_name(name, input, seed).unwrap_or_else(|| panic!("unknown workload {name}"));
            WorkloadData::capture_limited_as(w, self.max_refs, self.repr)
        })
    }

    /// Captures several workloads as engine cells (one per name), in
    /// the given order. A capture executes the workload once and
    /// replays its trace through the two value profilers, so each cell
    /// reports three passes over the trace — whether the capture ran
    /// live or was served from the [`TraceStore`], so cell records stay
    /// byte-identical with the cache on or off.
    ///
    /// # Panics
    ///
    /// Panics if any name is unknown.
    pub fn capture_many(&self, experiment: &'static str, names: &[&str]) -> Vec<Arc<WorkloadData>> {
        let jobs: Vec<_> = names
            .iter()
            .map(|&name| {
                let ctx = self.clone();
                let name = name.to_string();
                let id = CellId::new(experiment, name.clone(), format!("capture {}", self.input));
                FnJob::new(id, move || {
                    let data = ctx.capture(&name);
                    let passes = 3 * data.trace.accesses();
                    Completed::new(data, passes)
                })
            })
            .collect();
        self.core.engine.run_jobs(jobs)
    }

    /// The paper's six frequent-value benchmarks, in its order.
    pub fn fv_six(&self) -> [&'static str; 6] {
        ["go", "m88ksim", "gcc", "li", "perl", "vortex"]
    }

    /// All eight SPECint95-like workloads.
    pub fn all_int(&self) -> [&'static str; 8] {
        [
            "go", "m88ksim", "gcc", "li", "perl", "vortex", "compress", "ijpeg",
        ]
    }

    /// The SPECfp95-like workloads.
    pub fn all_fp(&self) -> [&'static str; 6] {
        ["tomcatv", "swim", "hydro2d", "mgrid", "applu", "wave5"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_profiles_a_workload() {
        let ctx = ExperimentContext::quick();
        let data = ctx.capture("li");
        assert_eq!(data.name, "li");
        assert!(data.trace.accesses() > 10_000);
        assert_eq!(data.top_accessed(3).len(), 3);
        assert!(data.occ.samples() >= SNAPSHOTS_PER_RUN - 1);
        // Zero should top both profiles for the lisp heap.
        assert_eq!(data.top_accessed(1)[0], 0);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_name_panics() {
        let _ = ExperimentContext::quick().capture("nope");
    }

    #[test]
    fn smoke_context_truncates_traces() {
        let ctx = ExperimentContext::smoke();
        let data = ctx.capture("li");
        assert_eq!(data.trace.accesses(), SMOKE_REFS);
        // Profiles still exist on the truncated trace.
        assert!(!data.top_accessed(3).is_empty());
    }

    #[test]
    fn capture_many_is_ordered_and_counts_throughput() {
        let ctx = ExperimentContext::smoke().with_engine(Arc::new(Engine::new(4)));
        let all = ctx.capture_many("test", &["li", "go", "compress"]);
        let names: Vec<_> = all.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["li", "go", "compress"]);
        let t = ctx.engine().throughput();
        assert_eq!(t.cells, 3);
        assert_eq!(t.references, 3 * 3 * SMOKE_REFS);
    }
}
