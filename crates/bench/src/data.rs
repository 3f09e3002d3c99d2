//! Workload execution and profiling shared by all experiments.

use crate::engine::{CellId, Completed, Engine};
use crate::sim::{SimResult, SimSpec};
use crate::store::{OnceMap, TraceKey, TraceStore};
use fvl_mem::{PackedTrace, TraceBuffer, TraceRepr, TraceReprKind, TracedMemory, Word};
use fvl_profile::{OccurrenceSampler, ValueCounter};
use fvl_workloads::{by_name, InputSize, Workload};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Number of occurrence snapshots per run (the paper samples every 10M
/// instructions; we sample ~20 times per execution).
pub const SNAPSHOTS_PER_RUN: u64 = 20;

/// Reference budget per workload in `--smoke` runs: large enough that
/// every profile/simulation path is exercised, small enough that a
/// full `all` sweep finishes in a fraction of a second: each capture
/// stops its workload at the budget.
pub const SMOKE_REFS: u64 = 1000;

/// Runs `workload`, recording its trace straight into packed columns,
/// and returns the trace with whether the reference budget ended the
/// run. Every capture runs through here.
///
/// With a budget the columns are pre-sized to it, and the program stops
/// at its first access beyond it ([`TracedMemory::run`]), so a capped
/// capture executes `max_refs + 1` accesses however long the workload
/// is. The trace is identical to recording the whole run and taking
/// [`fvl_mem::Trace::into_prefix`].
fn record(mut workload: Box<dyn Workload>, max_refs: Option<u64>) -> (PackedTrace, bool) {
    let mut buf = match max_refs {
        Some(limit) => TraceBuffer::with_capacity(limit as usize).with_access_limit(limit),
        None => TraceBuffer::new(),
    };
    let mut mem = TracedMemory::new(&mut buf);
    let stopped = mem.run(max_refs, |mem| workload.run(mem));
    // Free the workload's memory image before trimming the columns.
    drop(mem);
    (buf.into_packed(), stopped)
}

/// The built-in workload `name`.
///
/// # Panics
///
/// Panics if the name is unknown.
fn workload(name: &str, input: InputSize, seed: u64) -> Box<dyn Workload> {
    by_name(name, input, seed).unwrap_or_else(|| panic!("unknown workload {name}"))
}

/// One capture's value profiles — what the Section 2 profile studies
/// (Figures 1–2, Tables 1–2) read, and the ranking the FVC codes.
///
/// The [`TraceStore`] keeps profiles apart from traces, so a runner
/// that reads only profiles ([`ExperimentContext::profile_many`])
/// leaves no trace resident.
pub struct Profiles {
    /// Short workload name (e.g. `"m88ksim"`).
    pub name: String,
    /// Accesses in the profiled trace.
    pub accesses: u64,
    /// Frequently *accessed* value profile.
    pub counter: ValueCounter,
    /// Frequently *occurring* value profile (snapshot census).
    pub occ: OccurrenceSampler,
    /// Snapshot interval used for the occurrence census.
    pub sample_every: u64,
    /// Whether the reference budget ended the run these profiles were
    /// recorded from (the workload is longer than the budget).
    pub stopped: bool,
}

impl Profiles {
    /// Profiles a recorded trace: one replay into the value counter and
    /// one snapshot replay into the occurrence census, which samples
    /// memory [`SNAPSHOTS_PER_RUN`] times per run. `stopped` says
    /// whether the budget ended the recorded run.
    pub(crate) fn of(name: impl Into<String>, trace: &PackedTrace, stopped: bool) -> Self {
        let mut counter = ValueCounter::new();
        trace.replay_into(&mut counter);
        let sample_every = (trace.accesses() / SNAPSHOTS_PER_RUN).max(1);
        let mut occ = OccurrenceSampler::new();
        trace.replay_with_snapshots_into(&mut occ, sample_every);
        Profiles {
            name: name.into(),
            accesses: trace.accesses(),
            counter,
            occ,
            sample_every,
            stopped,
        }
    }

    /// Runs `workload`, profiles its trace and drops the trace. The
    /// profiles equal those of [`WorkloadData::capture_limited`] on the
    /// same workload and budget.
    pub fn capture_limited(workload: Box<dyn Workload>, max_refs: Option<u64>) -> Self {
        let name = workload.name().to_string();
        let (trace, stopped) = record(workload, max_refs);
        Self::of(name, &trace, stopped)
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

impl fmt::Debug for Profiles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Profiles")
            .field("name", &self.name)
            .field("accesses", &self.accesses)
            .field("stopped", &self.stopped)
            .finish()
    }
}

/// One workload's recorded trace plus its value profiles, and the memo
/// of the caches simulated on it ([`crate::sim`]). It dereferences to
/// its [`Profiles`], so `data.counter` or `data.top_accessed(k)` read
/// them directly.
pub struct WorkloadData {
    /// The capture's value profiles, shared with the store's profile
    /// latch for the same key.
    profiles: Arc<Profiles>,
    /// The recorded event log in the columnar packed layout. The
    /// [`TraceRepr`] wrapper dereferences to the [`PackedTrace`] and is
    /// held only for the benchmark package (see `fvl_mem::TraceRepr`).
    pub trace: TraceRepr,
    /// Results of the caches simulated on this capture so far (see
    /// [`WorkloadData::simulate`]).
    pub(crate) sims: OnceMap<SimSpec, SimResult>,
}

impl WorkloadData {
    /// Runs `workload` to completion, recording and profiling it.
    pub fn capture(workload: Box<dyn Workload>) -> Self {
        Self::capture_limited(workload, None)
    }

    /// Like [`WorkloadData::capture`], but with a limit the workload
    /// stops after its first `max_refs` references, which the trace
    /// keeps (smoke mode); the profiles are built from the truncated
    /// trace.
    pub fn capture_limited(workload: Box<dyn Workload>, max_refs: Option<u64>) -> Self {
        let name = workload.name().to_string();
        let (trace, stopped) = record(workload, max_refs);
        let profiles = Arc::new(Profiles::of(name, &trace, stopped));
        Self::from_parts(trace, profiles)
    }

    /// Records `workload` and pairs the trace with `profiles`, built
    /// earlier from a run of the same workload, input, seed and budget:
    /// the capture then skips both profile passes.
    ///
    /// # Panics
    ///
    /// Panics if the recording's access count, or whether the budget
    /// ended it, differs from the run the profiles were built from.
    pub(crate) fn record_with(
        workload: Box<dyn Workload>,
        max_refs: Option<u64>,
        profiles: Arc<Profiles>,
    ) -> Self {
        let (trace, stopped) = record(workload, max_refs);
        assert_eq!(
            (trace.accesses(), stopped),
            (profiles.accesses, profiles.stopped),
            "{}: a second run recorded a different trace",
            profiles.name
        );
        Self::from_parts(trace, profiles)
    }

    fn from_parts(trace: PackedTrace, profiles: Arc<Profiles>) -> Self {
        WorkloadData {
            profiles,
            trace: TraceRepr::Packed(trace),
            sims: OnceMap::new(),
        }
    }

    /// [`WorkloadData::capture_limited`]; captures have one layout, so
    /// `repr` is always [`TraceReprKind::Packed`]. Held for the
    /// benchmark package, which still calls it (see
    /// `fvl_mem::TraceRepr`).
    pub fn capture_limited_as(
        workload: Box<dyn Workload>,
        max_refs: Option<u64>,
        _repr: TraceReprKind,
    ) -> Self {
        Self::capture_limited(workload, max_refs)
    }

    /// The capture's value profiles.
    pub fn profiles(&self) -> &Arc<Profiles> {
        &self.profiles
    }
}

impl Deref for WorkloadData {
    type Target = Profiles;

    fn deref(&self) -> &Profiles {
        &self.profiles
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
    /// When set, every capture stops its workload after this many
    /// references, which its trace keeps (the `--smoke` mode).
    pub max_refs: Option<u64>,
    /// The execution substrate (engine + store) for this batch.
    core: EngineCore,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        ExperimentContext {
            input: InputSize::Ref,
            seed: 1,
            max_refs: None,
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

    /// Captures one workload with explicit input size and seed, routed
    /// through the batch's [`TraceStore`]. When the key's profiles are
    /// already latched (a profile-only runner asked first), the capture
    /// only records and reuses them.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn capture_with(&self, name: &str, input: InputSize, seed: u64) -> Arc<WorkloadData> {
        let key = TraceKey::new(name, input, seed, self.max_refs);
        let store = self.store();
        store.get_or_capture(key.clone(), || {
            let workload = workload(name, input, seed);
            match store.latched_profiles(&key) {
                Some(profiles) => WorkloadData::record_with(workload, self.max_refs, profiles),
                None => WorkloadData::capture_limited(workload, self.max_refs),
            }
        })
    }

    /// The value profiles of one workload by name, from the batch's
    /// [`TraceStore`]: the key's profile latch, or its trace capture if
    /// one is latched. Otherwise the workload runs once, its trace is
    /// profiled and dropped.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn profile(&self, name: &str) -> Arc<Profiles> {
        self.profile_with(name, self.input, self.seed)
    }

    /// [`ExperimentContext::profile`] with explicit input size and seed
    /// (used by the Table 2 input-sensitivity study).
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn profile_with(&self, name: &str, input: InputSize, seed: u64) -> Arc<Profiles> {
        let key = TraceKey::new(name, input, seed, self.max_refs);
        self.store().get_or_profile(key, || {
            Profiles::capture_limited(workload(name, input, seed), self.max_refs)
        })
    }

    /// Captures several workloads as engine cells (one per name), in
    /// the given order. A capture executes the workload once and
    /// replays its trace through the two value profilers, so each cell
    /// charges three passes over the trace, whether it ran or was
    /// served from the [`TraceStore`].
    ///
    /// # Panics
    ///
    /// Panics if any name is unknown.
    pub fn capture_many(&self, experiment: &'static str, names: &[&str]) -> Vec<Arc<WorkloadData>> {
        self.capture_cells(experiment, names, |name| {
            let data = self.capture(name);
            let accesses = data.trace.accesses();
            (data, accesses)
        })
    }

    /// The value profiles of several workloads as engine cells (one per
    /// name), in the given order. Each cell charges the same three
    /// passes as a [`ExperimentContext::capture_many`] cell, so the
    /// cell records do not depend on which latch served it.
    ///
    /// # Panics
    ///
    /// Panics if any name is unknown.
    pub fn profile_many(&self, experiment: &'static str, names: &[&str]) -> Vec<Arc<Profiles>> {
        self.capture_cells(experiment, names, |name| {
            let profiles = self.profile(name);
            let accesses = profiles.accesses;
            (profiles, accesses)
        })
    }

    /// One `capture <input>` cell per name, charging three passes over
    /// the `accesses` that `get` reports.
    fn capture_cells<T: Send>(
        &self,
        experiment: &'static str,
        names: &[&str],
        get: impl Fn(&str) -> (T, u64) + Sync,
    ) -> Vec<T> {
        let config = format!("capture {}", self.input);
        self.cells(names.to_vec(), |name| {
            let (out, accesses) = get(name);
            Completed::new(out, 3 * accesses).at(CellId::new(experiment, name, config.as_str()))
        })
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
    use fvl_mem::{Bus, CountingSink, Trace};

    /// The names of all fourteen built-in workloads.
    fn every_workload() -> Vec<&'static str> {
        let ctx = ExperimentContext::quick();
        ctx.all_int().into_iter().chain(ctx.all_fp()).collect()
    }

    #[test]
    fn capped_records_are_prefixes_of_the_full_run_for_every_workload() {
        assert_eq!(every_workload().len(), 14);
        for name in every_workload() {
            let (full, stopped) = record(workload(name, InputSize::Test, 1), None);
            assert!(!stopped, "{name}: an uncapped run stopped");
            let full: Trace = full.to_trace();
            for cap in [0, 1, SMOKE_REFS] {
                let (capped, stopped) = record(workload(name, InputSize::Test, 1), Some(cap));
                assert!(stopped, "{name} has more than {cap} accesses at test input");
                let expect = PackedTrace::from_trace(&full.prefix(cap));
                assert_eq!(capped.addrs(), expect.addrs(), "{name}, cap {cap}");
                assert_eq!(capped.values(), expect.values(), "{name}, cap {cap}");
                assert_eq!(
                    capped.region_events(),
                    expect.region_events(),
                    "{name}, cap {cap}"
                );
            }
        }
    }

    /// Counted, not timed: a capped run of a longer workload issues the
    /// access that ends it and no other beyond the cap.
    #[test]
    fn a_capped_run_issues_exactly_one_access_past_its_cap() {
        for input in [InputSize::Test, InputSize::Ref] {
            for name in every_workload() {
                for cap in [0, 1, SMOKE_REFS] {
                    let mut w = workload(name, input, 1);
                    let mut sink = CountingSink::new();
                    let mut mem = TracedMemory::new(&mut sink);
                    assert!(mem.run(Some(cap), |mem| w.run(mem)));
                    assert_eq!(mem.accesses(), cap + 1, "{name} at {input}, cap {cap}");
                    drop(mem);
                    assert_eq!(sink.accesses(), cap, "{name} at {input}, cap {cap}");
                }
            }
        }
    }

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
