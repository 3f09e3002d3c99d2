//! Out-of-core trace corpus manager.
//!
//! Sweeps a *directory* of chunk-indexed v2.2 trace files (via
//! [`fvl_mem::MappedTrace`]) that may collectively be far larger than
//! memory. Nothing is memory-mapped: each file stays on disk and each
//! [`fvl_mem::CHUNK_ACCESSES`]-sized chunk is read with one positioned
//! read into a buffer and decoded, and a shared [`ResidencyBudget`]
//! bounds the bytes those buffers and decoded columns hold across all
//! worker threads at once.
//!
//! The sweep is **one pass**: the files are spread over the workers of
//! an [`fvl_runner::Pool`] sized to the machine, and each worker
//! streams its file chunk by chunk. Every chunk is admitted to the
//! budget, read and decoded exactly once, and that one decode feeds the
//! chunk's column digest and store count, the [`SWEEP_GEOMETRIES`]
//! cache simulators and a [`ReuseProfiler`] miss-rate curve. Nothing is
//! cached and nothing is decoded ahead, so a corpus with fewer files
//! than workers leaves workers idle.
//!
//! Every [`TraceSummary`] depends only on the files, never on the
//! budget or the worker count; only the [`BudgetStats`] (timing-class
//! data) do.

use fvl_cache::{CacheGeometry, CacheSim, CacheStats};
use fvl_mem::{
    AccessSink, AddrCodec, MappedTrace, PackedTrace, Region, RegionEvent, RegionKind, SimMemory,
    HEAP_BASE, STORE_BIT,
};
use fvl_profile::{MissCurve, ReuseProfiler};
use fvl_runner::Pool;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

/// Default bound on the chunk bytes (read buffers plus decoded
/// columns) resident across all workers.
pub const DEFAULT_BUDGET_BYTES: u64 = 4 * 1024 * 1024;

/// File extension the corpus manager picks up from a directory.
pub const TRACE_EXTENSION: &str = "fvltrc";

/// Cache geometries every corpus trace is replayed through:
/// `(label, capacity KiB, line bytes, associativity)`.
pub const SWEEP_GEOMETRIES: [(&str, u64, u32, u32); 3] = [
    ("dm-8k", 8, 32, 1),
    ("dm-16k", 16, 32, 1),
    ("4way-64k", 64, 32, 4),
];

// ---- residency budget ----------------------------------------------------

/// Counter-semaphore bounding the chunk bytes resident at once.
///
/// Workers call [`ResidencyBudget::admit`] with
/// [`MappedTrace::chunk_resident_bytes`] before reading a chunk and hold
/// the returned [`ChunkGuard`] while its read buffer and decoded
/// columns are live; dropping the guard releases the bytes and wakes
/// waiters. A chunk larger than the whole budget is still admitted once
/// nothing else is resident, so an oversized chunk degrades to serial
/// decode instead of deadlocking.
#[derive(Debug)]
pub struct ResidencyBudget {
    limit: u64,
    state: Mutex<BudgetState>,
    freed: Condvar,
}

#[derive(Copy, Clone, Debug, Default)]
struct BudgetState {
    resident: u64,
    peak: u64,
    waits: u64,
    admissions: u64,
    admitted_bytes: u64,
}

/// Snapshot of a [`ResidencyBudget`]'s accounting.
///
/// `peak` is the high-water mark of *accounted* resident bytes — the
/// quantity the budget actually bounds (`peak <= limit` whenever every
/// single chunk fits the budget). `waits` counts blocked admissions and
/// is scheduling-dependent, so it belongs only in timing-gated output.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BudgetStats {
    /// Configured bound in bytes.
    pub limit: u64,
    /// High-water mark of resident chunk bytes.
    pub peak: u64,
    /// Admissions that had to block for residency to drain.
    pub waits: u64,
    /// Total chunk admissions.
    pub admissions: u64,
    /// Total bytes admitted across the run.
    pub admitted_bytes: u64,
}

impl ResidencyBudget {
    /// Creates a budget bounding resident chunk bytes to `limit`.
    pub fn new(limit: u64) -> Self {
        ResidencyBudget {
            limit,
            state: Mutex::new(BudgetState::default()),
            freed: Condvar::new(),
        }
    }

    /// The configured bound in bytes.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Blocks until `bytes` fit under the budget, then reserves them.
    ///
    /// The reservation lives as long as the returned guard. When
    /// `bytes` alone exceeds the budget, admission waits for an empty
    /// budget rather than forever.
    pub fn admit(&self, bytes: u64) -> ChunkGuard<'_> {
        let mut st = self.state.lock().expect("residency budget poisoned");
        while st.resident > 0 && st.resident + bytes > self.limit {
            st.waits += 1;
            st = self.freed.wait(st).expect("residency budget poisoned");
        }
        st.resident += bytes;
        st.peak = st.peak.max(st.resident);
        st.admissions += 1;
        st.admitted_bytes += bytes;
        ChunkGuard {
            budget: self,
            bytes,
        }
    }

    /// Snapshot of the accounting counters.
    pub fn stats(&self) -> BudgetStats {
        let st = self.state.lock().expect("residency budget poisoned");
        BudgetStats {
            limit: self.limit,
            peak: st.peak,
            waits: st.waits,
            admissions: st.admissions,
            admitted_bytes: st.admitted_bytes,
        }
    }
}

/// RAII reservation of chunk bytes in a [`ResidencyBudget`].
#[derive(Debug)]
pub struct ChunkGuard<'a> {
    budget: &'a ResidencyBudget,
    bytes: u64,
}

impl Drop for ChunkGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.budget.state.lock().expect("residency budget poisoned");
        st.resident -= self.bytes;
        drop(st);
        self.budget.freed.notify_all();
    }
}

// ---- corpus --------------------------------------------------------------

/// One trace file of a [`Corpus`], opened as a [`MappedTrace`] (so only
/// its chunk index and region side table are resident, and it holds one
/// open file descriptor).
#[derive(Debug)]
pub struct CorpusEntry {
    /// File stem, used as the workload name in reports.
    pub name: String,
    /// Where the file lives.
    pub path: PathBuf,
    /// The opened trace.
    pub trace: MappedTrace<'static>,
}

/// A directory of v2.2 trace files swept as one unit.
#[derive(Debug)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// Opens every `*.fvltrc` file directly inside `dir`, sorted by
    /// file name so sweep output is deterministic.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be read or any trace file is
    /// not a valid chunk-indexed v2.2 trace.
    pub fn open_dir(dir: &Path) -> io::Result<Corpus> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == TRACE_EXTENSION))
            .collect();
        paths.sort();
        let mut entries = Vec::with_capacity(paths.len());
        for path in paths {
            let trace = MappedTrace::open(&path)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            entries.push(CorpusEntry { name, path, trace });
        }
        Ok(Corpus { entries })
    }

    /// The corpus files in sweep order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of trace files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus holds no trace files.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total accesses across all files.
    pub fn total_accesses(&self) -> u64 {
        self.entries.iter().map(|e| e.trace.accesses()).sum()
    }

    /// Total on-disk bytes across all files.
    pub fn total_file_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.trace.file_bytes()).sum()
    }

    /// Total chunks across all files.
    pub fn total_chunks(&self) -> u64 {
        self.entries.iter().map(|e| e.trace.chunk_count()).sum()
    }

    /// Largest [`MappedTrace::chunk_resident_bytes`] of any chunk in the
    /// corpus — the budget's unit.
    pub fn max_chunk_bytes(&self) -> u64 {
        self.entries
            .iter()
            .flat_map(|e| (0..e.trace.chunk_count()).map(|i| e.trace.chunk_resident_bytes(i)))
            .max()
            .unwrap_or(0)
    }
}

// ---- digests -------------------------------------------------------------

const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const DIGEST_PRIME: u64 = 0x0000_0100_0000_01b3;
const DIGEST_COMBINE: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-style digest of one chunk's packed columns (order-sensitive).
fn chunk_digest(addrs: &[u32], values: &[u32]) -> u64 {
    let mut d = DIGEST_SEED;
    for (&a, &v) in addrs.iter().zip(values) {
        d = d.wrapping_mul(DIGEST_PRIME) ^ (a as u64 | ((v as u64) << 32));
    }
    d
}

/// Order-sensitive fold of per-chunk digests into a file digest.
fn fold_digest(file: u64, chunk: u64) -> u64 {
    file.wrapping_mul(DIGEST_COMBINE).wrapping_add(chunk)
}

#[derive(Copy, Clone, Debug)]
struct ChunkFacts {
    digest: u64,
    stores: u64,
}

fn chunk_facts(addrs: &[u32], values: &[u32]) -> ChunkFacts {
    ChunkFacts {
        digest: chunk_digest(addrs, values),
        stores: addrs.iter().filter(|&&a| a & STORE_BIT != 0).count() as u64,
    }
}

// ---- sweep ---------------------------------------------------------------

/// How the sweep reaches trace data: always by positioned reads of one
/// chunk at a time. A one-variant enum held only because the benchmark
/// package (`perfbench/`) still names it (see `ROADMAP.md`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReplayMode {
    /// Lazy chunk reads and decodes under the residency budget.
    Mapped,
}

/// How the sweep decodes chunks: always inline, once per chunk, on the
/// worker that simulates it. A one-variant enum held only because the
/// benchmark package (`perfbench/`) still names it (see `ROADMAP.md`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChunkDecode {
    /// Each chunk is read and decoded once, right before its sinks run.
    Pipelined,
}

/// Everything the sweep measured about one trace file. A function of
/// the file alone — the budget and the worker count never change it,
/// which the in-memory oracle test and the CI corpus job (a 256 KiB
/// against a default-budget sweep) check.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// File stem.
    pub name: String,
    /// Access events in the trace.
    pub accesses: u64,
    /// Store events in the trace.
    pub stores: u64,
    /// Chunks in the file's index.
    pub chunks: u64,
    /// On-disk size in bytes.
    pub file_bytes: u64,
    /// Fold of per-chunk column digests, in chunk order.
    pub digest: u64,
    /// Stats per [`SWEEP_GEOMETRIES`] entry, in declaration order.
    pub geometries: Vec<(&'static str, CacheStats)>,
    /// One-pass miss-rate-vs-capacity curve from the reuse profiler.
    pub curve: MissCurve,
}

/// Decoded-chunk cache counters, always zero: the sweep decodes each
/// chunk once and keeps no cache. Held only because the benchmark
/// package (`perfbench/`) still reads [`CorpusReport::cache`] (see
/// `ROADMAP.md`).
#[derive(Copy, Clone, Default, Debug)]
pub struct ChunkCacheStats {
    /// Lookups served from a cache (always 0).
    pub hits: u64,
    /// Lookups that had to decode (always 0).
    pub misses: u64,
}

/// Result of [`sweep_corpus`]: per-file summaries (in file-name order)
/// plus the budget accounting for the whole run.
#[derive(Debug)]
pub struct CorpusReport {
    /// Per-file results, in corpus order.
    pub summaries: Vec<TraceSummary>,
    /// Residency accounting (timing-class: scheduling-dependent).
    pub budget: BudgetStats,
    /// All zero: there is no chunk cache (see [`ChunkCacheStats`]).
    pub cache: ChunkCacheStats,
}

/// Sweeps one file in one pass: each chunk is admitted to `budget`,
/// read and decoded once, folded into the digest and store count, and
/// fed to the [`SWEEP_GEOMETRIES`] simulators and the reuse profiler,
/// which are finished once at the end.
fn sweep_file(entry: &CorpusEntry, budget: &ResidencyBudget) -> io::Result<TraceSummary> {
    let trace = &entry.trace;
    let mut sims: Vec<CacheSim> = SWEEP_GEOMETRIES
        .iter()
        .map(|&(_, kb, line, assoc)| {
            CacheSim::new(
                CacheGeometry::new(kb * 1024, line, assoc)
                    .expect("sweep geometries are valid by construction"),
            )
        })
        .collect();
    let mut profiler = ReuseProfiler::new();
    let (mut digest, mut stores) = (DIGEST_SEED, 0u64);
    {
        let mut sinks: Vec<&mut dyn AccessSink> =
            sims.iter_mut().map(|s| s as &mut dyn AccessSink).collect();
        sinks.push(&mut profiler);
        if trace.chunk_count() == 0 {
            for event in trace.region_events() {
                for sink in sinks.iter_mut() {
                    if event.is_alloc {
                        sink.on_alloc(event.region);
                    } else {
                        sink.on_free(event.region);
                    }
                }
            }
        }
        for i in 0..trace.chunk_count() {
            let _guard = budget.admit(trace.chunk_resident_bytes(i));
            let chunk = trace.decode_chunk(i)?;
            let facts = chunk_facts(chunk.addrs(), chunk.values());
            digest = fold_digest(digest, facts.digest);
            stores += facts.stores;
            for sink in sinks.iter_mut() {
                chunk.feed_into(&mut **sink);
            }
        }
        for sink in sinks.iter_mut() {
            sink.on_finish();
        }
    }
    Ok(TraceSummary {
        name: entry.name.clone(),
        accesses: trace.accesses(),
        stores,
        chunks: trace.chunk_count(),
        file_bytes: trace.file_bytes(),
        digest,
        geometries: SWEEP_GEOMETRIES
            .iter()
            .zip(&sims)
            .map(|(&(label, ..), sim)| (label, *sim.stats()))
            .collect(),
        curve: profiler.curve(),
    })
}

/// Sweeps every file of `corpus` in one pass, the files spread over a
/// machine-sized [`Pool`], with at most `budget_bytes` of chunk read
/// buffers and decoded columns resident at once (a chunk larger than
/// the budget is admitted alone).
///
/// # Errors
///
/// Propagates chunk read and decode failures.
pub fn sweep_corpus(corpus: &Corpus, budget_bytes: u64) -> io::Result<CorpusReport> {
    let budget = ResidencyBudget::new(budget_bytes);
    let summaries = Pool::auto()
        .map(corpus.entries.iter().collect(), |entry| {
            sweep_file(entry, &budget)
        })
        .into_iter()
        .collect::<io::Result<Vec<_>>>()?;
    Ok(CorpusReport {
        summaries,
        budget: budget.stats(),
        cache: ChunkCacheStats::default(),
    })
}

/// [`sweep_corpus`]; the mode and decode arguments each have one
/// value. Held only because the benchmark package (`perfbench/`) still
/// calls it (see `ROADMAP.md`).
///
/// # Errors
///
/// Propagates chunk read and decode failures.
pub fn sweep_corpus_with(
    corpus: &Corpus,
    budget_bytes: u64,
    _mode: ReplayMode,
    _decode: ChunkDecode,
) -> io::Result<CorpusReport> {
    sweep_corpus(corpus, budget_bytes)
}

// ---- synthetic corpus generation -----------------------------------------

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Deterministic synthetic trace with the access structure the corpus
/// machinery cares about: strong spatial locality (small address
/// deltas, so the v2.2 address column compresses), a frequent-value
/// working set, a store fraction, and heap region events bracketing
/// the stream. Load values are consistent with prior stores (words
/// never stored read as zero), matching the value cross-check in
/// [`CacheSim`].
pub fn synth_trace(accesses: u64, seed: u64) -> PackedTrace {
    const FREQUENT: [u32; 8] = [0, 1, 0xffff_ffff, 7, 64, 0x8000_0000, 1024, 3];
    let n = usize::try_from(accesses).expect("synthetic trace fits in memory");
    let mut rng = (seed ^ 0x9e37_79b9_7f4a_7c15) | 1;
    let mut addrs = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n);
    let mut shadow = SimMemory::new();
    let mut word: u32 = (HEAP_BASE >> 2) + 16;
    for _ in 0..n {
        let r = xorshift(&mut rng);
        let delta: i64 = if r.is_multiple_of(16) {
            ((r >> 8) % 4096) as i64 - 2048
        } else {
            ((r >> 8) % 9) as i64 - 4
        };
        word = word.wrapping_add(delta as u32) & (u32::MAX >> 2);
        let store = r.is_multiple_of(4);
        addrs.push((word << 2) | if store { STORE_BIT } else { 0 });
        let value = if store {
            let stored = if r % 8 < 5 {
                FREQUENT[((r >> 16) % FREQUENT.len() as u64) as usize]
            } else {
                (r >> 24) as u32
            };
            shadow.write(word << 2, stored);
            stored
        } else {
            shadow.read(word << 2)
        };
        values.push(value);
    }
    let region = Region::new(HEAP_BASE, 4096, RegionKind::Heap);
    let regions = vec![
        RegionEvent {
            pos: 0,
            is_alloc: true,
            region,
        },
        RegionEvent {
            pos: accesses,
            is_alloc: false,
            region,
        },
    ];
    PackedTrace::from_columns(addrs, values, regions)
        .expect("synthetic columns are valid by construction")
}

/// Writes `traces` synthetic v2.2 files into `dir` (created if absent)
/// and returns their paths in corpus order. File `i` gets
/// `accesses + i` events so chunk-boundary stragglers vary across the
/// corpus.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_synthetic_corpus(
    dir: &Path,
    traces: usize,
    accesses: u64,
    seed: u64,
    chunk_accesses: u32,
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(traces);
    for i in 0..traces {
        let trace = synth_trace(accesses + i as u64, seed.wrapping_add(i as u64));
        let path = dir.join(format!("synth-{i:03}.{TRACE_EXTENSION}"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace.write_v22_with(&mut file, chunk_accesses)?;
        std::io::Write::flush(&mut file)?;
        paths.push(path);
    }
    Ok(paths)
}

/// [`write_synthetic_corpus`]; `codec` is always [`AddrCodec::Split`],
/// the one v2.2 address codec. The parameter is held for the benchmark
/// package (`perfbench/`), which still passes it, until a
/// benchmark-scoped change retires it (see `ROADMAP.md`).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_synthetic_corpus_with(
    dir: &Path,
    traces: usize,
    accesses: u64,
    seed: u64,
    chunk_accesses: u32,
    _codec: AddrCodec,
) -> io::Result<Vec<PathBuf>> {
    write_synthetic_corpus(dir, traces, accesses, seed, chunk_accesses)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fvl-corpus-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn budget_admits_and_releases() {
        let budget = ResidencyBudget::new(100);
        {
            let _a = budget.admit(60);
            let _b = budget.admit(40);
            assert_eq!(budget.stats().peak, 100);
        }
        // Oversized single chunk is admitted when nothing is resident.
        let _c = budget.admit(500);
        let st = budget.stats();
        assert_eq!(st.peak, 500);
        assert_eq!(st.admissions, 3);
        assert_eq!(st.admitted_bytes, 600);
    }

    #[test]
    fn budget_blocks_until_release() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let budget = Arc::new(ResidencyBudget::new(100));
        let guard = budget.admit(80);
        let released = Arc::new(AtomicBool::new(false));
        let handle = {
            let budget = Arc::clone(&budget);
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                let _g = budget.admit(50);
                // Admission only succeeds after the main thread dropped
                // its guard.
                assert!(released.load(Ordering::SeqCst));
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        released.store(true, Ordering::SeqCst);
        drop(guard);
        handle.join().unwrap();
        assert!(budget.stats().waits >= 1);
    }

    #[test]
    fn corpus_larger_than_budget_sweeps_within_accounted_peak() {
        let dir = temp_dir("peak");
        // 4 files x ~20k accesses at 1k-access chunks: every chunk
        // holds ~8KB of decoded columns plus its read buffer, while the
        // budget is 32KB — far below the corpus's decoded footprint.
        write_synthetic_corpus(&dir, 4, 20_000, 7, 1024).unwrap();
        let corpus = Corpus::open_dir(&dir).unwrap();
        assert_eq!(corpus.len(), 4);
        let budget_bytes = 32 * 1024;
        assert!(corpus.total_accesses() * 8 > 4 * budget_bytes);
        assert!(corpus.max_chunk_bytes() <= budget_bytes);
        let report = sweep_corpus(&corpus, budget_bytes).unwrap();
        assert!(
            report.budget.peak <= budget_bytes,
            "accounted peak {} exceeds budget {budget_bytes}",
            report.budget.peak
        );
        assert_eq!(report.budget.admissions, corpus.total_chunks());
        assert_eq!(report.summaries.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sweep against an oracle computed from the in-memory traces
    /// with no decoder involved: a chunk-aligned fold of `chunk_facts`,
    /// one `CacheSim` per geometry and a `ReuseProfiler` curve. At a
    /// budget below one chunk, a few chunks, and the default, every
    /// chunk is admitted once and the accounted peak stays within the
    /// budget (or within one chunk, which is admitted alone).
    #[test]
    fn sweep_matches_an_in_memory_oracle_at_every_budget() {
        let dir = temp_dir("oracle");
        let (traces, accesses, seed, chunk) = (3usize, 5_000u64, 42u64, 512u32);
        write_synthetic_corpus(&dir, traces, accesses, seed, chunk).unwrap();
        let corpus = Corpus::open_dir(&dir).unwrap();
        let one_chunk = corpus.max_chunk_bytes();
        for budget_bytes in [one_chunk / 2, 3 * one_chunk, DEFAULT_BUDGET_BYTES] {
            let report = sweep_corpus(&corpus, budget_bytes).unwrap();
            assert_eq!(report.budget.admissions, corpus.total_chunks());
            assert!(
                report.budget.peak <= budget_bytes.max(one_chunk),
                "peak {} over budget {budget_bytes} (largest chunk {one_chunk})",
                report.budget.peak
            );
            assert_eq!(report.summaries.len(), traces);
            for (i, got) in (0u64..).zip(&report.summaries) {
                let trace = synth_trace(accesses + i, seed.wrapping_add(i));
                let ca = chunk as usize;
                let (mut digest, mut stores) = (DIGEST_SEED, 0);
                for (addrs, values) in trace.addrs().chunks(ca).zip(trace.values().chunks(ca)) {
                    let facts = chunk_facts(addrs, values);
                    digest = fold_digest(digest, facts.digest);
                    stores += facts.stores;
                }
                assert_eq!(got.name, format!("synth-{i:03}"));
                assert_eq!(got.accesses, trace.accesses());
                assert_eq!(got.chunks, trace.accesses().div_ceil(u64::from(chunk)));
                assert_eq!((got.digest, got.stores), (digest, stores), "{}", got.name);
                assert_eq!(got.geometries.len(), SWEEP_GEOMETRIES.len());
                for (&(label, kb, line, assoc), (got_label, stats)) in
                    SWEEP_GEOMETRIES.iter().zip(&got.geometries)
                {
                    let mut sim =
                        CacheSim::new(CacheGeometry::new(kb * 1024, line, assoc).unwrap());
                    trace.replay_into(&mut sim);
                    assert_eq!((*got_label, stats), (label, sim.stats()), "{}", got.name);
                }
                let mut profiler = ReuseProfiler::new();
                trace.replay_into(&mut profiler);
                assert_eq!(got.curve, profiler.curve(), "{}", got.name);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn synthetic_loads_read_the_last_value_stored_at_their_word() {
        for seed in [1, 7, 99] {
            for accesses in [0, 1, 2_000, 60_000] {
                let trace = synth_trace(accesses, seed);
                assert_eq!(trace.accesses(), accesses);
                let mut stored = std::collections::BTreeMap::new();
                let mut rereads = 0;
                for a in trace.iter_accesses() {
                    if a.kind.is_store() {
                        stored.insert(a.addr, a.value);
                    } else {
                        let last = stored.get(&a.addr).copied();
                        rereads += u64::from(last.is_some_and(|v| v != 0));
                        assert_eq!(
                            a.value,
                            last.unwrap_or(0),
                            "seed {seed}, {accesses} accesses: load of {:#x}",
                            a.addr
                        );
                    }
                }
                if accesses >= 2_000 {
                    assert!(rereads > 0, "seed {seed}: no load reads a stored value");
                }
            }
        }
    }

    #[test]
    fn digest_distinguishes_traces_and_tracks_order() {
        let a = synth_trace(1000, 1);
        let b = synth_trace(1000, 2);
        let fa = chunk_digest(a.addrs(), a.values());
        let fb = chunk_digest(b.addrs(), b.values());
        assert_ne!(fa, fb);
        assert_ne!(
            fold_digest(fold_digest(DIGEST_SEED, fa), fb),
            fold_digest(fold_digest(DIGEST_SEED, fb), fa)
        );
    }

    #[test]
    fn open_dir_ignores_foreign_files_and_sorts() {
        let dir = temp_dir("sort");
        write_synthetic_corpus(&dir, 2, 100, 3, 64).unwrap();
        std::fs::write(dir.join("notes.txt"), b"not a trace").unwrap();
        let corpus = Corpus::open_dir(&dir).unwrap();
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.entries()[0].name, "synth-000");
        assert_eq!(corpus.entries()[1].name, "synth-001");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_yields_empty_corpus() {
        let dir = temp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = Corpus::open_dir(&dir).unwrap();
        assert!(corpus.is_empty());
        let report = sweep_corpus(&corpus, 1024).unwrap();
        assert!(report.summaries.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_surfaces_its_path() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.fvltrc"), b"FVLTRC22 but truncated").unwrap();
        let err = Corpus::open_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("bad.fvltrc"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
