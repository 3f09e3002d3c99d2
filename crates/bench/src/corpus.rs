//! Out-of-core trace corpus manager.
//!
//! Sweeps a *directory* of chunk-indexed v2.2 trace files (via
//! [`fvl_mem::MappedTrace`]) that may collectively be far larger than
//! memory. Files stay memory-mapped (never decoded whole, except in the
//! explicit in-RAM baseline mode) and decode one
//! [`fvl_mem::CHUNK_ACCESSES`]-sized chunk at a time; a shared
//! [`ResidencyBudget`] bounds how many decoded-chunk bytes are live
//! across all worker threads at once.
//!
//! Two passes run over the corpus, both spread over the workers of an
//! [`fvl_runner::Pool`] sized to the machine:
//!
//! 1. **Digest pass** — chunk-granular: every `(file, chunk)` pair is an
//!    independent work item, so a single huge trace still spreads across
//!    all workers. Per-chunk column digests fold (in chunk order) into
//!    one digest per file.
//! 2. **Simulation pass** — trace-granular: each file streams chunk by
//!    chunk through the [`SWEEP_GEOMETRIES`] cache simulators and a
//!    [`ReuseProfiler`] miss-rate curve, all fed from the same
//!    resident chunk. With [`ChunkDecode::Pipelined`] (the default) a
//!    producer thread runs one chunk ahead of simulation: it issues an
//!    `madvise(WILLNEED)` prefetch for chunk *i + 1*, then decodes
//!    chunk *i* while the consumer is still simulating chunk *i − 1*,
//!    handing decoded blocks over a bounded ring so decode latency
//!    overlaps simulation instead of serialising with it.
//!
//! In mapped mode the byte budget is **split**: half backs the
//! per-file decoded-chunk LRU caches
//! ([`MappedTrace::set_chunk_cache_capacity`]) so the second pass can
//! reuse first-pass decodes, and the other half bounds in-flight
//! (pipelined) decodes through the [`ResidencyBudget`]. Cache-resident
//! and in-flight bytes are accounted separately and each stays under
//! its share, so total decoded residency stays under the configured
//! budget.
//!
//! [`ReplayMode::InRam`] is the A/B baseline: each trace is decoded to a
//! fully resident [`PackedTrace`] and replayed conventionally. Both modes
//! must produce byte-identical [`TraceSummary`] values — only the
//! [`BudgetStats`] and [`ChunkCacheStats`] (timing-class data) may
//! differ.

use fvl_cache::{CacheGeometry, CacheSim, CacheStats};
use fvl_mem::{
    AccessSink, AddrCodec, ChunkCacheStats, MappedTrace, PackedTrace, Region, RegionEvent,
    RegionKind, SimMemory, HEAP_BASE, STORE_BIT,
};
use fvl_profile::{MissCurve, ReuseProfiler};
use fvl_runner::Pool;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// Default bound on decoded-chunk bytes resident across all workers.
pub const DEFAULT_BUDGET_BYTES: u64 = 4 * 1024 * 1024;

/// Depth of the decode-ahead ring in [`ChunkDecode::Pipelined`] mode:
/// how many decoded chunks may sit between the producer and the
/// simulating consumer (each still holding its budget reservation).
pub const PIPELINE_DEPTH: usize = 4;

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

/// Counter-semaphore bounding the decoded-chunk bytes resident at once.
///
/// Workers call [`ResidencyBudget::admit`] before decoding a chunk and
/// hold the returned [`ChunkGuard`] while the decoded columns are live;
/// dropping the guard releases the bytes and wakes waiters. A chunk
/// larger than the whole budget is still admitted once nothing else is
/// resident, so an oversized chunk degrades to serial decode instead of
/// deadlocking.
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
    /// High-water mark of resident decoded bytes.
    pub peak: u64,
    /// Admissions that had to block for residency to drain.
    pub waits: u64,
    /// Total chunk admissions.
    pub admissions: u64,
    /// Total bytes admitted across the run.
    pub admitted_bytes: u64,
}

impl ResidencyBudget {
    /// Creates a budget bounding resident decoded bytes to `limit`.
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

/// RAII reservation of decoded-chunk bytes in a [`ResidencyBudget`].
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
/// its chunk index and region side table are resident).
#[derive(Debug)]
pub struct CorpusEntry {
    /// File stem, used as the workload name in reports.
    pub name: String,
    /// Where the file lives.
    pub path: PathBuf,
    /// The mapped (or buffered-fallback) trace.
    pub trace: MappedTrace,
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

    /// Worst-case decoded bytes of any single chunk in the corpus.
    pub fn max_chunk_bytes(&self) -> u64 {
        self.entries
            .iter()
            .flat_map(|e| (0..e.trace.chunk_count()).map(|i| e.trace.chunk_decoded_bytes(i)))
            .max()
            .unwrap_or(0)
    }

    /// How many files are served by a real memory map (vs the buffered
    /// heap fallback).
    pub fn mapped_files(&self) -> usize {
        self.entries.iter().filter(|e| e.trace.is_mapped()).count()
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

#[derive(Copy, Clone, Debug, Default)]
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

/// How the sweep reaches trace data.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReplayMode {
    /// Out-of-core: mapped files, lazy chunk decode under the budget.
    Mapped,
    /// A/B baseline: each trace fully decoded into a resident
    /// [`PackedTrace`] before replay. The budget is not consulted.
    InRam,
}

impl ReplayMode {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ReplayMode::Mapped => "mapped",
            ReplayMode::InRam => "in-ram",
        }
    }
}

/// How the simulation pass obtains decoded chunks in mapped mode.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChunkDecode {
    /// Decode each chunk on the simulating thread, serially with the
    /// simulation itself (the pre-pipeline behaviour; kept as the A/B
    /// comparison lane).
    Inline,
    /// Decode one chunk ahead on a producer thread: prefetch chunk
    /// `i + 1` (`madvise(WILLNEED)` on the mmap path), decode chunk `i`,
    /// and hand decoded blocks to the simulating consumer over a
    /// bounded ring of depth [`PIPELINE_DEPTH`]. Every in-flight block
    /// holds its [`ResidencyBudget`] reservation until consumed.
    Pipelined,
}

impl ChunkDecode {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ChunkDecode::Inline => "inline",
            ChunkDecode::Pipelined => "pipelined",
        }
    }
}

/// Everything the sweep measured about one trace file. Identical
/// between [`ReplayMode::Mapped`] and [`ReplayMode::InRam`] by
/// construction — that invariant is what the `diff_corpus` conformance
/// runner and the CI corpus smoke job check end to end.
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

/// Result of [`sweep_corpus`]: per-file summaries (in file-name order)
/// plus the budget accounting for the whole run.
#[derive(Debug)]
pub struct CorpusReport {
    /// How trace data was reached.
    pub mode: ReplayMode,
    /// How the simulation pass decoded chunks (mapped mode only).
    pub decode: ChunkDecode,
    /// Per-file results, in corpus order.
    pub summaries: Vec<TraceSummary>,
    /// Residency accounting (timing-class: scheduling-dependent).
    pub budget: BudgetStats,
    /// Decoded-chunk cache accounting summed over all files
    /// (timing-class; all-zero in in-RAM mode or when the budget is
    /// too small to fund a cache share).
    pub cache: ChunkCacheStats,
}

/// Obtains chunk `i` of `trace`, preferring the trace's decoded-chunk
/// cache. A cache hit carries no [`ChunkGuard`] — its bytes are already
/// accounted against the cache's capacity share; only a fresh decode
/// reserves in-flight budget (and is inserted into the cache for the
/// next pass, if one is configured).
fn fetch_chunk<'b>(
    trace: &MappedTrace,
    budget: &'b ResidencyBudget,
    i: u64,
) -> io::Result<(Arc<PackedTrace>, Option<ChunkGuard<'b>>)> {
    if let Some(chunk) = trace.cached_chunk(i) {
        return Ok((chunk, None));
    }
    let guard = budget.admit(trace.chunk_decoded_bytes(i));
    let chunk = trace.decode_chunk_cached(i)?;
    Ok((chunk, Some(guard)))
}

/// Streams one mapped trace into several sinks chunk by chunk, holding
/// a budget reservation while each decoded chunk is live. Every sink
/// sees exactly the event stream of a resident replay and is finished
/// once. In [`ChunkDecode::Pipelined`] mode a producer thread prefetches
/// and decodes one chunk ahead of the simulating consumer.
fn replay_budgeted(
    trace: &MappedTrace,
    budget: &ResidencyBudget,
    decode: ChunkDecode,
    sinks: &mut [&mut dyn AccessSink],
) -> io::Result<()> {
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
    } else {
        match decode {
            ChunkDecode::Inline => {
                for i in 0..trace.chunk_count() {
                    let (chunk, guard) = fetch_chunk(trace, budget, i)?;
                    for sink in sinks.iter_mut() {
                        chunk.feed_into(&mut **sink);
                    }
                    drop(guard);
                }
            }
            ChunkDecode::Pipelined => {
                std::thread::scope(|scope| -> io::Result<()> {
                    let (tx, rx) = mpsc::sync_channel(PIPELINE_DEPTH);
                    let producer = scope.spawn(move || -> io::Result<()> {
                        trace.prefetch_chunk(0);
                        for i in 0..trace.chunk_count() {
                            if i + 1 < trace.chunk_count() {
                                trace.prefetch_chunk(i + 1);
                            }
                            let block = fetch_chunk(trace, budget, i)?;
                            if tx.send(block).is_err() {
                                break; // consumer dropped the ring
                            }
                        }
                        Ok(())
                    });
                    for (chunk, guard) in rx {
                        for sink in sinks.iter_mut() {
                            chunk.feed_into(&mut **sink);
                        }
                        drop(guard);
                    }
                    producer.join().expect("corpus decode producer panicked")
                })?;
            }
        }
    }
    for sink in sinks.iter_mut() {
        sink.on_finish();
    }
    Ok(())
}

/// Digest pass: chunk-granular work items in mapped mode (so even one
/// huge file parallelizes), file-granular in the in-RAM baseline. The
/// fold is chunk-ordered either way, so both modes agree bit for bit.
fn digest_pass(
    corpus: &Corpus,
    budget: &ResidencyBudget,
    mode: ReplayMode,
) -> io::Result<Vec<(u64, u64)>> {
    match mode {
        ReplayMode::Mapped => {
            let items: Vec<(usize, u64)> = corpus
                .entries
                .iter()
                .enumerate()
                .flat_map(|(f, e)| (0..e.trace.chunk_count()).map(move |c| (f, c)))
                .collect();
            let per_chunk = Pool::auto().map(items.clone(), |(f, c)| {
                let trace = &corpus.entries[f].trace;
                let (chunk, _guard) = fetch_chunk(trace, budget, c)?;
                Ok::<ChunkFacts, io::Error>(chunk_facts(chunk.addrs(), chunk.values()))
            });
            let mut folds = vec![(DIGEST_SEED, 0u64); corpus.len()];
            for (&(f, _), facts) in items.iter().zip(per_chunk) {
                let facts = facts?;
                folds[f].0 = fold_digest(folds[f].0, facts.digest);
                folds[f].1 += facts.stores;
            }
            Ok(folds)
        }
        ReplayMode::InRam => {
            let results = Pool::auto().map(corpus.entries.iter().collect(), |entry| {
                let trace = &entry.trace;
                let packed = trace.to_packed()?;
                let (addrs, values) = (packed.addrs(), packed.values());
                let ca = trace.chunk_accesses() as usize;
                let mut fold = (DIGEST_SEED, 0u64);
                for c in 0..trace.chunk_count() {
                    let lo = (c as usize) * ca;
                    let hi = (lo + ca).min(addrs.len());
                    let facts = chunk_facts(&addrs[lo..hi], &values[lo..hi]);
                    fold.0 = fold_digest(fold.0, facts.digest);
                    fold.1 += facts.stores;
                }
                Ok::<(u64, u64), io::Error>(fold)
            });
            results.into_iter().collect()
        }
    }
}

/// One file's simulation-pass result: per-geometry labelled stats plus
/// the reuse-distance curve.
type FileSimResult = (Vec<(&'static str, CacheStats)>, MissCurve);

/// Simulation pass: every file runs through the [`SWEEP_GEOMETRIES`]
/// simulators plus the reuse-distance profiler, all fed from one
/// decode of each chunk.
fn sim_pass(
    corpus: &Corpus,
    budget: &ResidencyBudget,
    mode: ReplayMode,
    decode: ChunkDecode,
) -> io::Result<Vec<FileSimResult>> {
    let results = Pool::auto().map(corpus.entries.iter().collect(), |entry| {
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
        {
            let mut sinks: Vec<&mut dyn AccessSink> =
                sims.iter_mut().map(|s| s as &mut dyn AccessSink).collect();
            sinks.push(&mut profiler);
            match mode {
                ReplayMode::Mapped => replay_budgeted(trace, budget, decode, &mut sinks)?,
                ReplayMode::InRam => {
                    let packed = trace.to_packed()?;
                    for sink in sinks.iter_mut() {
                        packed.replay_into(&mut **sink);
                    }
                }
            }
        }
        let stats: Vec<(&'static str, CacheStats)> = SWEEP_GEOMETRIES
            .iter()
            .zip(&sims)
            .map(|(&(label, ..), sim)| (label, *sim.stats()))
            .collect();
        Ok::<_, io::Error>((stats, profiler.curve()))
    });
    results.into_iter().collect()
}

/// Runs both corpus passes under one residency budget and assembles the
/// per-file summaries, with the default [`ChunkDecode::Pipelined`]
/// decode-ahead simulation pass.
///
/// # Errors
///
/// Propagates chunk-decode failures from either pass.
pub fn sweep_corpus(
    corpus: &Corpus,
    budget_bytes: u64,
    mode: ReplayMode,
) -> io::Result<CorpusReport> {
    sweep_corpus_with(corpus, budget_bytes, mode, ChunkDecode::Pipelined)
}

/// [`sweep_corpus`] with an explicit simulation-pass decode strategy.
///
/// In mapped mode half the byte budget funds the per-file decoded-chunk
/// LRU caches (split evenly across files) and the other half bounds
/// in-flight decodes; when the budget is too small to give every file a
/// non-zero share, caching stays disabled and the whole budget bounds
/// in-flight decodes, which degrades to the pre-cache behaviour.
///
/// # Errors
///
/// Propagates chunk-decode failures from either pass.
pub fn sweep_corpus_with(
    corpus: &Corpus,
    budget_bytes: u64,
    mode: ReplayMode,
    decode: ChunkDecode,
) -> io::Result<CorpusReport> {
    let mut cache_share_per_file = 0u64;
    if mode == ReplayMode::Mapped && !corpus.is_empty() {
        cache_share_per_file = (budget_bytes / 2) / corpus.len() as u64;
        for entry in &corpus.entries {
            entry.trace.set_chunk_cache_capacity(cache_share_per_file);
        }
    }
    let cache_share = cache_share_per_file * corpus.len() as u64;
    let budget = ResidencyBudget::new(budget_bytes - cache_share);
    let result = (|| -> io::Result<Vec<TraceSummary>> {
        let folds = digest_pass(corpus, &budget, mode)?;
        let sims = sim_pass(corpus, &budget, mode, decode)?;
        Ok(corpus
            .entries
            .iter()
            .zip(folds)
            .zip(sims)
            .map(
                |((entry, (digest, stores)), (geometries, curve))| TraceSummary {
                    name: entry.name.clone(),
                    accesses: entry.trace.accesses(),
                    stores,
                    chunks: entry.trace.chunk_count(),
                    file_bytes: entry.trace.file_bytes(),
                    digest,
                    geometries,
                    curve,
                },
            )
            .collect())
    })();
    // Snapshot cache accounting, then release the cached chunks — the
    // corpus may be swept again (possibly in a different mode) and the
    // caches should not outlive the sweep that funded them.
    let mut cache = ChunkCacheStats::default();
    for entry in &corpus.entries {
        let st = entry.trace.chunk_cache_stats();
        cache.capacity += st.capacity;
        cache.resident += st.resident;
        cache.peak += st.peak;
        cache.hits += st.hits;
        cache.misses += st.misses;
        cache.evictions += st.evictions;
        if cache_share_per_file > 0 {
            entry.trace.set_chunk_cache_capacity(0);
        }
    }
    Ok(CorpusReport {
        mode,
        decode,
        summaries: result?,
        budget: budget.stats(),
        cache,
    })
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
        // decodes to ~8KB (+ region table), while the budget is 32KB —
        // far below the ~640KB total decoded footprint.
        write_synthetic_corpus(&dir, 4, 20_000, 7, 1024).unwrap();
        let corpus = Corpus::open_dir(&dir).unwrap();
        assert_eq!(corpus.len(), 4);
        let budget_bytes = 32 * 1024;
        assert!(corpus.total_accesses() * 8 > 4 * budget_bytes);
        assert!(corpus.max_chunk_bytes() <= budget_bytes);
        let report = sweep_corpus(&corpus, budget_bytes, ReplayMode::Mapped).unwrap();
        // In-flight peak stays under the in-flight share and the cache
        // under its share, so total decoded residency stays under the
        // configured budget.
        assert!(
            report.budget.peak + report.cache.peak <= budget_bytes,
            "accounted peak {} + cache peak {} exceeds budget {}",
            report.budget.peak,
            report.cache.peak,
            budget_bytes
        );
        // Every chunk is admitted at most twice (once per pass); cache
        // hits in the second pass skip admission entirely.
        let total = corpus.total_chunks();
        assert!(
            (total..=2 * total).contains(&report.budget.admissions),
            "admissions {} outside [{total}, {}]",
            report.budget.admissions,
            2 * total
        );
        assert_eq!(report.summaries.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn big_budget_reuses_first_pass_decodes() {
        let dir = temp_dir("cache-reuse");
        // 64MB budget over a ~KB-scale corpus: every file's cache share
        // holds the whole file, so the simulation pass decodes nothing.
        write_synthetic_corpus(&dir, 3, 5_000, 11, 512).unwrap();
        let corpus = Corpus::open_dir(&dir).unwrap();
        let report = sweep_corpus(&corpus, 64 * 1024 * 1024, ReplayMode::Mapped).unwrap();
        let total = corpus.total_chunks();
        assert_eq!(
            report.cache.misses, total,
            "each chunk should decode exactly once: {:?}",
            report.cache
        );
        assert_eq!(
            report.cache.hits, total,
            "the simulation pass should run entirely from cache: {:?}",
            report.cache
        );
        assert_eq!(report.budget.admissions, total);
        assert_eq!(report.cache.evictions, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipelined_and_inline_decode_agree() {
        let dir = temp_dir("decode-ab");
        write_synthetic_corpus(&dir, 2, 8_000, 5, 256).unwrap();
        let corpus = Corpus::open_dir(&dir).unwrap();
        let piped = sweep_corpus_with(
            &corpus,
            24 * 1024,
            ReplayMode::Mapped,
            ChunkDecode::Pipelined,
        )
        .unwrap();
        let inline =
            sweep_corpus_with(&corpus, 24 * 1024, ReplayMode::Mapped, ChunkDecode::Inline).unwrap();
        assert_eq!(piped.decode, ChunkDecode::Pipelined);
        assert_eq!(inline.decode, ChunkDecode::Inline);
        assert_eq!(piped.summaries.len(), inline.summaries.len());
        for (p, i) in piped.summaries.iter().zip(&inline.summaries) {
            assert_eq!(p.name, i.name);
            assert_eq!(p.digest, i.digest);
            assert_eq!(p.stores, i.stores);
            assert_eq!(p.geometries, i.geometries);
            assert_eq!(p.curve, i.curve);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_and_in_ram_modes_agree() {
        let dir = temp_dir("ab");
        write_synthetic_corpus(&dir, 3, 5_000, 42, 512).unwrap();
        let corpus = Corpus::open_dir(&dir).unwrap();
        let mapped = sweep_corpus(&corpus, 16 * 1024, ReplayMode::Mapped).unwrap();
        let in_ram = sweep_corpus(&corpus, 16 * 1024, ReplayMode::InRam).unwrap();
        assert_eq!(mapped.summaries.len(), in_ram.summaries.len());
        for (m, r) in mapped.summaries.iter().zip(&in_ram.summaries) {
            assert_eq!(m.name, r.name);
            assert_eq!(m.digest, r.digest);
            assert_eq!(m.stores, r.stores);
            assert_eq!(m.geometries, r.geometries);
            assert_eq!(m.curve, r.curve);
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
        let report = sweep_corpus(&corpus, 1024, ReplayMode::Mapped).unwrap();
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
