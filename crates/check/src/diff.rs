//! Differential runners: oracle vs optimized, stat for stat.
//!
//! Each `diff_*` function replays one trace through a naive reference
//! implementation and its optimized counterpart(s) and returns `None`
//! when every counter agrees, or `Some(description)` pinpointing the
//! first divergence. [`check_trace`] runs all of them (each behind a
//! panic guard, since a corrupted simulator may trip an internal
//! assertion rather than miscount), and [`trace_fails`] collapses the
//! result to the boolean the shrinker needs.

use crate::oracle_cache::{OracleCache, OraclePolicy, OracleReplacement, OracleStats};
use crate::oracle_classify::OracleClassifier;
use crate::oracle_compressed::OracleCompressed;
use crate::oracle_encode::LinearScanEncoder;
use crate::oracle_hybrid::{OracleHybrid, OracleHybridOptions, OracleHybridStats};
use crate::oracle_replay::{scalar_replay, DigestSink};
use crate::oracle_reuse::OracleReuse;
use crate::oracle_victim::OracleVictim;
use fvl_cache::{
    CacheGeometry, CacheSim, CacheStats, MissClassifier, ReplacementKind, Simulator, WritePolicy,
};
use fvl_core::{
    CompressedCache, FrequentValueSet, HybridCache, HybridConfig, HybridStats, OnlineHybrid,
    VictimHybrid,
};
use fvl_mem::{AccessSink, Addr, MappedTrace, PackedTrace, Trace, Word, CHUNK_ACCESSES};
use fvl_profile::{ReuseProfiler, DEFAULT_LINE_BYTES, TOWER_LEVELS};
use fvl_runner::Pool;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// The cache organizations every cache-level differential runs over:
/// the smallest interesting direct-mapped and set-associative shapes
/// (64 and 16 sets with 16-byte lines), small enough that generated
/// traces actually cause evictions.
pub const GEOMETRIES: [(u64, u32, u32); 2] = [(1024, 16, 1), (512, 16, 2)];

/// The cache organizations the replacement-policy zoo differentials run
/// over: one shape per associativity in {1, 2, 4, 8, 32}, all with
/// 16-byte lines and few enough sets (64 down to 1) that generated
/// traces fill sets and force every policy's victim logic to fire. The
/// 32-way shape is fully associative and sits above
/// [`fvl_cache::DataCache::INDEXED_ASSOC`], so it diffs the map-indexed
/// probe; the others diff the tag scan.
pub const ZOO_GEOMETRIES: [(u64, u32, u32); 5] = [
    (1024, 16, 1),
    (512, 16, 2),
    (512, 16, 4),
    (512, 16, 8),
    (512, 16, 32),
];

/// The `(line bytes, levels)` shapes the reuse-profiler differential
/// runs over. Word-sized lines at 1, 4 and 8 levels have top
/// capacities of 1, 8 and 128 lines, which a generated trace fills and
/// evicts from, hitting in every depth bucket on the way; the default
/// 32-byte × [`TOWER_LEVELS`] shape is the one every experiment and
/// corpus sweep uses.
pub const REUSE_SHAPES: [(u32, usize); 4] =
    [(4, 1), (4, 4), (4, 8), (DEFAULT_LINE_BYTES, TOWER_LEVELS)];

/// The `(line bytes, capacity in lines)` shapes the 3C classifier
/// differential runs over. A 1-line and a 4-line fully-associative
/// shadow evict on almost every new line of a generated trace, and a
/// 512-line one (Figure 14's 16 KB cache at 32-byte lines) never
/// fills, so conflict, capacity and compulsory misses all occur.
pub const CLASSIFY_SHAPES: [(u32, usize); 6] =
    [(16, 1), (16, 4), (16, 512), (32, 1), (32, 4), (32, 512)];

/// The DMC shapes the hybrid oracle differential runs over: every
/// [`ZOO_GEOMETRIES`] shape (4-word lines) plus a direct-mapped cache
/// of the paper's 32-byte, 8-word line.
pub const HYBRID_GEOMETRIES: [(u64, u32, u32); 6] = [
    ZOO_GEOMETRIES[0],
    ZOO_GEOMETRIES[1],
    ZOO_GEOMETRIES[2],
    ZOO_GEOMETRIES[3],
    ZOO_GEOMETRIES[4],
    (1024, 32, 1),
];

/// FVC lines in the hybrid oracle differential: few enough that the
/// generated corpus displaces FVC lines, dirty ones included.
pub const HYBRID_FVC_ENTRIES: u32 = 8;

/// The DMC shapes the victim-cache differential runs over: each
/// [`GEOMETRIES`] shape plus Figure 15's 4 KB direct-mapped cache of
/// 32-byte lines.
pub const VICTIM_DMCS: [(u64, u32, u32); 3] = [GEOMETRIES[0], GEOMETRIES[1], (4096, 32, 1)];

/// Victim-cache sizes the victim-cache differential pairs with every
/// [`VICTIM_DMCS`] shape: from a one-line buffer, which every new
/// conflict flushes, to Figure 15's 16 entries.
pub const VICTIM_ENTRIES: [usize; 4] = [1, 2, 4, 16];

/// The direct-mapped `(bytes, line bytes)` frame arrays the
/// compressed-cache differential runs over: 4- and 8-word lines in 1 KB
/// (64 and 32 frames) and 8-word lines in 4 KB.
pub const COMPRESSED_FRAMES: [(u64, u32); 3] = [(1024, 16), (1024, 32), (4096, 32)];

/// How many of the trace's top values the compressed-cache
/// differential compresses against: code widths of 1, 2 and 3 bits.
pub const COMPRESSED_TOPS: [usize; 3] = [1, 3, 7];

/// Accesses between occupancy samples in the hybrid oracle
/// differential, small enough that a generated trace samples the FVC
/// dozens of times.
pub const HYBRID_SAMPLE_EVERY: u64 = 16;

/// The hybrid policies the oracle differential runs: the paper's
/// default and ext3's ablations, each named after the `HybridConfig`
/// builder that selects it.
pub fn hybrid_variants() -> [(&'static str, OracleHybridOptions); 6] {
    let paper = OracleHybridOptions {
        sample_every: HYBRID_SAMPLE_EVERY,
        ..OracleHybridOptions::default()
    };
    [
        ("default", paper),
        (
            "write_allocate_fvc(false)",
            OracleHybridOptions {
                write_allocate: false,
                ..paper
            },
        ),
        (
            "count_write_alloc_as_miss(true)",
            OracleHybridOptions {
                count_write_alloc_as_miss: true,
                ..paper
            },
        ),
        (
            "min_frequent_words(0)",
            OracleHybridOptions {
                min_frequent_words: 0,
                ..paper
            },
        ),
        (
            "min_frequent_words(4)",
            OracleHybridOptions {
                min_frequent_words: 4,
                ..paper
            },
        ),
        (
            "fvc_associativity(2)",
            OracleHybridOptions {
                fvc_associativity: 2,
                ..paper
            },
        ),
    ]
}

fn policies() -> [(WritePolicy, OraclePolicy); 2] {
    [
        (WritePolicy::WriteBack, OraclePolicy::WriteBack),
        (WritePolicy::WriteThrough, OraclePolicy::WriteThrough),
    ]
}

/// The oracle-side mirror of an optimized replacement kind (same seed
/// for [`ReplacementKind::Random`], so both draw the identical
/// SplitMix64 stream).
fn mirror(kind: ReplacementKind) -> OracleReplacement {
    match kind {
        ReplacementKind::Lru => OracleReplacement::Lru,
        ReplacementKind::Random(seed) => OracleReplacement::Random(seed),
        ReplacementKind::Rrip => OracleReplacement::Rrip,
        ReplacementKind::PinnedLru => OracleReplacement::PinnedLru,
    }
}

/// Diffs every in-memory replay path against the one-event-at-a-time
/// scalar reference: monomorphized `Trace` replay, `PackedTrace`
/// replay, and the packed round-trip. The file round-trip is
/// [`diff_corpus`]'s.
pub fn diff_replay(trace: &Trace) -> Option<String> {
    let mut reference = DigestSink::new();
    scalar_replay(trace, &mut reference);

    let mut direct = DigestSink::new();
    trace.replay_into(&mut direct);
    if direct != reference {
        return Some(format!(
            "Trace::replay_into diverged from scalar replay: {direct:?} vs {reference:?}"
        ));
    }

    let packed = PackedTrace::from_trace(trace);
    let mut via_packed = DigestSink::new();
    packed.replay_into(&mut via_packed);
    if via_packed != reference {
        return Some(format!(
            "PackedTrace::replay_into diverged from scalar replay: {via_packed:?} vs {reference:?}"
        ));
    }

    let round_trip = packed.to_trace();
    if round_trip.events() != trace.events() {
        return Some("PackedTrace round-trip changed the event stream".to_string());
    }
    None
}

/// Diffs the out-of-core chunk-indexed v2.2 trace path against the
/// fully resident packed replay. The trace is encoded at several chunk
/// sizes (so the corpus's chunk-boundary access counts straddle a chunk
/// edge in at least one of them), reopened through
/// [`MappedTrace::from_bytes`], and must (a) round-trip its columns and
/// region side table exactly, (b) produce a byte-identical
/// order-sensitive replay digest from lazy chunk-by-chunk delivery, and
/// (c) yield identical [`CacheSim`] stats and traffic when the
/// simulators are fed from the lazy stream instead of the resident one.
/// A file leg writes each encoding to a temporary file and requires the
/// same digest from [`MappedTrace::open`], whose chunks come from
/// positioned reads of the file rather than from memory. A final
/// transcode leg decodes the file, re-encodes it as v2.2 and requires
/// the bytes of the direct encoding.
///
/// The in-RAM side never touches the address codec, so a codec bug
/// cannot cancel out of the comparison.
pub fn diff_corpus(trace: &Trace) -> Option<String> {
    let packed = PackedTrace::from_trace(trace);
    let mut reference = DigestSink::new();
    packed.replay_into(&mut reference);

    for chunk_accesses in [7u32, 64, CHUNK_ACCESSES] {
        let mut encoded = Vec::new();
        packed
            .write_v22_with(&mut encoded, chunk_accesses)
            .expect("in-memory write cannot fail");
        if let Some(msg) = diff_v22_file(&encoded, &reference) {
            return Some(format!("v2.2 (chunk {chunk_accesses}) {msg}"));
        }
        let mapped = match MappedTrace::from_bytes(encoded) {
            Ok(mapped) => mapped,
            Err(e) => return Some(format!("v2.2 (chunk {chunk_accesses}) failed to open: {e}")),
        };

        let resident = match mapped.to_packed() {
            Ok(resident) => resident,
            Err(e) => {
                return Some(format!(
                    "v2.2 (chunk {chunk_accesses}) failed to decode resident: {e}"
                ))
            }
        };
        if resident.addrs() != packed.addrs()
            || resident.values() != packed.values()
            || resident.region_events() != packed.region_events()
        {
            return Some(format!(
                "v2.2 (chunk {chunk_accesses}) round-trip changed the columns"
            ));
        }

        let mut lazy = DigestSink::new();
        if let Err(e) = mapped.replay_into(&mut lazy) {
            return Some(format!(
                "v2.2 (chunk {chunk_accesses}) lazy replay failed: {e}"
            ));
        }
        if lazy != reference {
            return Some(format!(
                "v2.2 (chunk {chunk_accesses}) lazy replay digest diverged: \
                 {lazy:?} vs {reference:?}"
            ));
        }

        for &(size, line, assoc) in &GEOMETRIES {
            let geom = CacheGeometry::new(size, line, assoc).expect("valid geometry");
            let mut in_ram = CacheSim::new(geom);
            packed.replay_into(&mut in_ram);
            let mut out_of_core = CacheSim::new(geom);
            if let Err(e) = mapped.replay_into(&mut out_of_core) {
                return Some(format!(
                    "v2.2 (chunk {chunk_accesses}) lazy cache replay failed: {e}"
                ));
            }
            if in_ram.stats() != out_of_core.stats()
                || in_ram.traffic_words() != out_of_core.traffic_words()
            {
                return Some(format!(
                    "CacheSim {size}B/{line}B/{assoc}-way fed from the v2.2 lazy stream \
                     (chunk {chunk_accesses}) diverged: {:?} vs in-RAM {:?}",
                    out_of_core.stats(),
                    in_ram.stats()
                ));
            }
        }
    }

    // Transcode leg: decoding the file and re-encoding it must give the
    // bytes of encoding the resident trace directly — the codec is
    // byte-lossless.
    let mut direct = Vec::new();
    packed.write_v22_to(&mut direct).expect("in-memory write");
    let decoded = match MappedTrace::from_bytes(direct.clone()).and_then(|m| m.to_packed()) {
        Ok(t) => t,
        Err(e) => return Some(format!("transcode leg failed to reopen v2.2: {e}")),
    };
    let mut again = Vec::new();
    decoded.write_v22_to(&mut again).expect("in-memory write");
    if again != direct {
        return Some("v2.2 decode and re-encode is not byte-identical".to_string());
    }
    None
}

/// The file leg of [`diff_corpus`]: `encoded` written to a temporary
/// file, opened with [`MappedTrace::open`] and replayed lazily, must
/// give the `reference` digest.
fn diff_v22_file(encoded: &[u8], reference: &DigestSink) -> Option<String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "fvl-check-corpus-{}-{}.fvltrc",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    if let Err(e) = std::fs::write(&path, encoded) {
        return Some(format!("file leg cannot write {}: {e}", path.display()));
    }
    let mut from_file = DigestSink::new();
    let outcome = MappedTrace::open(&path).and_then(|t| t.replay_into(&mut from_file));
    let _ = std::fs::remove_file(&path);
    match outcome {
        Err(e) => Some(format!("file leg failed: {e}")),
        Ok(()) if from_file != *reference => Some(format!(
            "file leg replay digest diverged: {from_file:?} vs {reference:?}"
        )),
        Ok(()) => None,
    }
}

/// Diffs the `fvl-serve` wire path against in-process execution.
///
/// Two legs. The **codec leg** writes representative frames — the
/// session hello, the trace's own v2.2 bytes as a `Trace` payload,
/// and a simulation request — and reads each back through the serve
/// frame decoder, byte-comparing against the payload that was written.
/// The oracle is the written buffer itself, so no decode is trusted on
/// either side. The **end-to-end leg** spawns a loopback daemon,
/// uploads the v2.2 trace over the socket, requests one simulation
/// per [`GEOMETRIES`] cell, and requires the daemon's counters to
/// equal, key for key, what the shared in-process simulator computes
/// from the same bytes.
pub fn diff_serve(trace: &Trace) -> Option<String> {
    use fvl_bench::remote::{self, RemoteClient, SessionSpec};
    use fvl_mem::frame::{self, FrameKind};
    use fvl_serve::{Daemon, ServeConfig};
    use std::time::Duration;

    let packed = PackedTrace::from_trace(trace);
    let mut trace_bytes = Vec::new();
    packed
        .write_v22_to(&mut trace_bytes)
        .expect("in-memory write cannot fail");

    // Codec leg: every frame must read back byte for byte. Runs first
    // so a codec divergence is reported without waiting on sockets.
    let representative = [
        (
            FrameKind::Hello,
            0u32,
            b"tenant=check\nsmoke=true\n".to_vec(),
        ),
        (FrameKind::Trace, 1, trace_bytes.clone()),
        (FrameKind::Sim, 2, b"size=1024\nline=16\nassoc=1\n".to_vec()),
    ];
    for (kind, seq, payload) in representative {
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, kind, seq, &payload).expect("in-memory write cannot fail");
        let got = match frame::read_frame(wire.as_slice()) {
            Ok(got) => got,
            Err(e) => {
                return Some(format!("frame codec failed to read back {kind:?}: {e}"));
            }
        };
        if got.kind != kind || got.seq != seq {
            return Some(format!(
                "frame codec header diverged for {kind:?}: got {:?} seq {}",
                got.kind, got.seq
            ));
        }
        if got.payload != payload {
            return Some(format!(
                "frame codec round-trip diverged for {kind:?}: {} payload bytes back \
                 from {} written",
                got.payload.len(),
                payload.len()
            ));
        }
    }

    // End-to-end leg: loopback daemon vs the in-process simulator the
    // daemon itself wraps — the transport is the only variable.
    let config = ServeConfig {
        read_timeout: Duration::from_secs(5),
        drain_grace: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let daemon = match Daemon::builder("127.0.0.1:0")
        .config(config)
        .log(Box::new(std::io::sink()))
        .spawn()
    {
        Ok(daemon) => daemon,
        Err(e) => return Some(format!("loopback daemon failed to start: {e}")),
    };
    let spec = SessionSpec::smoke("check");
    let result = (|| {
        let mut client = RemoteClient::connect(daemon.local_addr(), &spec, Duration::from_secs(5))
            .map_err(|e| format!("session handshake failed: {e}"))?;
        let uploaded = client
            .upload_trace(&trace_bytes)
            .map_err(|e| format!("trace upload failed: {e}"))?;
        if uploaded != trace.accesses() {
            return Err(format!(
                "daemon counted {uploaded} uploaded accesses, trace has {}",
                trace.accesses()
            ));
        }
        for &(size, line, assoc) in &GEOMETRIES {
            let config = format!("size={size}\nline={line}\nassoc={assoc}\n");
            let local = remote::simulate_packed(&packed, &config)
                .map_err(|e| format!("in-process simulation refused the config: {e}"))?;
            let expected = frame::parse_kv(local.as_bytes());
            let got = client.simulate(&config).map_err(|e| {
                format!("remote simulation of {size}B/{line}B/{assoc}-way failed: {e}")
            })?;
            if got != expected {
                return Err(format!(
                    "remote simulation of {size}B/{line}B/{assoc}-way diverged: \
                     daemon {got:?} vs in-process {expected:?}"
                ));
            }
        }
        client
            .bye()
            .map_err(|e| format!("session close failed: {e}"))
    })();
    daemon.shutdown();
    result.err()
}

fn oracle_stats(
    trace: &Trace,
    size: u64,
    line: u32,
    assoc: u32,
    policy: OraclePolicy,
    replacement: OracleReplacement,
) -> OracleStats {
    let mut oracle = OracleCache::with_replacement(size, line, assoc, policy, replacement);
    scalar_replay(trace, &mut oracle);
    *oracle.stats()
}

/// Diffs the optimized [`CacheSim`] against the [`OracleCache`] under
/// one replacement kind over the given geometries and both write
/// policies.
///
/// Exposed separately from [`diff_cache`] so mutation tests and the
/// conformance binary's `--policy` scope can attribute a divergence to
/// a single (geometry, replacement) cell.
pub fn diff_cache_with(
    trace: &Trace,
    geometries: &[(u64, u32, u32)],
    kind: ReplacementKind,
) -> Option<String> {
    for &(size, line, assoc) in geometries {
        for (policy, oracle_policy) in policies() {
            let geom = CacheGeometry::new(size, line, assoc).expect("valid geometry");
            let mut sim = CacheSim::new(geom)
                .with_write_policy(policy)
                .with_replacement(kind);
            trace.replay_into(&mut sim);
            let expected = oracle_stats(trace, size, line, assoc, oracle_policy, mirror(kind));
            if !expected.matches(sim.stats()) {
                return Some(format!(
                    "CacheSim {size}B/{line}B/{assoc}-way {policy:?} {kind} diverged: \
                     optimized {:?} vs oracle {expected:?}",
                    sim.stats()
                ));
            }
        }
    }
    None
}

/// Diffs the optimized [`CacheSim`] against the associative-lookup
/// [`OracleCache`] over every cell of the replacement-policy zoo:
/// [`ZOO_GEOMETRIES`] × [`ReplacementKind::ALL`] × both write policies.
pub fn diff_cache(trace: &Trace) -> Option<String> {
    for kind in ReplacementKind::ALL {
        if let Some(msg) = diff_cache_with(trace, &ZOO_GEOMETRIES, kind) {
            return Some(msg);
        }
    }
    None
}

/// The frequency ranking of the values a trace touches: count
/// descending, value ascending, truncated to `k`. The value-centric
/// differentials take their frequent value sets from it.
pub fn value_ranking(trace: &Trace, k: usize) -> Vec<Word> {
    let mut counts: BTreeMap<Word, u64> = BTreeMap::new();
    for access in trace.iter_accesses() {
        *counts.entry(access.value).or_insert(0) += 1;
    }
    let mut pairs: Vec<(Word, u64)> = counts.into_iter().collect();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    pairs.truncate(k);
    pairs.into_iter().map(|(v, _)| v).collect()
}

/// Diffs the [`FrequentValueSet`] against the [`LinearScanEncoder`]
/// over the trace's own top-7 value ranking: construction, width,
/// every code round-trip, the encoding of every value the trace
/// mentions (frequent or not), and [`FrequentValueSet::encode_line`]
/// over the trace's value stream cut into lines of 1, 4 and 8 words.
pub fn diff_encode(trace: &Trace) -> Option<String> {
    let ranking = value_ranking(trace, 7);
    if ranking.is_empty() {
        return None; // empty trace: nothing to encode
    }
    let optimized = match FrequentValueSet::new(ranking.clone()) {
        Ok(set) => set,
        Err(e) => return Some(format!("FrequentValueSet rejected the ranking: {e}")),
    };
    let oracle = LinearScanEncoder::new(&ranking).expect("oracle accepts what the set accepts");
    if optimized.width_bits() != oracle.width_bits() {
        return Some(format!(
            "width mismatch: optimized {} vs oracle {} bits",
            optimized.width_bits(),
            oracle.width_bits()
        ));
    }
    for code in 0..=u8::MAX {
        if optimized.decode(code) != oracle.decode(code) {
            return Some(format!("decode({code}) mismatch"));
        }
    }
    let probes = trace
        .iter_accesses()
        .map(|a| a.value)
        .chain(ranking.iter().copied())
        .chain(ranking.iter().map(|v| v.wrapping_add(1)));
    for value in probes {
        if optimized.encode(value) != oracle.encode(value) {
            return Some(format!(
                "encode({value:#x}) mismatch: optimized {:?} vs oracle {:?}",
                optimized.encode(value),
                oracle.encode(value)
            ));
        }
    }
    let stream: Vec<Word> = trace.iter_accesses().map(|a| a.value).collect();
    let marker = optimized.infrequent_code();
    for words_per_line in [1, 4, 8] {
        for line in stream.chunks(words_per_line) {
            let mut codes = vec![0; line.len()];
            let frequent = optimized.encode_line(line, &mut codes);
            let want: Vec<u8> = line
                .iter()
                .map(|&w| oracle.encode(w).unwrap_or(marker))
                .collect();
            let want_frequent = want.iter().filter(|&&c| c != marker).count() as u32;
            if (&codes, frequent) != (&want, want_frequent) {
                return Some(format!(
                    "encode_line({line:x?}) mismatch: optimized {codes:?} ({frequent} frequent) \
                     vs oracle {want:?} ({want_frequent} frequent)"
                ));
            }
        }
    }
    None
}

/// A `Vec`-based Misra–Gries mirror of [`fvl_core::ValueSketch`]: same
/// update rule, linear scans instead of a hash table.
#[derive(Debug)]
struct NaiveSketch {
    counters: Vec<(Word, u64)>,
    capacity: usize,
}

impl NaiveSketch {
    fn new(capacity: usize) -> Self {
        NaiveSketch {
            counters: Vec::new(),
            capacity,
        }
    }

    fn observe(&mut self, value: Word) {
        if let Some(entry) = self.counters.iter_mut().find(|(v, _)| *v == value) {
            entry.1 += 1;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.push((value, 1));
            return;
        }
        for entry in &mut self.counters {
            entry.1 -= 1;
        }
        self.counters.retain(|(_, c)| *c > 0);
    }

    fn top_k(&self, k: usize) -> Vec<Word> {
        let mut pairs = self.counters.clone();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(k);
        pairs.into_iter().map(|(v, _)| v).collect()
    }
}

/// Diffs [`OnlineHybrid`] against an offline mirror that profiles the
/// first half of the trace with a naive sketch, latches the top-7 into
/// a [`HybridCache`], and replays the remainder — the two must agree on
/// the latched value set, the combined [`CacheStats`], and every field
/// of the hybrid-phase [`fvl_core::HybridStats`].
pub fn diff_hybrid(trace: &Trace) -> Option<String> {
    const FVC_ENTRIES: u32 = 64;
    const TOP_K: usize = 7;
    let geom = CacheGeometry::new(1024, 16, 1).expect("valid geometry");
    let window = (trace.accesses() / 2).max(1);

    let mut online = OnlineHybrid::new(geom, FVC_ENTRIES, TOP_K, window);
    trace.replay_into(&mut online);

    // Offline mirror. The online controller latches *inside* the
    // window-th on_access call, copying the profiling DMC's stats
    // without flushing it; the mirror reproduces that exactly.
    let mut sketch = NaiveSketch::new(TOP_K * 16);
    let mut profiling = CacheSim::new(geom);
    let mut profiling_stats = CacheStats::new();
    let mut hybrid: Option<HybridCache> = None;
    let mut seen = 0u64;
    for access in trace.iter_accesses() {
        seen += 1;
        match &mut hybrid {
            None => {
                sketch.observe(access.value);
                profiling.access(access);
                if seen >= window {
                    let values = sketch.top_k(TOP_K);
                    let set = FrequentValueSet::new(values).expect("nonempty deduplicated");
                    profiling_stats = *profiling.stats();
                    hybrid = Some(HybridCache::new(
                        HybridConfig::new(geom, FVC_ENTRIES, set).verify_values(false),
                    ));
                }
            }
            Some(h) => h.on_access(access),
        }
    }
    let expected_combined = match &mut hybrid {
        Some(h) => {
            h.on_finish();
            profiling_stats + *Simulator::stats(h)
        }
        None => {
            profiling.on_finish();
            *profiling.stats()
        }
    };

    match (&hybrid, online.latched_values()) {
        (Some(h), Some(latched)) => {
            if h.values().values() != latched {
                return Some(format!(
                    "latched values diverged: online {latched:?} vs offline {:?}",
                    h.values().values()
                ));
            }
            let online_hybrid_stats = online.hybrid_stats().expect("latched");
            if online_hybrid_stats != h.hybrid_stats() {
                return Some(format!(
                    "hybrid-phase stats diverged: online {online_hybrid_stats:?} vs offline {:?}",
                    h.hybrid_stats()
                ));
            }
        }
        (None, None) => {}
        (offline, online_latched) => {
            return Some(format!(
                "latch disagreement: offline latched = {}, online latched = {}",
                offline.is_some(),
                online_latched.is_some()
            ));
        }
    }
    let combined = online.combined_stats();
    if combined != expected_combined {
        return Some(format!(
            "combined stats diverged: online {combined:?} vs offline {expected_combined:?}"
        ));
    }
    None
}

/// The optimized hybrid built with the oracle's policy knobs.
fn hybrid_like(
    geom: CacheGeometry,
    values: FrequentValueSet,
    options: &OracleHybridOptions,
) -> HybridCache {
    HybridCache::new(
        HybridConfig::new(geom, HYBRID_FVC_ENTRIES, values)
            .write_allocate_fvc(options.write_allocate)
            .count_write_alloc_as_miss(options.count_write_alloc_as_miss)
            .min_frequent_words(options.min_frequent_words)
            .fvc_associativity(options.fvc_associativity)
            .occupancy_sample_every(options.sample_every),
    )
}

/// The first [`HybridStats`] field that differs from the oracle's, as
/// `(name, optimized, oracle)`. The occupancy sum is compared bit for
/// bit: both sides must add the same exact fractions.
fn hybrid_stats_mismatch(
    got: &HybridStats,
    want: &OracleHybridStats,
) -> Option<(&'static str, String, String)> {
    let o = &got.overall;
    let counters = [
        ("read_hits", o.read_hits, want.read_hits),
        ("read_misses", o.read_misses, want.read_misses),
        ("write_hits", o.write_hits, want.write_hits),
        ("write_misses", o.write_misses, want.write_misses),
        ("writebacks", o.writebacks, want.writebacks),
        ("fetches", o.fetches, want.fetches),
        ("dmc_hits", got.dmc_hits, want.dmc_hits),
        ("fvc_read_hits", got.fvc_read_hits, want.fvc_read_hits),
        ("fvc_write_hits", got.fvc_write_hits, want.fvc_write_hits),
        (
            "fvc_write_allocs",
            got.fvc_write_allocs,
            want.fvc_write_allocs,
        ),
        ("transfer_moves", got.transfer_moves, want.transfer_moves),
        (
            "dmc_to_fvc_inserts",
            got.dmc_to_fvc_inserts,
            want.dmc_to_fvc_inserts,
        ),
        (
            "fvc_insert_skips",
            got.fvc_insert_skips,
            want.fvc_insert_skips,
        ),
        ("fvc_evictions", got.fvc_evictions, want.fvc_evictions),
        (
            "fvc_dirty_evictions",
            got.fvc_dirty_evictions,
            want.fvc_dirty_evictions,
        ),
        (
            "occupancy_samples",
            got.occupancy_samples,
            want.occupancy_samples,
        ),
        (
            "occupancy_percent_sum (bits)",
            got.occupancy_percent_sum.to_bits(),
            want.occupancy_percent_sum.to_bits(),
        ),
    ];
    counters
        .into_iter()
        .find(|&(_, g, w)| g != w)
        .map(|(name, g, w)| (name, g.to_string(), w.to_string()))
}

/// Diffs the optimized [`HybridCache`] against the naive
/// [`OracleHybrid`] over [`HYBRID_GEOMETRIES`] × [`hybrid_variants`];
/// see [`diff_hybrid_oracle_with`].
pub fn diff_hybrid_oracle(trace: &Trace) -> Option<String> {
    diff_hybrid_oracle_with(trace, &HYBRID_GEOMETRIES, &hybrid_variants())
}

/// Diffs the optimized [`HybridCache`] against the naive
/// [`OracleHybrid`] over the given DMC shapes and policy variants,
/// with the trace's own top-7 values and a [`HYBRID_FVC_ENTRIES`]-line
/// FVC. After the flush the two must agree on every [`HybridStats`]
/// field, on the traffic in words, and on the memory image: every word
/// of every line the trace touches.
///
/// Exposed separately from [`diff_hybrid_oracle`] so mutation tests can
/// attribute a divergence to one (shape, variant) cell.
pub fn diff_hybrid_oracle_with(
    trace: &Trace,
    geometries: &[(u64, u32, u32)],
    variants: &[(&str, OracleHybridOptions)],
) -> Option<String> {
    let ranking = value_ranking(trace, 7);
    if ranking.is_empty() {
        return None; // no accesses: nothing to cache
    }
    let values = match FrequentValueSet::new(ranking.clone()) {
        Ok(set) => set,
        Err(e) => return Some(format!("FrequentValueSet rejected the ranking: {e}")),
    };
    for &(size, line, assoc) in geometries {
        let geom = CacheGeometry::new(size, line, assoc).expect("valid geometry");
        for &(name, options) in variants {
            let shape = format!("{size}B/{line}B/{assoc}-way {name}");
            let mut hybrid = hybrid_like(geom, values.clone(), &options);
            trace.replay_into(&mut hybrid);
            let mut oracle =
                OracleHybrid::new(size, line, assoc, HYBRID_FVC_ENTRIES, &ranking, options);
            scalar_replay(trace, &mut oracle);
            if let Some((field, got, want)) =
                hybrid_stats_mismatch(hybrid.hybrid_stats(), oracle.stats())
            {
                return Some(format!(
                    "HybridCache {shape} diverged on {field}: optimized {got} vs oracle {want}"
                ));
            }
            let (got, want) = (hybrid.traffic_words(), oracle.traffic_words());
            if got != want {
                return Some(format!(
                    "HybridCache {shape} moved {got} words vs oracle {want}"
                ));
            }
            if let Some((addr, got, want)) =
                image_mismatch(trace, line, |a| hybrid.memory().peek(a), |a| oracle.peek(a))
            {
                return Some(format!(
                    "HybridCache {shape} flushed {got:#x} at {addr:#x}, oracle {want:#x}"
                ));
            }
        }
    }
    None
}

/// The first word of a `line_bytes` line the trace touches where two
/// flushed memory images differ, as `(address, optimized, oracle)`.
fn image_mismatch(
    trace: &Trace,
    line_bytes: u32,
    got: impl Fn(Addr) -> Word,
    want: impl Fn(Addr) -> Word,
) -> Option<(Addr, Word, Word)> {
    let lines: BTreeSet<Addr> = trace
        .iter_accesses()
        .map(|a| a.addr - a.addr % line_bytes)
        .collect();
    lines
        .into_iter()
        .flat_map(|line_addr| (0..line_bytes / 4).map(move |w| line_addr + 4 * w))
        .map(|addr| (addr, got(addr), want(addr)))
        .find(|&(_, got, want)| got != want)
}

/// The six [`CacheStats`] counters beside the oracle's, as `(name,
/// optimized, oracle)`.
fn stats_fields(got: &CacheStats, want: &OracleStats) -> [(&'static str, u64, u64); 6] {
    [
        ("read_hits", got.read_hits, want.read_hits),
        ("read_misses", got.read_misses, want.read_misses),
        ("write_hits", got.write_hits, want.write_hits),
        ("write_misses", got.write_misses, want.write_misses),
        ("writebacks", got.writebacks, want.writebacks),
        ("fetches", got.fetches, want.fetches),
    ]
}

/// Diffs the optimized [`VictimHybrid`] against the naive
/// [`OracleVictim`] over [`VICTIM_DMCS`] × [`VICTIM_ENTRIES`]; see
/// [`diff_victim_with`].
pub fn diff_victim(trace: &Trace) -> Option<String> {
    diff_victim_with(trace, &VICTIM_DMCS, &VICTIM_ENTRIES)
}

/// Diffs the optimized [`VictimHybrid`] against the naive
/// [`OracleVictim`] for every DMC shape paired with every victim-cache
/// size. After the flush the two must agree on every [`CacheStats`]
/// counter, on the victim-cache hits, on the traffic in words, and on
/// the memory image: every word of every line the trace touches.
///
/// Exposed separately from [`diff_victim`] so mutation tests can
/// attribute a divergence to one (shape, size) cell.
pub fn diff_victim_with(
    trace: &Trace,
    dmcs: &[(u64, u32, u32)],
    entries: &[usize],
) -> Option<String> {
    for &(size, line, assoc) in dmcs {
        let geom = CacheGeometry::new(size, line, assoc).expect("valid geometry");
        for &vc in entries {
            let shape = format!("{size}B/{line}B/{assoc}-way + {vc}-entry VC");
            let mut sim = VictimHybrid::new(geom, vc);
            trace.replay_into(&mut sim);
            let mut oracle = OracleVictim::new(size, line, assoc, vc);
            scalar_replay(trace, &mut oracle);
            let extra = [
                ("vc_hits", sim.vc_hits(), oracle.vc_hits()),
                ("traffic words", sim.traffic_words(), oracle.traffic_words()),
            ];
            if let Some((field, got, want)) = stats_fields(sim.stats(), oracle.stats())
                .into_iter()
                .chain(extra)
                .find(|&(_, got, want)| got != want)
            {
                return Some(format!(
                    "VictimHybrid {shape} diverged on {field}: optimized {got} vs oracle {want}"
                ));
            }
            if let Some((addr, got, want)) =
                image_mismatch(trace, line, |a| sim.memory().peek(a), |a| oracle.peek(a))
            {
                return Some(format!(
                    "VictimHybrid {shape} flushed {got:#x} at {addr:#x}, oracle {want:#x}"
                ));
            }
        }
    }
    None
}

/// Diffs the optimized [`CompressedCache`] against the naive
/// [`OracleCompressed`] over [`COMPRESSED_FRAMES`] ×
/// [`COMPRESSED_TOPS`]; see [`diff_compressed_with`].
pub fn diff_compressed(trace: &Trace) -> Option<String> {
    diff_compressed_with(trace, &COMPRESSED_FRAMES, &COMPRESSED_TOPS)
}

/// Diffs the optimized [`CompressedCache`] against the naive
/// [`OracleCompressed`] for every direct-mapped `(bytes, line bytes)`
/// frame array paired with the trace's top `k` values
/// ([`value_ranking`]) for every `k` of `tops`. After the flush the two
/// must agree on every [`CacheStats`] counter, on the expansions, on
/// the average compressed fraction bit for bit, on the traffic in
/// words, and on the memory image of every line the trace touches.
///
/// Exposed separately from [`diff_compressed`] so mutation tests can
/// attribute a divergence to one (frames, values) cell.
pub fn diff_compressed_with(
    trace: &Trace,
    frames: &[(u64, u32)],
    tops: &[usize],
) -> Option<String> {
    for &k in tops {
        let ranking = value_ranking(trace, k);
        if ranking.is_empty() {
            return None; // no accesses: nothing to cache
        }
        let values = match FrequentValueSet::new(ranking.clone()) {
            Ok(set) => set,
            Err(e) => return Some(format!("FrequentValueSet rejected the ranking: {e}")),
        };
        for &(size, line) in frames {
            let shape = format!("{size}B/{line}B top-{k}");
            let geom = CacheGeometry::new(size, line, 1).expect("valid geometry");
            let mut sim = CompressedCache::new(geom, values.clone());
            trace.replay_into(&mut sim);
            let mut oracle = OracleCompressed::new(size, line, &ranking);
            scalar_replay(trace, &mut oracle);
            let extra = [
                ("expansions", sim.expansions(), oracle.expansions()),
                (
                    "avg_compressed_fraction (bits)",
                    sim.avg_compressed_fraction().to_bits(),
                    oracle.avg_compressed_fraction().to_bits(),
                ),
                ("traffic words", sim.traffic_words(), oracle.traffic_words()),
            ];
            if let Some((field, got, want)) = stats_fields(sim.stats(), oracle.stats())
                .into_iter()
                .chain(extra)
                .find(|&(_, got, want)| got != want)
            {
                return Some(format!(
                    "CompressedCache {shape} diverged on {field}: optimized {got} vs oracle {want}"
                ));
            }
            if let Some((addr, got, want)) =
                image_mismatch(trace, line, |a| sim.memory().peek(a), |a| oracle.peek(a))
            {
                return Some(format!(
                    "CompressedCache {shape} flushed {got:#x} at {addr:#x}, oracle {want:#x}"
                ));
            }
        }
    }
    None
}

/// Diffs a parallel sweep on the engine's pool against a serial oracle
/// sweep: [`Pool::map`] over four workers must report, per
/// configuration (geometry × write policy × replacement kind), exactly
/// the stats the [`OracleCache`] computes serially, in input order.
pub fn diff_sweep(trace: &Trace) -> Option<String> {
    type SweepConfig = (u64, u32, u32, WritePolicy, OraclePolicy, ReplacementKind);
    let configs: Vec<SweepConfig> = GEOMETRIES
        .iter()
        .flat_map(|&(size, line, assoc)| {
            policies().into_iter().flat_map(move |(p, op)| {
                ReplacementKind::ALL
                    .into_iter()
                    .map(move |kind| (size, line, assoc, p, op, kind))
            })
        })
        .collect();

    let serial: Vec<OracleStats> = configs
        .iter()
        .map(|&(size, line, assoc, _, op, kind)| {
            oracle_stats(trace, size, line, assoc, op, mirror(kind))
        })
        .collect();

    let par: Vec<CacheStats> =
        Pool::new(4).map(configs.clone(), |(size, line, assoc, policy, _, kind)| {
            let mut sim =
                CacheSim::new(CacheGeometry::new(size, line, assoc).expect("valid geometry"))
                    .with_write_policy(policy)
                    .with_replacement(kind);
            trace.replay_into(&mut sim);
            *sim.stats()
        });
    for (i, (got, want)) in par.iter().zip(&serial).enumerate() {
        if !want.matches(got) {
            return Some(format!(
                "parallel sweep config {i} ({:?}) diverged: {got:?} vs oracle {want:?}",
                configs[i]
            ));
        }
    }
    None
}

/// Diffs the bucketed single-stack [`ReuseProfiler`] against the
/// [`OracleReuse`] `Vec` stack over every [`REUSE_SHAPES`] shape: the
/// hit and miss counts must agree at every level.
pub fn diff_reuse(trace: &Trace) -> Option<String> {
    for &(line_bytes, levels) in &REUSE_SHAPES {
        let mut profiler = ReuseProfiler::with_shape(line_bytes, levels);
        trace.replay_into(&mut profiler);
        let mut oracle = OracleReuse::new(line_bytes, levels);
        scalar_replay(trace, &mut oracle);
        for level in 0..levels {
            let got = (profiler.hits(level), profiler.misses(level));
            let want = (oracle.hits(level), oracle.misses(level));
            if got != want {
                return Some(format!(
                    "ReuseProfiler {line_bytes}B x {levels} levels diverged at {} lines: \
                     optimized (hits, misses) {got:?} vs oracle {want:?}",
                    1u64 << level
                ));
            }
        }
    }
    None
}

/// Diffs the [`MissClassifier`] against the [`OracleClassifier`] over
/// every [`CLASSIFY_SHAPES`] shape: both see the same subject-miss
/// stream, a direct-mapped [`CacheSim`] of the shape's capacity, and
/// must give every access the same class.
pub fn diff_classify(trace: &Trace) -> Option<String> {
    diff_classify_with(trace, &CLASSIFY_SHAPES)
}

/// [`diff_classify`] over the given `(line bytes, capacity in lines)`
/// shapes, so a mutation test can pick a shape whose shadow never
/// evicts.
pub fn diff_classify_with(trace: &Trace, shapes: &[(u32, usize)]) -> Option<String> {
    for &(line_bytes, lines) in shapes {
        let size = line_bytes as u64 * lines as u64;
        let mut subject = CacheSim::new(
            CacheGeometry::new(size, line_bytes, 1).expect("valid direct-mapped geometry"),
        );
        let mut classifier = MissClassifier::new(lines, line_bytes);
        let mut oracle = OracleClassifier::new(lines, line_bytes);
        for (i, access) in trace.iter_accesses().enumerate() {
            let missed = subject.access(access);
            let got = classifier.observe(access.addr, missed);
            let want = oracle.observe(access.addr, missed);
            if got != want {
                return Some(format!(
                    "MissClassifier {line_bytes}B x {lines} lines diverged at access {i} \
                     ({:#x}, subject missed: {missed}): optimized {got:?} vs oracle {want:?}",
                    access.addr
                ));
            }
        }
        let got = (
            classifier.compulsory(),
            classifier.capacity(),
            classifier.conflict(),
        );
        if got != oracle.counts() {
            return Some(format!(
                "MissClassifier {line_bytes}B x {lines} lines counted \
                 (compulsory, capacity, conflict) {got:?} vs oracle {:?}",
                oracle.counts()
            ));
        }
    }
    None
}

/// Runs every differential runner over one trace and collects the
/// divergences. Each runner is wrapped in a panic guard: a broken
/// optimized path may trip an internal assertion (e.g. the load-value
/// oracle) instead of miscounting, and that is just as much a caught
/// divergence.
pub fn check_trace(trace: &Trace) -> Vec<String> {
    type Runner = fn(&Trace) -> Option<String>;
    let runners: [(&str, Runner); 11] = [
        ("replay", diff_replay),
        ("cache", diff_cache),
        ("encode", diff_encode),
        ("hybrid", diff_hybrid),
        ("hybrid-oracle", diff_hybrid_oracle),
        ("sweep", diff_sweep),
        ("corpus", diff_corpus),
        ("reuse", diff_reuse),
        ("classify", diff_classify),
        ("victim", diff_victim),
        ("compressed", diff_compressed),
    ];
    let mut failures = Vec::new();
    for (name, runner) in runners {
        match catch_unwind(AssertUnwindSafe(|| runner(trace))) {
            Ok(None) => {}
            Ok(Some(msg)) => failures.push(format!("[{name}] {msg}")),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic");
                failures.push(format!("[{name}] panicked: {msg}"));
            }
        }
    }
    failures
}

/// Whether any differential runner fails (diverges or panics) on this
/// trace — the predicate handed to the shrinker.
pub fn trace_fails(trace: &Trace) -> bool {
    !check_trace(trace).is_empty()
}

/// Replaces the default panic hook with a silent one, once per process.
///
/// The shrinker deliberately replays failing traces hundreds of times;
/// under the `mutation` feature each replay may panic inside a guard,
/// and the default hook would spam stderr with identical backtraces.
pub fn silence_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::panic::set_hook(Box::new(|_| {}));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(not(feature = "mutation"))]
    use crate::gen::{generate, Pattern};
    use fvl_mem::{Access, TraceEvent};

    #[test]
    fn value_ranking_orders_by_count_then_value() {
        let trace = Trace::from_events(vec![
            TraceEvent::Access(Access::store(0x10, 5)),
            TraceEvent::Access(Access::store(0x14, 5)),
            TraceEvent::Access(Access::store(0x18, 3)),
            TraceEvent::Access(Access::store(0x1c, 9)),
        ]);
        assert_eq!(value_ranking(&trace, 7), vec![5, 3, 9]);
        assert_eq!(value_ranking(&trace, 1), vec![5]);
    }

    #[test]
    fn naive_sketch_matches_real_sketch() {
        let mut naive = NaiveSketch::new(8);
        let mut real = fvl_core::ValueSketch::new(8);
        let mut rng = crate::rng::SplitMix64::new(11);
        for _ in 0..5000 {
            let v = rng.below(12);
            naive.observe(v);
            real.observe(v);
        }
        assert_eq!(naive.top_k(7), real.top_k(7));
    }

    #[cfg(not(feature = "mutation"))]
    #[test]
    fn clean_build_passes_every_runner() {
        for pattern in Pattern::ALL {
            let trace = generate(1, pattern, 300);
            let failures = check_trace(&trace);
            assert!(failures.is_empty(), "{pattern:?}: {failures:?}");
        }
    }

    #[test]
    fn empty_trace_is_trivially_conformant() {
        let trace = Trace::from_events(Vec::new());
        assert!(check_trace(&trace).is_empty());
        assert!(!trace_fails(&trace));
    }
}
