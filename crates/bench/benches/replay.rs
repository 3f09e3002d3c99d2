//! Criterion benches for the replay hot path: the recording event log
//! vs the packed layout, dyn vs monomorphized replay, the
//! frequent-value encode micro-kernel, `SimMemory` access, capture-once
//! vs capture-per-experiment, and chunked trace-file IO throughput.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fvl_bench::{ExperimentContext, TraceKey, TraceStore};
use fvl_cache::{CacheGeometry, CacheSim};
use fvl_core::FrequentValueSet;
use fvl_mem::{AccessSink, MappedTrace, PackedTrace, SimMemory, Trace, Word};
use fvl_profile::ValueCounter;
use fvl_workloads::by_name;
use std::collections::HashMap;

/// Dynamic-dispatch vs monomorphized trace replay, for a stateful
/// simulator sink and a profiling sink. `replay` routes every event
/// through `&mut dyn AccessSink`; `replay_into` inlines the sink.
fn bench_dyn_vs_generic(c: &mut Criterion) {
    let ctx = ExperimentContext::quick();
    let data = ctx.capture("li");
    let geom = CacheGeometry::new(16 * 1024, 32, 1).unwrap();

    let mut group = c.benchmark_group("dispatch");
    group.throughput(Throughput::Elements(data.trace.accesses()));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("cache-sim", "dyn"), |b| {
        b.iter(|| {
            let mut sim = CacheSim::new(geom);
            data.trace.replay(&mut sim as &mut dyn AccessSink);
            sim.stats().misses()
        })
    });
    group.bench_function(BenchmarkId::new("cache-sim", "generic"), |b| {
        b.iter(|| {
            let mut sim = CacheSim::new(geom);
            data.trace.replay_into(&mut sim);
            sim.stats().misses()
        })
    });
    group.bench_function(BenchmarkId::new("value-counter", "dyn"), |b| {
        b.iter(|| {
            let mut counter = ValueCounter::new();
            data.trace.replay(&mut counter as &mut dyn AccessSink);
            counter.total()
        })
    });
    group.bench_function(BenchmarkId::new("value-counter", "generic"), |b| {
        b.iter(|| {
            let mut counter = ValueCounter::new();
            data.trace.replay_into(&mut counter);
            counter.total()
        })
    });
    group.finish();
}

/// The per-access frequent-value lookup: the sorted-array binary search
/// inside [`FrequentValueSet::encode`] vs an equivalent `HashMap`
/// probe (the data structure it replaced).
fn bench_encode(c: &mut Criterion) {
    let ctx = ExperimentContext::quick();
    let data = ctx.capture("li");
    let set = FrequentValueSet::from_ranking(&data.counter.ranking(), 7).unwrap();
    let map: HashMap<Word, u8> = set
        .values()
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u8))
        .collect();
    // Probe with the values the replay loop actually sees.
    let probes: Vec<Word> = data
        .trace
        .iter_accesses()
        .map(|a| a.value)
        .take(65_536)
        .collect();

    let mut group = c.benchmark_group("encode");
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function(BenchmarkId::new("top7", "array"), |b| {
        b.iter(|| {
            let mut frequent = 0u64;
            for &v in &probes {
                frequent += u64::from(set.encode(black_box(v)).is_some());
            }
            frequent
        })
    });
    group.bench_function(BenchmarkId::new("top7", "hashmap"), |b| {
        b.iter(|| {
            let mut frequent = 0u64;
            for &v in &probes {
                frequent += u64::from(map.contains_key(&black_box(v)));
            }
            frequent
        })
    });
    group.finish();
}

/// `SimMemory` word access: sequential sweeps hit the one-entry page
/// cache 1023 times out of 1024.
fn bench_sim_memory(c: &mut Criterion) {
    const WORDS: u32 = 64 * 1024; // 256 KiB = 64 pages
    let mut mem = SimMemory::new();
    for i in 0..WORDS {
        mem.write(i * 4, i);
    }

    let mut group = c.benchmark_group("sim-memory");
    group.throughput(Throughput::Elements(u64::from(WORDS)));
    group.bench_function(BenchmarkId::new("read", "sequential"), |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for i in 0..WORDS {
                sum += u64::from(mem.read(black_box(i * 4)));
            }
            sum
        })
    });
    group.bench_function(BenchmarkId::new("write", "sequential"), |b| {
        b.iter(|| {
            for i in 0..WORDS {
                mem.write(black_box(i * 4), i ^ 1);
            }
            mem.resident_pages()
        })
    });
    group.finish();
}

/// One experiment's view of workload data: asking the shared store
/// (every request after the first is an `Arc` clone) vs re-capturing
/// the workload the way every experiment used to.
fn bench_capture(c: &mut Criterion) {
    let cap = Some(1000);
    let key = TraceKey::new("li", fvl_workloads::InputSize::Test, 1, cap);
    let store = TraceStore::new();
    let capture = || {
        fvl_bench::WorkloadData::capture_limited(by_name("li", key.input, key.seed).unwrap(), cap)
    };
    store.get_or_capture(key.clone(), capture); // warm the latch

    let mut group = c.benchmark_group("capture");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("li-smoke", "store-hit"), |b| {
        b.iter(|| store.get_or_capture(key.clone(), capture).trace.accesses())
    });
    group.bench_function(BenchmarkId::new("li-smoke", "per-experiment"), |b| {
        b.iter(|| capture().trace.accesses())
    });
    group.finish();
}

/// Records the `li` test-input workload as a raw (legacy) event log,
/// for benches that compare trace layouts directly.
fn capture_trace() -> Trace {
    let mut buf = fvl_mem::TraceBuffer::new();
    let mut workload = by_name("li", fvl_workloads::InputSize::Test, 1).unwrap();
    {
        let mut mem = fvl_mem::TracedMemory::new(&mut buf);
        workload.run(&mut mem);
        mem.finish();
    }
    buf.into_trace()
}

/// A near-free sink that folds every event into one accumulator: the
/// replay loop's own cost (decode + dispatch + memory traffic) is what
/// gets measured, not the sink.
#[derive(Default)]
struct DigestSink {
    acc: u64,
}

impl AccessSink for DigestSink {
    #[inline]
    fn on_access(&mut self, a: fvl_mem::Access) {
        self.acc = self
            .acc
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(u64::from(a.addr) ^ u64::from(a.value));
    }
}

/// A large synthetic access-dominated trace (the shape of a real SPEC
/// capture) whose packed form exceeds typical last-level caches, so
/// replay streams from DRAM the way reference-input runs do.
fn big_trace(accesses: usize) -> Trace {
    let mut memory: HashMap<u32, u32> = HashMap::new();
    let events: Vec<fvl_mem::TraceEvent> = (0..accesses)
        .map(|i| {
            let addr = ((i as u32).wrapping_mul(2654435761) >> 8) & !3;
            fvl_mem::TraceEvent::Access(if i % 4 == 0 {
                let value = if i % 3 == 0 { 0 } else { i as u32 % 17 };
                memory.insert(addr, value);
                fvl_mem::Access::store(addr, value)
            } else {
                fvl_mem::Access::load(addr, memory.get(&addr).copied().unwrap_or(0))
            })
        })
        .collect();
    Trace::from_events(events)
}

/// The tentpole comparison: replaying one sink from the legacy
/// `Vec<TraceEvent>` log vs the columnar [`PackedTrace`]. The `walk`
/// cases use a near-free sink so the trace representation itself is
/// the workload — the packed walk touches half the bytes with no
/// per-event tag branch and must hold a >= 1.5x lead. The `cache-sim`
/// cases show the end-to-end effect with a real (simulation-bound)
/// sink.
fn bench_layout(c: &mut Criterion) {
    let trace = big_trace(8 << 20);
    let packed = PackedTrace::from_trace(&trace);
    let geom = CacheGeometry::new(16 * 1024, 32, 1).unwrap();

    let mut group = c.benchmark_group("layout");
    group.throughput(Throughput::Elements(trace.accesses()));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("walk", "legacy"), |b| {
        b.iter(|| {
            let mut sink = DigestSink::default();
            trace.replay_into(&mut sink);
            sink.acc
        })
    });
    group.bench_function(BenchmarkId::new("walk", "packed"), |b| {
        b.iter(|| {
            let mut sink = DigestSink::default();
            packed.replay_into(&mut sink);
            sink.acc
        })
    });
    group.bench_function(BenchmarkId::new("cache-sim", "legacy"), |b| {
        b.iter(|| {
            let mut sim = CacheSim::new(geom);
            trace.replay_into(&mut sim);
            sim.stats().misses()
        })
    });
    group.bench_function(BenchmarkId::new("cache-sim", "packed"), |b| {
        b.iter(|| {
            let mut sim = CacheSim::new(geom);
            packed.replay_into(&mut sim);
            sim.stats().misses()
        })
    });
    group.finish();
}

/// Chunked trace-file IO: encode and decode throughput for the v1
/// per-event format, the v2 columnar format and the chunk-indexed v2.2
/// format with stream-split address columns, all staged through 64 KiB
/// blocks. The v2.2 decode lanes cover both the streaming reader and
/// the mapped reader's strict-footer path.
fn bench_trace_io(c: &mut Criterion) {
    let trace = capture_trace();
    let packed = PackedTrace::from_trace(&trace);
    let mut v1 = Vec::new();
    trace.write_to(&mut v1).unwrap();
    let mut v2 = Vec::new();
    packed.write_to(&mut v2).unwrap();
    let mut v22 = Vec::new();
    packed.write_v22_to(&mut v22).unwrap();
    let events = trace.len() as u64;
    eprintln!(
        "trace-io sizes over {events} events: v1 {} B ({:.2} B/event), \
         v2 {} B ({:.2} B/event), v2.2 {} B ({:.2} B/event, {:.0}% of v2)",
        v1.len(),
        v1.len() as f64 / events as f64,
        v2.len(),
        v2.len() as f64 / events as f64,
        v22.len(),
        v22.len() as f64 / events as f64,
        100.0 * v22.len() as f64 / v2.len() as f64,
    );

    let mut group = c.benchmark_group("trace-io");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("encode", "v1"), |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(v1.len());
            trace.write_to(&mut out).unwrap();
            out.len()
        })
    });
    group.bench_function(BenchmarkId::new("encode", "v2"), |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(v2.len());
            packed.write_to(&mut out).unwrap();
            out.len()
        })
    });
    group.bench_function(BenchmarkId::new("decode", "v1"), |b| {
        b.iter(|| Trace::read_from(black_box(&v1[..])).unwrap().accesses())
    });
    group.bench_function(BenchmarkId::new("decode", "v2"), |b| {
        b.iter(|| {
            PackedTrace::read_from(black_box(&v2[..]))
                .unwrap()
                .accesses()
        })
    });
    group.bench_function(BenchmarkId::new("encode", "v22"), |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(v22.len());
            packed.write_v22_to(&mut out).unwrap();
            out.len()
        })
    });
    group.bench_function(BenchmarkId::new("decode", "v22"), |b| {
        b.iter(|| {
            PackedTrace::read_from(black_box(&v22[..]))
                .unwrap()
                .accesses()
        })
    });
    group.bench_function(BenchmarkId::new("decode", "v22-mapped"), |b| {
        b.iter(|| {
            MappedTrace::from_bytes(black_box(v22.clone()))
                .unwrap()
                .to_packed()
                .unwrap()
                .accesses()
        })
    });
    group.finish();
}

/// The v2.2 address-column decode at corpus scale: 64 Mi addresses (a
/// 256 MiB raw column, far past any LLC) laid out in the container's
/// 8192-access chunks and decoded chunk by chunk into one shared
/// column, exactly as the readers do. The delta distribution is a
/// locality mixture (70% cache-local steps, 25% region-sized jumps, 5%
/// working-set jumps), so token lengths are data-dependent. Lanes: the
/// v2 raw-column copy exactly as the container reader stages it (64 KiB
/// staging buffer, then lane-by-lane conversion — see
/// `take_u32_column_into`), and the v2.2 stream-split decode. Column
/// sizes go to stderr so the throughput numbers can be weighed against
/// density.
fn bench_varint(c: &mut Criterion) {
    const N: usize = 64 << 20;
    const CHUNK: usize = 8192;
    // Synthesized directly as a packed addr column: building a
    // 64 Mi-event `Trace` through capture would dominate bench startup
    // without changing what the codec lanes see.
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut addrs: Vec<u32> = Vec::with_capacity(N);
    let mut word: i64 = 1 << 20;
    for _ in 0..N {
        let r = rng();
        let delta = match r % 100 {
            0..=69 => (r >> 8) as i64 % 64 - 32,
            70..=94 => (r >> 8) as i64 % 8192 - 4096,
            _ => (r >> 8) as i64 % 2_000_000 - 1_000_000,
        };
        word = (word + delta).clamp(0, (1 << 30) - 1);
        addrs.push((word as u32) << 2 | (r >> 63) as u32);
    }
    let mut split = Vec::new();
    let mut split_bounds = vec![0usize];
    for chunk in addrs.chunks(CHUNK) {
        fvl_mem::varint::encode_addr_chunk_split(chunk, &mut split);
        split_bounds.push(split.len());
    }
    let raw: Vec<u8> = addrs.iter().flat_map(|a| a.to_le_bytes()).collect();
    eprintln!(
        "address columns over {} addrs: raw {} B, split {} B ({:.2} B/addr)",
        addrs.len(),
        raw.len(),
        split.len(),
        split.len() as f64 / addrs.len() as f64,
    );

    let mut group = c.benchmark_group("varint");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("decode", "v2-raw-copy"), |b| {
        let mut out: Vec<u32> = Vec::with_capacity(addrs.len());
        let mut stage = vec![0u8; 64 * 1024];
        b.iter(|| {
            out.clear();
            let mut src = black_box(&raw[..]);
            while !src.is_empty() {
                let n = src.len().min(stage.len());
                stage[..n].copy_from_slice(&src[..n]);
                out.extend(
                    stage[..n]
                        .chunks_exact(4)
                        .map(|b| u32::from_le_bytes(b.try_into().unwrap())),
                );
                src = &src[n..];
            }
            out.len()
        })
    });
    group.bench_function(BenchmarkId::new("decode", "v22-split"), |b| {
        let mut out: Vec<u32> = Vec::with_capacity(addrs.len());
        b.iter(|| {
            out.clear();
            for (bounds, chunk) in split_bounds.windows(2).zip(addrs.chunks(CHUNK)) {
                fvl_mem::varint::decode_addr_chunk_split_into(
                    black_box(&split[bounds[0]..bounds[1]]),
                    chunk.len(),
                    &mut out,
                )
                .unwrap();
            }
            out.len()
        })
    });
    group.finish();
}

/// The one-pass corpus sweep over an on-disk v2.2 corpus under the
/// default residency budget: positioned chunk reads, one decode per
/// chunk, and the sweep's simulators and reuse profiler.
fn bench_corpus_sweep(c: &mut Criterion) {
    use fvl_bench::corpus;
    let dir: std::path::PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "..",
        "..",
        "target",
        "bench-io",
        "corpus-v22",
    ]
    .iter()
    .collect();
    let _ = std::fs::remove_dir_all(&dir);
    corpus::write_synthetic_corpus(&dir, 4, 400_000, 3, 8192).unwrap();
    let corp = corpus::Corpus::open_dir(&dir).unwrap();
    let budget = corpus::DEFAULT_BUDGET_BYTES;

    let mut group = c.benchmark_group("corpus");
    group.throughput(Throughput::Elements(corp.total_accesses()));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("sweep", "one-pass"), |b| {
        b.iter(|| corpus::sweep_corpus(&corp, budget).unwrap().summaries.len())
    });
    group.finish();
}

/// Out-of-core replay: the big-trace digest walk fed from a v2.2 file
/// on disk through positioned chunk reads vs the fully resident
/// [`PackedTrace`]. `file-cold` opens the file, parses the footer, and
/// walks per iteration; `file-warm` reuses one opened trace and pays
/// the per-chunk read and address decode each walk; `in-ram` is the
/// resident upper bound the out-of-core lanes chase.
fn bench_out_of_core(c: &mut Criterion) {
    let trace = big_trace(8 << 20);
    let packed = PackedTrace::from_trace(&trace);
    let dir: std::path::PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "target", "bench-io"]
        .iter()
        .collect();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replay.fvltrc");
    let file = std::fs::File::create(&path).unwrap();
    packed.write_v22_to(std::io::BufWriter::new(file)).unwrap();
    let warm = MappedTrace::open(&path).unwrap();

    let mut group = c.benchmark_group("out-of-core");
    group.throughput(Throughput::Elements(trace.accesses()));
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("walk", "in-ram"), |b| {
        b.iter(|| {
            let mut sink = DigestSink::default();
            packed.replay_into(&mut sink);
            sink.acc
        })
    });
    group.bench_function(BenchmarkId::new("walk", "file-warm"), |b| {
        b.iter(|| {
            let mut sink = DigestSink::default();
            warm.replay_into(&mut sink).unwrap();
            sink.acc
        })
    });
    group.bench_function(BenchmarkId::new("walk", "file-cold"), |b| {
        b.iter(|| {
            let opened = MappedTrace::open(black_box(&path)).unwrap();
            let mut sink = DigestSink::default();
            opened.replay_into(&mut sink).unwrap();
            sink.acc
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_layout,
    bench_dyn_vs_generic,
    bench_encode,
    bench_sim_memory,
    bench_capture,
    bench_trace_io,
    bench_varint,
    bench_out_of_core,
    bench_corpus_sweep
);
criterion_main!(benches);
