//! The traced run's micro phase: per-layer cost on fixed traces.
//!
//! It replays the paper's six frequent-value test traces (captured
//! through a `TraceStore`, as the experiments capture them) through
//! each sink at the `scalar` kernel and at the active SIMD level, and
//! reports each sink's cost net of a null walk at the same level. The
//! null walk feeds [`Fold`], which folds each access into one word:
//! `NullSink` itself compiles to nothing under the scalar kernel, so
//! it would time no walk at all.
//! It also times v2.2 encode, decode and upload parsing on the same
//! traces, and a fresh capture of the eight integer workloads. Each
//! figure is the median of [`REPEATS`] timings. The figures are the
//! same on every workload; they do not depend on what the workload did
//! before.

use crate::measure::timed;
use crate::spans::Tracer;
use crate::{Args, Metric, Tally};
use fvl_bench::{remote, ExperimentContext, WorkloadData};
use fvl_cache::{CacheGeometry, CacheSim, ReplacementKind, WritePolicy};
use fvl_core::{
    CompressedCache, FrequentValueSet, HybridCache, HybridConfig, OnlineHybrid, VictimHybrid,
};
use fvl_mem::{Access, AccessSink, MappedTrace, PackedTrace, SimdLevel, TraceRepr, TraceReprKind};
use fvl_profile::{OccurrenceSampler, ReuseProfiler, ValueCounter};
use fvl_workloads::{by_name, InputSize};
use std::hint::black_box;
use std::sync::Arc;

/// Each measurement is repeated this many times; the median counts.
const REPEATS: usize = 5;

/// The null-walk sink: the least work the compiler cannot delete.
#[derive(Default)]
struct Fold(u64);

impl AccessSink for Fold {
    #[inline]
    fn on_access(&mut self, access: Access) {
        self.0 ^= u64::from(access.addr) << 32 | u64::from(access.value);
    }
}

fn dmc() -> CacheGeometry {
    CacheGeometry::new(16 * 1024, 32, 1).expect("valid geometry")
}

fn values(data: &WorkloadData) -> FrequentValueSet {
    FrequentValueSet::from_ranking(&data.counter.ranking(), 7)
        .expect("profiled workloads have values")
}

fn packed(data: &WorkloadData) -> &PackedTrace {
    match &data.trace {
        TraceRepr::Packed(p) => p,
        TraceRepr::Legacy(_) => unreachable!("captures default to the packed layout"),
    }
}

/// One timed measurement, repeated by [`run`].
type Probe<'a> = Box<dyn FnMut() -> f64 + 'a>;

/// Seconds to replay every trace into a fresh sink from `make` at
/// `level`.
fn probe<'a, S: AccessSink + 'a>(
    datas: &'a [Arc<WorkloadData>],
    level: SimdLevel,
    make: impl Fn(&WorkloadData) -> S + 'a,
) -> Probe<'a> {
    Box::new(move || {
        let mut sinks: Vec<S> = datas.iter().map(|d| make(d)).collect();
        let ((), sample) = timed(|| {
            for (d, sink) in datas.iter().zip(sinks.iter_mut()) {
                packed(black_box(d)).replay_into_with(level, sink);
            }
        });
        black_box(&sinks);
        sample.wall_s
    })
}

/// A sink's name and its probes at the scalar and at the active kernel.
fn both<'a>(
    levels: [SimdLevel; 2],
    name: &'static str,
    at: impl Fn(SimdLevel) -> Probe<'a>,
) -> (&'static str, Probe<'a>, Probe<'a>) {
    (name, at(levels[0]), at(levels[1]))
}

/// Replays every trace into a fresh sink at each kernel and checks that
/// the kernels agree on every counter.
fn kernels_agree(
    datas: &[Arc<WorkloadData>],
    levels: [SimdLevel; 2],
    make: impl Fn() -> CacheSim,
) -> bool {
    datas.iter().all(|d| {
        let [mut a, mut b] = [make(), make()];
        packed(d).replay_into_with(levels[0], &mut a);
        packed(d).replay_into_with(levels[1], &mut b);
        a.stats() == b.stats() && a.traffic_words() == b.traffic_words()
    })
}

/// Runs the micro phase, returning its metrics.
///
/// The repeats are interleaved: each round times every sink once, so a
/// burst of host load lands on one round of many sinks rather than on
/// every round of one sink, and the per-sink median drops it.
pub fn run(args: &Args, tracer: &Tracer, tally: &mut Tally) -> Vec<Metric> {
    let mut out = Vec::new();
    let ctx = ExperimentContext::quick().with_seed(args.seed);
    let datas: Vec<Arc<WorkloadData>> = tracer.span("micro.capture_fv6", None, || {
        ctx.fv_six().iter().map(|name| ctx.capture(name)).collect()
    });
    let datas = &datas[..];
    let accesses: u64 = datas.iter().map(|d| d.trace.accesses()).sum();
    let per_access = |secs: f64| secs * 1e9 / accesses as f64;
    let levels = [SimdLevel::Scalar, fvl_mem::simd::active_level()];

    let sim = |assoc: u32, kind: ReplacementKind, write: WritePolicy| {
        move || {
            CacheSim::new(CacheGeometry::new(16 * 1024, 32, assoc).expect("valid geometry"))
                .with_replacement(kind)
                .with_write_policy(write)
        }
    };
    let dm = sim(1, ReplacementKind::Lru, WritePolicy::WriteBack);
    let four_way = sim(4, ReplacementKind::Lru, WritePolicy::WriteBack);
    let rand_wt = sim(
        2,
        ReplacementKind::default_random(),
        WritePolicy::WriteThrough,
    );
    for make in [dm, four_way, rand_wt] {
        tally.check(kernels_agree(datas, levels, make));
    }

    let mut probes = vec![
        both(levels, "null", |l| probe(datas, l, |_| Fold::default())),
        both(levels, "cachesim_dm", |l| probe(datas, l, move |_| dm())),
        both(levels, "cachesim_4way", |l| {
            probe(datas, l, move |_| four_way())
        }),
        both(levels, "cachesim_rand_wt", |l| {
            probe(datas, l, move |_| rand_wt())
        }),
        both(levels, "hybrid", |l| {
            probe(datas, l, |d| {
                HybridCache::new(HybridConfig::new(dmc(), 512, values(d)))
            })
        }),
        both(levels, "online", |l| {
            probe(datas, l, |d| {
                OnlineHybrid::new(dmc(), 512, 7, (d.trace.accesses() / 20).max(1))
            })
        }),
        both(levels, "compressed", |l| {
            probe(datas, l, |d| CompressedCache::new(dmc(), values(d)))
        }),
        both(levels, "victim", |l| {
            probe(datas, l, |_| VictimHybrid::new(dmc(), 16))
        }),
        both(levels, "value_counter", |l| {
            probe(datas, l, |_| ValueCounter::new())
        }),
        both(levels, "reuse", |l| {
            probe(datas, l, |_| ReuseProfiler::new())
        }),
    ];
    // The occurrence census works only on memory snapshots, which the
    // snapshot replay builds on its one (scalar) path.
    let occurrence = || {
        let mut sinks: Vec<OccurrenceSampler> =
            datas.iter().map(|_| OccurrenceSampler::new()).collect();
        let ((), sample) = timed(|| {
            for (d, sink) in datas.iter().zip(sinks.iter_mut()) {
                packed(d).replay_with_snapshots_into(sink, d.sample_every);
            }
        });
        black_box(&sinks);
        sample.wall_s
    };

    let mut secs = vec![[Vec::new(), Vec::new()]; probes.len()];
    let mut occurrence_secs = Vec::new();
    tracer.span("micro.sinks", None, || {
        for _ in 0..REPEATS {
            for ((_, scalar, wide), s) in probes.iter_mut().zip(secs.iter_mut()) {
                s[0].push(scalar());
                s[1].push(wide());
            }
            occurrence_secs.push(occurrence());
        }
    });
    let median = |v: &[f64]| crate::measure::median(v);
    let null = [median(&secs[0][0]), median(&secs[0][1])];
    out.push(Metric::new(
        "replay.null_scalar.ns_per_access",
        per_access(null[0]),
        "ns",
        "scalar kernel walk",
    ));
    out.push(Metric::new(
        "replay.null_avx2.ns_per_access",
        per_access(null[1]),
        "ns",
        format!("{} kernel walk", levels[1].label()),
    ));
    let note = format!(
        "{}, net of the null walk, {accesses} accesses of the six FV test traces",
        levels[1].label()
    );
    for ((name, ..), s) in probes.iter().zip(&secs).skip(1) {
        out.push(Metric::new(
            format!("sink.{name}.ns_per_access"),
            per_access(median(&s[1]) - null[1]),
            "ns",
            note.clone(),
        ));
        out.push(Metric::new(
            format!("sink.{name}.scalar_ns_per_access"),
            per_access(median(&s[0]) - null[0]),
            "ns",
            "scalar kernel",
        ));
    }
    out.push(Metric::new(
        "sink.occurrence.ns_per_access",
        per_access(median(&occurrence_secs) - null[0]),
        "ns",
        "snapshot replay (scalar only), net of the scalar null walk",
    ));

    out.extend(codec(datas, tracer, tally));
    out.push(capture(args.seed, tracer, tally));
    out
}

/// v2.2 encode, decode and upload-parse cost per event.
fn codec(datas: &[Arc<WorkloadData>], tracer: &Tracer, tally: &mut Tally) -> Vec<Metric> {
    let traces: Vec<&PackedTrace> = datas.iter().map(|d| packed(d)).collect();
    let events: u64 = traces.iter().map(|p| p.accesses()).sum();
    let ns = |secs: f64| secs * 1e9 / events as f64;
    let median_of = |f: &mut dyn FnMut() -> f64| {
        let secs: Vec<f64> = (0..REPEATS).map(|_| f()).collect();
        crate::measure::median(&secs)
    };
    let mut files = Vec::new();
    let encode = tracer.span("micro.codec.encode", None, || {
        median_of(&mut || {
            let (bytes, sample) = timed(|| {
                traces
                    .iter()
                    .map(|p| {
                        let mut buf = Vec::new();
                        p.write_v22_to(&mut buf)
                            .expect("writing to memory cannot fail");
                        buf
                    })
                    .collect::<Vec<_>>()
            });
            files = bytes;
            sample.wall_s
        })
    });
    let bytes: usize = files.iter().map(Vec::len).sum();
    let same =
        |a: &PackedTrace, b: &PackedTrace| a.addrs() == b.addrs() && a.values() == b.values();
    let mut decoded = Vec::new();
    let decode = tracer.span("micro.codec.decode", None, || {
        median_of(&mut || {
            let copies = files.clone();
            let (d, sample) = timed(|| {
                copies
                    .into_iter()
                    .map(|f| MappedTrace::from_bytes(f).and_then(|m| m.to_packed()))
                    .collect::<Vec<_>>()
            });
            decoded = d;
            sample.wall_s
        })
    });
    for (d, p) in decoded.iter().zip(&traces) {
        tally.check(d.as_ref().is_ok_and(|d| same(d, p)));
    }
    let mut parsed = Vec::new();
    let parse = tracer.span("micro.codec.parse_upload", None, || {
        median_of(&mut || {
            let (d, sample) = timed(|| {
                files
                    .iter()
                    .map(|f| remote::parse_trace_bytes(f))
                    .collect::<Vec<_>>()
            });
            parsed = d;
            sample.wall_s
        })
    });
    for (d, p) in parsed.iter().zip(&traces) {
        tally.check(d.as_ref().is_ok_and(|d| same(d, p)));
    }
    let base = format!("{events} events of the six FV test traces");
    vec![
        Metric::new(
            "codec.encode_v22.ns_per_event",
            ns(encode),
            "ns",
            base.clone(),
        ),
        Metric::new(
            "codec.decode_v22.ns_per_event",
            ns(decode),
            "ns",
            "MappedTrace::from_bytes + to_packed",
        ),
        Metric::new(
            "codec.v22_bytes_per_event",
            bytes as f64 / events as f64,
            "bytes",
            format!("{bytes} bytes for {base}"),
        ),
        Metric::new(
            "codec.parse_upload.ns_per_event",
            ns(parse),
            "ns",
            "remote::parse_trace_bytes",
        ),
    ]
}

/// Fresh capture (execute, record, profile) of the integer workloads,
/// repeated with fresh workloads; every repeat must record the same
/// accesses.
fn capture(seed: u64, tracer: &Tracer, tally: &mut Tally) -> Metric {
    let names = ExperimentContext::quick().all_int();
    let once = || {
        timed(|| {
            names
                .iter()
                .map(|name| {
                    let w = by_name(name, InputSize::Test, seed).expect("integer workloads exist");
                    WorkloadData::capture_limited_as(w, None, TraceReprKind::Packed)
                        .trace
                        .accesses()
                })
                .sum::<u64>()
        })
    };
    let runs: Vec<(u64, f64)> = tracer.span("micro.capture_int8", None, || {
        (0..REPEATS)
            .map(|_| {
                let (accesses, sample) = once();
                (accesses, sample.wall_s)
            })
            .collect()
    });
    let accesses = runs[0].0;
    tally.check(runs.iter().all(|&(a, _)| a == accesses));
    let secs: Vec<f64> = runs.iter().map(|&(_, s)| s).collect();
    Metric::new(
        "capture.ns_per_access",
        crate::measure::median(&secs) * 1e9 / accesses as f64,
        "ns",
        format!(
            "execute + record + profile, {accesses} accesses of the eight integer test workloads"
        ),
    )
}
