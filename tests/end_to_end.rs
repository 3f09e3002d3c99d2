//! End-to-end pipeline tests: workload → trace → profile → simulators.

use fvl::cache::{CacheGeometry, CacheSim, Simulator};
use fvl::core::{FrequentValueSet, HybridCache, HybridConfig, VictimHybrid};
use fvl::mem::{
    Access, AccessSink, Bus, BusExt, Region, Trace, TraceBuffer, TraceEvent, TracedMemory,
};
use fvl::profile::ValueCounter;
use fvl::workloads::{by_name, InputSize};

fn capture(name: &str) -> (Trace, Vec<u32>) {
    let mut workload = by_name(name, InputSize::Test, 1).expect("known workload");
    let mut buf = TraceBuffer::new();
    {
        let mut mem = TracedMemory::new(&mut buf);
        workload.run(&mut mem);
        mem.finish();
    }
    let trace = buf.into_trace();
    let mut counter = ValueCounter::new();
    trace.replay(&mut counter);
    let ranking = counter.ranking();
    (trace, ranking)
}

/// The value oracle inside every controller verifies each load against
/// the trace; running all three controllers over every workload is a
/// whole-system coherence check.
#[test]
fn all_controllers_stay_coherent_on_every_workload() {
    for name in [
        "go", "m88ksim", "gcc", "li", "perl", "vortex", "compress", "ijpeg", "tomcatv", "swim",
    ] {
        let (trace, ranking) = capture(name);
        let geom = CacheGeometry::new(8 * 1024, 32, 1).unwrap();

        let mut dmc = CacheSim::new(geom);
        trace.replay(&mut dmc); // panics on any wrong load value
        assert_eq!(dmc.stats().accesses(), trace.accesses(), "{name}");

        let values = FrequentValueSet::from_ranking(&ranking, 7).unwrap();
        let mut hybrid = HybridCache::new(HybridConfig::new(geom, 256, values));
        trace.replay(&mut hybrid);
        assert_eq!(hybrid.stats().accesses(), trace.accesses(), "{name}");
        assert!(hybrid.is_exclusive(), "{name}: line in both DMC and FVC");

        let mut vc = VictimHybrid::new(geom, 8);
        trace.replay(&mut vc);
        assert_eq!(Simulator::stats(&vc).accesses(), trace.accesses(), "{name}");
    }
}

/// After a full run plus flush, the hybrid's memory image must be
/// identical to a plain write-through reconstruction of the trace.
#[test]
fn hybrid_flush_reconstructs_memory_exactly() {
    let (trace, ranking) = capture("li");
    let geom = CacheGeometry::new(4 * 1024, 32, 1).unwrap();
    let values = FrequentValueSet::from_ranking(&ranking, 7).unwrap();
    let mut hybrid = HybridCache::new(HybridConfig::new(geom, 128, values));
    trace.replay(&mut hybrid);

    // Reconstruct ground truth from the trace's stores.
    let mut truth = fvl::mem::SimMemory::new();
    for a in trace.iter_accesses() {
        if a.kind.is_store() {
            truth.write(a.addr, a.value);
        }
    }
    for a in trace.iter_accesses() {
        assert_eq!(
            hybrid.memory().peek(a.addr),
            truth.read(a.addr),
            "mismatch at {:#x}",
            a.addr
        );
    }
}

/// The same trace replayed twice produces identical statistics
/// (simulators are deterministic).
#[test]
fn simulation_is_deterministic() {
    let (trace, ranking) = capture("vortex");
    let geom = CacheGeometry::new(16 * 1024, 32, 1).unwrap();
    let values = FrequentValueSet::from_ranking(&ranking, 3).unwrap();
    let run = || {
        let mut sim = HybridCache::new(HybridConfig::new(geom, 512, values.clone()));
        trace.replay(&mut sim);
        (
            sim.stats().misses(),
            sim.hybrid_stats().fvc_read_hits,
            sim.traffic_words(),
        )
    };
    assert_eq!(run(), run());
}

/// Traffic accounting: total traffic equals fetched words plus written
/// words; every fetch moves exactly one line.
#[test]
fn traffic_is_consistent_with_fetch_and_writeback_counts() {
    let (trace, _) = capture("gcc");
    let geom = CacheGeometry::new(8 * 1024, 32, 1).unwrap();
    let mut sim = CacheSim::new(geom);
    trace.replay(&mut sim);
    let wpl = geom.words_per_line() as u64;
    assert_eq!(sim.memory().words_out(), sim.stats().fetches * wpl);
    assert_eq!(sim.memory().words_in(), sim.stats().writebacks * wpl);
    assert_eq!(
        sim.traffic_words(),
        sim.memory().words_out() + sim.memory().words_in()
    );
}

/// A bigger direct-mapped cache cannot have more fetches than the trace
/// has accesses, and stats always conserve.
#[test]
fn stats_conservation_across_geometries() {
    let (trace, _) = capture("perl");
    for (kb, line, assoc) in [(4u64, 16u32, 1u32), (8, 32, 2), (16, 64, 4), (32, 32, 1)] {
        let geom = CacheGeometry::new(kb * 1024, line, assoc).unwrap();
        let mut sim = CacheSim::new(geom);
        trace.replay(&mut sim);
        let s = sim.stats();
        assert_eq!(s.accesses(), trace.accesses());
        assert_eq!(s.hits() + s.misses(), s.accesses());
        assert_eq!(
            s.fetches,
            s.misses(),
            "write-allocate fetches once per miss"
        );
    }
}

/// Forwards every event to the recorder and keeps its own copy.
struct Tee<'a>(&'a mut TraceBuffer, Vec<TraceEvent>);

impl AccessSink for Tee<'_> {
    fn on_access(&mut self, a: Access) {
        self.0.on_access(a);
        self.1.push(TraceEvent::Access(a));
    }
    fn on_alloc(&mut self, r: Region) {
        self.0.on_alloc(r);
        self.1.push(TraceEvent::Alloc(r));
    }
    fn on_free(&mut self, r: Region) {
        self.0.on_free(r);
        self.1.push(TraceEvent::Free(r));
    }
}

/// Heap and stack churn, so region events sit at many positions.
fn churn(m: &mut dyn Bus) {
    let a = m.alloc(3);
    m.fill(a, 3, 7);
    let frame = m.push_frame(2);
    m.store(frame, 9);
    let b = m.alloc(1);
    m.free(a);
    m.pop_frame();
    let _ = m.load(b);
    m.free(b);
}

/// The recorder writes packed columns straight from the event stream.
/// Uncapped, they hold exactly what a second sink saw; capped at any
/// access count, they hold the prefix `Trace::into_prefix` cuts, with
/// the region events that sit at the cap. A budgeted run stops the
/// program at that cut: an unlimited recorder and a second sink then
/// see the same prefix.
#[test]
fn recorder_columns_equal_the_event_stream_at_every_cap() {
    let program = |sink: &mut dyn AccessSink| {
        let mut m = TracedMemory::new(sink);
        churn(&mut m);
        m.finish();
    };
    let mut full = TraceBuffer::new();
    let mut tee = Tee(&mut full, Vec::new());
    program(&mut tee);
    let seen = Trace::from_events(tee.1);
    assert_eq!(full.into_packed().to_trace().events(), seen.events());
    let regions = seen
        .events()
        .iter()
        .filter(|e| !matches!(e, TraceEvent::Access(_)))
        .count();
    assert!(regions >= 6, "{regions} region events");

    let mut regions_at_a_cut = 0;
    for cap in 0..=seen.accesses() + 1 {
        let mut capped = TraceBuffer::with_capacity(cap as usize).with_access_limit(cap);
        program(&mut capped);
        let expect = seen.clone().into_prefix(cap);
        let packed = capped.into_packed();
        assert_eq!(packed.to_trace().events(), expect.events(), "cap {cap}");
        assert_eq!(packed.accesses(), expect.accesses(), "cap {cap}");

        let mut budgeted = TraceBuffer::new();
        let mut tee = Tee(&mut budgeted, Vec::new());
        let mut m = TracedMemory::new(&mut tee);
        let stopped = m.run(Some(cap), |m| churn(m));
        assert_eq!(stopped, cap < seen.accesses(), "cap {cap}");
        assert_eq!(m.accesses(), seen.accesses().min(cap + 1), "cap {cap}");
        drop(m);
        assert_eq!(tee.1, expect.events(), "cap {cap}");
        let recorded = budgeted.into_packed();
        assert_eq!(recorded.addrs(), packed.addrs(), "cap {cap}");
        assert_eq!(recorded.values(), packed.values(), "cap {cap}");
        assert_eq!(
            recorded.region_events(),
            packed.region_events(),
            "cap {cap}"
        );
        if stopped && !matches!(expect.events().last(), Some(TraceEvent::Access(_)) | None) {
            regions_at_a_cut += 1;
        }
    }
    assert!(
        regions_at_a_cut >= 3,
        "{regions_at_a_cut} cuts keep region events"
    );

    // A real workload under the smoke budget, against its tee'd stream.
    let mut capped = TraceBuffer::with_capacity(1000).with_access_limit(1000);
    let mut tee = Tee(&mut capped, Vec::new());
    let mut li = by_name("li", InputSize::Test, 1).expect("known workload");
    li.run(&mut TracedMemory::new(&mut tee));
    let expect = Trace::from_events(tee.1).into_prefix(1000);
    let packed = capped.into_packed();
    assert_eq!(packed.accesses(), 1000);
    assert_eq!(packed.to_trace().events(), expect.events());
    // Trimmed when recording ends: 8 bytes per access.
    let regions = std::mem::size_of_val(packed.region_events());
    assert_eq!(packed.approx_bytes(), 8 * 1000 + regions);
}
