//! Mutation smoke test: prove the differential net has teeth.
//!
//! Compiled only under the `mutation` feature, which turns on ten
//! deliberately seeded bugs in the optimized crates:
//!
//! 1. an off-by-one set-index mask in `fvl-cache`'s geometry (the top
//!    index bit is dropped, folding half the sets onto the other half),
//! 2. a dropped dirty bit in `fvl-cache`'s data array (modified lines
//!    are silently discarded instead of written back),
//! 3. a swapped load/store bit in `fvl-mem`'s packed-trace decoder
//!    (every packed load replays as a store and vice versa),
//! 4. an inverted LRU victim in `fvl-cache`'s replacement policy (the
//!    head of the set's recency list, the most recently used way, is
//!    evicted instead of its tail) — inert at 1-way associativity,
//!    where there is only one way,
//! 5. a flipped control-byte length-table entry in `fvl-mem`'s v2.2
//!    stream-split decoder (`lane_len(0, 0)` reads 2 payload bytes
//!    instead of 1), which desynchronizes any chunk whose first group
//!    holds four single-byte tokens,
//! 6. a frame-length off-by-one in `fvl-mem`'s serve frame codec
//!    (`read_frame` shortens every declared payload length by one), so
//!    each non-empty frame read back over the wire loses its final
//!    byte and leaves a stray byte in the stream that desynchronizes
//!    every later header,
//! 7. a skipped partial write-back in `fvl-core`'s DMC+FVC hybrid (a
//!    dirty FVC victim's frequent words are dropped instead of written
//!    back), so the values the FVC absorbed are lost from memory, and
//! 8. a first-touch miss counted as a capacity miss in `fvl-cache`'s
//!    3C classifier (Figure 14's split), so compulsory misses vanish
//!    into the capacity class,
//! 9. a victim-cache swap in `fvl-core`'s `VictimHybrid` that drops
//!    the line it displaces from the DMC instead of moving it into the
//!    victim cache (Figure 15's baseline), and
//! 10. a store that breaks a compressed line's compressibility in
//!     `fvl-core`'s `CompressedCache` (ext2) neither expanding the line
//!     nor evicting its frame partner.
//!
//! Each test below isolates one bug with a trace (and, for the
//! cache-level bugs, a geometry/policy scope) constructed so the others
//! cannot fire, proving the harness detects *each* of them, not merely
//! that something somewhere fails.

#![cfg(feature = "mutation")]

use fvl_cache::ReplacementKind;
use fvl_check::{diff, generate, run_corpus, DigestSink, Pattern};
use fvl_mem::{Access, AccessSink, PackedTrace, Trace, TraceEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Bug 1 — set-index mask. Load-only trace (so the dirty-bit bug is
/// inert) replayed as a plain `Trace` through `diff_cache` (so the
/// packed decoder is never involved). Addresses 0x000 and 0x200 differ
/// only in the top set-index bit of the 1 KiB direct-mapped geometry:
/// distinct sets under the correct mask, the same set under the
/// truncated one — the truncated cache thrashes where the oracle hits.
#[test]
fn index_mask_bug_is_caught() {
    let events = (0..20)
        .map(|i| {
            let addr = if i % 2 == 0 { 0x000 } else { 0x200 };
            TraceEvent::Access(Access::load(addr, 0))
        })
        .collect();
    let trace = Trace::from_events(events);
    let divergence = diff::diff_cache(&trace);
    assert!(
        divergence.is_some(),
        "truncated set-index mask went undetected"
    );
}

/// Bug 2 — dropped dirty bit. Every address keeps the top set-index
/// bit clear (0x000, 0x400 and 0x800 all map to set 0 under both the
/// correct and the truncated mask at this geometry), so the mask bug
/// cannot fire; no packed replay is involved; and the scope is pinned
/// to the direct-mapped LRU cell, where the inverted-victim bug is
/// structurally inert (a 1-way set has only one victim). A dirty line
/// is evicted and re-read: the correct simulator writes it back, the
/// mutant silently discards the store — caught either as a write-back
/// count divergence or as a load-value assertion inside the guard.
#[test]
fn dropped_dirty_bit_is_caught() {
    diff::silence_panics();
    let trace = Trace::from_events(vec![
        TraceEvent::Access(Access::store(0x000, 42)),
        TraceEvent::Access(Access::load(0x400, 0)),
        TraceEvent::Access(Access::load(0x800, 0)),
        TraceEvent::Access(Access::load(0x000, 42)),
    ]);
    let caught = match catch_unwind(AssertUnwindSafe(|| {
        diff::diff_cache_with(&trace, &[(1024, 16, 1)], ReplacementKind::Lru)
    })) {
        Ok(result) => result.is_some(),
        Err(_) => true, // the load-value oracle tripped: also a catch
    };
    assert!(caught, "dropped dirty bit went undetected");
}

/// Bug 4 — inverted LRU victim. A load-only trace (dirty-bit bug
/// inert) replayed as a plain `Trace` (decoder bug inert) through the
/// 512B 2-way LRU cell alone. Lines 0x000, 0x400, 0x800 and 0xC00 all
/// map to set 0 there under both the correct and the truncated
/// set-index mask (mask bug inert). Filling the set and adding a third
/// line forces a victim: correct LRU evicts 0x000, the mutant evicts
/// the most recently used 0x400, so the final re-load of 0x000 is a
/// miss in one simulator and a hit in the other.
#[test]
fn wrong_victim_bug_is_caught() {
    let trace = Trace::from_events(vec![
        TraceEvent::Access(Access::load(0x000, 0)),
        TraceEvent::Access(Access::load(0x400, 0)),
        TraceEvent::Access(Access::load(0x800, 0)),
        TraceEvent::Access(Access::load(0x000, 0)),
    ]);
    assert!(
        diff::diff_cache_with(&trace, &[(512, 16, 2)], ReplacementKind::Lru).is_some(),
        "inverted LRU victim went undetected"
    );
    // The same trace through the direct-mapped cell is clean: a 1-way
    // set has a single way, so the failure is attributable to the
    // victim choice alone.
    assert_eq!(
        diff::diff_cache_with(&trace, &[(1024, 16, 1)], ReplacementKind::Lru),
        None
    );
    // Behind the map-indexed probe too: 33 distinct lines overfill the
    // single set of the fully-associative 32-way cell (one set, so the
    // mask bug is inert there), and the re-load of the first line hits
    // only in the mutant, which evicted the 32nd instead.
    let overfill = Trace::from_events(
        (0..=32u32)
            .chain([0])
            .map(|line| TraceEvent::Access(Access::load(line * 0x10, 0)))
            .collect(),
    );
    assert!(
        diff::diff_cache_with(&overfill, &[(512, 16, 32)], ReplacementKind::Lru).is_some(),
        "inverted LRU victim went undetected behind the map-indexed probe"
    );
}

/// Bug 3 — swapped load/store decode. The packed replay differential
/// compares an order- and kind-sensitive digest against the scalar
/// reference, so a single packed load replaying as a store flips the
/// digest. The trace stays within one cache line and stores nothing,
/// so neither cache-level bug can contribute.
#[test]
fn swapped_decode_is_caught() {
    let trace = Trace::from_events(vec![
        TraceEvent::Access(Access::load(0x100, 0)),
        TraceEvent::Access(Access::load(0x104, 0)),
    ]);
    assert!(
        diff::diff_replay(&trace).is_some(),
        "swapped load/store decode went undetected"
    );
    // And the same trace through the un-packed cache differential is
    // clean: the failure is attributable to the decoder alone.
    assert_eq!(diff::diff_cache(&trace), None);
}

/// Bug 5 — flipped split control-table length. Four loads at
/// word-adjacent addresses give a v2.2 chunk whose first control group
/// is four single-byte tokens (control byte 0), the exact cell the
/// mutation corrupts: lane 0 decodes as two payload bytes, so the
/// group desynchronizes and the chunk over-runs its payload. The trace
/// is load-only (dirty-bit bug inert), stays within one cache line
/// (mask and victim bugs inert), and the swapped-kind decode (bug 3)
/// mutates both sides of the replay digests identically.
#[test]
fn split_control_table_bug_is_caught() {
    diff::silence_panics();
    let trace = Trace::from_events(vec![
        TraceEvent::Access(Access::load(0x10, 0)),
        TraceEvent::Access(Access::load(0x14, 0)),
        TraceEvent::Access(Access::load(0x18, 0)),
        TraceEvent::Access(Access::load(0x1c, 0)),
    ]);
    let caught = match catch_unwind(AssertUnwindSafe(|| diff::diff_corpus(&trace))) {
        Ok(result) => result.is_some(),
        Err(_) => true,
    };
    assert!(caught, "flipped split control-table entry went undetected");
    // Attribution: the cache differential never touches an address
    // codec and stays clean on this trace...
    assert_eq!(diff::diff_cache(&trace), None);
    // ...and diff_corpus's chunked replay without the address codec
    // (the resident columns cut into chunks with no encoding, each fed
    // in turn, the sink finished once) reproduces the resident digest
    // with every seeded bug compiled in, so none of the other mutations
    // fires on this trace — the diff_corpus failure is attributable to
    // the v2.2 stream-split decoder alone.
    let packed = PackedTrace::from_trace(&trace);
    let mut resident = DigestSink::new();
    packed.replay_into(&mut resident);
    for chunk in 1..=packed.addrs().len() {
        let mut chunked = DigestSink::new();
        for (addrs, values) in packed
            .addrs()
            .chunks(chunk)
            .zip(packed.values().chunks(chunk))
        {
            PackedTrace::from_columns(addrs.to_vec(), values.to_vec(), Vec::new())
                .unwrap()
                .feed_into(&mut chunked);
        }
        chunked.on_finish();
        assert_eq!(chunked, resident, "chunks of {chunk}");
    }
}

/// Bug 6 — frame-length off-by-one in the serve codec. `diff_serve`'s
/// codec leg writes a frame and reads it back against the written
/// buffer as oracle: the mutant returns one payload byte short, a
/// divergence no other seeded bug can produce (the frame codec is the
/// only mutated code `diff_serve`'s codec leg touches, and it runs
/// before any socket is opened). The trace keeps every other mutation
/// inert: two loads (dirty-bit bug inert) at 0x190 and 0x300, whose
/// sets 25 and 48 stay distinct under both the correct and the
/// truncated index mask in every zoo geometry with nothing evicted
/// (mask and victim bugs inert); two-byte address tokens make the v2.2
/// control byte non-zero (split-table bug inert); and the swapped-kind
/// decode mutates both sides of the replay digests identically.
#[test]
fn frame_length_bug_is_caught() {
    diff::silence_panics();
    let trace = Trace::from_events(vec![
        TraceEvent::Access(Access::load(0x190, 0)),
        TraceEvent::Access(Access::load(0x300, 0)),
    ]);
    let divergence = diff::diff_serve(&trace);
    assert!(
        divergence.is_some(),
        "frame-length off-by-one went undetected"
    );
    assert!(
        divergence.unwrap().contains("frame codec"),
        "divergence not attributed to the frame codec"
    );
    // Attribution: the cache differential never touches the frame
    // codec and stays clean on this trace...
    assert_eq!(diff::diff_cache(&trace), None);
    // ...and the v2.2 container round-trips through the out-of-core
    // differential cleanly, so none of the other mutations fires here —
    // the diff_serve failure is attributable to the serve frame codec
    // alone.
    let caught = match catch_unwind(AssertUnwindSafe(|| diff::diff_corpus(&trace))) {
        Ok(result) => result,
        Err(_) => Some("diff_corpus panicked".to_string()),
    };
    assert_eq!(caught, None);
}

/// Bug 7 — skipped partial write-back of a dirty FVC victim. Two
/// stores of the trace's one frequent value to lines 0x000 and 0x080,
/// which share the one way of FVC set 0 in the 8-entry direct-mapped
/// FVC. Under the paper's default policy both stores write-allocate in
/// the FVC, so the second displaces the first while it is dirty: the
/// correct hybrid writes the stored word back, the mutant drops it,
/// and its traffic and flushed memory image diverge from the
/// `OracleHybrid`. The DMC never holds a line, so the `fvl-cache`
/// bugs (1, 2 and 4) cannot fire, and the trace is replayed as a plain
/// `Trace`, so no decoder or frame codec (bugs 3, 5 and 6) is
/// involved.
#[test]
fn skipped_fvc_write_back_is_caught() {
    diff::silence_panics();
    let trace = Trace::from_events(vec![
        TraceEvent::Access(Access::store(0x000, 5)),
        TraceEvent::Access(Access::store(0x080, 5)),
    ]);
    let variants = diff::hybrid_variants();
    let (paper, two_way) = (variants[0], variants[5]);
    assert_eq!((paper.0, two_way.0), ("default", "fvc_associativity(2)"));
    let caught = match catch_unwind(AssertUnwindSafe(|| {
        diff::diff_hybrid_oracle_with(&trace, &[(1024, 16, 1)], &[paper])
    })) {
        Ok(result) => result.is_some(),
        Err(_) => true,
    };
    assert!(caught, "skipped FVC partial write-back went undetected");
    // Attribution: with a 2-way FVC both lines stay resident, no FVC
    // line is displaced, and the same cell is clean — the divergence
    // needs a dirty FVC victim.
    assert_eq!(
        diff::diff_hybrid_oracle_with(&trace, &[(1024, 16, 1)], &[two_way]),
        None
    );
}

/// Bug 8 — a first-touch miss counted as capacity. Three loads of two
/// lines (dirty-bit bug inert), replayed as a plain `Trace` (decoder
/// and frame-codec bugs inert) through the 512-line shapes alone,
/// whose fully-associative shadow never fills on two lines, so its
/// victim choice, which shares the inverted LRU of bug 4, never runs.
/// Both classifiers see the same subject-miss stream, so the
/// set-index mask (bug 1) cannot split them either: the first access
/// is compulsory in the oracle and capacity in the mutant.
#[test]
fn first_touch_counted_as_capacity_is_caught() {
    diff::silence_panics();
    let trace = Trace::from_events(vec![
        TraceEvent::Access(Access::load(0x000, 0)),
        TraceEvent::Access(Access::load(0x010, 0)),
        TraceEvent::Access(Access::load(0x000, 0)),
    ]);
    let divergence = diff::diff_classify_with(&trace, &[(16, 512), (32, 512)]);
    assert!(
        divergence
            .as_deref()
            .is_some_and(|d| d.contains("at access 0")),
        "first-touch miss counted as capacity went undetected: {divergence:?}"
    );
    // Attribution: the cache differential, which replays the same
    // trace through every zoo geometry and policy, is clean on it, so
    // none of the other cache-level mutations fires here.
    assert_eq!(diff::diff_cache(&trace), None);
}

/// Bug 9 — a victim-cache swap drops the displaced DMC line. Four
/// loads (dirty-bit bug 2 inert) of two lines that conflict in the
/// direct-mapped 1 KiB DMC, replayed as a plain `Trace` (decoder and
/// frame-codec bugs inert). Both lines keep the top set-index bit
/// clear (mask bug 1 inert), and the victim cache has one entry, so
/// its LRU victim has a single way to choose (bug 4 inert). The third
/// load swaps 0x000 back from the victim cache: the correct hybrid
/// moves 0x400 into the freed entry and serves the fourth load from
/// there, the mutant has dropped it and misses.
#[test]
fn dropped_swap_victim_is_caught() {
    diff::silence_panics();
    let trace = Trace::from_events(vec![
        TraceEvent::Access(Access::load(0x000, 0)),
        TraceEvent::Access(Access::load(0x400, 0)),
        TraceEvent::Access(Access::load(0x000, 0)),
        TraceEvent::Access(Access::load(0x400, 0)),
    ]);
    let divergence = diff::diff_victim_with(&trace, &[(1024, 16, 1)], &[1]);
    assert!(
        divergence
            .as_deref()
            .is_some_and(|d| d.contains("vc_hits") || d.contains("read_") || d.contains("fetches")),
        "dropped swap victim went undetected: {divergence:?}"
    );
    // Attribution: the cache differential replays the same trace
    // through every zoo geometry and policy and stays clean, so none
    // of the other cache-level mutations fires here.
    assert_eq!(diff::diff_cache(&trace), None);
}

/// Bug 10 — a store that breaks compression neither expands the line
/// nor evicts its partner. Value 0 is the trace's most frequent value,
/// so with its top 1 value (1-bit codes) an 8-word line fits half a
/// frame with at most three other words. Lines 0x000 and 0x400 share
/// frame 0 of the 1 KiB, 32-byte-line frames, compressed side by
/// side; four stores of other values then make 0x000 incompressible.
/// The correct cache expands it and evicts 0x400, so the last load
/// misses; the mutant keeps both. `CompressedCache` shares no code
/// with the seeded `fvl-cache` data array, replacement policy or
/// classifier; the trace keeps the top set-index bit clear (bug 1
/// inert) and is replayed as a plain `Trace` (bugs 3, 5 and 6 inert).
#[test]
fn unexpanded_incompressible_line_is_caught() {
    diff::silence_panics();
    let mut events: Vec<_> = [0x000, 0x400, 0x004, 0x404, 0x008, 0x408]
        .into_iter()
        .map(|addr| TraceEvent::Access(Access::load(addr, 0)))
        .collect();
    events.extend((0..4).map(|i| TraceEvent::Access(Access::store(4 * i, 100 + i))));
    events.push(TraceEvent::Access(Access::load(0x400, 0)));
    let trace = Trace::from_events(events);
    let divergence = diff::diff_compressed_with(&trace, &[(1024, 32)], &[1]);
    assert!(
        divergence
            .as_deref()
            .is_some_and(|d| d.contains("top-1 diverged on")),
        "unexpanded incompressible line went undetected: {divergence:?}"
    );
    // Attribution: with the trace's top 7 values the stored values are
    // frequent, nothing expands, and the same frames are clean.
    assert_eq!(
        diff::diff_compressed_with(&trace, &[(1024, 32)], &[7]),
        None
    );
}

/// End to end: a small corpus run must go red, and every failure must
/// carry a non-empty shrunk repro that still fails.
#[test]
fn corpus_goes_red_with_shrunk_repros() {
    diff::silence_panics();
    let report = run_corpus(8, 200);
    assert!(!report.is_green(), "mutated build passed the corpus");
    for failure in &report.failures {
        assert!(
            !failure.failures.is_empty(),
            "failure without a divergence message"
        );
        assert!(
            !failure.shrunk.is_empty(),
            "case {} shrunk to an empty trace",
            failure.index
        );
        assert!(
            diff::trace_fails(&failure.shrunk),
            "case {} shrunk repro no longer fails",
            failure.index
        );
    }
}

/// The generator itself is feature-independent: mutations live in the
/// simulators, not in trace construction.
#[test]
fn generation_is_unaffected_by_mutations() {
    let trace = generate(3, Pattern::ValueBoundary, 100);
    assert_eq!(trace.accesses(), 100);
}
