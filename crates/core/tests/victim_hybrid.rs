//! Integration tests for the DMC + victim-cache controller: swap
//! semantics, eviction ordering into and out of the VC (its
//! displacement in insertion order, a swapped-back line re-entering as
//! most recent), line-granular probes, and dirty-line write-backs,
//! through the public API only.

use fvl_cache::{CacheGeometry, ReplacementKind, Simulator};
use fvl_core::VictimHybrid;
use fvl_mem::{Access, AccessSink};

/// 1 KiB direct-mapped, 32-byte lines (conflicts 1 KiB apart), 4-entry VC.
fn hybrid() -> VictimHybrid {
    VictimHybrid::new(CacheGeometry::new(1024, 32, 1).unwrap(), 4)
}

#[test]
fn swap_on_hit_moves_the_line_into_the_dmc() {
    let mut h = hybrid();
    let a = 0x100u32;
    let b = a + 1024;
    h.on_access(Access::load(a, 0)); // miss: a in DMC
    h.on_access(Access::load(b, 0)); // miss: b in DMC, a in VC
    h.on_access(Access::load(a, 0)); // VC hit: swap a<->b
    assert_eq!(h.vc_hits(), 1);
    // After the swap `a` is in the DMC: another access is a DMC hit and
    // the VC hit counter must NOT move.
    h.on_access(Access::load(a, 0));
    assert_eq!(h.vc_hits(), 1);
    assert_eq!(h.stats().read_hits, 2);
    assert_eq!(h.stats().read_misses, 2);
}

#[test]
fn vc_holds_the_most_recently_evicted_lines() {
    let mut h = hybrid();
    // Six conflicting lines through one DMC set; the 4-entry VC can
    // only keep the last four evicted (lines 1..=4; line 5 is in the
    // DMC; line 0 was displaced from the VC).
    for i in 0..6u32 {
        h.on_access(Access::load(0x100 + i * 1024, 0));
    }
    assert_eq!(h.stats().misses(), 6);
    // Re-touch in reverse: lines 4,3,2,1 are VC hits, line 0 misses.
    for i in (0..5u32).rev() {
        h.on_access(Access::load(0x100 + i * 1024, 0));
    }
    assert_eq!(h.vc_hits(), 4);
    assert_eq!(h.stats().misses(), 7, "line 0 fell out of the VC");
}

#[test]
fn dirty_line_written_back_only_when_displaced_from_vc() {
    let mut h = hybrid();
    h.on_access(Access::store(0x100, 42));
    // Push the dirty line into the VC and keep evicting until the VC
    // displaces it (4-entry VC + 1 DMC slot = 5 on-chip lines).
    for i in 1..=5u32 {
        h.on_access(Access::load(0x100 + i * 1024, 0));
    }
    assert_eq!(h.stats().writebacks, 1, "displaced dirty line written back");
    assert_eq!(h.memory().peek(0x100), 42);
    // The value is still loadable (from memory) afterwards.
    h.on_access(Access::load(0x100, 42));
}

#[test]
fn dirty_bit_survives_a_swap_round_trip() {
    let mut h = hybrid();
    let a = 0x100u32;
    let b = a + 1024;
    h.on_access(Access::store(a, 7)); // a dirty in DMC
    h.on_access(Access::load(b, 0)); // a (dirty) into VC
    h.on_access(Access::load(a, 7)); // swap back: dirty must survive
    assert_eq!(h.stats().writebacks, 0, "nothing displaced yet");
    h.on_finish();
    assert_eq!(h.memory().peek(a), 7, "flush wrote the dirty line");
    assert!(h.stats().writebacks >= 1);
}

#[test]
fn flush_is_idempotent_and_counts_conserve() {
    let mut h = hybrid();
    for i in 0..40u32 {
        let addr = (i % 10) * 1024;
        if i % 3 == 0 {
            h.on_access(Access::store(addr, i));
        } else {
            h.set_verify_values(false);
            h.on_access(Access::load(addr, 0));
        }
    }
    h.on_finish();
    let after_first = h.stats().writebacks;
    h.on_finish();
    assert_eq!(
        h.stats().writebacks,
        after_first,
        "second finish is a no-op"
    );
    assert_eq!(h.stats().accesses(), 40);
    assert_eq!(h.stats().hits() + h.stats().misses(), 40);
    assert_eq!(h.stats().fetches, h.stats().misses());
    assert!(h.traffic_words() > 0);
}

#[test]
fn victim_cache_inspection_matches_behavior() {
    let mut h = hybrid();
    let vc = h.victim_cache();
    assert_eq!(vc.geometry().lines(), 4);
    assert_eq!(vc.geometry().sets(), 1, "fully associative");
    assert_eq!(vc.replacement(), ReplacementKind::Lru);
    assert_eq!(vc.valid_lines(), 0);
    h.on_access(Access::load(0x0, 0));
    h.on_access(Access::load(0x400, 0)); // evicts 0x0 into the VC
    assert_eq!(h.victim_cache().valid_lines(), 1);
    assert!(h.victim_cache().probe(0x0).is_some());
}

/// The line addresses the victim cache holds, in way order.
fn vc_lines(h: &VictimHybrid) -> Vec<u32> {
    h.victim_cache().iter_valid().map(|l| l.line_addr).collect()
}

/// The `i`-th of a run of lines conflicting in the 1 KiB DMC.
fn conflicting(i: u32) -> u32 {
    0x100 + i * 1024
}

#[test]
fn displacement_follows_insertion_order() {
    let mut h = VictimHybrid::new(CacheGeometry::new(1024, 32, 1).unwrap(), 2);
    for i in 0..3 {
        h.on_access(Access::load(conflicting(i), 0));
    }
    assert_eq!(vc_lines(&h), [conflicting(0), conflicting(1)]);
    // Each new conflict pushes the DMC's line in and the oldest out.
    h.on_access(Access::load(conflicting(3), 0));
    assert_eq!(vc_lines(&h), [conflicting(2), conflicting(1)]);
    h.on_access(Access::load(conflicting(4), 0));
    assert_eq!(vc_lines(&h), [conflicting(2), conflicting(3)]);
    assert_eq!((h.vc_hits(), h.stats().misses()), (0, 5));
}

#[test]
fn a_swapped_back_line_reenters_as_most_recent() {
    let (a, b, c, d) = (
        conflicting(0),
        conflicting(1),
        conflicting(2),
        conflicting(3),
    );
    let mut h = VictimHybrid::new(CacheGeometry::new(1024, 32, 1).unwrap(), 2);
    for line in [a, b, c] {
        h.on_access(Access::load(line, 0)); // VC: a, b; DMC: c
    }
    h.on_access(Access::load(a, 0)); // swap: VC b, c; DMC a
    h.on_access(Access::load(c, 0)); // swap: a re-enters after b
    assert_eq!(h.vc_hits(), 2);
    // The next conflict displaces b, the older entry, not a, the line
    // that entered the VC first.
    h.on_access(Access::load(d, 0));
    let vc = h.victim_cache();
    assert!(vc.probe(a).is_some() && vc.probe(c).is_some());
    assert!(vc.probe(b).is_none());
    h.on_access(Access::load(a, 0));
    assert_eq!(h.vc_hits(), 3);
    h.on_access(Access::load(b, 0));
    assert_eq!(h.vc_hits(), 3, "b fell out of the VC");
}

#[test]
fn a_probe_matches_every_word_of_a_line_and_nothing_else() {
    let mut h = hybrid(); // 32-byte lines
    h.on_access(Access::load(0x40, 0));
    h.on_access(Access::load(0x440, 0)); // 0x40 -> VC
    let vc = h.victim_cache();
    for offset in (0..32).step_by(4) {
        assert!(vc.probe(0x40 + offset).is_some(), "offset {offset}");
    }
    assert!(vc.probe(0x3c).is_none());
    assert!(vc.probe(0x60).is_none());
}

#[test]
fn a_dirty_bit_survives_swaps_and_the_flush() {
    let (a, b) = (conflicting(0), conflicting(1));
    let mut h = hybrid();
    h.on_access(Access::store(a, 7)); // a dirty in the DMC
    h.on_access(Access::load(b, 0)); // a (dirty) into the VC
    let dirty: Vec<_> = h.victim_cache().iter_valid().map(|l| l.dirty).collect();
    assert_eq!(dirty, [true]);
    h.on_access(Access::load(a, 7)); // swap back: b (clean) into the VC
    h.on_access(Access::load(b, 0)); // swap again: a (dirty) into the VC
    assert_eq!(h.vc_hits(), 2);
    assert_eq!(h.stats().writebacks, 0, "nothing displaced yet");
    h.on_finish();
    assert_eq!(h.stats().writebacks, 1, "only a is dirty");
    assert_eq!(h.memory().peek(a), 7);
    assert_eq!(h.victim_cache().valid_lines(), 0);
}

#[test]
fn a_displaced_dirty_line_is_written_back_once() {
    let mut h = VictimHybrid::new(CacheGeometry::new(1024, 32, 1).unwrap(), 1);
    h.on_access(Access::store(conflicting(0), 7));
    h.on_access(Access::load(conflicting(1), 0)); // line 0 -> VC
    h.on_access(Access::load(conflicting(2), 0)); // line 1 -> VC, 0 out
    assert_eq!(h.stats().writebacks, 1);
    assert_eq!(h.memory().peek(conflicting(0)), 7);
    h.on_finish();
    assert_eq!(
        h.stats().writebacks,
        1,
        "the clean lines left flush nothing"
    );
    assert_eq!(h.traffic_words(), 3 * 8 + 8);
}

#[test]
#[should_panic(expected = "positive power of two")]
fn a_zero_entry_victim_cache_is_refused() {
    VictimHybrid::new(CacheGeometry::new(1024, 32, 1).unwrap(), 0);
}

#[test]
#[should_panic(expected = "positive power of two")]
fn a_three_entry_victim_cache_is_refused() {
    VictimHybrid::new(CacheGeometry::new(1024, 32, 1).unwrap(), 3);
}
