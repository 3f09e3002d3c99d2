//! The canonical tracing [`Bus`] implementation.

use crate::access::AccessSink;
use crate::access::{Access, AccessKind};
use crate::alloc::{HeapAllocator, StackAllocator};
use crate::bus::Bus;
use crate::layout::{Addr, Region, RegionKind, Word, GLOBAL_BASE, HEAP_BASE, WORD_BYTES};
use crate::live::LiveSet;
use crate::sim_memory::SimMemory;
use crate::snapshot::MemorySnapshot;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

/// The unwind payload of a budget stop. Private, so only
/// [`TracedMemory::run`], which raised it, can recognize and catch it.
struct BudgetStop;

/// A simulated process memory that forwards every event to an
/// [`AccessSink`].
///
/// `TracedMemory` owns the backing store, the live-location set, and the
/// heap/stack allocators; the sink is borrowed so callers keep ownership
/// of their profilers and cache simulators.
///
/// # Example
///
/// ```
/// use fvl_mem::{Bus, CountingSink, TracedMemory};
///
/// let mut sink = CountingSink::default();
/// let mut mem = TracedMemory::new(&mut sink);
/// let frame = mem.push_frame(2);
/// mem.store(frame, 1);
/// mem.pop_frame();
/// mem.finish();
/// assert_eq!(sink.stores(), 1);
/// ```
pub struct TracedMemory<'a> {
    mem: SimMemory,
    live: LiveSet,
    heap: HeapAllocator,
    stack: StackAllocator,
    global_next: Addr,
    sink: &'a mut dyn AccessSink,
    access_count: u64,
    /// The last access count a budgeted run may reach (see
    /// [`TracedMemory::run`]); `u64::MAX` outside one.
    stop_at: u64,
    sample_every: Option<u64>,
    next_sample: u64,
    /// When `false`, heap frees do not clear the live set — the paper's
    /// fidelity mode ("we were able to track deallocations of stack memory
    /// but not that of heap memory").
    track_heap_free: bool,
    finished: bool,
}

impl<'a> TracedMemory<'a> {
    /// Creates a traced memory without snapshot sampling.
    pub fn new(sink: &'a mut dyn AccessSink) -> Self {
        TracedMemory {
            mem: SimMemory::new(),
            live: LiveSet::new(),
            heap: HeapAllocator::new(),
            stack: StackAllocator::new(),
            global_next: GLOBAL_BASE,
            sink,
            access_count: 0,
            stop_at: u64::MAX,
            sample_every: None,
            next_sample: u64::MAX,
            track_heap_free: true,
            finished: false,
        }
    }

    /// Creates a traced memory that emits a [`MemorySnapshot`] every
    /// `every` accesses (the analogue of the paper's 10M-instruction
    /// occurrence sampling).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_sampling(sink: &'a mut dyn AccessSink, every: u64) -> Self {
        assert!(every > 0, "sampling interval must be positive");
        let mut t = Self::new(sink);
        t.sample_every = Some(every);
        t.next_sample = every;
        t
    }

    /// Selects whether heap frees remove locations from the live set.
    ///
    /// `true` (default) is the ideal semantics; `false` reproduces the
    /// paper's measurement limitation.
    pub fn set_heap_free_tracking(&mut self, track: bool) {
        self.track_heap_free = track;
    }

    /// The backing store (for end-of-run analyses).
    pub fn memory(&self) -> &SimMemory {
        &self.mem
    }

    /// The current interesting-location set.
    pub fn live(&self) -> &LiveSet {
        &self.live
    }

    /// The heap allocator (for accounting).
    pub fn heap(&self) -> &HeapAllocator {
        &self.heap
    }

    /// The stack allocator (for accounting).
    pub fn stack(&self) -> &StackAllocator {
        &self.stack
    }

    /// Takes a snapshot now and hands it to the sink.
    pub fn snapshot_now(&mut self) {
        let snap = MemorySnapshot::new(&self.mem, &self.live, self.access_count);
        self.sink.on_snapshot(&snap);
    }

    /// Signals end of run to the sink (calls [`AccessSink::on_finish`]).
    /// Idempotent.
    pub fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            self.sink.on_finish();
        }
    }

    /// Runs `program` on this memory, ending it at its first access
    /// beyond `budget` more accesses, then calls
    /// [`TracedMemory::finish`] once. Returns whether the budget ended
    /// the program; under `None`, or a budget the program fits in, it
    /// runs to completion.
    ///
    /// The access that ends the program counts in [`Bus::accesses`] but
    /// touches neither memory nor the sink, so the sink sees exactly the
    /// prefix of the full event stream that
    /// [`crate::Trace::into_prefix`] keeps, region events between access
    /// `budget` and `budget + 1` included.
    ///
    /// The stop unwinds out of `program` with a payload private to this
    /// module, raised by [`std::panic::resume_unwind`] so the panic hook
    /// stays silent. Only this function catches it; any other panic of
    /// `program` propagates unchanged and leaves the sink unfinished.
    /// Unwinding stops a program at the exact access without the program
    /// checking for it, but it relies on the default `panic = "unwind"`
    /// strategy (under `abort` a stop would end the process), and
    /// nothing may access this memory while `program` unwinds, from a
    /// `Drop` impl say.
    ///
    /// # Example
    ///
    /// ```
    /// use fvl_mem::{Bus, BusExt, CountingSink, TracedMemory};
    ///
    /// let mut sink = CountingSink::default();
    /// let mut mem = TracedMemory::new(&mut sink);
    /// let stopped = mem.run(Some(3), |mem| {
    ///     let a = mem.global(8);
    ///     mem.fill(a, 8, 1);
    ///     unreachable!("the fourth store ends the program");
    /// });
    /// assert!(stopped);
    /// assert_eq!(mem.accesses(), 4, "the fourth store was issued");
    /// assert_eq!(sink.stores(), 3);
    /// assert!(sink.finished());
    /// ```
    pub fn run(&mut self, budget: Option<u64>, program: impl FnOnce(&mut Self)) -> bool {
        self.stop_at = budget.map_or(u64::MAX, |b| self.access_count.saturating_add(b));
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| program(self)));
        self.stop_at = u64::MAX;
        let stopped = match outcome {
            Ok(()) => false,
            Err(payload) if payload.is::<BudgetStop>() => true,
            Err(payload) => panic::resume_unwind(payload),
        };
        self.finish();
        stopped
    }

    /// Counts an access the program issues, and ends a budgeted run at
    /// its first access past the budget, before the access touches
    /// memory.
    #[inline]
    fn issue(&mut self) {
        self.access_count += 1;
        if self.access_count > self.stop_at {
            stop();
        }
    }

    #[inline]
    fn record(&mut self, addr: Addr, value: Word, kind: AccessKind) {
        self.live.mark(addr);
        self.sink.on_access(Access { addr, value, kind });
        if self.access_count >= self.next_sample {
            let every = self.sample_every.expect("sampling misconfigured");
            self.next_sample = self.access_count + every;
            let snap = MemorySnapshot::new(&self.mem, &self.live, self.access_count);
            self.sink.on_snapshot(&snap);
        }
    }
}

/// Ends a budgeted run (see [`TracedMemory::run`]).
#[cold]
#[inline(never)]
fn stop() -> ! {
    panic::resume_unwind(Box::new(BudgetStop))
}

impl Bus for TracedMemory<'_> {
    #[inline]
    fn load(&mut self, addr: Addr) -> Word {
        assert_eq!(addr % WORD_BYTES, 0, "unaligned load at {addr:#x}");
        self.issue();
        let value = self.mem.read(addr);
        self.record(addr, value, AccessKind::Load);
        value
    }

    #[inline]
    fn store(&mut self, addr: Addr, value: Word) {
        assert_eq!(addr % WORD_BYTES, 0, "unaligned store at {addr:#x}");
        self.issue();
        self.mem.write(addr, value);
        self.record(addr, value, AccessKind::Store);
    }

    fn alloc(&mut self, words: u32) -> Addr {
        // Reserve two extra words for the allocator's chunk header, as a
        // real malloc does. The header accesses below are genuine traced
        // accesses: the *load* models the free-list/boundary-tag check a
        // real allocator performs before claiming the chunk, and matters
        // to cache studies because it makes the first touch of a fresh
        // heap line a read, not a write.
        let region = self.heap.alloc(words + 2);
        self.sink.on_alloc(region);
        let header = region.base;
        let _old = self.load(header);
        self.store(header, (region.words << 8) | 1);
        header + 2 * WORD_BYTES
    }

    fn free(&mut self, base: Addr) {
        let header = base - 2 * WORD_BYTES;
        let region = self.heap.free(header);
        // Read the chunk header and clear its in-use bit, as `free(3)`
        // does before threading the chunk onto a free list.
        let old = self.load(header);
        self.store(header, old & !1);
        if self.track_heap_free {
            self.live.clear_region(&region);
        }
        self.sink.on_free(region);
    }

    fn push_frame(&mut self, words: u32) -> Addr {
        let region = self.stack.push(words);
        self.sink.on_alloc(region);
        region.base
    }

    fn pop_frame(&mut self) {
        let region = self.stack.pop();
        self.live.clear_region(&region);
        self.sink.on_free(region);
    }

    fn global(&mut self, words: u32) -> Addr {
        assert!(words > 0, "zero-sized global allocation");
        let base = self.global_next;
        let end = base as u64 + words as u64 * WORD_BYTES as u64;
        assert!(
            end <= HEAP_BASE as u64,
            "simulated global segment exhausted"
        );
        self.global_next = end as Addr;
        self.sink
            .on_alloc(Region::new(base, words, RegionKind::Global));
        base
    }

    #[inline]
    fn accesses(&self) -> u64 {
        self.access_count
    }
}

impl fmt::Debug for TracedMemory<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracedMemory")
            .field("accesses", &self.access_count)
            .field("live_locations", &self.live.len())
            .field("resident_pages", &self.mem.resident_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::CountingSink;
    use crate::bus::BusExt;

    #[test]
    fn loads_and_stores_reach_the_sink_with_values() {
        struct Recorder(Vec<Access>);
        impl AccessSink for Recorder {
            fn on_access(&mut self, a: Access) {
                self.0.push(a);
            }
        }
        let mut rec = Recorder(Vec::new());
        {
            let mut m = TracedMemory::new(&mut rec);
            let a = m.alloc(2);
            m.store(a, 5);
            assert_eq!(m.load(a), 5);
            assert_eq!(m.load(m.idx(a, 1)), 0);
            assert_eq!(m.accesses(), 5, "2 header accesses + 3 program accesses");
        }
        assert_eq!(rec.0.len(), 5);
        // Malloc semantics: the first touch of a fresh chunk is a load of
        // its header, then the in-use header store.
        assert_eq!(rec.0[0].kind, AccessKind::Load);
        assert_eq!(rec.0[0].value, 0);
        assert_eq!(rec.0[1].kind, AccessKind::Store);
        assert_eq!(rec.0[1].addr, rec.0[0].addr);
        assert_eq!(rec.0[2].kind, AccessKind::Store);
        assert_eq!(rec.0[2].value, 5);
        assert_eq!(rec.0[2].addr, rec.0[0].addr + 8);
        assert_eq!(rec.0[3], Access::load(rec.0[2].addr, 5));
        assert_eq!(rec.0[4].value, 0);
    }

    #[test]
    fn sampling_fires_every_n_accesses() {
        let mut sink = CountingSink::new();
        {
            let mut m = TracedMemory::with_sampling(&mut sink, 4);
            let a = m.global(16);
            for i in 0..10 {
                m.store_idx(a, i, i);
            }
            m.finish();
        }
        assert_eq!(sink.snapshots(), 2); // after accesses 4 and 8
        assert!(sink.finished());
    }

    #[test]
    fn stack_pop_clears_live_but_heap_mode_is_configurable() {
        let mut sink = CountingSink::new();
        let mut m = TracedMemory::new(&mut sink);
        let f = m.push_frame(2);
        m.store(f, 1);
        assert!(m.live().contains(f));
        m.pop_frame();
        assert!(!m.live().contains(f));

        m.set_heap_free_tracking(false);
        let h = m.alloc(2);
        m.store(h, 9);
        m.free(h);
        assert!(
            m.live().contains(h),
            "paper mode keeps freed heap words live"
        );

        m.set_heap_free_tracking(true);
        let h2 = m.alloc(2);
        m.store(h2, 9);
        m.free(h2);
        assert!(!m.live().contains(h2));
    }

    #[test]
    fn globals_are_disjoint_and_reported() {
        let mut sink = CountingSink::new();
        let mut m = TracedMemory::new(&mut sink);
        let g1 = m.global(4);
        let g2 = m.global(4);
        assert_eq!(g2, g1 + 16);
        assert_eq!(sink.allocs(), 2);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut sink = CountingSink::new();
        let mut m = TracedMemory::new(&mut sink);
        m.finish();
        m.finish();
        assert!(sink.finished());
    }

    /// Stores `words` ones into a fresh global array.
    fn fill_ones(m: &mut TracedMemory<'_>, words: u32) {
        let a = m.global(words);
        m.fill(a, words, 1);
    }

    #[test]
    fn budgeted_run_stops_at_the_first_access_past_the_budget() {
        for budget in 0..5 {
            let mut sink = CountingSink::new();
            let mut m = TracedMemory::new(&mut sink);
            assert!(m.run(Some(budget), |m| fill_ones(m, 5)));
            assert_eq!(m.accesses(), budget + 1, "budget {budget}");
            // The budget ends with the run: later accesses go through.
            m.store(GLOBAL_BASE, 2);
            assert_eq!(m.accesses(), budget + 2);
            assert_eq!(sink.stores(), budget + 1, "budget {budget}");
            assert!(sink.finished());
        }
    }

    #[test]
    fn a_budget_the_program_fits_in_runs_it_to_completion() {
        for budget in [Some(5), Some(6), None] {
            let mut sink = CountingSink::new();
            let mut m = TracedMemory::new(&mut sink);
            assert!(!m.run(budget, |m| fill_ones(m, 5)), "{budget:?}");
            assert_eq!(m.accesses(), 5);
            assert_eq!(sink.stores(), 5);
            assert!(sink.finished());
        }
    }

    #[test]
    fn a_program_panic_before_the_budget_propagates_unchanged() {
        let mut sink = CountingSink::new();
        let mut m = TracedMemory::new(&mut sink);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(Some(10), |m| {
                fill_ones(m, 2);
                panic!("workload bug after {} accesses", m.accesses());
            })
        }))
        .expect_err("the program's panic propagates");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("workload bug after 2 accesses")
        );
        assert!(!sink.finished(), "a failed program is not finished");
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn a_program_panic_keeps_its_message() {
        let mut sink = CountingSink::new();
        let mut m = TracedMemory::new(&mut sink);
        m.run(Some(10), |m| m.store(6, 1));
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_load_panics() {
        let mut sink = CountingSink::new();
        let mut m = TracedMemory::new(&mut sink);
        let _ = m.load(3);
    }
}
