//! Simulated 32-bit memory substrate with access tracing.
//!
//! This crate replaces the instrumented-execution substrate of the ASPLOS
//! 2000 paper *Frequent Value Locality and Value-Centric Data Cache Design*:
//! where the authors ran SPEC95 binaries and collected load/store traces, we
//! run synthetic workload programs (see the `fvl-workloads` crate) against a
//! simulated, word-addressable, 32-bit memory that records every access.
//!
//! # Architecture
//!
//! * [`SimMemory`] — sparse paged storage for the full 32-bit address space,
//!   its pages located through a flat two-level page table that
//!   [`LiveSet`] shares.
//! * [`Bus`] — the interface workloads program against: word loads/stores
//!   plus heap allocation and stack-frame management.
//! * [`TracedMemory`] — the canonical [`Bus`] implementation; it owns the
//!   memory, tracks *interesting* (referenced and still allocated) locations,
//!   and forwards every event to an [`AccessSink`].
//!   [`TracedMemory::run`] runs a program under an access budget, ending
//!   it at its first access past the budget.
//! * [`AccessSink`] — consumer interface implemented by profilers and cache
//!   simulators; [`Fanout`] feeds several sinks in one pass.
//! * [`TraceBuffer`] — the recorder: it writes the event stream straight
//!   into [`PackedTrace`] columns, so one workload execution can drive
//!   arbitrarily many cache configurations. [`Trace`] is the same log as
//!   an array of [`TraceEvent`]s.
//! * [`PackedTrace`] — the same log in columnar (SoA) form: ~8 bytes per
//!   access instead of 16 and branchless replay. Every capture the
//!   experiment harness keeps is packed.
//! * [`MappedTrace`] — out-of-core access to the chunk-indexed v2.2
//!   trace-file format: the file stays on disk (nothing is mapped) and
//!   each [`CHUNK_ACCESSES`]-sized chunk is read with one positioned
//!   read and decoded lazily, so one chunk's buffer and columns are
//!   resident at a time no matter how large the trace is.
//! * [`MemorySnapshot`] — a periodic view of live memory contents used by
//!   the paper's "frequently *occurring* value" sampling (every 10M
//!   instructions in the paper; every N accesses here).
//!
//! # Example
//!
//! ```
//! use fvl_mem::{Bus, CountingSink, TracedMemory};
//!
//! let mut sink = CountingSink::default();
//! let mut mem = TracedMemory::new(&mut sink);
//! let buf = mem.alloc(4);
//! mem.store(buf, 42);
//! assert_eq!(mem.load(buf), 42);
//! mem.free(buf);
//! mem.finish();
//! // 2 program accesses + 2 malloc-header accesses each on alloc/free.
//! assert_eq!(sink.accesses(), 6);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod access;
mod alloc;
mod bus;
pub mod frame;
mod layout;
mod live;
mod mapped;
mod packed;
mod page_table;
mod repr;
mod sim_memory;
pub mod simd;
mod snapshot;
mod trace;
mod trace_io;
mod traced;
pub mod varint;

pub use access::{Access, AccessKind, AccessSink, CountingSink, Fanout, NullSink};
pub use alloc::{HeapAllocator, StackAllocator};
pub use bus::{Bus, BusExt};
pub use layout::{Addr, Region, RegionKind, Word, GLOBAL_BASE, HEAP_BASE, STACK_BASE, WORD_BYTES};
pub use live::LiveSet;
pub use mapped::MappedTrace;
pub use packed::{PackedTrace, RegionEvent, STORE_BIT};
pub use repr::{TraceRepr, TraceReprKind};
pub use sim_memory::SimMemory;
pub use simd::SimdLevel;
pub use snapshot::MemorySnapshot;
pub use trace::{Trace, TraceBuffer, TraceEvent};
pub use trace_io::{AddrCodec, CHUNK_ACCESSES, CHUNK_BYTES};
pub use traced::TracedMemory;
