//! The trace-layout names the benchmark still imports.
//!
//! Every capture holds its trace in the columnar [`PackedTrace`]
//! layout; there is no second layout to choose. The benchmark package
//! (`perfbench/`) still names three items of the old layout switch:
//! [`TraceRepr`] with its `Packed` and `Legacy` variants, and
//! [`TraceReprKind::Packed`], which it passes to
//! `WorkloadData::capture_limited_as` in `fvl-bench`. The benchmark's
//! definition changes only in a benchmark-scoped step, so these names
//! are held for it until that step retires them (see `ROADMAP.md`).

use crate::packed::PackedTrace;
use std::convert::Infallible;
use std::ops::Deref;

/// The layout a capture is stored in, held for the benchmark (see the
/// module docs): always [`TraceReprKind::Packed`].
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub enum TraceReprKind {
    /// The columnar [`PackedTrace`] layout.
    #[default]
    Packed,
}

/// A capture's trace, held for the benchmark (see the module docs). It
/// dereferences to the [`PackedTrace`] it always holds, so callers use
/// the packed API directly.
#[derive(Clone, Debug)]
pub enum TraceRepr {
    /// The columnar trace every capture holds.
    Packed(PackedTrace),
    /// Uninhabited: the benchmark still matches on this variant.
    Legacy(Infallible),
}

impl Deref for TraceRepr {
    type Target = PackedTrace;

    fn deref(&self) -> &PackedTrace {
        match self {
            TraceRepr::Packed(trace) => trace,
            TraceRepr::Legacy(never) => match *never {},
        }
    }
}
