//! The replay-kernel names the benchmark still imports.
//!
//! Packed replay, v2.2 address decode and frequent-value encode each
//! have one scalar path, so there is no kernel to choose. The
//! benchmark package (`perfbench/`) still names three of the old
//! kernel-selection items: [`SimdLevel::Scalar`] with its
//! [`SimdLevel::label`], [`active_level`], and
//! [`crate::PackedTrace::replay_into_with`]. The benchmark's definition
//! changes only in a benchmark-scoped step, so these names are held
//! for it until that step retires them, together with the benchmark's
//! `replay.null_avx2.ns_per_access` metric (see `ROADMAP.md`).

/// The one replay kernel, held for the benchmark (see the module docs).
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum SimdLevel {
    /// The scalar packed walk.
    Scalar,
}

impl SimdLevel {
    /// The label `"scalar"`, held for the benchmark's report header.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
        }
    }
}

/// The kernel every replay runs, always [`SimdLevel::Scalar`]; held
/// for the benchmark.
pub fn active_level() -> SimdLevel {
    SimdLevel::Scalar
}
