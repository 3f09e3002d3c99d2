//! Synthetic SPEC95-like workloads.
//!
//! The paper's measurements are taken over SPECint95/SPECfp95 binaries
//! running on *reference* inputs. Those binaries (and an instrumented
//! machine to trace them) are not available here, so this crate provides
//! fourteen genuine small programs — an interpreter, a CPU simulator, a
//! compiler, a database, compressors, numeric kernels — each engineered
//! so its *memory value behavior* mirrors its SPEC namesake (see
//! `DESIGN.md` for the substitution argument). Every workload runs
//! against an [`fvl_mem::Bus`], so each of its loads and stores is a
//! traced word access.
//!
//! # Example
//!
//! ```
//! use fvl_mem::{CountingSink, TracedMemory};
//! use fvl_workloads::{InputSize, LiLike, Workload};
//!
//! let mut sink = CountingSink::default();
//! let mut mem = TracedMemory::new(&mut sink);
//! LiLike::new(InputSize::Test, 1).run(&mut mem);
//! mem.finish();
//! assert!(sink.accesses() > 10_000);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod compiler;
mod compress;
mod cpu;
mod fp;
mod fp2;
mod go;
mod ijpeg;
mod lisp;
mod perl;
mod vortex;

pub use compiler::GccLike;
pub use compress::CompressLike;
pub use cpu::M88ksimLike;
pub use fp::{ApplULike, Hydro2dLike, SwimLike, TomcatvLike};
pub use fp2::{MgridLike, Wave5Like};
pub use go::GoLike;
pub use ijpeg::IjpegLike;
pub use lisp::LiLike;
pub use perl::PerlLike;
pub use vortex::VortexLike;

use fvl_mem::Bus;
use std::fmt;

/// Problem-size class, mirroring SPEC's `test` / `train` / `reference`
/// input sets.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum InputSize {
    /// Smallest input: seconds of simulation, used by unit tests and
    /// Criterion benches.
    Test,
    /// Medium input.
    Train,
    /// Full-size input used by the headline experiments.
    Ref,
}

impl fmt::Display for InputSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InputSize::Test => "test",
            InputSize::Train => "train",
            InputSize::Ref => "ref",
        })
    }
}

/// A benchmark program that can be executed against a memory [`Bus`].
pub trait Workload {
    /// Short machine-friendly name (e.g. `"li"`).
    fn name(&self) -> &'static str;

    /// The SPEC95 benchmark this workload stands in for.
    fn mirrors(&self) -> &'static str;

    /// Executes the program, issuing every data access through `bus`.
    ///
    /// Workloads are single-shot: create a fresh value per run.
    fn run(&mut self, bus: &mut dyn Bus);
}

impl fmt::Debug for dyn Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Workload({})", self.name())
    }
}

/// The six SPECint95 benchmarks the paper finds frequent value locality
/// in, in the paper's order: go, m88ksim, gcc, li, perl, vortex.
pub fn fv_six(input: InputSize, seed: u64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(GoLike::new(input, seed)),
        Box::new(M88ksimLike::new(input, seed)),
        Box::new(GccLike::new(input, seed)),
        Box::new(LiLike::new(input, seed)),
        Box::new(PerlLike::new(input, seed)),
        Box::new(VortexLike::new(input, seed)),
    ]
}

/// The two SPECint95 benchmarks *without* frequent value locality:
/// compress and ijpeg.
pub fn non_fv_two(input: InputSize, seed: u64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(CompressLike::new(input, seed)),
        Box::new(IjpegLike::new(input, seed)),
    ]
}

/// All eight SPECint95-like workloads in the paper's order.
pub fn all_int(input: InputSize, seed: u64) -> Vec<Box<dyn Workload>> {
    let mut v = fv_six(input, seed);
    v.extend(non_fv_two(input, seed));
    v
}

/// The six SPECfp95-like workloads (Figure 2).
pub fn all_fp(input: InputSize, seed: u64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(TomcatvLike::new(input, seed)),
        Box::new(SwimLike::new(input, seed)),
        Box::new(Hydro2dLike::new(input, seed)),
        Box::new(MgridLike::new(input, seed)),
        Box::new(ApplULike::new(input, seed)),
        Box::new(Wave5Like::new(input, seed)),
    ]
}

/// Looks a workload up by its short name.
pub fn by_name(name: &str, input: InputSize, seed: u64) -> Option<Box<dyn Workload>> {
    let w: Box<dyn Workload> = match name {
        "go" => Box::new(GoLike::new(input, seed)),
        "m88ksim" => Box::new(M88ksimLike::new(input, seed)),
        "gcc" => Box::new(GccLike::new(input, seed)),
        "li" => Box::new(LiLike::new(input, seed)),
        "perl" => Box::new(PerlLike::new(input, seed)),
        "vortex" => Box::new(VortexLike::new(input, seed)),
        "compress" => Box::new(CompressLike::new(input, seed)),
        "ijpeg" => Box::new(IjpegLike::new(input, seed)),
        "tomcatv" => Box::new(TomcatvLike::new(input, seed)),
        "swim" => Box::new(SwimLike::new(input, seed)),
        "hydro2d" => Box::new(Hydro2dLike::new(input, seed)),
        "mgrid" => Box::new(MgridLike::new(input, seed)),
        "applu" => Box::new(ApplULike::new(input, seed)),
        "wave5" => Box::new(Wave5Like::new(input, seed)),
        _ => return None,
    };
    Some(w)
}

/// Deterministic xorshift64* PRNG used by all workloads, so runs are
/// reproducible regardless of external crate versions.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeds the generator; a zero seed is remapped to a fixed constant.
    pub fn new(seed: u64) -> Self {
        Rng {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Next 32-bit value.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        (self.next_u64() % bound as u64) as u32
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvl_mem::{CountingSink, TracedMemory};

    #[test]
    fn registry_names_round_trip() {
        for w in all_int(InputSize::Test, 1)
            .iter()
            .chain(all_fp(InputSize::Test, 1).iter())
        {
            let looked = by_name(w.name(), InputSize::Test, 1).expect("by_name finds it");
            assert_eq!(looked.name(), w.name());
            assert!(!w.mirrors().is_empty());
        }
        assert!(by_name("nope", InputSize::Test, 1).is_none());
    }

    #[test]
    fn fv_six_is_the_papers_order() {
        let names: Vec<_> = fv_six(InputSize::Test, 1)
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, vec!["go", "m88ksim", "gcc", "li", "perl", "vortex"]);
    }

    #[test]
    fn rng_is_deterministic_and_bounded() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..1000 {
            assert!(a.below(17) < 17);
            let u = a.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
        let mut c = Rng::new(0);
        let _ = c.next_u64(); // zero seed is remapped, not stuck
        assert_ne!(c.state, 0);
    }

    #[test]
    fn every_workload_runs_and_touches_memory() {
        for mut w in all_int(InputSize::Test, 7) {
            let mut sink = CountingSink::default();
            {
                let mut mem = TracedMemory::new(&mut sink);
                w.run(&mut mem);
                mem.finish();
            }
            assert!(
                sink.accesses() > 5_000,
                "{} produced only {} accesses",
                w.name(),
                sink.accesses()
            );
        }
        for mut w in all_fp(InputSize::Test, 7) {
            let mut sink = CountingSink::default();
            {
                let mut mem = TracedMemory::new(&mut sink);
                w.run(&mut mem);
                mem.finish();
            }
            assert!(sink.accesses() > 5_000, "{}", w.name());
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        for name in ["li", "go", "compress"] {
            let run = |seed| {
                let mut sink = CountingSink::default();
                let mut w = by_name(name, InputSize::Test, seed).unwrap();
                {
                    let mut mem = TracedMemory::new(&mut sink);
                    w.run(&mut mem);
                    mem.finish();
                }
                sink.accesses()
            };
            assert_eq!(run(3), run(3), "{name} not deterministic");
        }
    }
}
