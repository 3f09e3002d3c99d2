//! CACTI-style analytical access-time model (Figure 9).
//!
//! The paper uses CACTI (Jouppi & Wilton, DEC WRL TR 93/5) at 0.8 µm to
//! argue that (a) a 512-entry FVC is no slower than the DMCs it
//! accompanies and (b) a 4-entry fully-associative victim cache (~9 ns)
//! is slower than a 512-entry direct-mapped FVC (~6 ns). CACTI itself is
//! not available here, so this crate implements a simplified analytical
//! RC model of the same pipeline — decoder → wordline → bitline → sense
//! amplifier → tag compare → output mux — whose coefficients are
//! calibrated to 0.8 µm so that the paper's *relationships* hold. The
//! absolute nanosecond values are indicative, not certified.
//!
//! # Example
//!
//! ```
//! use fvl_cache::CacheGeometry;
//! use fvl_timing::{dm_cache_time, fvc_time, Tech};
//!
//! let tech = Tech::micron_0_8();
//! let dmc = dm_cache_time(&CacheGeometry::new(16 * 1024, 32, 1)?, &tech);
//! let fvc = fvc_time(512, 8, 3, &tech);
//! assert!(fvc.total() <= dmc.total());
//! # Ok::<(), fvl_cache::GeometryError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod area;

pub use area::{cache_bits, fvc_bits, victim_cache_bits};

use fvl_cache::CacheGeometry;
use std::fmt;

/// Process/technology coefficients for the delay model, in nanoseconds
/// and nanoseconds-per-unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Tech {
    /// Decoder: fixed + per-log2(row) buffer stage.
    pub decoder_base: f64,
    /// Per log2(rows) decoder stage delay.
    pub decoder_per_bit: f64,
    /// Wordline: fixed + per-column RC.
    pub wordline_base: f64,
    /// Per-column wordline RC.
    pub wordline_per_col: f64,
    /// Bitline: fixed + per-row RC.
    pub bitline_base: f64,
    /// Per-row bitline RC.
    pub bitline_per_row: f64,
    /// Sense amplifier delay.
    pub sense: f64,
    /// Comparator: fixed + per-tag-bit.
    pub compare_base: f64,
    /// Per-tag-bit comparator delay.
    pub compare_per_bit: f64,
    /// Output mux/driver: fixed + per-log2(fanin).
    pub mux_base: f64,
    /// Per-log2(mux fanin) delay.
    pub mux_per_bit: f64,
    /// Fully-associative overhead: tag broadcast + match-line resolution.
    pub cam_overhead: f64,
    /// Per-entry match-line loading in a CAM.
    pub cam_per_entry: f64,
    /// Frequent-value decode stage (select among ≤7 value registers).
    pub fv_decode: f64,
}

impl Tech {
    /// Coefficients calibrated for the paper's 0.8 µm technology point.
    pub fn micron_0_8() -> Self {
        Tech {
            decoder_base: 0.35,
            decoder_per_bit: 0.12,
            wordline_base: 0.15,
            wordline_per_col: 0.0025,
            bitline_base: 0.45,
            bitline_per_row: 0.0035,
            sense: 0.35,
            compare_base: 0.25,
            compare_per_bit: 0.045,
            mux_base: 0.30,
            mux_per_bit: 0.08,
            cam_overhead: 3.6,
            cam_per_entry: 0.012,
            fv_decode: 0.45,
        }
    }
}

impl Default for Tech {
    fn default() -> Self {
        Self::micron_0_8()
    }
}

/// A decomposed access time in nanoseconds.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct AccessTime {
    /// Row decoder delay.
    pub decoder: f64,
    /// Wordline drive delay.
    pub wordline: f64,
    /// Bitline discharge delay.
    pub bitline: f64,
    /// Sense amplifier delay.
    pub sense: f64,
    /// Tag comparator delay.
    pub compare: f64,
    /// Output mux/driver delay.
    pub mux: f64,
    /// Structure-specific extra stage (CAM match, FV decode).
    pub extra: f64,
}

impl AccessTime {
    /// Total access time in nanoseconds.
    pub fn total(&self) -> f64 {
        self.decoder
            + self.wordline
            + self.bitline
            + self.sense
            + self.compare
            + self.mux
            + self.extra
    }
}

impl fmt::Display for AccessTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}ns", self.total())
    }
}

fn log2f(x: f64) -> f64 {
    x.max(1.0).log2()
}

/// Splits `total_bits` into a near-square array (rows a power of two).
fn organize(total_bits: f64) -> (f64, f64) {
    let ideal = total_bits.sqrt();
    let mut rows = 1f64;
    while rows * 2.0 <= ideal {
        rows *= 2.0;
    }
    // Choose the nearer power of two.
    if (rows * 2.0 - ideal).abs() < (ideal - rows).abs() {
        rows *= 2.0;
    }
    let rows = rows.max(4.0);
    (rows, (total_bits / rows).max(1.0))
}

fn array_time(
    data_bits: f64,
    tag_bits: u32,
    tag_entries: f64,
    assoc: u32,
    extra: f64,
    tech: &Tech,
) -> AccessTime {
    let total_bits = data_bits + tag_bits as f64 * tag_entries;
    let (rows, cols) = organize(total_bits);
    AccessTime {
        decoder: tech.decoder_base + tech.decoder_per_bit * log2f(rows),
        wordline: tech.wordline_base + tech.wordline_per_col * cols,
        bitline: tech.bitline_base + tech.bitline_per_row * rows,
        sense: tech.sense,
        compare: tech.compare_base + tech.compare_per_bit * tag_bits as f64,
        mux: tech.mux_base + tech.mux_per_bit * log2f(assoc as f64),
        extra,
    }
}

/// Access time of a direct-mapped or set-associative SRAM cache.
pub fn dm_cache_time(geom: &CacheGeometry, tech: &Tech) -> AccessTime {
    array_time(
        geom.size_bytes() as f64 * 8.0,
        geom.tag_bits(),
        geom.lines() as f64,
        geom.associativity(),
        0.0,
        tech,
    )
}

/// Access time of a direct-mapped FVC of `entries` lines of
/// `words_per_line` words encoded with `width_bits`-bit codes. Includes
/// the frequent-value decode stage (value-register select).
///
/// # Panics
///
/// Panics if `entries` or `words_per_line` is not a power of two or
/// `width_bits` is outside `1..=7`.
pub fn fvc_time(entries: u32, words_per_line: u32, width_bits: u32, tech: &Tech) -> AccessTime {
    assert!(entries.is_power_of_two(), "entries must be a power of two");
    assert!(
        words_per_line.is_power_of_two(),
        "words per line must be a power of two"
    );
    assert!((1..=7).contains(&width_bits), "width must be 1..=7 bits");
    let line_bytes = words_per_line * 4;
    let tag_bits = 32 - (line_bytes.trailing_zeros() + entries.trailing_zeros());
    let data_bits = (entries * words_per_line * width_bits) as f64;
    array_time(data_bits, tag_bits, entries as f64, 1, tech.fv_decode, tech)
}

/// Access time of a fully-associative (CAM-tagged) cache such as a
/// victim cache of `entries` lines of `line_bytes` bytes.
///
/// # Panics
///
/// Panics if `entries` is zero or `line_bytes` is not a positive power
/// of two of at least one word.
pub fn fully_assoc_time(entries: u32, line_bytes: u32, tech: &Tech) -> AccessTime {
    assert!(entries > 0, "need at least one entry");
    assert!(
        line_bytes.is_power_of_two() && line_bytes >= 4,
        "bad line size"
    );
    let tag_bits = 32 - line_bytes.trailing_zeros();
    let data_bits = (entries * line_bytes * 8) as f64;
    let (rows, cols) = organize(data_bits);
    AccessTime {
        decoder: 0.0, // no row decoder: the CAM match drives the wordline
        wordline: tech.wordline_base + tech.wordline_per_col * cols,
        bitline: tech.bitline_base + tech.bitline_per_row * rows,
        sense: tech.sense,
        compare: tech.compare_base + tech.compare_per_bit * tag_bits as f64,
        mux: tech.mux_base,
        extra: tech.cam_overhead + tech.cam_per_entry * entries as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Tech {
        Tech::micron_0_8()
    }

    fn dmc(kb: u64, line: u32) -> f64 {
        dm_cache_time(&CacheGeometry::new(kb * 1024, line, 1).unwrap(), &tech()).total()
    }

    #[test]
    fn dmc_access_time_grows_with_size() {
        for line in [16u32, 32, 64] {
            let mut prev = 0.0;
            for kb in [4u64, 8, 16, 32, 64] {
                let t = dmc(kb, line);
                assert!(t > prev, "{kb}KB/{line}B: {t} vs {prev}");
                prev = t;
            }
        }
    }

    #[test]
    fn dmc_times_are_plausible_for_0_8_micron() {
        // The era's on-chip caches were ~4-10ns.
        assert!(dmc(4, 16) > 3.0 && dmc(4, 16) < 7.0, "{}", dmc(4, 16));
        assert!(dmc(64, 64) > 6.0 && dmc(64, 64) < 11.0, "{}", dmc(64, 64));
    }

    #[test]
    fn fvc_times_grow_with_entries_and_width() {
        let mut prev = 0.0;
        for entries in [64u32, 128, 256, 512, 1024, 2048, 4096] {
            let t = fvc_time(entries, 8, 3, &tech()).total();
            assert!(t > prev);
            prev = t;
        }
        assert!(
            fvc_time(512, 8, 1, &tech()).total() < fvc_time(512, 8, 3, &tech()).total(),
            "narrower codes make a smaller, faster array"
        );
    }

    #[test]
    fn fvc_512_is_no_slower_than_paper_dmc_configs() {
        // Figure 9 / Section 4: 12 DMC configurations have access time
        // >= a 512-entry FVC. Check it holds in our model too.
        let f = fvc_time(512, 8, 3, &tech()).total();
        let mut at_least = 0;
        for kb in [4u64, 8, 16, 32, 64] {
            for line in [16u32, 32, 64] {
                if dmc(kb, line) >= f {
                    at_least += 1;
                }
            }
        }
        assert!(
            at_least >= 12,
            "only {at_least} of 15 configs are >= FVC time {f}"
        );
    }

    #[test]
    fn victim_cache_is_slower_than_large_fvc() {
        // Paper: 4-entry VC at 8 words/line ~ 9ns vs 512-entry FVC ~ 6ns.
        let vc = fully_assoc_time(4, 32, &tech()).total();
        let fvc = fvc_time(512, 8, 3, &tech()).total();
        assert!(vc > fvc + 1.0, "vc={vc} fvc={fvc}");
        assert!(vc > 5.0 && vc < 11.0, "vc={vc}");
        assert!(fvc > 3.0 && fvc < 7.5, "fvc={fvc}");
    }

    #[test]
    fn components_sum_to_total() {
        let t = fvc_time(256, 8, 3, &tech());
        let sum = t.decoder + t.wordline + t.bitline + t.sense + t.compare + t.mux + t.extra;
        assert!((t.total() - sum).abs() < 1e-12);
        assert!(t.extra > 0.0, "FVC has a decode stage");
    }

    #[test]
    fn set_associativity_costs_mux_time() {
        let dm = dm_cache_time(&CacheGeometry::new(16384, 32, 1).unwrap(), &tech()).total();
        let w4 = dm_cache_time(&CacheGeometry::new(16384, 32, 4).unwrap(), &tech()).total();
        assert!(w4 > dm);
    }

    #[test]
    fn organize_splits_near_square() {
        let (rows, cols) = organize(16384.0);
        assert_eq!(rows, 128.0);
        assert_eq!(cols, 128.0);
        let (rows, cols) = organize(100.0);
        assert!(rows >= 4.0);
        assert!(rows * cols >= 100.0);
    }

    #[test]
    fn display_formats_total() {
        let t = AccessTime {
            decoder: 1.0,
            sense: 0.5,
            ..Default::default()
        };
        assert_eq!(t.to_string(), "1.50ns");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fvc_time_validates() {
        let _ = fvc_time(100, 8, 3, &tech());
    }
}
