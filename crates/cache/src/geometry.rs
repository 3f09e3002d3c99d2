//! Cache organization arithmetic.

use fvl_mem::{Addr, WORD_BYTES};
use std::error::Error;
use std::fmt;

/// Error returned when a cache organization is not realizable.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum GeometryError {
    /// A parameter must be a power of two but is not.
    NotPowerOfTwo {
        /// Which parameter was rejected.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The line size is smaller than one word or larger than the cache.
    BadLineSize {
        /// The offending line size in bytes.
        line_bytes: u32,
    },
    /// size / (line × associativity) is not a positive integer.
    Indivisible {
        /// Total size in bytes.
        size_bytes: u64,
        /// Line size in bytes.
        line_bytes: u32,
        /// Associativity.
        associativity: u32,
    },
    /// The cache holds more lines (and so possibly more sets) than a
    /// `u32` can count.
    TooManyLines {
        /// Total size in bytes.
        size_bytes: u64,
        /// Line size in bytes.
        line_bytes: u32,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a power of two, got {value}")
            }
            GeometryError::BadLineSize { line_bytes } => {
                write!(f, "line size of {line_bytes} bytes is not realizable")
            }
            GeometryError::Indivisible { size_bytes, line_bytes, associativity } => write!(
                f,
                "cannot divide {size_bytes} bytes into sets of {associativity} lines of {line_bytes} bytes"
            ),
            GeometryError::TooManyLines { size_bytes, line_bytes } => write!(
                f,
                "{size_bytes} bytes of {line_bytes}-byte lines is more than {} lines",
                u32::MAX
            ),
        }
    }
}

impl Error for GeometryError {}

/// The organization of a cache: total size, line size, associativity.
///
/// All index/tag arithmetic used by the simulators lives here, so the
/// address splitting is defined exactly once.
///
/// # Example
///
/// ```
/// use fvl_cache::CacheGeometry;
///
/// let g = CacheGeometry::new(16 * 1024, 32, 2)?;
/// assert_eq!(g.sets(), 256);
/// assert_eq!(g.words_per_line(), 8);
/// assert_eq!(g.set_index(0x0000_1044), 130);
/// # Ok::<(), fvl_cache::GeometryError>(())
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct CacheGeometry {
    size_bytes: u64,
    line_bytes: u32,
    associativity: u32,
    sets: u32,
    line_shift: u32,
    set_mask: u32,
}

impl CacheGeometry {
    /// Creates a geometry from total size, line size (bytes), and
    /// associativity.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if any parameter is not a power of
    /// two, the line size is below one word, the parameters don't
    /// divide evenly into at least one set, or the line count does not
    /// fit in a `u32`.
    pub fn new(
        size_bytes: u64,
        line_bytes: u32,
        associativity: u32,
    ) -> Result<Self, GeometryError> {
        if !size_bytes.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo {
                what: "cache size",
                value: size_bytes,
            });
        }
        if !line_bytes.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo {
                what: "line size",
                value: line_bytes as u64,
            });
        }
        if !associativity.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo {
                what: "associativity",
                value: associativity as u64,
            });
        }
        if line_bytes < WORD_BYTES || (line_bytes as u64) > size_bytes {
            return Err(GeometryError::BadLineSize { line_bytes });
        }
        let set_bytes = line_bytes as u64 * associativity as u64;
        if set_bytes == 0 || !size_bytes.is_multiple_of(set_bytes) || size_bytes / set_bytes == 0 {
            return Err(GeometryError::Indivisible {
                size_bytes,
                line_bytes,
                associativity,
            });
        }
        if size_bytes / line_bytes as u64 > u64::from(u32::MAX) {
            return Err(GeometryError::TooManyLines {
                size_bytes,
                line_bytes,
            });
        }
        // Fewer sets than lines, so the count fits too.
        let sets = (size_bytes / set_bytes) as u32;
        Ok(CacheGeometry {
            size_bytes,
            line_bytes,
            associativity,
            sets,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets - 1,
        })
    }

    /// A fully-associative geometry with `entries` lines (used for the
    /// victim cache and for capacity-miss modelling).
    ///
    /// # Errors
    ///
    /// Propagates the same validation as [`CacheGeometry::new`].
    pub fn fully_associative(entries: u32, line_bytes: u32) -> Result<Self, GeometryError> {
        if !entries.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo {
                what: "entries",
                value: entries as u64,
            });
        }
        Self::new(entries as u64 * line_bytes as u64, line_bytes, entries)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Words per line.
    pub fn words_per_line(&self) -> u32 {
        self.line_bytes / WORD_BYTES
    }

    /// Number of ways per set (1 = direct mapped).
    pub fn associativity(&self) -> u32 {
        self.associativity
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Total number of lines.
    pub fn lines(&self) -> u32 {
        self.sets * self.associativity
    }

    /// Whether this is a direct-mapped organization.
    pub fn is_direct_mapped(&self) -> bool {
        self.associativity == 1
    }

    /// The *line address* (address of the first byte of the containing
    /// line) for `addr`.
    #[inline]
    pub fn line_addr(&self, addr: Addr) -> Addr {
        addr & !(self.line_bytes - 1)
    }

    /// Set index for `addr`.
    #[inline]
    pub fn set_index(&self, addr: Addr) -> u32 {
        // `seeded-bugs` is a TEST-ONLY mutation used by the `fvl-check`
        // conformance harness: the mask loses its top bit, silently
        // folding the upper half of the sets onto the lower half.
        #[cfg(feature = "seeded-bugs")]
        {
            (addr >> self.line_shift) & (self.set_mask >> 1)
        }
        #[cfg(not(feature = "seeded-bugs"))]
        {
            (addr >> self.line_shift) & self.set_mask
        }
    }

    /// Tag for `addr` (the line address bits above the index).
    #[inline]
    pub fn tag(&self, addr: Addr) -> u32 {
        addr >> self.line_shift >> self.sets.trailing_zeros()
    }

    /// Word offset of `addr` within its line.
    #[inline]
    pub fn word_offset(&self, addr: Addr) -> u32 {
        (addr & (self.line_bytes - 1)) / WORD_BYTES
    }

    /// Number of tag bits for a 32-bit address space.
    pub fn tag_bits(&self) -> u32 {
        32 - self.line_shift - self.sets.trailing_zeros()
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let assoc = if self.associativity == 1 {
            "direct-mapped".to_string()
        } else if self.associativity == self.lines() {
            "fully-associative".to_string()
        } else {
            format!("{}-way", self.associativity)
        };
        if self.size_bytes >= 1024 && self.size_bytes.is_multiple_of(1024) {
            write!(
                f,
                "{}KB {} ({}B lines)",
                self.size_bytes / 1024,
                assoc,
                self.line_bytes
            )
        } else {
            write!(
                f,
                "{}B {} ({}B lines)",
                self.size_bytes, assoc, self.line_bytes
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dmc_geometry() {
        // 16KB direct mapped, 8 words per line (the paper's main config).
        let g = CacheGeometry::new(16 * 1024, 32, 1).unwrap();
        assert_eq!(g.sets(), 512);
        assert_eq!(g.lines(), 512);
        assert_eq!(g.words_per_line(), 8);
        assert!(g.is_direct_mapped());
        assert_eq!(g.tag_bits(), 32 - 5 - 9);
    }

    #[test]
    fn address_splitting_round_trips() {
        let g = CacheGeometry::new(4 * 1024, 16, 2).unwrap();
        let addr = 0x1234_5678 & !3;
        let line = g.line_addr(addr);
        assert_eq!(line % 16, 0);
        assert!(addr - line < 16);
        // Reconstruct the line address from tag + index.
        let rebuilt = (g.tag(addr) << (g.sets().trailing_zeros() + 4)) | (g.set_index(addr) << 4);
        assert_eq!(rebuilt, line);
    }

    #[test]
    fn word_offset_within_line() {
        let g = CacheGeometry::new(1024, 32, 1).unwrap();
        assert_eq!(g.word_offset(0x20), 0);
        assert_eq!(g.word_offset(0x24), 1);
        assert_eq!(g.word_offset(0x3c), 7);
    }

    #[test]
    fn same_set_different_tag_conflicts() {
        let g = CacheGeometry::new(4 * 1024, 32, 1).unwrap();
        let a = 0x0000_0040;
        let b = a + 4 * 1024;
        assert_eq!(g.set_index(a), g.set_index(b));
        assert_ne!(g.tag(a), g.tag(b));
    }

    #[test]
    fn fully_associative_has_one_set() {
        let g = CacheGeometry::fully_associative(16, 32).unwrap();
        assert_eq!(g.sets(), 1);
        assert_eq!(g.associativity(), 16);
        assert_eq!(g.set_index(0xdead_bee0), 0);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            CacheGeometry::new(3000, 32, 1),
            Err(GeometryError::NotPowerOfTwo {
                what: "cache size",
                ..
            })
        ));
        assert!(matches!(
            CacheGeometry::new(4096, 24, 1),
            Err(GeometryError::NotPowerOfTwo {
                what: "line size",
                ..
            })
        ));
        assert!(matches!(
            CacheGeometry::new(4096, 32, 3),
            Err(GeometryError::NotPowerOfTwo {
                what: "associativity",
                ..
            })
        ));
        assert!(matches!(
            CacheGeometry::new(4096, 2, 1),
            Err(GeometryError::BadLineSize { .. })
        ));
        assert!(matches!(
            CacheGeometry::new(64, 64, 2),
            Err(GeometryError::Indivisible { .. })
        ));
    }

    #[test]
    fn line_and_set_counts_must_fit_in_u32() {
        // (size, line, assoc, lines if accepted). Each rejected row once
        // truncated a count to 0: 2^38 sets, or 2^32 lines of 4 sets.
        let rows: [(u64, u32, u32, Option<u32>); 5] = [
            (1 << 40, 4, 1, None),
            (1 << 34, 4, 1 << 30, None),
            (1 << 34, 4, 1, None),
            (1 << 33, 4, 1, Some(1 << 31)),
            (1 << 33, 4, 1 << 31, Some(1 << 31)),
        ];
        for (size, line, assoc, lines) in rows {
            let result = CacheGeometry::new(size, line, assoc);
            match lines {
                Some(lines) => {
                    let g = result.expect("fits in u32");
                    assert_eq!(g.lines(), lines, "{size}/{line}/{assoc}");
                    assert_eq!(g.sets() as u64 * assoc as u64, lines as u64);
                }
                None => assert_eq!(
                    result,
                    Err(GeometryError::TooManyLines {
                        size_bytes: size,
                        line_bytes: line
                    }),
                    "{size}/{line}/{assoc}"
                ),
            }
        }
        let e = CacheGeometry::new(1 << 40, 4, 1).unwrap_err();
        assert!(e.to_string().contains("more than 4294967295 lines"), "{e}");
    }

    #[test]
    fn error_messages_are_meaningful() {
        let e = CacheGeometry::new(3000, 32, 1).unwrap_err();
        assert!(e.to_string().contains("power of two"));
        let e = CacheGeometry::new(64, 64, 2).unwrap_err();
        assert!(e.to_string().contains("cannot divide"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            CacheGeometry::new(16 * 1024, 32, 1).unwrap().to_string(),
            "16KB direct-mapped (32B lines)"
        );
        assert_eq!(
            CacheGeometry::new(16 * 1024, 32, 4).unwrap().to_string(),
            "16KB 4-way (32B lines)"
        );
        assert_eq!(
            CacheGeometry::fully_associative(4, 32).unwrap().to_string(),
            "128B fully-associative (32B lines)"
        );
    }
}
