//! The set of frequent values and their compact encoding.

use fvl_mem::Word;
use std::error::Error;
use std::fmt;

/// Error building a [`FrequentValueSet`].
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum ValueSetError {
    /// The set was empty.
    Empty,
    /// More than 127 values were supplied (7-bit codes are the maximum
    /// supported encoding).
    TooMany {
        /// Number of values supplied.
        got: usize,
    },
    /// The same value appeared twice.
    Duplicate {
        /// The duplicated value.
        value: Word,
    },
}

impl fmt::Display for ValueSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueSetError::Empty => f.write_str("frequent value set cannot be empty"),
            ValueSetError::TooMany { got } => {
                write!(f, "at most 127 frequent values are supported, got {got}")
            }
            ValueSetError::Duplicate { value } => {
                write!(f, "duplicate frequent value {value:#x}")
            }
        }
    }
}

impl Error for ValueSetError {}

/// An ordered set of frequent values together with their bit encoding.
///
/// The encoding width is the smallest `w` with `2^w - 1 ≥ len` — one
/// code per value plus the reserved `INFREQUENT_MARKER`. The paper's
/// three configurations are top-1 (1 bit), top-3 (2 bits) and top-7
/// (3 bits).
///
/// # Example
///
/// ```
/// use fvl_core::FrequentValueSet;
///
/// let set = FrequentValueSet::new(vec![0, u32::MAX, 1, 2, 4, 8, 16])?;
/// assert_eq!(set.width_bits(), 3);
/// assert_eq!(set.encode(4), Some(4));
/// assert_eq!(set.encode(99), None);
/// assert_eq!(set.decode(1), Some(u32::MAX));
/// # Ok::<(), fvl_core::ValueSetError>(())
/// ```
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct FrequentValueSet {
    values: Vec<Word>,
    /// `(value, code)` sorted by value. With at most 127 entries a
    /// branchless binary search over this array beats a hash lookup on
    /// the per-access encode path (no hashing, one cache line or two).
    sorted: Vec<(Word, u8)>,
    width_bits: u32,
}

impl FrequentValueSet {
    /// Builds a set from values ordered by decreasing frequency.
    ///
    /// # Errors
    ///
    /// Returns [`ValueSetError`] when the list is empty, longer than 127,
    /// or contains duplicates.
    pub fn new(values: Vec<Word>) -> Result<Self, ValueSetError> {
        if values.is_empty() {
            return Err(ValueSetError::Empty);
        }
        if values.len() > 127 {
            return Err(ValueSetError::TooMany { got: values.len() });
        }
        let mut sorted: Vec<(Word, u8)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u8))
            .collect();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(ValueSetError::Duplicate { value: w[0].0 });
        }
        // Smallest width leaving one spare code for "infrequent".
        let mut width_bits = 1;
        while (1u32 << width_bits) - 1 < values.len() as u32 {
            width_bits += 1;
        }
        Ok(FrequentValueSet {
            values,
            sorted,
            width_bits,
        })
    }

    /// Builds the paper's standard configurations by truncating a
    /// profiler's ranking to its top `k` values (`k` is clamped to the
    /// ranking length).
    ///
    /// # Errors
    ///
    /// Returns [`ValueSetError::Empty`] for an empty ranking and
    /// propagates duplicate detection from [`FrequentValueSet::new`].
    pub fn from_ranking(ranking: &[Word], k: usize) -> Result<Self, ValueSetError> {
        let take = k.min(ranking.len());
        Self::new(ranking[..take].to_vec())
    }

    /// Number of frequent values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The encoding width in bits (1–7).
    pub fn width_bits(&self) -> u32 {
        self.width_bits
    }

    /// The in-width code reserved for infrequent values (`2^w - 1`).
    pub fn infrequent_code(&self) -> u8 {
        ((1u32 << self.width_bits) - 1) as u8
    }

    /// The values, most frequent first.
    pub fn values(&self) -> &[Word] {
        &self.values
    }

    /// Whether `value` is frequent.
    #[inline]
    pub fn contains(&self, value: Word) -> bool {
        self.encode(value).is_some()
    }

    /// The code for `value`, or `None` when it is not frequent.
    ///
    /// This runs once per simulated word access: a branchless binary
    /// search over the sorted `(value, code)` array (≤ 7 steps for 127
    /// values, the comparison compiling to a conditional move).
    #[inline]
    pub fn encode(&self, value: Word) -> Option<u8> {
        let mut lo = 0usize;
        let mut size = self.sorted.len();
        while size > 1 {
            let half = size / 2;
            let mid = lo + half;
            // Branchless select: always safe, `mid < sorted.len()`.
            lo = if self.sorted[mid].0 <= value { mid } else { lo };
            size -= half;
        }
        let (v, code) = self.sorted[lo];
        (v == value).then_some(code)
    }

    /// The value for `code`, or `None` for the infrequent code or any
    /// out-of-range code.
    #[inline]
    pub fn decode(&self, code: u8) -> Option<Word> {
        self.values.get(code as usize).copied()
    }

    /// Bytes of encoded data storage needed per cache line of
    /// `words_per_line` words (the paper's "0.375–3 KB" FVC sizes count
    /// exactly this, excluding tags).
    pub fn encoded_line_bytes(&self, words_per_line: u32) -> f64 {
        (words_per_line * self.width_bits) as f64 / 8.0
    }
}

impl fmt::Display for FrequentValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "top-{} values ({} bits): ",
            self.values.len(),
            self.width_bits
        )?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v:#x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_match_paper_configs() {
        assert_eq!(FrequentValueSet::new(vec![0]).unwrap().width_bits(), 1);
        assert_eq!(
            FrequentValueSet::new(vec![0, 1, 2]).unwrap().width_bits(),
            2
        );
        assert_eq!(
            FrequentValueSet::new((0..7).collect())
                .unwrap()
                .width_bits(),
            3
        );
        assert_eq!(
            FrequentValueSet::new((0..8).collect())
                .unwrap()
                .width_bits(),
            4,
            "8 values no longer fit 3 bits with a spare infrequent code"
        );
        assert_eq!(
            FrequentValueSet::new((0..127).collect())
                .unwrap()
                .width_bits(),
            7
        );
    }

    #[test]
    fn encode_decode_round_trip() {
        let set = FrequentValueSet::new(vec![0, u32::MAX, 1, 2, 4, 8, 16]).unwrap();
        for (i, &v) in set.values().iter().enumerate() {
            assert_eq!(set.encode(v), Some(i as u8));
            assert_eq!(set.decode(i as u8), Some(v));
        }
        assert_eq!(set.encode(12345), None);
        assert!(!set.contains(12345));
        assert_eq!(set.decode(set.infrequent_code()), None);
        assert_eq!(set.infrequent_code(), 0b111);
    }

    #[test]
    fn from_ranking_truncates_and_clamps() {
        let ranking = [0u32, 1, 2, 3, 4];
        let set = FrequentValueSet::from_ranking(&ranking, 3).unwrap();
        assert_eq!(set.values(), &[0, 1, 2]);
        let set = FrequentValueSet::from_ranking(&ranking, 100).unwrap();
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            FrequentValueSet::new(vec![]).unwrap_err(),
            ValueSetError::Empty
        );
        assert!(matches!(
            FrequentValueSet::new((0..200).collect()).unwrap_err(),
            ValueSetError::TooMany { got: 200 }
        ));
        assert_eq!(
            FrequentValueSet::new(vec![5, 6, 5]).unwrap_err(),
            ValueSetError::Duplicate { value: 5 }
        );
        // Errors display meaningfully.
        assert!(ValueSetError::Empty.to_string().contains("empty"));
    }

    #[test]
    fn encode_matches_a_linear_scan_at_every_size() {
        // Set sizes from one value to the 127-value maximum, so the
        // binary search runs every depth from 0 to 7 steps.
        for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 31, 32, 33, 64, 127] {
            let values: Vec<Word> = (0..len as u32)
                .map(|i| i.wrapping_mul(0x9e37_79b9) ^ 0xdead_beef)
                .collect();
            let set = FrequentValueSet::new(values.clone()).unwrap();
            let mut probes: Vec<Word> = values.clone();
            probes.extend(values.iter().flat_map(|&v| [v ^ 1, v.wrapping_add(1), !v]));
            probes.extend([0, 1, u32::MAX, 0x9e37_79b9]);
            for &p in &probes {
                let want = values.iter().position(|&v| v == p).map(|i| i as u8);
                assert_eq!(set.encode(p), want, "len {len} probe {p:#x}");
            }
        }
    }

    #[test]
    fn encoded_line_bytes_matches_paper() {
        // 8 words x 3 bits = 24 bits = 3 bytes (Figure 7).
        let top7 = FrequentValueSet::new((0..7).collect()).unwrap();
        assert_eq!(top7.encoded_line_bytes(8), 3.0);
        // 512 entries x 8 words x 3 bits = 1.5 KB (Figure 13).
        assert_eq!(512.0 * top7.encoded_line_bytes(8) / 1024.0, 1.5);
        // top-1, 2 words: 512 x 2 x 1 bit = 0.125 KB.
        let top1 = FrequentValueSet::new(vec![0]).unwrap();
        assert_eq!(512.0 * top1.encoded_line_bytes(2) / 1024.0, 0.125);
    }

    #[test]
    fn display_lists_values() {
        let set = FrequentValueSet::new(vec![0, 0xffffffff]).unwrap();
        let s = set.to_string();
        assert!(s.contains("top-2"));
        assert!(s.contains("0xffffffff"));
    }
}
