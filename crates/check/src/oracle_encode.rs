//! A deliberately naive reference frequent-value encoder.
//!
//! The optimized [`fvl_core::FrequentValueSet`] encodes a whole line at
//! a time with a fixed-trip, value-major scan that compiles to vector
//! compares, and checks duplicates by sorting. This oracle is the
//! obvious formulation: a plain `Vec` of values in rank order, a
//! nested-loop duplicate check at construction, and
//! `Iterator::position` on one word as the whole encode path.

use fvl_mem::Word;

/// Linear-scan mirror of [`fvl_core::FrequentValueSet`].
///
/// # Example
///
/// ```
/// use fvl_check::LinearScanEncoder;
///
/// let enc = LinearScanEncoder::new(&[0, 0xffff_ffff, 7]).unwrap();
/// assert_eq!(enc.width_bits(), 2);
/// assert_eq!(enc.encode(7), Some(2));
/// assert_eq!(enc.encode(8), None);
/// assert_eq!(enc.decode(1), Some(0xffff_ffff));
/// ```
#[derive(Clone, Debug)]
pub struct LinearScanEncoder {
    values: Vec<Word>,
}

impl LinearScanEncoder {
    /// Builds an encoder from values in decreasing-frequency order.
    ///
    /// # Errors
    ///
    /// Returns a message for the same inputs
    /// [`fvl_core::FrequentValueSet::new`] rejects: an empty list, more
    /// than 127 values, or a duplicate.
    pub fn new(values: &[Word]) -> Result<Self, String> {
        if values.is_empty() {
            return Err("empty value list".into());
        }
        if values.len() > 127 {
            return Err(format!("too many values: {}", values.len()));
        }
        for i in 0..values.len() {
            for j in i + 1..values.len() {
                if values[i] == values[j] {
                    return Err(format!("duplicate value {:#x}", values[i]));
                }
            }
        }
        Ok(LinearScanEncoder {
            values: values.to_vec(),
        })
    }

    /// Number of frequent values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false for a constructed encoder.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Smallest width `w` with `2^w - 1 >= len` (one spare code for
    /// "infrequent"), counted the slow way.
    pub fn width_bits(&self) -> u32 {
        let mut w = 1;
        while (1usize << w) - 1 < self.values.len() {
            w += 1;
        }
        w
    }

    /// The code for `value`: its position in the rank order.
    pub fn encode(&self, value: Word) -> Option<u8> {
        self.values
            .iter()
            .position(|&v| v == value)
            .map(|i| i as u8)
    }

    /// The value for `code`, or `None` when out of range.
    pub fn decode(&self, code: u8) -> Option<Word> {
        self.values.get(code as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_what_the_real_set_rejects() {
        assert!(LinearScanEncoder::new(&[]).is_err());
        assert!(LinearScanEncoder::new(&(0..200).collect::<Vec<_>>()).is_err());
        assert!(LinearScanEncoder::new(&[5, 6, 5]).is_err());
    }

    #[test]
    fn widths_match_paper_configs() {
        assert_eq!(LinearScanEncoder::new(&[0]).unwrap().width_bits(), 1);
        assert_eq!(
            LinearScanEncoder::new(&(0..7).collect::<Vec<_>>())
                .unwrap()
                .width_bits(),
            3
        );
        assert_eq!(
            LinearScanEncoder::new(&(0..8).collect::<Vec<_>>())
                .unwrap()
                .width_bits(),
            4
        );
    }

    #[test]
    fn codes_are_rank_positions() {
        let enc = LinearScanEncoder::new(&[9, 3, 7]).unwrap();
        assert_eq!(enc.encode(9), Some(0));
        assert_eq!(enc.encode(3), Some(1));
        assert_eq!(enc.encode(7), Some(2));
        assert_eq!(enc.encode(4), None);
        assert_eq!(enc.decode(2), Some(7));
        assert_eq!(enc.decode(3), None);
        assert_eq!(enc.len(), 3);
        assert!(!enc.is_empty());
    }
}
