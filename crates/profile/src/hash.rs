//! The hasher behind the two value histograms.
//!
//! [`crate::ValueCounter`] hashes one value per access and
//! [`crate::OccurrenceSampler`] one per live word per snapshot, so
//! `std`'s SipHash was most of their cost. [`crate::rank_by_count`]
//! sorts, so no output depends on the hash. The hash is unkeyed, so
//! keys crafted to collide would slow a histogram down; the
//! experiments feed these two only from the built-in workloads, and
//! the daemon never profiles an upload. (`fvl-trace info` profiles a
//! trace file its user names, so such a file could slow only that
//! local run.) One folded 64×64-bit multiply spreads every key bit
//! into both the low bits the table indexes with and the high bits it
//! tags with.

use fvl_mem::Word;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A histogram keyed by 32-bit values.
pub(crate) type ValueMap<V> = HashMap<Word, V, BuildHasherDefault<ValueHasher>>;

/// The 64-bit golden-ratio constant; any odd constant with mixed bits
/// works.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// A multiply-and-fold hasher for small integer keys.
#[derive(Default, Debug)]
pub(crate) struct ValueHasher(u64);

impl ValueHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(MULTIPLIER);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

impl Hasher for ValueHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(u64::from(byte));
        }
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash(value: Word) -> u64 {
        BuildHasherDefault::<ValueHasher>::default().hash_one(value)
    }

    #[test]
    fn values_that_differ_only_in_high_bits_spread_over_low_bits() {
        // Page-aligned pointers share their low twelve bits; the table
        // indexes with the hash's low bits, so those must still differ.
        let low: std::collections::HashSet<u64> = (0..256u32)
            .map(|page| hash(0x4000_0000 + (page << 12)) & 0xff)
            .collect();
        assert!(low.len() > 128, "{} distinct low bytes", low.len());
    }

    #[test]
    fn a_map_counts_like_any_other() {
        let mut map: ValueMap<u64> = ValueMap::default();
        for v in [0u32, 7, 0, u32::MAX, 7, 0] {
            *map.entry(v).or_insert(0) += 1;
        }
        assert_eq!((map[&0], map[&7], map[&u32::MAX]), (3, 2, 1));
        let mut bytes = ValueHasher::default();
        0u8.hash(&mut bytes);
        assert_eq!(bytes.finish(), 0);
    }
}
