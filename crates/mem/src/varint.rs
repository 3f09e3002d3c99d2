//! Delta coding of the packed address column in the v2.2 trace format.
//!
//! The v2.2 trace format (`FVLTRC22`, see `trace_io`) stores each
//! chunk's address column as zigzag-encoded word deltas instead of raw
//! `u32`s. Access streams are overwhelmingly local — consecutive
//! addresses usually sit a few words apart — so most tokens fit one
//! byte and the on-disk column shrinks to well under half its resident
//! size.
//!
//! Token layout, per access (addresses are word aligned, so bits 0–1
//! of the packed form are free — bit 0 is [`crate::STORE_BIT`]):
//!
//! ```text
//! word  = packed_addr >> 2            (the word index)
//! delta = word - previous_word        (signed; previous starts at 0)
//! token = zigzag(delta) << 1 | store  (store = packed_addr & 1)
//! ```
//!
//! The delta chain restarts at zero for every chunk, so chunks decode
//! independently — the property the lazy reader
//! ([`crate::MappedTrace`]) relies on.
//!
//! The tokens are stored **stream-split** (Stream-VByte style): a
//! control stream of 2-bit length codes (one byte per four tokens, lane
//! 0 in bits 0–1, unused high lanes of the last byte zero) followed by
//! a payload stream of the tokens' little-endian bytes, trimmed to
//! their 1–4 byte length. Keeping the length codes out of the data
//! bytes leaves no byte-at-a-time continuation chain in the decode hot
//! loop: the decoder ([`decode_addr_chunk_split_into`]) does one masked
//! `u32` load per token and one range check per group of four.

use std::io;

/// Largest word index a packed `u32` address can carry (the address's
/// two low bits hold the store bit and the alignment pad).
const MAX_WORD: i64 = (u32::MAX >> 2) as i64;

/// Maps a signed delta onto the unsigned token domain: small
/// magnitudes of either sign become small codes (0, -1, 1, -2, …).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Applies one decoded token to the delta chain: bounds-checks the
/// reconstructed word, pushes the packed address, returns the new
/// `prev`.
#[inline]
fn emit_token(out: &mut Vec<u32>, prev: i64, token: u64) -> io::Result<i64> {
    let word = prev + unzigzag(token >> 1);
    // One unsigned compare covers both bounds: a negative word wraps
    // to a huge u64.
    if word as u64 > MAX_WORD as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("address delta leaves the 32-bit word space (word {word})"),
        ));
    }
    out.push((word as u32) << 2 | (token as u32 & 1));
    Ok(word)
}

/// Worst-case split-codec **payload** bytes per address (a token is at
/// most four little-endian bytes); the control stream adds
/// `count.div_ceil(4)` bytes on top. Readers use both to bound hostile
/// `addr_bytes` fields before allocating.
pub const MAX_SPLIT_BYTES_PER_ADDR: usize = 4;

/// Length in bytes (1–4) of the token in `lane` (0–3) of a split-codec
/// control byte: the decoder's single length authority.
#[inline]
const fn lane_len(control: u8, lane: usize) -> usize {
    let len = ((control >> (2 * lane)) & 3) as usize + 1;
    // `seeded-bugs` is a TEST-ONLY mutation used by the `fvl-check`
    // conformance harness: the length-table entry for control byte
    // 0x00, lane 0 reads 2 bytes instead of 1, so every all-short
    // group decodes shifted. The encoder computes lengths from the
    // token values and never consults this table, so round-trips catch
    // the flip.
    #[cfg(feature = "seeded-bugs")]
    let len = if control == 0 && lane == 0 { 2 } else { len };
    len
}

/// Low-byte masks for a token of `len` bytes, indexed by `len - 1`.
const TOKEN_MASK: [u32; 4] = [0xff, 0xffff, 0x00ff_ffff, 0xffff_ffff];

/// Encodes one chunk's packed address column in the v2.2 split layout
/// (control stream, then payload stream), appending to `out`. The
/// delta chain starts at word 0.
pub fn encode_addr_chunk_split(addrs: &[u32], out: &mut Vec<u8>) {
    let control_at = out.len();
    out.resize(control_at + addrs.len().div_ceil(4), 0);
    let mut prev: i64 = 0;
    for (i, &raw) in addrs.iter().enumerate() {
        let store = u64::from(raw & 1);
        let word = i64::from(raw >> 2);
        let token = (zigzag(word - prev) << 1 | store) as u32;
        // Length from the value itself: 1 + position of the highest
        // set byte (`| 1` keeps token 0 at one byte).
        let len = 4 - (token | 1).leading_zeros() as usize / 8;
        out[control_at + i / 4] |= ((len - 1) as u8) << (2 * (i % 4));
        out.extend_from_slice(&token.to_le_bytes()[..len]);
        prev = word;
    }
}

/// Splits a v2.2 address column into its control and payload streams,
/// validating the control-stream length and that the unused high lanes
/// of a partial final control byte are zero (the canonical encoding —
/// rejecting the alternatives keeps encode/decode a bijection).
fn split_streams(bytes: &[u8], count: usize) -> io::Result<(&[u8], &[u8])> {
    let control_bytes = count.div_ceil(4);
    if bytes.len() < control_bytes {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "split control stream truncated",
        ));
    }
    let (control, payload) = bytes.split_at(control_bytes);
    let tail_lanes = count % 4;
    if tail_lanes != 0 && control[control_bytes - 1] >> (2 * tail_lanes) != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "non-canonical padding in the final control byte",
        ));
    }
    Ok((control, payload))
}

/// Decodes exactly `count` addresses from an [`encode_addr_chunk_split`]
/// column, requiring the payload to be fully consumed, and appends them
/// to a caller-owned column; on error nothing is appended to `out`.
///
/// # Errors
///
/// Fails with `UnexpectedEof` on a truncated control or payload stream
/// and `InvalidData` when a delta walks outside the 30-bit word space,
/// the final control byte has non-canonical padding, or payload bytes
/// are left over after the last address.
pub fn decode_addr_chunk_split_into(
    bytes: &[u8],
    count: usize,
    out: &mut Vec<u32>,
) -> io::Result<()> {
    let (control, payload) = split_streams(bytes, count)?;
    let start = out.len();
    out.reserve(count.min(1 << 24));
    let result = decode_split(control, payload, count, out);
    if result.is_err() {
        out.truncate(start);
    }
    result
}

#[inline]
fn load_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"))
}

/// The split decoder behind [`decode_addr_chunk_split_into`].
fn decode_split(
    control: &[u8],
    payload: &[u8],
    count: usize,
    out: &mut Vec<u32>,
) -> io::Result<()> {
    let (mut i, mut p, mut prev) = (0usize, 0usize, 0i64);
    // Hot loop: full groups with 16 readable payload bytes do one
    // masked little-endian u32 load per token — no per-byte
    // continuation branches (the point of the split layout) — and one
    // combined range check per group. `MAX_WORD` is an all-ones mask,
    // so the OR of four in-range words stays in range and a negative
    // word or a high bit in any lane trips the unsigned compare; the
    // exact-error loop below redoes a tripped group token by token.
    while i + 4 <= count && p + 16 <= payload.len() {
        let c = control[i / 4];
        let l0 = lane_len(c, 0);
        let l1 = lane_len(c, 1);
        let l2 = lane_len(c, 2);
        let l3 = lane_len(c, 3);
        let t0 = load_u32(payload, p) & TOKEN_MASK[l0 - 1];
        let t1 = load_u32(payload, p + l0) & TOKEN_MASK[l1 - 1];
        let t2 = load_u32(payload, p + l0 + l1) & TOKEN_MASK[l2 - 1];
        let t3 = load_u32(payload, p + l0 + l1 + l2) & TOKEN_MASK[l3 - 1];
        let w0 = prev + unzigzag(u64::from(t0) >> 1);
        let w1 = w0 + unzigzag(u64::from(t1) >> 1);
        let w2 = w1 + unzigzag(u64::from(t2) >> 1);
        let w3 = w2 + unzigzag(u64::from(t3) >> 1);
        if (w0 | w1 | w2 | w3) as u64 > MAX_WORD as u64 {
            break;
        }
        out.extend_from_slice(&[
            (w0 as u32) << 2 | (t0 & 1),
            (w1 as u32) << 2 | (t1 & 1),
            (w2 as u32) << 2 | (t2 & 1),
            (w3 as u32) << 2 | (t3 & 1),
        ]);
        prev = w3;
        p += l0 + l1 + l2 + l3;
        i += 4;
    }
    // Tail: byte-assembled loads with explicit bounds checks.
    while i < count {
        let len = lane_len(control[i / 4], i % 4);
        if p + len > payload.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "split payload truncated",
            ));
        }
        let mut token = 0u32;
        for (b, &byte) in payload[p..p + len].iter().enumerate() {
            token |= u32::from(byte) << (8 * b);
        }
        prev = emit_token(out, prev, u64::from(token))?;
        p += len;
        i += 1;
    }
    if p != payload.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} trailing bytes after the last address",
                payload.len() - p
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(bytes: &[u8], count: usize) -> io::Result<Vec<u32>> {
        let mut addrs = Vec::new();
        decode_addr_chunk_split_into(bytes, count, &mut addrs)?;
        Ok(addrs)
    }

    #[test]
    fn zigzag_round_trips_and_orders_by_magnitude() {
        for v in [0i64, -1, 1, -2, 2, i64::from(i32::MAX), i64::from(i32::MIN)] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    /// Columns that exercise every token length, group-boundary
    /// stragglers, and the empty case.
    #[cfg(not(feature = "seeded-bugs"))]
    fn split_cases() -> Vec<Vec<u32>> {
        let mut cases = vec![
            vec![],
            vec![4],
            vec![0, u32::MAX & !3 | 1, 1, u32::MAX & !3, 4, 8, 8 | 1, 0x1000],
            (0..1024u32).map(|i| (i % 64) * 4).collect(),
        ];
        // Deterministically mixed token lengths across odd counts.
        let mut x = 0x2545_f491u32;
        for count in [3usize, 5, 63, 64, 65, 257] {
            let mut addrs = Vec::with_capacity(count);
            for _ in 0..count {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                // Vary delta magnitude: mostly small, sometimes huge.
                let addr = match x % 4 {
                    0 => (x % 251) * 4,
                    1 => (x % 65_521) * 4 | 1,
                    _ => x & !2,
                };
                addrs.push(addr);
            }
            cases.push(addrs);
        }
        cases
    }

    #[cfg(not(feature = "seeded-bugs"))]
    #[test]
    fn split_round_trips() {
        for addrs in split_cases() {
            let mut bytes = Vec::new();
            encode_addr_chunk_split(&addrs, &mut bytes);
            let control = addrs.len().div_ceil(4);
            assert!(bytes.len() >= control + addrs.len().min(1));
            assert!(bytes.len() <= control + addrs.len() * MAX_SPLIT_BYTES_PER_ADDR);
            let mut out = Vec::new();
            decode_addr_chunk_split_into(&bytes, addrs.len(), &mut out)
                .unwrap_or_else(|e| panic!("{} addrs: {e}", addrs.len()));
            assert_eq!(out, addrs, "{} addrs", addrs.len());
        }
    }

    #[test]
    fn split_truncated_control_is_eof() {
        let err = decode(&[], 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn split_truncated_payload_is_eof() {
        let mut bytes = Vec::new();
        encode_addr_chunk_split(&[4, 8, 0x4000_0000, 12, 16], &mut bytes);
        bytes.pop();
        let err = decode(&bytes, 5).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[cfg(not(feature = "seeded-bugs"))]
    #[test]
    fn split_trailing_payload_is_rejected() {
        let mut bytes = Vec::new();
        encode_addr_chunk_split(&[4, 8], &mut bytes);
        bytes.push(0);
        let err = decode(&bytes, 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn split_non_canonical_padding_is_rejected() {
        let mut bytes = Vec::new();
        encode_addr_chunk_split(&[4, 8, 12], &mut bytes);
        // Three addresses: lane 3 of the single control byte is unused
        // padding and must be zero.
        bytes[0] |= 0b11 << 6;
        let err = decode(&bytes, 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn split_out_of_range_delta_appends_nothing() {
        // Hand-built column: four all-short groups walk words 0..15,
        // then a fifth group of 4-byte max-positive deltas overflows
        // the word space on its first lane, after the grouped loop has
        // already decoded the leading groups.
        let token = (zigzag(MAX_WORD) << 1) as u32;
        let mut bytes = vec![0u8, 0, 0, 0, 0xff];
        bytes.push(0); // delta 0
        bytes.extend_from_slice(&[4u8; 15]); // delta +1 each
        for _ in 0..4 {
            bytes.extend_from_slice(&token.to_le_bytes());
        }
        let mut out = vec![7];
        let err = decode_addr_chunk_split_into(&bytes, 20, &mut out)
            .expect_err("overflowing delta must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(out, [7], "a failed decode left partial output");
    }

    #[cfg(not(feature = "seeded-bugs"))]
    #[test]
    fn local_streams_compress_well() {
        let addrs: Vec<u32> = (0..8192u32).map(|i| (i % 64) * 4).collect();
        let mut split = Vec::new();
        encode_addr_chunk_split(&addrs, &mut split);
        // Small deltas: one payload byte plus a quarter control byte
        // per address vs 4 raw.
        assert_eq!(split.len(), addrs.len() + addrs.len().div_ceil(4));
        assert_eq!(decode(&split, addrs.len()).unwrap(), addrs);
    }
}
