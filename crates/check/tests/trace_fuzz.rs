//! A deterministic, fail-closed fuzz loop over the one trace decoder.
//!
//! Seeds are `FVLTRC22` encodings of the conformance generator's traces
//! at chunk sizes 1, 7, 64 and 8192. Each case mutates one seed — bit
//! flips, a truncation, a splice of two files, or one header, index or
//! inline-chunk field set to a boundary value — and feeds the mutant to
//! every way a tool turns bytes into a trace: [`MappedTrace::from_bytes`]
//! followed by [`MappedTrace::to_packed`] and the lazy
//! [`MappedTrace::replay_into`], and [`parse_trace_bytes`] (daemon
//! uploads and `corpus sim`).
//!
//! Pass rules: nothing panics; every error is `InvalidData` or
//! `UnexpectedEof`; the three decodes accept or reject together; and
//! when they accept, the lazy replay's digest equals the digest of
//! replaying `to_packed`'s trace, which equals `parse_trace_bytes`'s.
//! Randomness comes from [`SplitMix64`] alone, so a failing case number
//! reproduces exactly.
//!
//! Compiled out under the `mutation` feature, whose seeded decoder bug
//! makes valid seeds fail to decode.

#![cfg(not(feature = "mutation"))]

use fvl_bench::remote::parse_trace_bytes;
use fvl_check::{corpus, DigestSink, SplitMix64};
use fvl_mem::{MappedTrace, PackedTrace, CHUNK_ACCESSES};
use std::io::{self, ErrorKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated cases in the default run.
const CASES: u32 = 2000;

/// Chunk sizes the seeds are encoded at: one access per chunk, a size
/// that splits control groups, a mid size, and the default.
const CHUNK_SIZES: [u32; 4] = [1, 7, 64, CHUNK_ACCESSES];

/// The valid files every mutant starts from.
fn seeds() -> Vec<Vec<u8>> {
    let mut seeds = Vec::new();
    for trace in corpus(4, 150) {
        let packed = PackedTrace::from_trace(&trace);
        for chunk_accesses in CHUNK_SIZES {
            let mut bytes = Vec::new();
            packed
                .write_v22_with(&mut bytes, chunk_accesses)
                .expect("in-memory write");
            seeds.push(bytes);
        }
    }
    seeds
}

/// `(offset, width)` of every length and offset field of a valid v2.2
/// file: the header counts and codec id, the trailing index offset,
/// each index entry, and each chunk's inline header.
fn fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let mut fields = vec![
        (8, 8),
        (16, 8),
        (24, 8),
        (32, 4),
        (36, 4),
        (bytes.len() - 8, 8),
    ];
    let chunks = u64_at(24) as usize;
    let index = bytes.len() - 8 - 16 * chunks;
    for entry in (0..chunks).map(|i| index + 16 * i) {
        let inline = u64_at(entry) as usize;
        fields.extend([(entry, 8), (entry + 8, 4), (entry + 12, 4)]);
        fields.extend([(inline, 4), (inline + 4, 4)]);
    }
    fields
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    rng.below(u32::try_from(n).expect("small input")) as usize
}

/// Mutates a copy of one seed, returning the mutant and what was done.
fn mutate(rng: &mut SplitMix64, seeds: &[Vec<u8>], case: u32) -> (Vec<u8>, String) {
    let seed = &seeds[below(rng, seeds.len())];
    let mut bytes = seed.clone();
    let what = match case % 4 {
        0 => {
            let flips = 1 + below(rng, 8);
            for _ in 0..flips {
                let bit = below(rng, 8 * bytes.len());
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            format!("{flips} bit flips")
        }
        1 => {
            let len = below(rng, bytes.len());
            bytes.truncate(len);
            format!("truncated to {len} bytes")
        }
        2 => {
            let other = &seeds[below(rng, seeds.len())];
            let (head, tail) = (below(rng, bytes.len() + 1), below(rng, other.len() + 1));
            bytes.truncate(head);
            bytes.extend_from_slice(&other[tail..]);
            format!("first {head} bytes spliced onto another file from byte {tail}")
        }
        _ => {
            let fields = fields(&bytes);
            let (at, width) = fields[below(rng, fields.len())];
            let current = bytes[at..at + width]
                .iter()
                .rev()
                .fold(0u64, |acc, &b| acc << 8 | u64::from(b));
            let len = bytes.len() as u64;
            let values = [
                0,
                1,
                len - 1,
                len,
                len + 1,
                current.wrapping_sub(1),
                current.wrapping_add(1),
                1 << 32,
                u64::MAX,
            ];
            let value = values[below(rng, values.len())];
            bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            format!("{width}-byte field at {at} set from {current} to {value:#x}")
        }
    };
    (bytes, what)
}

/// How far a mutant got.
#[derive(Debug, PartialEq)]
enum Outcome {
    Unopened,
    Undecoded,
    Decoded,
}

fn decode_shaped(err: &io::Error) -> Result<(), String> {
    match err.kind() {
        ErrorKind::InvalidData | ErrorKind::UnexpectedEof => Ok(()),
        other => Err(format!("error kind {other:?}: {err}")),
    }
}

fn digest_of(trace: &PackedTrace) -> DigestSink {
    let mut digest = DigestSink::new();
    trace.replay_into(&mut digest);
    digest
}

/// Runs one input through every decode path and checks the pass rules.
fn check(bytes: &[u8]) -> Result<Outcome, String> {
    let parsed = parse_trace_bytes(bytes);
    let mapped = match MappedTrace::from_bytes(bytes) {
        Ok(mapped) => mapped,
        Err(err) => {
            decode_shaped(&err)?;
            return match parsed {
                Ok(_) => Err(format!(
                    "from_bytes refused ({err}), parse_trace_bytes accepted"
                )),
                Err(err) => decode_shaped(&err).map(|()| Outcome::Unopened),
            };
        }
    };
    let mut lazy = DigestSink::new();
    let lazy_result = mapped.replay_into(&mut lazy);
    match (mapped.to_packed(), lazy_result, parsed) {
        (Ok(packed), Ok(()), Ok(parsed)) => {
            let resident = digest_of(&packed);
            if lazy != resident {
                return Err(format!("lazy digest {lazy:?} vs to_packed {resident:?}"));
            }
            if digest_of(&parsed) != resident {
                return Err("parse_trace_bytes decoded another trace".to_string());
            }
            Ok(Outcome::Decoded)
        }
        (Err(a), Err(b), Err(c)) => {
            for err in [a, b, c] {
                decode_shaped(&err)?;
            }
            Ok(Outcome::Undecoded)
        }
        (packed, lazy, parsed) => Err(format!(
            "the decodes disagree: to_packed ok={}, lazy ok={}, parse_trace_bytes ok={}",
            packed.is_ok(),
            lazy.is_ok(),
            parsed.is_ok()
        )),
    }
}

/// Runs [`check`] behind a panic guard, so a panicking decoder is a
/// reported failure like any other.
fn guarded(bytes: &[u8]) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| check(bytes))).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        Err(format!("panicked: {msg}"))
    })
}

#[test]
fn every_seed_decodes_to_its_trace() {
    let traces = corpus(4, 150);
    for (i, bytes) in seeds().iter().enumerate() {
        assert_eq!(guarded(bytes), Ok(Outcome::Decoded), "seed {i}");
        let trace = PackedTrace::from_trace(&traces[i / CHUNK_SIZES.len()]);
        assert_eq!(
            digest_of(&parse_trace_bytes(bytes).unwrap()),
            digest_of(&trace),
            "seed {i}"
        );
    }
}

#[test]
fn mutated_trace_files_fail_closed() {
    let seeds = seeds();
    let mut rng = SplitMix64::new(0xf022_2222);
    let (mut unopened, mut undecoded, mut decoded) = (0u32, 0u32, 0u32);
    let mut failures = Vec::new();
    for case in 0..CASES {
        let (bytes, what) = mutate(&mut rng, &seeds, case);
        match guarded(&bytes) {
            Ok(Outcome::Unopened) => unopened += 1,
            Ok(Outcome::Undecoded) => undecoded += 1,
            Ok(Outcome::Decoded) => decoded += 1,
            Err(msg) => failures.push(format!("case {case} ({what}): {msg}")),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // The loop reaches past layout validation into the chunk decode,
    // and some mutants (flipped value bits) are still valid files.
    assert!(
        unopened > 0 && undecoded > 0 && decoded > 0,
        "{unopened} refused at open, {undecoded} at decode, {decoded} decoded"
    );
}
