//! Committed output digests.
//!
//! Each workload has a file under `perfbench/expected/` with lines
//! `<seed> <item> <digest-hex>`, written for the default seed (1) and a
//! held-out seed. A run at a seed listed there compares every item
//! against it; at any other seed the workload's own oracles (local
//! references, repeat-iteration agreement) do the checking. The
//! digests of a run are printed to stderr as `digest <seed> <item>
//! <hex>` lines, the format of these files.

use crate::Tally;

/// Digests committed for one workload.
#[derive(Debug)]
pub struct Expected {
    entries: Vec<(u64, String, u64)>,
}

impl Expected {
    /// The committed digests of `workload`.
    pub fn load(workload: &str) -> Expected {
        let text = match workload {
            "paper-quick" => include_str!("../expected/paper-quick.txt"),
            "corpus-sweep" => include_str!("../expected/corpus-sweep.txt"),
            "serve-mixed" => include_str!("../expected/serve-mixed.txt"),
            _ => "",
        };
        let entries = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| {
                let mut f = l.split_whitespace();
                let seed = f.next().and_then(|s| s.parse().ok());
                let item = f.next().map(str::to_string);
                let hex = f.next().and_then(|h| u64::from_str_radix(h, 16).ok());
                match (seed, item, hex) {
                    (Some(seed), Some(item), Some(hex)) => (seed, item, hex),
                    _ => panic!("malformed expected-digest line {l:?} for {workload}"),
                }
            })
            .collect();
        Expected { entries }
    }

    /// The committed digest of `item` at `seed`, if any.
    pub fn get(&self, seed: u64, item: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(s, i, _)| *s == seed && i == item)
            .map(|e| e.2)
    }

    /// Whether any digest is committed for `seed`.
    pub fn pins(&self, seed: u64) -> bool {
        self.entries.iter().any(|e| e.0 == seed)
    }
}

/// Checks `digests` (item, digest) against the committed ones for
/// `seed`, or, for a seed with none committed, against `baseline` (the
/// first iteration's digests), counting one operation per item in
/// `tally`. Prints each digest to stderr the first time, so a run can
/// refresh the committed file.
pub fn check(
    expected: &Expected,
    seed: u64,
    digests: &[(String, u64)],
    baseline: &mut Option<Vec<(String, u64)>>,
    tally: &mut Tally,
) {
    let first = baseline.is_none();
    if first {
        for (item, d) in digests {
            eprintln!("digest {seed} {item} {d:016x}");
        }
    }
    let reference = baseline.get_or_insert_with(|| digests.to_vec());
    for (i, (item, d)) in digests.iter().enumerate() {
        let want = if expected.pins(seed) {
            expected.get(seed, item)
        } else {
            reference
                .get(i)
                .filter(|(name, _)| name == item)
                .map(|r| r.1)
        };
        if !tally.check(want == Some(*d)) {
            eprintln!("mismatch: seed {seed} {item} digest {d:016x}, want {want:016x?}");
        }
    }
}
