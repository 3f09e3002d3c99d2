//! Host clocks, process counters, order statistics and digests.

use std::time::{Duration, Instant};

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s followed by fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    #[cfg(target_env = "gnu")]
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free pages to the kernel (glibc only). A run
/// repeats in one process what users run as separate processes; without
/// this, free memory that an earlier iteration left in another thread's
/// arena adds to the next iteration's peak, and `peak_rss_mib` splits
/// into two modes from run to run.
pub fn release_free_memory() {
    #[cfg(target_env = "gnu")]
    // SAFETY: malloc_trim only walks the allocator's own free lists; it
    // has no preconditions beyond a live glibc allocator.
    unsafe {
        malloc_trim(0);
    }
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process (every thread, live
/// or exited) since it started.
pub fn process_cpu() -> Duration {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, exclusively borrowed `struct rusage`
    // with the kernel's layout, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let micros = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Duration::from_secs_f64(micros(usage.utime) + micros(usage.stime))
}

/// Resets the process's peak resident set size (`VmHWM`) to its
/// current resident set size, so the next reading is the peak of what
/// runs in between (Linux 4.0 and later).
///
/// # Panics
///
/// Panics if `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("resetting VmHWM needs a writable /proc/self/clear_refs");
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host wall and CPU time of one timed phase.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Host seconds.
    pub wall_s: f64,
    /// Process user+sys CPU seconds.
    pub cpu_s: f64,
    /// `VmHWM` when the phase ended, in MiB: the phase's own peak when
    /// [`reset_peak_rss`] ran just before it.
    pub peak_rss_mib: f64,
}

/// Runs `f`, returning its result with the host wall and process CPU
/// time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu().saturating_sub(cpu0).as_secs_f64();
    let peak_rss_mib = peak_rss_mib();
    (
        out,
        Sample {
            wall_s,
            cpu_s,
            peak_rss_mib,
        },
    )
}

/// The `q`-quantile of `values` by linear interpolation between the
/// closest ranks (`q` in 0..=1); NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 64-bit FNV-1a: a digest that is stable across toolchains, so
/// expected values can be committed.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    Fnv::default().write(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy_linear() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.95) - 3.85).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn process_counters_read() {
        let (_, sample) = timed(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(sample.wall_s > 0.0 && sample.cpu_s >= 0.0);
        assert!(sample.peak_rss_mib > 0.0);
    }

    #[test]
    fn peak_rss_resets_to_the_current_size() {
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        drop(big);
        let before = peak_rss_mib();
        reset_peak_rss();
        assert!(peak_rss_mib() < before - 32.0);
    }
}
