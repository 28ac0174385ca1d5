//! Host-side measurement: process CPU time, peak resident memory,
//! order statistics, and the FNV-1a digest of physical results.

use issa_core::montecarlo::McResult;
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Makes the allocator keep the memory a repeated operation frees, so
/// the next repetition reuses it instead of paging fresh memory in.
/// By default glibc hands a freed heap top back to the kernel and serves
/// large blocks with their own mappings, with thresholds that move as
/// the process runs; a torn-down `array_trace` set-up then cost about 40
/// page faults in one window of set-ups and none in the next, and
/// page-fault cost follows the shared host's load. Fixed thresholds
/// (32 MiB, glibc's largest mapping threshold, and 64 MiB of free heap
/// top) make every repetition of a set-up or job run on resident memory.
/// Returns whether the allocator took both settings.
pub fn keep_freed_memory() -> bool {
    // SAFETY: `mallopt` only sets allocator parameters; it is called
    // before the process starts any other thread.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1 }
}

/// User + system CPU seconds consumed by this process (all threads).
#[must_use]
pub fn process_cpu_s() -> f64 {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a properly sized, writable `struct rusage` for
    // x86_64/aarch64 Linux (two timevals followed by 14 longs).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc != 0 {
        return f64::NAN;
    }
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&u.utime) + tv(&u.stime)
}

/// Peak resident set size of this process so far \[MB\] (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Wall and CPU time of one closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64(), process_cpu_s() - cpu0)
}

/// Seconds spent in `f`.
pub fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median (mean of the middle pair for even counts); NaN when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; NaN when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `q` quantile when at least ten samples lie beyond it, else `None`
/// (a percentile is reported only when it rests on ten tail samples).
#[must_use]
pub fn tail_quantile(values: &[f64], q: f64) -> Option<f64> {
    let beyond = (values.len() as f64 * (1.0 - q) + 1e-9).floor();
    (beyond >= 10.0).then(|| quantile(values, q))
}

/// FNV-1a 64-bit accumulator over exact bit patterns.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Every field `McResult` equality compares, bit-exact.
    pub fn result(&mut self, r: &McResult) {
        self.u64(r.offsets.len() as u64);
        r.offsets.iter().for_each(|&v| self.f64(v));
        self.u64(r.delays.len() as u64);
        r.delays.iter().for_each(|&v| self.f64(v));
        for v in [r.mu, r.sigma, r.spec, r.mean_delay, r.ks_sqrt_n] {
            self.f64(v);
        }
        self.u64(r.failures.len() as u64);
        for f in &r.failures {
            self.u64(f.index as u64);
            self.str(&f.error);
        }
        self.u64(r.requested as u64);
        self.u64(u64::from(r.partial));
        self.f64(r.mu_ci95);
        self.f64(r.delay_ci95);
        if let Some(t) = &r.tail {
            for v in [
                t.shift,
                t.ess,
                t.tail_ess,
                t.spec_lo,
                t.spec_hi,
                t.rel_ci_half,
            ] {
                self.f64(v);
            }
            self.u64(t.pilot as u64);
            self.u64(t.samples_used as u64);
            self.u64(u64::from(t.converged));
            self.u64(u64::from(t.rounds));
        }
    }
}

/// splitmix64 step: the benchmark's only source of derived randomness.
#[must_use]
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_gate_on_ten_tail_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert!(tail_quantile(&v, 0.9).is_some());
        assert!(tail_quantile(&v[..50], 0.9).is_none());
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_and_rss_are_readable() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
