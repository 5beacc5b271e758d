//! Time bases and process measurements.
//!
//! Throughput and set-up time are taken from the thread's **on-CPU**
//! clock, not the wall clock. On a virtual machine the hypervisor
//! takes the vCPU away for whole milliseconds at a time (steal); a
//! kernel with paravirtualised steal accounting leaves that time out
//! of the scheduler's per-task runtime, so the on-CPU figure repeats
//! where wall-clock throughput moves with the neighbours' load.
//! Per-call latencies are too short for a per-call system call and
//! come from `Instant`.

use std::fs;

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Nanoseconds this thread has spent on a CPU: the scheduler's
/// steal-free runtime (the first field of `/proc/thread-self/schedstat`),
/// which `CLOCK_THREAD_CPUTIME_ID` brings up to date at every read.
/// The schedstat file itself only advances at scheduler ticks, too
/// coarse for set-up phases of a few milliseconds. Every workload runs
/// single-threaded on the main thread, so this is the process's work.
///
/// # Errors
/// When the clock is unavailable.
pub fn cpu_ns() -> Result<u64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (the layout
    // above is the 64-bit Linux one) that outlives the call, and the
    // clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime(CLOCK_THREAD_CPUTIME_ID): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// The process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
/// When `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// Wall-clock latency samples, kept exactly in memory that does not
/// grow with the sample count: one counter per nanosecond below
/// [`Latencies::EXACT_NS`], the rare longer samples in a list. The
/// counters are zero-filled on allocation and only the pages a run
/// touches become resident, so the benchmark's own footprint stays
/// small next to the program's in `peak_rss_mib`.
pub struct Latencies {
    counts: Vec<u32>,
    longer: Vec<u64>,
    n: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Self {
            counts: vec![0; Self::EXACT_NS],
            longer: Vec::new(),
            n: 0,
        }
    }
}

impl Latencies {
    /// Samples below this many nanoseconds are counted, not stored.
    pub const EXACT_NS: usize = 1 << 20;

    /// Adds one sample.
    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.longer.push(ns),
        }
        self.n += 1;
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile `q` (0 < q ≤ 100) in nanoseconds; 0
    /// without samples.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q / 100.0 * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return ns as u64;
            }
        }
        let mut longer = self.longer.clone();
        longer.sort_unstable();
        longer[(rank - seen - 1) as usize]
    }
}

/// Median of a small sample (upper median for even lengths).
pub fn median(values: &[u64]) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted.get(sorted.len() / 2).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut l = Latencies::default();
        assert_eq!(l.percentile(50.0), 0);
        for ns in 1..=98 {
            l.record(ns);
        }
        l.record(Latencies::EXACT_NS as u64 + 7);
        l.record(Latencies::EXACT_NS as u64 + 3);
        assert_eq!(l.len(), 100);
        assert_eq!(l.percentile(50.0), 50);
        assert_eq!(l.percentile(98.0), 98);
        assert_eq!(l.percentile(99.0), Latencies::EXACT_NS as u64 + 3);
        assert_eq!(l.percentile(100.0), Latencies::EXACT_NS as u64 + 7);
        assert_eq!(median(&[5, 1, 3]), 3);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_ns().expect("thread clock readable");
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_ns().expect("thread clock readable") > before);
        assert!(peak_rss_mib().expect("status readable") > 0.0);
    }
}
