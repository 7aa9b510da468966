//! Host-side measurement: process CPU time and context switches
//! (`getrusage`), resident-memory high-water mark and thread count
//! (`/proc/self`), and the order statistics every metric is reported as.

use std::time::Instant;

/// `struct rusage` on Linux (x86_64 and aarch64 share this layout).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// glibc's `M_MMAP_THRESHOLD` `mallopt` parameter.
const M_MMAP_THRESHOLD: i32 = -3;

/// Serve every allocation of 128 KiB or more straight from `mmap`
/// (glibc's initial threshold, pinned so it no longer adapts): freeing a
/// large buffer then returns it to the system at once, and the RSS
/// high-water mark tracks the workload's live memory rather than what
/// the allocator keeps cached. Only the memory runs, each in a fresh
/// process, switch this on; timed runs keep glibc's adaptive default.
pub fn map_large_allocations() {
    // SAFETY: mallopt only changes allocator tuning.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 << 10) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

/// A snapshot of the whole process's resource counters (all threads,
/// live and exited).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub wall: Instant,
    pub user_s: f64,
    pub sys_s: f64,
    pub ctxsw: u64,
    /// CPU time the hypervisor gave to other guests, all CPUs.
    pub steal_s: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            longs: [0; 14],
        };
        // SAFETY: `ru` is a properly sized, writable `struct rusage`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
        Usage {
            wall: Instant::now(),
            user_s: secs(ru.utime),
            sys_s: secs(ru.stime),
            ctxsw: (ru.longs[12] + ru.longs[13]) as u64,
            steal_s: steal_s(),
        }
    }

    /// Counters accumulated between `start` and `self`.
    pub fn since(&self, start: &Usage) -> Spent {
        Spent {
            wall_s: self.wall.duration_since(start.wall).as_secs_f64(),
            user_s: self.user_s - start.user_s,
            sys_s: self.sys_s - start.sys_s,
            ctxsw: self.ctxsw - start.ctxsw,
            steal_s: self.steal_s - start.steal_s,
        }
    }
}

/// Host resources spent by one measured interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spent {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub ctxsw: u64,
    pub steal_s: f64,
}

impl Spent {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Wall seconds with the hypervisor's steal taken out. Steal accrues
    /// only on vCPUs that have work, here this run's threads; spread over
    /// the vCPUs that were busy on average (running this process or
    /// stolen from it), it is the wall time those vCPUs lost. On a host
    /// without steal this is plain wall time.
    pub fn wall_unstolen_s(&self) -> f64 {
        if self.steal_s <= 0.0 || self.wall_s <= 0.0 {
            return self.wall_s;
        }
        let n = nproc() as f64;
        let busy = ((self.cpu_s() + self.steal_s) / self.wall_s).clamp(1.0, n);
        (self.wall_s - self.steal_s / busy).max(self.wall_s / n)
    }
}

/// Steal time of the whole machine from `/proc/stat` (0 where the
/// kernel does not report it), in seconds at the usual 100 ticks/s.
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
        / 100.0
}

fn status_field_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field}"))
}

/// Reset the resident-set high-water mark to the current RSS. Returns
/// that RSS in MB, the baseline the next [`peak_rss_mb`] reading is
/// taken against.
pub fn reset_peak_rss() -> f64 {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
    status_field_kb("VmRSS:") as f64 / 1024.0
}

/// Peak resident set since the last [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    status_field_kb("VmHWM:") as f64 / 1024.0
}

/// vCPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads of this process right now.
pub fn threads() -> u64 {
    status_field_kb("Threads:")
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100) of `v`.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}
