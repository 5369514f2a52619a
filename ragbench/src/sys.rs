//! Process-level readings: CPU time, peak resident memory, thread count.

use std::time::Duration;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process so far.
pub fn cpu_time() -> Duration {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `u` is a writable, properly aligned `struct rusage` for this
    // target, and RUSAGE_SELF is a valid `who`; getrusage writes only it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let us = |tv: [i64; 2]| tv[0] as u64 * 1_000_000 + tv[1] as u64;
    Duration::from_micros(us(u.utime) + us(u.stime))
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Threads the process has now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// Cores the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host-wide (steal, total) CPU ticks from `/proc/stat`: time the
/// hypervisor ran something else while this machine's vCPUs wanted to
/// run. Reported with each run, since it moves every timing.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}
