//! Facts about the host and its two host clocks, read from `/proc`.
//!
//! Wall time comes from `std::time::Instant`. CPU time is the process's
//! user plus system time summed over all of its threads, including
//! threads that have already exited (the per-scan scoped worker
//! threads do), which `/proc/self/stat` accumulates.

use std::fs;
use std::process::Command;

/// Kernel clock ticks per second for the `/proc/<pid>/stat` time
/// fields (`USER_HZ`, 100 on every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// Process CPU seconds so far (user + system, every thread). Returns
/// 0 where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(sys)) => (user + sys) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

fn status_kib(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string, or `unknown`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The git revision of the working directory, or `unknown` outside a
/// git checkout.
pub fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
