//! Process-level readings the benchmark reports: CPU time, peak memory and
//! the build/host facts printed in the JSON header.

use std::process::Command;

/// User + system CPU time of this process, all threads, in seconds.
///
/// Read from `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s
/// on Linux). The tick is coarse, but every window the benchmark divides
/// by is several seconds of CPU, so the quantisation is below 0.2 %.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the scheduler gives this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc --version`, or `"unknown"` when no compiler is on the path.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` beside the benchmark directory
/// without running git. A checkout that is not a repository (the driver's)
/// reports `"unknown"`.
pub fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.len() >= 12 && id.bytes().all(|b| b.is_ascii_hexdigit()) {
        id[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
        assert!(process_cpu_s() > before);
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}
