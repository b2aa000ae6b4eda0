//! Host-side hygiene and readings: the `RAPID_*` environment, process CPU
//! time, and the facts printed in every result header.

use crate::json::Json;

/// Removes every inherited `RAPID_*` variable and sets exactly `declared`,
/// so a knob left over in the caller's shell can never change what a
/// workload measures. Returns the resolved set.
///
/// Must run before any other thread exists (the process environment is
/// not synchronised); the harness calls it first thing in `main`.
pub fn scrub_rapid_env(declared: &[(&str, &str)]) -> Vec<(String, String)> {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RAPID_") {
            std::env::remove_var(&key);
        }
    }
    for (key, value) in declared {
        std::env::set_var(key, value);
    }
    declared
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Process CPU seconds so far (user + system, every thread, including
/// ones that already exited) from `/proc/self/stat`. The kernel reports
/// these in `USER_HZ` ticks, which is 100 on Linux regardless of the
/// kernel's own timer rate.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (ticks(), ticks()) {
        (Some(utime), Some(stime)) => (utime + stime) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    rapid_bench::scale::peak_rss_mb().unwrap_or(0.0)
}

/// Current resident set of this process, bytes (`/proc/self/statm`).
pub fn resident_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|p| p.parse().ok())
        .unwrap_or(0);
    pages * 4096
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The facts a reader needs to place a result: what ran, with which
/// knobs, on what machine, under what load.
pub fn header(workload: &str, why: &str, seed: u64, mode: &str, env: &[(String, String)]) -> Json {
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    Json::obj([
        ("workload", Json::str(workload)),
        ("why", Json::str(why)),
        ("seed", Json::Num(seed as f64)),
        ("mode", Json::str(mode)),
        (
            "rapid_env",
            Json::obj(env.iter().map(|(k, v)| (k.clone(), Json::str(v.clone())))),
        ),
        ("nproc", Json::Num(nproc() as f64)),
        (
            "kernel",
            Json::str(format!("{:?}", rapid_core::Kernel::detect()).to_lowercase()),
        ),
        ("git_rev", Json::str(git_rev())),
        ("loadavg", Json::str(loadavg.trim())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > before, "60 ms of spinning is several ticks");
        assert!(peak_rss_mb() > 0.0 && resident_bytes() > 0);
    }
}
