//! Run-level metadata stamped into the JSON reports: schema version,
//! git revision, host and wall-clock timestamps, so two report files can
//! be compared knowing exactly which tree, where and when produced each.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// The `HEAD` commit hash of the repository the binary runs in, or
/// `"unknown"` outside a git checkout (tarball builds, CI caches).
pub fn git_sha() -> String {
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    match out {
        Some(sha) if !sha.is_empty() => sha,
        _ => "unknown".to_string(),
    }
}

/// The machine a timing report was measured on: architecture, logical
/// CPU count and, where `/proc/cpuinfo` names it, the CPU model — e.g.
/// `x86_64, 2 CPUs, Intel(R) Xeon(R) Processor`. Safe to embed in a
/// JSON string.
pub fn host() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let mut host = format!("{}, {cpus} CPUs", std::env::consts::ARCH);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("model name")?.split_once(':'))
        .map(|(_, name)| name.trim());
    if let Some(model) = model {
        host.push_str(", ");
        host.extend(
            model
                .chars()
                .filter(|c| !matches!(c, '"' | '\\') && !c.is_control()),
        );
    }
    host
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_time_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_sha_is_hex_or_unknown() {
        let sha = git_sha();
        assert!(
            sha == "unknown" || (sha.len() == 40 && sha.chars().all(|c| c.is_ascii_hexdigit())),
            "unexpected sha {sha:?}"
        );
    }

    #[test]
    fn host_names_the_architecture() {
        let host = host();
        assert!(host.starts_with(std::env::consts::ARCH), "{host}");
        assert!(!host.contains('"'), "{host}");
    }

    #[test]
    fn clock_is_past_2020() {
        assert!(unix_time_ms() > 1_577_836_800_000);
    }
}
