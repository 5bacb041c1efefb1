//! Host metadata for benchmark artifacts.
//!
//! Committed `BENCH_*.json` records are only interpretable with the host
//! they were produced on: a thread-scaling record taken in a 1-core
//! container shows no wall-clock speedup because none is physically
//! possible, and nothing in such a file says so unless the host is
//! recorded. Every emitter embeds a [`HostMeta`] block so the provenance
//! travels with the numbers.

use std::time::{SystemTime, UNIX_EPOCH};

/// A snapshot of the measuring host, collected at emit time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostMeta {
    /// CPU model string (from `/proc/cpuinfo`; `"unknown"` elsewhere).
    pub cpu: String,
    /// Cores available to this process (`std::thread::available_parallelism`).
    pub available_cores: usize,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Seconds since the Unix epoch at collection time.
    pub unix_timestamp: u64,
    /// Where the timestamp came from — `"system-clock"` normally,
    /// `"unavailable"` when the clock reads before the epoch (the
    /// timestamp is then 0, visibly sentinel rather than silently wrong).
    pub timestamp_source: String,
}

impl HostMeta {
    /// Collects the current host's metadata. Infallible: every field
    /// degrades to an explicit `"unknown"`/zero rather than erroring, so
    /// emitters never lose a benchmark record to missing `/proc`.
    pub fn collect() -> HostMeta {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':').map(|(_, model)| model.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".to_string());
        let available_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let (unix_timestamp, timestamp_source) = match SystemTime::now().duration_since(UNIX_EPOCH)
        {
            Ok(d) => (d.as_secs(), "system-clock".to_string()),
            Err(_) => (0, "unavailable".to_string()),
        };
        HostMeta {
            cpu,
            available_cores,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            unix_timestamp,
            timestamp_source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_is_total() {
        let m = HostMeta::collect();
        assert!(m.available_cores >= 1);
        assert!(!m.cpu.is_empty());
        assert!(!m.os.is_empty());
        assert!(!m.arch.is_empty());
        assert!(m.timestamp_source == "system-clock" || m.timestamp_source == "unavailable");
        if m.timestamp_source == "system-clock" {
            // Sanity: after 2020-01-01, before 2100.
            assert!(m.unix_timestamp > 1_577_836_800 && m.unix_timestamp < 4_102_444_800);
        }
    }
}
