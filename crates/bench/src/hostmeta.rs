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

    /// Renders this snapshot as a JSON object (the `"host"` block of a
    /// `BENCH_*.json` record), indented for a two-level enclosing document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n    \"cpu\": \"{}\",\n    \"available_cores\": {},\n    \"os\": \"{}\",\n    \
             \"arch\": \"{}\",\n    \"unix_timestamp\": {},\n    \"timestamp_source\": \"{}\"\n  }}",
            json_escape(&self.cpu),
            self.available_cores,
            json_escape(&self.os),
            json_escape(&self.arch),
            self.unix_timestamp,
            json_escape(&self.timestamp_source),
        )
    }

    /// `YYYY-MM-DD` (UTC) of [`HostMeta::unix_timestamp`] — `"unknown"`
    /// when the clock was unavailable.
    pub fn date(&self) -> String {
        if self.timestamp_source != "system-clock" {
            return "unknown".to_string();
        }
        let (y, m, d) = civil_from_days((self.unix_timestamp / 86_400) as i64);
        format!("{y:04}-{m:02}-{d:02}")
    }
}

/// Escapes `"` and `\` (the only characters that can plausibly appear in a
/// CPU model string and break the JSON framing).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Days-since-epoch to civil date (Howard Hinnant's algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
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

    #[test]
    fn json_rendering_escapes_and_parses() {
        let m = HostMeta {
            cpu: "Weird \"CPU\" \\ model".to_string(),
            available_cores: 4,
            os: "linux".to_string(),
            arch: "x86_64".to_string(),
            unix_timestamp: 1_754_524_800, // 2025-08-07 UTC
            timestamp_source: "system-clock".to_string(),
        };
        let j = m.to_json();
        assert!(j.contains("\\\"CPU\\\""));
        assert!(j.contains("\\\\ model"));
        assert!(j.contains("\"available_cores\": 4"));
    }

    #[test]
    fn civil_date_conversion() {
        // 2026-08-07 00:00:00 UTC == 1786060800; spot-check epoch too.
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(1_786_060_800 / 86_400), (2026, 8, 7));
        let m = HostMeta {
            cpu: String::new(),
            available_cores: 1,
            os: String::new(),
            arch: String::new(),
            unix_timestamp: 1_786_060_800,
            timestamp_source: "system-clock".to_string(),
        };
        assert_eq!(m.date(), "2026-08-07");
        let unknown = HostMeta { timestamp_source: "unavailable".to_string(), ..m };
        assert_eq!(unknown.date(), "unknown");
    }
}
