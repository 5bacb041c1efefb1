//! Service-side statistics: lock-free counters and a log-bucketed latency
//! histogram with percentile extraction.
//!
//! Everything here is updated from connection handler threads with relaxed
//! atomics — stats are monitoring data, not synchronization — and read out
//! as one [`StatsReport`](crate::StatsReport) snapshot by the `stats` request handler.

use crate::proto::{CloseCounters, LatencySummary, RequestCounters};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why the server closed (or refused) a client connection. Every connection
/// ends in exactly one of these; the per-cause counters in
/// [`CloseCounters`] are the wire-visible tally the chaos tests assert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseCause {
    /// The peer finished and closed between frames (EOF at a frame
    /// boundary), or the service drained while the connection was idle.
    Clean,
    /// No byte arrived within the per-read quiet-period timeout while a
    /// frame was in progress.
    ReadTimeout,
    /// A reply write could not make progress within the write timeout (a
    /// stalled or non-reading client).
    WriteTimeout,
    /// One frame took longer than the total frame deadline to arrive — the
    /// slow-loris drip-feed guard.
    FrameDeadline,
    /// The connection died mid-frame (torn read/write, abrupt peer close).
    Reset,
    /// The frame decoded to garbage (bad magic, checksum mismatch, schema
    /// violation); the server replied with a typed `protocol` error and
    /// closed.
    Protocol,
}

/// Number of histogram buckets. Bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds (bucket 0 holds `[0, 2)`), so 64 buckets
/// cover any `u64` latency.
const BUCKETS: usize = 64;

/// A log₂-bucketed latency histogram. Recording is one relaxed
/// `fetch_add`; percentile extraction walks the 64 buckets and reports the
/// upper bound of the bucket containing the requested quantile — ≤ 2×
/// resolution error, plenty for service monitoring, with no allocation and
/// no lock on the hot path.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample, in microseconds.
    pub fn record(&self, micros: u64) {
        let bucket =
            (64 - micros.max(1).leading_zeros() as usize).saturating_sub(1).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(micros, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The value at or below which `q` (0.0–1.0) of samples fall, reported
    /// as the containing bucket's upper bound (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // Rank of the target sample, 1-based, clamped into range.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i, capped by the observed maximum
                // so p99 never exceeds max.
                let upper = if i + 1 >= 64 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// The p50/p95/p99/max summary for the stats response.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            p50_micros: self.quantile(0.50),
            p95_micros: self.quantile(0.95),
            p99_micros: self.quantile(0.99),
            max_micros: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Request-outcome counters (one relaxed add per event).
#[derive(Default)]
pub struct Counters {
    received: AtomicU64,
    ok: AtomicU64,
    failed: AtomicU64,
    rejected_overload: AtomicU64,
    protocol_errors: AtomicU64,
    deduped: AtomicU64,
    shed: AtomicU64,
    conn_cap: AtomicU64,
    closed_clean: AtomicU64,
    closed_read_timeout: AtomicU64,
    closed_write_timeout: AtomicU64,
    closed_frame_deadline: AtomicU64,
    closed_reset: AtomicU64,
    closed_protocol: AtomicU64,
}

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Counters::default()
    }

    /// A request frame arrived.
    pub fn on_received(&self) {
        self.received.fetch_add(1, Ordering::Relaxed);
    }

    /// A run completed successfully.
    pub fn on_ok(&self) {
        self.ok.fetch_add(1, Ordering::Relaxed);
    }

    /// A run failed with a typed error.
    pub fn on_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// A run was rejected with `overloaded`.
    pub fn on_rejected(&self) {
        self.rejected_overload.fetch_add(1, Ordering::Relaxed);
    }

    /// A frame failed protocol decoding.
    pub fn on_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A run with a `request_key` was answered from another request's
    /// single-flight slot instead of executing again.
    pub fn on_deduped(&self) {
        self.deduped.fetch_add(1, Ordering::Relaxed);
    }

    /// A run was rejected fast because the service is in degraded mode
    /// (queue-wait p95 over threshold).
    pub fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was refused at accept because the concurrent-connection
    /// cap was reached.
    pub fn on_conn_cap(&self) {
        self.conn_cap.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection ended; tally its cause.
    pub fn on_close(&self, cause: CloseCause) {
        let counter = match cause {
            CloseCause::Clean => &self.closed_clean,
            CloseCause::ReadTimeout => &self.closed_read_timeout,
            CloseCause::WriteTimeout => &self.closed_write_timeout,
            CloseCause::FrameDeadline => &self.closed_frame_deadline,
            CloseCause::Reset => &self.closed_reset,
            CloseCause::Protocol => &self.closed_protocol,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot for the stats response.
    pub fn snapshot(&self) -> RequestCounters {
        RequestCounters {
            received: self.received.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the per-cause connection-close tallies.
    pub fn closes(&self) -> CloseCounters {
        CloseCounters {
            clean: self.closed_clean.load(Ordering::Relaxed),
            read_timeout: self.closed_read_timeout.load(Ordering::Relaxed),
            write_timeout: self.closed_write_timeout.load(Ordering::Relaxed),
            frame_deadline: self.closed_frame_deadline.load(Ordering::Relaxed),
            reset: self.closed_reset.load(Ordering::Relaxed),
            protocol: self.closed_protocol.load(Ordering::Relaxed),
            conn_cap: self.conn_cap.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_micros, 0);
        assert_eq!(s.max_micros, 0);
    }

    #[test]
    fn single_sample_pins_all_percentiles() {
        let h = LatencyHistogram::new();
        h.record(1000);
        let s = h.summary();
        assert_eq!(s.count, 1);
        // 1000 falls in [512, 1024); upper bound 1023 capped by max=1000.
        assert_eq!(s.p50_micros, 1000);
        assert_eq!(s.p99_micros, 1000);
        assert_eq!(s.max_micros, 1000);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let h = LatencyHistogram::new();
        for i in 0..1000u64 {
            h.record(i * 10);
        }
        let s = h.summary();
        assert!(s.p50_micros <= s.p95_micros);
        assert!(s.p95_micros <= s.p99_micros);
        assert!(s.p99_micros <= s.max_micros);
        assert_eq!(s.max_micros, 9990);
        // p50 of 0..9990 uniform ≈ 5000; log buckets give ≤2x resolution.
        assert!(s.p50_micros >= 4995 && s.p50_micros <= 9990, "p50 = {}", s.p50_micros);
        assert!(s.p50_micros <= 8191, "p50 must stay in its bucket's bound");
    }

    #[test]
    fn zero_latency_is_recordable() {
        let h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.summary().p50_micros, 0);
    }

    #[test]
    fn counters_accumulate() {
        let c = Counters::new();
        c.on_received();
        c.on_received();
        c.on_ok();
        c.on_rejected();
        c.on_protocol_error();
        c.on_deduped();
        c.on_shed();
        let s = c.snapshot();
        assert_eq!(s.received, 2);
        assert_eq!(s.ok, 1);
        assert_eq!(s.failed, 0);
        assert_eq!(s.rejected_overload, 1);
        assert_eq!(s.protocol_errors, 1);
        assert_eq!(s.deduped, 1);
        assert_eq!(s.shed, 1);
    }

    #[test]
    fn close_causes_are_tallied_separately() {
        let c = Counters::new();
        for cause in [
            CloseCause::Clean,
            CloseCause::Clean,
            CloseCause::ReadTimeout,
            CloseCause::WriteTimeout,
            CloseCause::FrameDeadline,
            CloseCause::Reset,
            CloseCause::Protocol,
        ] {
            c.on_close(cause);
        }
        c.on_conn_cap();
        let s = c.closes();
        assert_eq!(s.clean, 2);
        assert_eq!(s.read_timeout, 1);
        assert_eq!(s.write_timeout, 1);
        assert_eq!(s.frame_deadline, 1);
        assert_eq!(s.reset, 1);
        assert_eq!(s.protocol, 1);
        assert_eq!(s.conn_cap, 1);
    }
}
