//! Blocking client for the serve protocol, shared by `chgraph-cli submit`,
//! `serve-stats`, the benchmark's `serve` workload, and the end-to-end
//! tests — one codec, no drift between producers.
//!
//! # Resilience
//!
//! Every failure is classified into an [`ErrorClass`]:
//!
//! - [`Transient`](ErrorClass::Transient) — the service or network hiccuped
//!   (connection refused/reset, overloaded, draining, server-side timeout).
//!   Retrying against a healthy or recovered service should succeed.
//! - [`WireIntegrity`](ErrorClass::WireIntegrity) — bytes were mangled in
//!   flight (bad magic, checksum mismatch, oversize, or the server saw our
//!   request mangled). A fresh connection re-sends cleanly, so the *retry
//!   loop* treats these as retryable — but [`Client::connect_ready`] does
//!   not: during startup probing a mangled reply means a broken peer, not a
//!   slow one, and must surface immediately.
//! - [`Terminal`](ErrorClass::Terminal) — retrying is pointless: version
//!   mismatch, schema violation, bad request, failed run.
//!
//! [`Client::run_with_retry`] layers exponential backoff with decorrelated
//! jitter on top, stamps an idempotent `request_key` so the server dedups
//! replays that raced a completed execution, and honors the server's
//! `retry_after_ms` hint as a delay floor.

use crate::proto::{
    self, ErrorKind, ProtoError, Request, Response, RunRequest, RunResult, StatsReport,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side failure: transport/protocol trouble, or a server-side typed
/// error relayed verbatim.
#[derive(Debug)]
pub enum ClientError {
    /// Framing, checksum, or I/O failure.
    Proto(ProtoError),
    /// The service rejected the run fast (full queue, degraded mode, or
    /// connection cap).
    Overloaded {
        /// The server's queue capacity, echoed for diagnostics.
        queue_capacity: u64,
        /// Server's hint for how long to wait before retrying (0 = none).
        retry_after_ms: u64,
    },
    /// A typed error from the service (`kind` is stable, machine-matchable).
    Server {
        /// Stable error kind, e.g. `budget-exceeded` or `bad-request`.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// The reply decoded fine but was not the variant this call expects.
    Unexpected(&'static str),
}

/// How a [`ClientError`] should be handled by a caller that can retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// The service or network hiccuped; retry after a backoff.
    Transient,
    /// Bytes were corrupted in flight; a re-send on a fresh connection is
    /// worth trying, but a startup probe should fail fast.
    WireIntegrity,
    /// Retrying cannot help (bad request, malformed payload, failed run).
    Terminal,
}

impl ClientError {
    /// Classifies this error for retry decisions (see [`ErrorClass`]).
    pub fn class(&self) -> ErrorClass {
        match self {
            // Transport-level trouble: refused, reset, timed out, torn.
            ClientError::Proto(ProtoError::Io(_)) => ErrorClass::Transient,
            // Mangled bytes. Everything the header check can report —
            // magic, version, length — is parsed BEFORE the payload
            // checksum is verified, so corruption can forge any of them
            // (duplicated bytes shift the stream and the magic word lands
            // in the version field). All of it is worth one fresh attempt.
            ClientError::Proto(
                ProtoError::Magic
                | ProtoError::Version(_)
                | ProtoError::Oversize(_)
                | ProtoError::ChecksumMismatch { .. },
            ) => ErrorClass::WireIntegrity,
            // These fire only after the checksum passed: the peer really
            // sent those bytes and will do so again on every retry.
            ClientError::Proto(ProtoError::Json(_) | ProtoError::Schema(_)) => ErrorClass::Terminal,
            ClientError::Overloaded { .. } => ErrorClass::Transient,
            ClientError::Server { kind, .. } => match kind {
                // The service closed us out for pacing reasons, or saw our
                // request arrive mangled — both clear on a fresh attempt.
                ErrorKind::ShuttingDown | ErrorKind::Timeout => ErrorClass::Transient,
                ErrorKind::Protocol => ErrorClass::WireIntegrity,
                _ => ErrorClass::Terminal,
            },
            ClientError::Unexpected(_) => ErrorClass::Terminal,
        }
    }

    /// Whether a retry loop (fresh connection, backoff) may retry this.
    pub fn is_retryable(&self) -> bool {
        self.class() != ErrorClass::Terminal
    }

    /// The server's retry-pacing hint, when the reply carried one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            ClientError::Overloaded { retry_after_ms, .. } if *retry_after_ms > 0 => {
                Some(Duration::from_millis(*retry_after_ms))
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Overloaded { queue_capacity, retry_after_ms } => {
                write!(f, "server overloaded (queue capacity {queue_capacity}")?;
                if *retry_after_ms > 0 {
                    write!(f, ", retry after {retry_after_ms} ms")?;
                }
                write!(f, ")")
            }
            ClientError::Server { kind, message } => {
                write!(f, "server error [{}]: {message}", kind.as_str())
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response variant: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// One connection to a running `chgraphd`. Requests on a connection are
/// sequential (send, then block on the reply); open several connections
/// for concurrency.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to the service.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Like [`connect`](Client::connect) but retries until the service
    /// answers a ping or `deadline` elapses — for "daemon just forked"
    /// startup races in scripts and tests.
    ///
    /// Only [`Transient`](ErrorClass::Transient) failures (refused, reset,
    /// not yet listening) are retried. A mangled or unexpected reply means
    /// whatever is listening is not a healthy `chgraphd`, and waiting
    /// longer will not change that — it surfaces immediately.
    pub fn connect_ready(
        addr: impl ToSocketAddrs + Clone,
        deadline: Duration,
    ) -> Result<Client, ClientError> {
        let start = Instant::now();
        loop {
            let err = match Client::connect(addr.clone()) {
                Ok(mut c) => match c.ping() {
                    Ok(()) => return Ok(c),
                    Err(e) => e,
                },
                Err(e) => e,
            };
            if err.class() != ErrorClass::Transient || start.elapsed() >= deadline {
                return Err(err);
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Raw request/response exchange.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        proto::send(&mut self.stream, request)?;
        Ok(proto::recv(&mut self.stream)?)
    }

    /// Submits a run and waits for its result.
    pub fn run(&mut self, request: RunRequest) -> Result<RunResult, ClientError> {
        match self.roundtrip(&Request::Run(request))? {
            Response::Run(result) => Ok(result),
            Response::Overloaded { queue_capacity, retry_after_ms } => {
                Err(ClientError::Overloaded { queue_capacity, retry_after_ms })
            }
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            _ => Err(ClientError::Unexpected("expected run result")),
        }
    }

    /// Fetches the service stats snapshot.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            _ => Err(ClientError::Unexpected("expected stats")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("expected pong")),
        }
    }

    /// Asks the service to drain and exit. Returns once the service has
    /// acknowledged (in-flight work may still be finishing).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            _ => Err(ClientError::Unexpected("expected shutdown ack")),
        }
    }
}

/// Retry configuration for [`Client::run_with_retry`]: exponential backoff
/// with *decorrelated jitter* — each delay is drawn uniformly from
/// `[base, prev_delay * 3]` and capped, which spreads concurrent retriers
/// apart instead of letting them thundering-herd in lockstep. The draw is
/// seeded, so a fixed seed reproduces the exact delay sequence (the chaos
/// suite depends on this).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Minimum backoff delay, and the lower bound of every jitter draw.
    pub base: Duration,
    /// Upper bound on any single backoff delay.
    pub cap: Duration,
    /// Overall wall-clock budget across all attempts; once exceeded, the
    /// last error is returned instead of sleeping again.
    pub overall_deadline: Duration,
    /// Seed for the jitter sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            overall_deadline: Duration::from_secs(60),
            seed: 1,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` attempts and the default pacing.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts: max_attempts.max(1), ..RetryPolicy::default() }
    }
}

/// A successful [`Client::run_with_retry`], with its retry telemetry.
#[derive(Debug)]
pub struct RetryOutcome {
    /// The run result from the attempt that succeeded.
    pub result: RunResult,
    /// Attempts made, including the successful one (1 = first try).
    pub attempts: u32,
    /// Total time spent sleeping between attempts.
    pub backoff_total: Duration,
}

/// splitmix64: a tiny, seedable generator with statistics good enough for
/// retry jitter and the chaos proxy's fault plans, and no dependencies.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[lo, hi]` (inclusive) from the jitter stream.
fn jitter_between(state: &mut u64, lo: u64, hi: u64) -> u64 {
    if hi <= lo {
        return lo;
    }
    lo + splitmix64(state) % (hi - lo + 1)
}

impl Client {
    /// Submits a run with retries: a fresh connection per attempt,
    /// [`RetryPolicy`] backoff between attempts, and retry only on
    /// [`Transient`](ErrorClass::Transient) and
    /// [`WireIntegrity`](ErrorClass::WireIntegrity) failures.
    ///
    /// If the request has no `request_key`, one is stamped from the
    /// request's content fingerprint, making every attempt *idempotent*:
    /// should a retry race an attempt whose reply was lost after the server
    /// executed it, the server's single-flight dedup returns the already
    /// computed result instead of executing twice.
    ///
    /// When the server replies `overloaded` with a `retry_after_ms` hint,
    /// the hint becomes the floor of the next backoff delay.
    pub fn run_with_retry(
        addr: impl ToSocketAddrs + Clone,
        mut request: RunRequest,
        policy: RetryPolicy,
    ) -> Result<RetryOutcome, ClientError> {
        if request.request_key.is_none() {
            request.request_key = Some(format!("{:016x}", request.content_fingerprint()));
        }
        let started = Instant::now();
        let mut jitter = policy.seed;
        let base_ms = policy.base.as_millis() as u64;
        let cap_ms = (policy.cap.as_millis() as u64).max(base_ms.max(1));
        let mut prev_delay_ms = base_ms;
        let mut backoff_total = Duration::ZERO;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match Client::connect(addr.clone()) {
                Ok(mut c) => match c.run(request.clone()) {
                    Ok(result) => {
                        return Ok(RetryOutcome { result, attempts: attempt, backoff_total })
                    }
                    Err(e) => e,
                },
                Err(e) => e,
            };
            let out_of_budget = attempt >= policy.max_attempts.max(1)
                || started.elapsed() >= policy.overall_deadline;
            if !err.is_retryable() || out_of_budget {
                return Err(err);
            }
            // Decorrelated jitter: uniform in [base, prev*3], capped; a
            // server retry_after hint raises the floor.
            let mut delay_ms =
                jitter_between(&mut jitter, base_ms, (prev_delay_ms.saturating_mul(3)).min(cap_ms))
                    .min(cap_ms);
            if let Some(hint) = err.retry_after() {
                delay_ms = delay_ms.max(hint.as_millis() as u64).min(cap_ms);
            }
            prev_delay_ms = delay_ms.max(1);
            let delay = Duration::from_millis(delay_ms);
            std::thread::sleep(delay);
            backoff_total += delay;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_error(kind: ErrorKind) -> ClientError {
        ClientError::Server { kind, message: String::new() }
    }

    #[test]
    fn classification_matches_the_retry_contract() {
        let refused = ClientError::Proto(ProtoError::Io(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            "refused",
        )));
        assert_eq!(refused.class(), ErrorClass::Transient);
        assert_eq!(
            ClientError::Overloaded { queue_capacity: 4, retry_after_ms: 0 }.class(),
            ErrorClass::Transient
        );
        assert_eq!(server_error(ErrorKind::ShuttingDown).class(), ErrorClass::Transient);
        assert_eq!(server_error(ErrorKind::Timeout).class(), ErrorClass::Transient);

        assert_eq!(ClientError::Proto(ProtoError::Magic).class(), ErrorClass::WireIntegrity);
        assert_eq!(
            ClientError::Proto(ProtoError::ChecksumMismatch { stored: 1, computed: 2 }).class(),
            ErrorClass::WireIntegrity
        );
        assert_eq!(server_error(ErrorKind::Protocol).class(), ErrorClass::WireIntegrity);
        // The version field sits in the unchecksummed header: corruption
        // can forge it, so it classifies as wire trouble, not terminal.
        assert_eq!(ClientError::Proto(ProtoError::Version(99)).class(), ErrorClass::WireIntegrity);

        assert_eq!(
            ClientError::Proto(ProtoError::Schema("bad".into())).class(),
            ErrorClass::Terminal
        );
        assert_eq!(server_error(ErrorKind::BadRequest).class(), ErrorClass::Terminal);
        assert_eq!(server_error(ErrorKind::BudgetExceeded).class(), ErrorClass::Terminal);
        assert_eq!(ClientError::Unexpected("x").class(), ErrorClass::Terminal);

        assert!(refused.is_retryable());
        assert!(ClientError::Proto(ProtoError::Magic).is_retryable());
        assert!(!server_error(ErrorKind::BadRequest).is_retryable());
    }

    #[test]
    fn retry_after_hint_only_on_hinted_overload() {
        let hinted = ClientError::Overloaded { queue_capacity: 4, retry_after_ms: 250 };
        assert_eq!(hinted.retry_after(), Some(Duration::from_millis(250)));
        let bare = ClientError::Overloaded { queue_capacity: 4, retry_after_ms: 0 };
        assert_eq!(bare.retry_after(), None);
        assert_eq!(server_error(ErrorKind::Timeout).retry_after(), None);
    }

    #[test]
    fn jitter_sequence_is_deterministic_and_bounded() {
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..100 {
            let x = jitter_between(&mut a, 25, 400);
            let y = jitter_between(&mut b, 25, 400);
            assert_eq!(x, y, "same seed must give the same delay sequence");
            assert!((25..=400).contains(&x));
        }
        let mut c = 43u64;
        let differs = (0..100).any(|_| {
            jitter_between(&mut c, 25, 400) != {
                let mut a2 = 42u64;
                jitter_between(&mut a2, 25, 400)
            }
        });
        assert!(differs, "different seeds should diverge");
    }

    #[test]
    fn degenerate_jitter_range_is_safe() {
        let mut s = 7u64;
        assert_eq!(jitter_between(&mut s, 100, 100), 100);
        assert_eq!(jitter_between(&mut s, 100, 50), 100, "inverted range clamps to lo");
    }
}
