//! `chg-serve`: a long-lived query service for the chgraph simulation
//! stack.
//!
//! The batch binaries pay dataset generation and OAG construction on every
//! invocation; this crate keeps those artifacts resident. A daemon
//! (`chgraphd`) accepts run requests — dataset × algorithm × runtime ×
//! configuration — over a checksummed, length-prefixed JSON-over-TCP
//! protocol, executes each on its connection's thread (at most `workers`
//! at once, behind a bounded wait line), and serves repeated
//! requests from the resident [`ArtifactStore`] (bounded LRUs of graphs
//! and prepared OAGs with single-flight builds, shared with the figure
//! harness), falling back to the on-disk preprocess cache.
//!
//! Design invariants:
//!
//! - **Identical results.** A served run returns byte-identical simulator
//!   output to a direct library call — caching changes latency, never
//!   results (covered by the end-to-end test suite).
//! - **Backpressure, not buffering.** The runs waiting for a slot are
//!   bounded; one more answers `overloaded` immediately instead of queueing
//!   unbounded work or hanging the client.
//! - **Bounded requests.** Every run executes under a [`WatchdogConfig`]
//!   merged from the service default and the request (stricter budget
//!   wins), so one runaway simulation cannot hold its slot forever.
//! - **Graceful drain.** Shutdown (SIGINT on the daemon, or a protocol
//!   `shutdown` request) stops intake, finishes in-flight work, replies to
//!   every accepted request, and exits 0.
//!
//! - **Typed failure.** Both ends classify every failure: the server tallies
//!   why each connection closed (read-timeout, write-timeout, frame
//!   deadline, reset, protocol, clean) and the client maps every error to
//!   retryable-or-terminal ([`ErrorClass`]), so resilience is a contract
//!   the chaos suite ([`chaos`], `tests/serve_chaos.rs`) can assert, not a
//!   hope.
//!
//! Module map: [`proto`] wire format and request/response schema, [`json`]
//! the std-only JSON codec under it, [`stats`] counters and latency
//! histograms, [`server`] the daemon core, [`client`] the blocking client
//! shared by the CLI, the benchmark, and tests, [`chaos`] the seeded
//! fault-injection proxy the resilience tests drive, and `accept` the
//! wakeable blocking accept loop the last two share.
//!
//! [`WatchdogConfig`]: chgraph::WatchdogConfig

mod accept;
pub mod chaos;
pub mod client;
pub mod json;
pub mod proto;
pub mod server;
pub mod stats;

pub use chaos::{plan_for, ChaosPolicy, ChaosProxy, Direction, FaultEvent, FaultPlan};
pub use chg_bench::{ArtifactStore, Fetch};
pub use client::{Client, ClientError, ErrorClass, RetryOutcome, RetryPolicy};
pub use proto::{
    error_response, run_result_from_report, ArtifactCounters, ArtifactSource, CloseCounters,
    DiskCacheCounters, ErrorKind, LatencySummary, ProtoError, Request, RequestCounters, Response,
    RunRequest, RunResult, StatsReport, WireMessage,
};
pub use server::{ServeConfig, Server, ShutdownHandle};
pub use stats::{CloseCause, Counters, LatencyHistogram};
