//! Wire protocol of the serve layer: checksummed length-prefixed JSON
//! frames, and the request/response schema shared by the daemon
//! (`chgraphd`), the CLI client (`chgraph-cli submit` / `serve-stats`), the
//! load generator (`serve-bench`) and `chgraph-cli run --json`.
//!
//! # Framing
//!
//! ```text
//! +------+---------+-------------+----------------+------------+
//! | CHGS | version | payload_len | payload (JSON) | FNV-1a(64) |
//! |  4 B |  4 B le |    8 B le   |  payload_len B |    8 B le  |
//! +------+---------+-------------+----------------+------------+
//! ```
//!
//! The trailing digest covers everything before it (magic, version, length,
//! payload) via [`hypergraph::checksum`] — the same integrity scheme as the
//! v2 on-disk formats — so a truncated, torn or bit-flipped frame is
//! detected at read time and surfaces as a typed [`ProtoError`] instead of
//! a garbage request. `payload_len` is bounds-checked before allocation.
//!
//! # Schema
//!
//! The field list of each message struct is the schema: `wire_struct!`
//! emits the struct and its [`WireMessage`] codec from one declaration,
//! keyed by field name in declaration order, each field encoded by its type
//! (an `Option` is `null` when `None` and may be absent). Adding a field is
//! one line in the struct, and encoder and decoder cannot drift apart. Only
//! the `type`-tagged envelopes of [`Request`] and [`Response`] are written
//! by hand. A schema violation is a [`ProtoError::Schema`] naming its key.

use crate::json::{self, Json};
pub use chg_bench::ArtifactCounters;
use hypergraph::checksum::{HashingReader, HashingWriter};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: "CHGS" (ChGraph Serve).
pub const FRAME_MAGIC: &[u8; 4] = b"CHGS";
/// Current protocol version. A peer speaking a different version is
/// rejected with [`ProtoError::Version`].
pub const PROTO_VERSION: u32 = 1;
/// Upper bound on a frame payload: requests and responses are small JSON
/// documents, so anything larger is a corrupt length field or abuse.
pub const MAX_FRAME_BYTES: u64 = 16 << 20;

/// A protocol failure while reading or decoding a frame.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed (includes truncation → EOF).
    Io(io::Error),
    /// The frame header's magic did not match [`FRAME_MAGIC`].
    Magic,
    /// The peer speaks an unsupported protocol version.
    Version(u32),
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    Oversize(u64),
    /// The trailing FNV-1a digest did not match the received bytes.
    ChecksumMismatch {
        /// Digest stored in the frame trailer.
        stored: u64,
        /// Digest computed over the received bytes.
        computed: u64,
    },
    /// The payload was not valid UTF-8 / JSON.
    Json(String),
    /// The JSON was well-formed but not a valid message of the schema.
    Schema(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
            ProtoError::Magic => write!(f, "bad frame magic"),
            ProtoError::Version(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::Oversize(n) => {
                write!(f, "frame payload of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte bound")
            }
            ProtoError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
                )
            }
            ProtoError::Json(e) => write!(f, "malformed frame payload: {e}"),
            ProtoError::Schema(e) => write!(f, "invalid message: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

fn schema_err<T>(msg: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError::Schema(msg.into()))
}

/// Writes one checksummed frame carrying `payload`.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    let mut hw = HashingWriter::new(&mut *w);
    hw.write_all(FRAME_MAGIC)?;
    hw.write_all(&PROTO_VERSION.to_le_bytes())?;
    hw.write_all(&(bytes.len() as u64).to_le_bytes())?;
    hw.write_all(bytes)?;
    let digest = hw.digest();
    w.write_all(&digest.to_le_bytes())?;
    w.flush()
}

/// Reads one checksummed frame, returning its payload. Detects bad magic,
/// version skew, implausible lengths, truncation and corruption before any
/// byte of the payload is interpreted.
pub fn read_frame<R: Read>(r: &mut R) -> Result<String, ProtoError> {
    let mut hr = HashingReader::new(r);
    let mut magic = [0u8; 4];
    hr.read_exact(&mut magic)?;
    if &magic != FRAME_MAGIC {
        return Err(ProtoError::Magic);
    }
    let mut word = [0u8; 4];
    hr.read_exact(&mut word)?;
    let version = u32::from_le_bytes(word);
    if version != PROTO_VERSION {
        return Err(ProtoError::Version(version));
    }
    let mut len_bytes = [0u8; 8];
    hr.read_exact(&mut len_bytes)?;
    let len = u64::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversize(len));
    }
    let mut payload = vec![0u8; len as usize];
    hr.read_exact(&mut payload)?;
    let computed = hr.digest();
    let mut trailer = [0u8; 8];
    hr.get_mut().read_exact(&mut trailer)?;
    let stored = u64::from_le_bytes(trailer);
    if stored != computed {
        return Err(ProtoError::ChecksumMismatch { stored, computed });
    }
    String::from_utf8(payload).map_err(|e| ProtoError::Json(e.to_string()))
}

/// Sends `msg` (anything with a JSON encoding) as one frame.
pub fn send<W: Write, M: WireMessage>(w: &mut W, msg: &M) -> io::Result<()> {
    write_frame(w, &msg.to_json().encode())
}

/// Receives one frame and decodes it as `M`.
pub fn recv<R: Read, M: WireMessage>(r: &mut R) -> Result<M, ProtoError> {
    let payload = read_frame(r)?;
    let value = json::parse(&payload).map_err(|e| ProtoError::Json(e.to_string()))?;
    M::from_json(&value)
}

/// A type with a canonical JSON wire encoding.
pub trait WireMessage: Sized {
    /// Encodes the message as a JSON value.
    fn to_json(&self) -> Json;
    /// Decodes the message, rejecting schema violations.
    fn from_json(v: &Json) -> Result<Self, ProtoError>;
}

// ---------------------------------------------------------------------------
// The field table
// ---------------------------------------------------------------------------

/// How one field type maps to a JSON value.
trait WireValue: Sized {
    fn to_wire(&self) -> Json;
    /// Decodes a present value; the error says what was expected.
    fn from_wire(v: &Json) -> Result<Self, ProtoError>;
    /// What an absent key decodes to; `None` makes the key required.
    fn absent() -> Option<Self> {
        None
    }
}

macro_rules! wire_ints {
    ($($t:ty),*) => {$(
        impl WireValue for $t {
            fn to_wire(&self) -> Json {
                Json::U64(*self as u64)
            }
            fn from_wire(v: &Json) -> Result<Self, ProtoError> {
                match v.as_u64().map(<$t>::try_from) {
                    Some(Ok(n)) => Ok(n),
                    _ => schema_err(format!("expected an integer in 0..={}", <$t>::MAX)),
                }
            }
        }
    )*};
}
wire_ints!(u64, u32, usize);

impl WireValue for f64 {
    fn to_wire(&self) -> Json {
        Json::F64(*self)
    }
    fn from_wire(v: &Json) -> Result<Self, ProtoError> {
        v.as_f64().map_or_else(|| schema_err("expected a number"), Ok)
    }
}

impl WireValue for bool {
    fn to_wire(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_wire(v: &Json) -> Result<Self, ProtoError> {
        v.as_bool().map_or_else(|| schema_err("expected a bool"), Ok)
    }
}

impl WireValue for String {
    fn to_wire(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_wire(v: &Json) -> Result<Self, ProtoError> {
        v.as_str().map_or_else(|| schema_err("expected a string"), |s| Ok(s.to_string()))
    }
}

impl<T: WireValue> WireValue for Option<T> {
    fn to_wire(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_wire)
    }
    fn from_wire(v: &Json) -> Result<Self, ProtoError> {
        match v {
            Json::Null => Ok(None),
            v => T::from_wire(v).map(Some),
        }
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: WireMessage> WireValue for T {
    fn to_wire(&self) -> Json {
        self.to_json()
    }
    fn from_wire(v: &Json) -> Result<Self, ProtoError> {
        T::from_json(v)
    }
}

/// Decodes field `key` of the object `obj`, naming the key in any error.
fn get<T: WireValue>(obj: &Json, key: &str) -> Result<T, ProtoError> {
    match obj.get(key) {
        Some(v) => T::from_wire(v).map_err(|e| match e {
            ProtoError::Schema(msg) => ProtoError::Schema(format!("field {key:?}: {msg}")),
            other => other,
        }),
        None => T::absent().map_or_else(|| schema_err(format!("missing field {key:?}")), Ok),
    }
}

/// `{"type": tag, ..fields}`: the envelope of every request and response.
fn tagged(tag: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("type", Json::Str(tag.into()))];
    pairs.extend(fields);
    Json::obj(pairs)
}

/// Declares a message struct and derives its codec from the field list
/// (see [`wire_fields!`]).
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
        }
        $(check $check:path;)?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }
        wire_fields!($name { $($field),* } $(check $check;)?);
    };
}

/// The codec of a struct from its field list: one key per field, named
/// after it, in declaration order. The optional `check` validates the
/// decoded value as a whole. Used directly for structs declared elsewhere.
macro_rules! wire_fields {
    ($name:ident { $($field:ident),* $(,)? } $(check $check:path;)?) => {
        impl WireMessage for $name {
            fn to_json(&self) -> Json {
                Json::obj(vec![$((stringify!($field), self.$field.to_wire()),)*])
            }
            fn from_json(v: &Json) -> Result<Self, ProtoError> {
                if !matches!(v, Json::Obj(_)) {
                    return schema_err("expected an object");
                }
                let msg = $name { $($field: get(v, stringify!($field))?,)* };
                $($check(&msg)?;)?
                Ok(msg)
            }
        }
    };
}

/// Declares a fieldless enum with one stable wire spelling per variant.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident => $wire:literal,)*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }
        impl $name {
            /// The stable wire spelling.
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $wire,)*
                }
            }
        }
        impl WireValue for $name {
            fn to_wire(&self) -> Json {
                Json::Str(self.as_str().into())
            }
            fn from_wire(v: &Json) -> Result<Self, ProtoError> {
                match v.as_str() {
                    $(Some($wire) => Ok($name::$variant),)*
                    Some(other) => schema_err(format!("unknown {} {other:?}", stringify!($name))),
                    None => schema_err("expected a string"),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

wire_struct! {
    /// One execution request: dataset × workload × runtime × configuration.
    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    pub struct RunRequest {
        /// Workload name (`bfs`, `pr`, `mis`, `bc`, `cc`, `kcore`, `sssp`,
        /// `adsorption`).
        pub workload: String,
        /// Runtime name: a [`chgraph::System::name`] (`hygra`, `gla`,
        /// `chgraph`, `chgraph-hcg`, `hats-v`, `prefetcher`) or an alias
        /// (`hcg`, `hats`).
        pub runtime: String,
        /// Dataset abbreviation (`FS`, `OK`, `LJ`, `WEB`, `OG`).
        pub dataset: String,
        /// Dataset scale factor (1.0 = the paper-sized stand-in).
        pub scale: f64,
        /// Simulated core count override.
        pub cores: Option<usize>,
        /// OAG `W_min` override.
        pub wmin: Option<u32>,
        /// Chain `D_max` override.
        pub dmax: Option<usize>,
        /// Iteration cap override.
        pub iters: Option<usize>,
        /// Watchdog: simulated-cycle budget.
        pub max_cycles: Option<u64>,
        /// Watchdog: host wall-clock budget in milliseconds.
        pub max_wall_ms: Option<u64>,
        /// Diff the result against the naive reference before replying.
        pub self_check: bool,
        /// Deep structural validation (input, OAGs, chain covers).
        pub validate: bool,
        /// Execute the simulation this many times (>= 1), reporting the last
        /// result — a load-testing knob for steady-state latency measurements;
        /// results are identical for any value.
        pub repeat: u32,
        /// Idempotency key. Runs are pure functions of the request, so a replay
        /// under the same key is safe; the server single-flights concurrent and
        /// recent duplicates through one execution and hands every holder of
        /// the key the identical reply. `None` opts out of deduplication.
        pub request_key: Option<String>,
    }
    check RunRequest::check;
}

impl RunRequest {
    /// A request with service defaults: full scale, no overrides, no
    /// guards, one execution.
    pub fn new(
        workload: impl Into<String>,
        runtime: impl Into<String>,
        dataset: impl Into<String>,
    ) -> Self {
        RunRequest {
            workload: workload.into(),
            runtime: runtime.into(),
            dataset: dataset.into(),
            scale: 1.0,
            cores: None,
            wmin: None,
            dmax: None,
            iters: None,
            max_cycles: None,
            max_wall_ms: None,
            self_check: false,
            validate: false,
            repeat: 1,
            request_key: None,
        }
    }

    /// FNV-1a fingerprint of the request's canonical wire encoding
    /// (ignoring any `request_key` already set) — the default idempotency
    /// key a retrying client stamps, and the collision guard the server
    /// checks before serving a dedup hit.
    pub fn content_fingerprint(&self) -> u64 {
        let mut canonical = self.clone();
        canonical.request_key = None;
        let mut h = hypergraph::checksum::Fnv64::new();
        h.update(canonical.to_json().encode().as_bytes());
        h.digest()
    }

    /// The rules a well-typed request must also meet.
    fn check(&self) -> Result<(), ProtoError> {
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return schema_err("field \"scale\" must be a positive finite number");
        }
        if self.repeat == 0 {
            return schema_err("field \"repeat\" must be at least 1");
        }
        Ok(())
    }
}

/// A client request frame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Execute a workload.
    Run(RunRequest),
    /// Report service counters and latency percentiles.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin graceful shutdown: drain in-flight requests, then exit.
    Shutdown,
}

impl WireMessage for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::Run(r) => tagged("run", vec![("run", r.to_json())]),
            Request::Stats => tagged("stats", vec![]),
            Request::Ping => tagged("ping", vec![]),
            Request::Shutdown => tagged("shutdown", vec![]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        Ok(match get::<String>(v, "type")?.as_str() {
            "run" => Request::Run(get(v, "run")?),
            "stats" => Request::Stats,
            "ping" => Request::Ping,
            "shutdown" => Request::Shutdown,
            other => return schema_err(format!("field \"type\": unknown request {other:?}")),
        })
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

wire_enum! {
    /// Where a run's prepared artifacts came from.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
    pub enum ArtifactSource {
        /// Served from the in-memory LRU.
        LruHit => "lru-hit",
        /// Another request was already building the same key; this one waited
        /// for it (single-flight dedup).
        Coalesced => "coalesced",
        /// Built (possibly restored from the on-disk cache) by this request.
        Built => "built",
        /// The runtime does not use prepared artifacts.
        NotApplicable => "n/a",
    }
}

wire_enum! {
    /// Stable machine-readable category of a [`Response::Error`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
    pub enum ErrorKind {
        /// A watchdog budget (cycles, wall time, stalled frontier) tripped.
        BudgetExceeded => "budget-exceeded",
        /// The input hypergraph failed validation.
        InvalidInput => "invalid-input",
        /// The machine or run configuration cannot be simulated.
        InvalidConfig => "invalid-config",
        /// A chain cover failed its structural proof.
        InvalidChainCover => "invalid-chain-cover",
        /// The result differed from the naive reference.
        SelfCheckFailed => "self-check-failed",
        /// The request named an unknown workload, runtime or dataset, asked
        /// for an unusable configuration, or reused a `request_key`.
        BadRequest => "bad-request",
        /// The service is draining and accepts no new runs.
        ShuttingDown => "shutting-down",
        /// The simulator panicked or dropped its reply; the worker survived.
        InternalPanic => "internal-panic",
        /// A request frame stalled past the read timeout or frame deadline.
        Timeout => "timeout",
        /// The request frame failed protocol decoding.
        Protocol => "protocol",
    }
}

wire_struct! {
    /// The machine-readable result of one execution — the same schema
    /// `chgraph-cli run --json` prints, so CLI and service output are
    /// interchangeable.
    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    pub struct RunResult {
        /// Runtime that executed.
        pub runtime: String,
        /// Algorithm that ran.
        pub algorithm: String,
        /// Iterations executed.
        pub iterations: u64,
        /// Simulated cycles of the iterative computation.
        pub cycles: u64,
        /// Sum over cores of busy cycles.
        pub core_busy_cycles: u64,
        /// Sum over cores of cycles stalled on main memory.
        pub mem_stall_cycles: u64,
        /// Off-chip main-memory accesses.
        pub dram_accesses: u64,
        /// Estimated preprocessing cycles.
        pub preprocess_cycles: u64,
        /// FNV-1a fingerprint over the full result (state arrays + counters),
        /// rendered as 16 hex digits. Equal fingerprints ⇔ byte-identical
        /// results — what the end-to-end tests compare against direct library
        /// execution.
        pub fingerprint: String,
        /// Whether the result was diffed against the reference implementation.
        pub self_checked: bool,
        /// Where the prepared artifacts came from.
        pub artifact_source: ArtifactSource,
        /// Microseconds spent preparing artifacts (graph load + OAG build or
        /// cache fetch).
        pub prepare_micros: u64,
        /// Microseconds spent executing (all repeats).
        pub execute_micros: u64,
    }
}

wire_struct! {
    /// Counter block of a [`StatsReport`]: request outcomes.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct RequestCounters {
        /// Requests received (all types).
        pub received: u64,
        /// Run requests completed successfully.
        pub ok: u64,
        /// Run requests that failed with a typed error.
        pub failed: u64,
        /// Run requests rejected because the queue was full.
        pub rejected_overload: u64,
        /// Frames that failed protocol decoding.
        pub protocol_errors: u64,
        /// Run requests answered from another request's single-flight slot
        /// (same `request_key`) without executing again.
        pub deduped: u64,
        /// Run requests rejected fast by degraded mode (queue-wait p95 over
        /// the shed threshold).
        pub shed: u64,
    }
}

wire_struct! {
    /// Counter block of a [`StatsReport`]: why connections ended, one tally per
    /// connection (plus `conn_cap`, which counts refusals at accept).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct CloseCounters {
        /// Peer closed cleanly between frames (or idle at drain).
        pub clean: u64,
        /// Per-read quiet-period timeout mid-frame.
        pub read_timeout: u64,
        /// Reply write stalled past the write timeout.
        pub write_timeout: u64,
        /// One frame took longer than the total frame deadline (slow-loris).
        pub frame_deadline: u64,
        /// Torn connection mid-frame (abrupt close, I/O error).
        pub reset: u64,
        /// Closed after replying to an undecodable frame.
        pub protocol: u64,
        /// Refused at accept: concurrent-connection cap reached.
        pub conn_cap: u64,
    }
}

wire_fields! {
    ArtifactCounters { graph_hits, graph_misses, oag_hits, oag_misses, coalesced, evictions }
}

wire_struct! {
    /// Counter block of a [`StatsReport`]: the on-disk preprocess cache
    /// (mirrors [`chg_bench::cache::CacheStats`]).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct DiskCacheCounters {
        /// Whether a disk cache is attached at all.
        pub enabled: bool,
        /// Graph entries served from disk.
        pub graph_hits: u64,
        /// Graph lookups that missed on disk.
        pub graph_misses: u64,
        /// OAG entries served from disk.
        pub oag_hits: u64,
        /// OAG lookups that missed on disk.
        pub oag_misses: u64,
        /// Corrupt entries quarantined.
        pub quarantined: u64,
    }
}

wire_struct! {
    /// Latency percentiles of one phase, in microseconds.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct LatencySummary {
        /// Samples recorded.
        pub count: u64,
        /// Median.
        pub p50_micros: u64,
        /// 95th percentile.
        pub p95_micros: u64,
        /// 99th percentile.
        pub p99_micros: u64,
        /// Maximum observed.
        pub max_micros: u64,
    }
}

wire_struct! {
    /// The `stats` response: service counters, queue state, cache statistics
    /// and per-phase latency percentiles.
    #[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
    pub struct StatsReport {
        /// Seconds since the service started.
        pub uptime_secs: u64,
        /// Worker threads executing requests.
        pub workers: u64,
        /// Bounded-queue capacity.
        pub queue_capacity: u64,
        /// Requests currently queued (gauge).
        pub queue_depth: u64,
        /// Request outcome counters.
        pub requests: RequestCounters,
        /// Per-cause connection-close counters.
        pub closes: CloseCounters,
        /// In-memory artifact LRU counters.
        pub artifacts: ArtifactCounters,
        /// On-disk preprocess cache counters.
        pub disk_cache: DiskCacheCounters,
        /// Latency of the artifact-preparation phase.
        pub prepare_latency: LatencySummary,
        /// Latency of the execution phase.
        pub execute_latency: LatencySummary,
        /// End-to-end request latency (queue wait + prepare + execute).
        pub total_latency: LatencySummary,
        /// Time runs spent waiting in the bounded queue before a worker popped
        /// them — the congestion signal the degraded-mode shed watches, and the
        /// number a retrying client's backoff is reacting to.
        pub queue_wait_latency: LatencySummary,
    }
}

/// A server response frame.
///
/// The variants are intentionally unboxed despite the size spread
/// (`Stats` carries the full report): responses are short-lived — one
/// per frame, plus a bounded handful of dedup reply slots — so boxing
/// would complicate every construction site for negligible memory.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A run completed.
    Run(RunResult),
    /// The bounded request queue is full, the service is in degraded mode,
    /// or the connection cap is reached — structured backpressure; the
    /// client should retry later (nothing was enqueued).
    Overloaded {
        /// The queue capacity that was exhausted.
        queue_capacity: u64,
        /// Suggested minimum backoff before retrying, in milliseconds
        /// (0 = no hint). The degraded-mode shed path sets this to its
        /// queue-wait threshold so clients back off past the congestion.
        retry_after_ms: u64,
    },
    /// A run failed with a typed error.
    Error {
        /// Stable machine-readable error category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// Stats snapshot.
    Stats(StatsReport),
    /// Reply to [`Request::Ping`].
    Pong,
    /// Shutdown acknowledged; in-flight requests are draining.
    ShuttingDown,
}

impl WireMessage for Response {
    fn to_json(&self) -> Json {
        match self {
            Response::Run(r) => tagged("run", vec![("result", r.to_json())]),
            Response::Overloaded { queue_capacity, retry_after_ms } => tagged(
                "overloaded",
                vec![
                    ("queue_capacity", queue_capacity.to_wire()),
                    ("retry_after_ms", retry_after_ms.to_wire()),
                ],
            ),
            Response::Error { kind, message } => {
                tagged("error", vec![("kind", kind.to_wire()), ("message", message.to_wire())])
            }
            Response::Stats(s) => tagged("stats", vec![("stats", s.to_json())]),
            Response::Pong => tagged("pong", vec![]),
            Response::ShuttingDown => tagged("shutting-down", vec![]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        Ok(match get::<String>(v, "type")?.as_str() {
            "run" => Response::Run(get(v, "result")?),
            "overloaded" => Response::Overloaded {
                queue_capacity: get(v, "queue_capacity")?,
                // Peers older than the hint omit it: no hint.
                retry_after_ms: get::<Option<u64>>(v, "retry_after_ms")?.unwrap_or(0),
            },
            "error" => Response::Error { kind: get(v, "kind")?, message: get(v, "message")? },
            "stats" => Response::Stats(get(v, "stats")?),
            "pong" => Response::Pong,
            "shutting-down" => Response::ShuttingDown,
            other => return schema_err(format!("field \"type\": unknown response {other:?}")),
        })
    }
}

// ---------------------------------------------------------------------------
// Result fingerprinting
// ---------------------------------------------------------------------------

/// FNV-1a fingerprint over everything that defines an execution result:
/// names, counters, memory statistics and the full final state (f64 bit
/// patterns). Two reports fingerprint equal iff the serve layer delivered a
/// byte-identical result — the end-to-end identity the tests pin.
pub fn fingerprint_report(report: &chgraph::ExecutionReport) -> u64 {
    let mut h = hypergraph::checksum::Fnv64::new();
    h.update(report.runtime.as_bytes());
    h.update(report.algorithm.as_bytes());
    h.update(&(report.iterations as u64).to_le_bytes());
    h.update(&report.cycles.to_le_bytes());
    h.update(&report.core_busy_cycles.to_le_bytes());
    h.update(&report.mem_stall_cycles.to_le_bytes());
    h.update(&report.mem.main_memory_accesses().to_le_bytes());
    h.update(&report.preprocess.cycles_estimate.to_le_bytes());
    for values in [
        &report.state.vertex_value,
        &report.state.hyperedge_value,
        &report.state.vertex_aux,
        &report.state.hyperedge_aux,
    ] {
        h.update(&(values.len() as u64).to_le_bytes());
        for v in values.iter() {
            h.update(&v.to_bits().to_le_bytes());
        }
    }
    h.digest()
}

/// Builds the wire-level [`RunResult`] from a library-level report — the
/// single constructor both `chgraphd` and `chgraph-cli run --json` use, so
/// the two paths cannot drift apart.
pub fn run_result_from_report(
    report: &chgraph::ExecutionReport,
    self_checked: bool,
    artifact_source: ArtifactSource,
    prepare_micros: u64,
    execute_micros: u64,
) -> RunResult {
    RunResult {
        runtime: report.runtime.to_string(),
        algorithm: report.algorithm.to_string(),
        iterations: report.iterations as u64,
        cycles: report.cycles,
        core_busy_cycles: report.core_busy_cycles,
        mem_stall_cycles: report.mem_stall_cycles,
        dram_accesses: report.mem.main_memory_accesses(),
        preprocess_cycles: report.preprocess.cycles_estimate,
        fingerprint: format!("{:016x}", fingerprint_report(report)),
        self_checked,
        artifact_source,
        prepare_micros,
        execute_micros,
    }
}

/// Maps a typed execution error onto the wire error categories.
pub fn error_response(e: &chgraph::ExecError) -> Response {
    let kind = match e {
        chgraph::ExecError::BudgetExceeded { .. } => ErrorKind::BudgetExceeded,
        chgraph::ExecError::InvalidChainCover { .. } => ErrorKind::InvalidChainCover,
        chgraph::ExecError::InvalidInput(_) => ErrorKind::InvalidInput,
        chgraph::ExecError::InvalidConfig(_) => ErrorKind::InvalidConfig,
    };
    Response::Error { kind, message: e.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run_request() -> RunRequest {
        RunRequest {
            workload: "pr".into(),
            runtime: "chgraph".into(),
            dataset: "LJ".into(),
            scale: 0.05,
            cores: Some(4),
            wmin: Some(3),
            dmax: Some(16),
            iters: Some(5),
            max_cycles: Some(123_456_789_012),
            max_wall_ms: Some(2_000),
            self_check: true,
            validate: false,
            repeat: 3,
            request_key: Some("retry-key-01".into()),
        }
    }

    /// A stats report with a distinct non-zero value in every field.
    fn golden_stats() -> StatsReport {
        let latency = |base: u64| LatencySummary {
            count: base,
            p50_micros: base + 1,
            p95_micros: base + 2,
            p99_micros: base + 3,
            max_micros: base + 4,
        };
        StatsReport {
            uptime_secs: 1,
            workers: 2,
            queue_capacity: 3,
            queue_depth: 4,
            requests: RequestCounters {
                received: 5,
                ok: 6,
                failed: 7,
                rejected_overload: 8,
                protocol_errors: 9,
                deduped: 10,
                shed: 11,
            },
            closes: CloseCounters {
                clean: 12,
                read_timeout: 13,
                write_timeout: 14,
                frame_deadline: 15,
                reset: 16,
                protocol: 17,
                conn_cap: 18,
            },
            artifacts: ArtifactCounters {
                graph_hits: 19,
                graph_misses: 20,
                oag_hits: 21,
                oag_misses: 22,
                coalesced: 23,
                evictions: 24,
            },
            disk_cache: DiskCacheCounters {
                enabled: true,
                graph_hits: 25,
                graph_misses: 26,
                oag_hits: 27,
                oag_misses: 28,
                quarantined: 29,
            },
            prepare_latency: latency(30),
            execute_latency: latency(35),
            total_latency: latency(40),
            queue_wait_latency: latency(45),
        }
    }

    fn golden_run_result() -> RunResult {
        RunResult {
            runtime: "chgraph".into(),
            algorithm: "pagerank".into(),
            iterations: 10,
            cycles: u64::MAX - 7,
            core_busy_cycles: 123,
            mem_stall_cycles: 45,
            dram_accesses: 678,
            preprocess_cycles: 90,
            fingerprint: "00deadbeef001234".into(),
            self_checked: true,
            artifact_source: ArtifactSource::Coalesced,
            prepare_micros: 1,
            execute_micros: 2,
        }
    }

    /// A run request with every option and flag set.
    fn golden_full_request() -> RunRequest {
        RunRequest { validate: true, ..sample_run_request() }
    }

    /// Every request variant with its exact wire encoding.
    fn golden_requests() -> Vec<(Request, &'static str)> {
        vec![
            (
                Request::Run(golden_full_request()),
                r#"{"type":"run","run":{"workload":"pr","runtime":"chgraph","dataset":"LJ","scale":0.05,"cores":4,"wmin":3,"dmax":16,"iters":5,"max_cycles":123456789012,"max_wall_ms":2000,"self_check":true,"validate":true,"repeat":3,"request_key":"retry-key-01"}}"#,
            ),
            (
                Request::Run(RunRequest::new("bfs", "hygra", "WEB")),
                r#"{"type":"run","run":{"workload":"bfs","runtime":"hygra","dataset":"WEB","scale":1.0,"cores":null,"wmin":null,"dmax":null,"iters":null,"max_cycles":null,"max_wall_ms":null,"self_check":false,"validate":false,"repeat":1,"request_key":null}}"#,
            ),
            (Request::Stats, r#"{"type":"stats"}"#),
            (Request::Ping, r#"{"type":"ping"}"#),
            (Request::Shutdown, r#"{"type":"shutdown"}"#),
        ]
    }

    /// Every response variant with its exact wire encoding.
    fn golden_responses() -> Vec<(Response, &'static str)> {
        vec![
            (
                Response::Run(golden_run_result()),
                r#"{"type":"run","result":{"runtime":"chgraph","algorithm":"pagerank","iterations":10,"cycles":18446744073709551608,"core_busy_cycles":123,"mem_stall_cycles":45,"dram_accesses":678,"preprocess_cycles":90,"fingerprint":"00deadbeef001234","self_checked":true,"artifact_source":"coalesced","prepare_micros":1,"execute_micros":2}}"#,
            ),
            (
                Response::Overloaded { queue_capacity: 8, retry_after_ms: 250 },
                r#"{"type":"overloaded","queue_capacity":8,"retry_after_ms":250}"#,
            ),
            (
                error_response(&chgraph::ExecError::InvalidConfig("too many cores".into())),
                r#"{"type":"error","kind":"invalid-config","message":"invalid run configuration: too many cores"}"#,
            ),
            (
                Response::Stats(golden_stats()),
                r#"{"type":"stats","stats":{"uptime_secs":1,"workers":2,"queue_capacity":3,"queue_depth":4,"requests":{"received":5,"ok":6,"failed":7,"rejected_overload":8,"protocol_errors":9,"deduped":10,"shed":11},"closes":{"clean":12,"read_timeout":13,"write_timeout":14,"frame_deadline":15,"reset":16,"protocol":17,"conn_cap":18},"artifacts":{"graph_hits":19,"graph_misses":20,"oag_hits":21,"oag_misses":22,"coalesced":23,"evictions":24},"disk_cache":{"enabled":true,"graph_hits":25,"graph_misses":26,"oag_hits":27,"oag_misses":28,"quarantined":29},"prepare_latency":{"count":30,"p50_micros":31,"p95_micros":32,"p99_micros":33,"max_micros":34},"execute_latency":{"count":35,"p50_micros":36,"p95_micros":37,"p99_micros":38,"max_micros":39},"total_latency":{"count":40,"p50_micros":41,"p95_micros":42,"p99_micros":43,"max_micros":44},"queue_wait_latency":{"count":45,"p50_micros":46,"p95_micros":47,"p99_micros":48,"max_micros":49}}}"#,
            ),
            (Response::Pong, r#"{"type":"pong"}"#),
            (Response::ShuttingDown, r#"{"type":"shutting-down"}"#),
        ]
    }

    /// Pins the exact bytes of every message variant: a renamed, reordered
    /// or retyped key fails here even where a round trip would still pass.
    #[test]
    fn golden_wire_encodings() {
        for (req, wire) in golden_requests() {
            assert_eq!(req.to_json().encode(), wire);
            assert_eq!(Request::from_json(&json::parse(wire).unwrap()).unwrap(), req);
        }
        for (resp, wire) in golden_responses() {
            assert_eq!(resp.to_json().encode(), wire);
            assert_eq!(Response::from_json(&json::parse(wire).unwrap()).unwrap(), resp);
        }
        assert_eq!(
            format!("{:016x}", golden_full_request().content_fingerprint()),
            "2be141901fe9f6a0"
        );
    }

    #[test]
    fn every_message_round_trips_through_a_frame() {
        for (req, _) in golden_requests() {
            let mut buf = Vec::new();
            send(&mut buf, &req).unwrap();
            assert_eq!(recv::<_, Request>(&mut &buf[..]).unwrap(), req);
        }
        for (resp, _) in golden_responses() {
            let mut buf = Vec::new();
            send(&mut buf, &resp).unwrap();
            assert_eq!(recv::<_, Response>(&mut &buf[..]).unwrap(), resp);
        }
    }

    #[test]
    fn frame_detects_bit_flips() {
        let mut buf = Vec::new();
        send(&mut buf, &Request::Ping).unwrap();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            assert!(recv::<_, Request>(&mut &bad[..]).is_err(), "flip at byte {i} must not decode");
        }
    }

    #[test]
    fn frame_detects_truncation() {
        let mut buf = Vec::new();
        send(&mut buf, &Request::Run(sample_run_request())).unwrap();
        for cut in [0, 3, 4, 8, 16, buf.len() - 1] {
            assert!(
                recv::<_, Request>(&mut &buf[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn oversize_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(FRAME_MAGIC);
        buf.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        match read_frame(&mut &buf[..]) {
            Err(ProtoError::Oversize(n)) => assert_eq!(n, u64::MAX),
            other => panic!("expected Oversize, got {other:?}"),
        }
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{}").unwrap();
        buf[4] = 99; // version field low byte
        match read_frame(&mut &buf[..]) {
            Err(ProtoError::Version(99)) => {}
            other => panic!("expected Version, got {other:?}"),
        }
    }

    /// Decodes `v` as `M` and encodes the result again.
    fn reencode<M: WireMessage>(v: &Json) -> Result<Json, ProtoError> {
        M::from_json(v).map(|m| m.to_json())
    }

    type Decode = fn(&Json) -> Result<Json, ProtoError>;

    /// Every golden message, encoded, with its decoder.
    fn golden_cases() -> Vec<(Json, Decode)> {
        let requests = golden_requests()
            .into_iter()
            .map(|(m, _)| (m.to_json(), reencode::<Request> as Decode));
        let responses = golden_responses()
            .into_iter()
            .map(|(m, _)| (m.to_json(), reencode::<Response> as Decode));
        requests.chain(responses).collect()
    }

    /// Every key path of `v`, parents before their children.
    fn key_paths(v: &Json) -> Vec<Vec<String>> {
        let Json::Obj(pairs) = v else { return Vec::new() };
        let mut paths = Vec::new();
        for (key, child) in pairs {
            paths.push(vec![key.clone()]);
            for mut rest in key_paths(child) {
                rest.insert(0, key.clone());
                paths.push(rest);
            }
        }
        paths
    }

    /// `v` with the key at `path` set to `value`, or removed for `None`.
    fn edit(v: &Json, path: &[String], value: Option<&Json>) -> Json {
        let Json::Obj(pairs) = v else { panic!("{path:?} does not lead through objects") };
        let mut pairs = pairs.clone();
        let i = pairs.iter().position(|(k, _)| *k == path[0]).expect("key exists");
        match (&path[1..], value) {
            ([], None) => {
                pairs.remove(i);
            }
            ([], Some(value)) => pairs[i].1 = value.clone(),
            (rest, value) => pairs[i].1 = edit(&pairs[i].1, rest, value),
        }
        Json::Obj(pairs)
    }

    /// `decode(v)` must fail with a schema error naming every key of `path`.
    fn assert_rejects(decode: Decode, v: &Json, path: &[String]) {
        match decode(v) {
            Err(ProtoError::Schema(msg)) => {
                assert!(path.iter().all(|k| msg.contains(&format!("{k:?}"))), "{path:?}: {msg}")
            }
            other => panic!("{v}: expected a schema error naming {path:?}, got {other:?}"),
        }
    }

    /// What an absent or `null` key decodes to; `None` for required keys.
    fn absent_value(key: &str) -> Option<Json> {
        match key {
            "cores" | "wmin" | "dmax" | "iters" | "max_cycles" | "max_wall_ms" | "request_key" => {
                Some(Json::Null)
            }
            // Peers older than the retry hint omit it.
            "retry_after_ms" => Some(Json::U64(0)),
            _ => None,
        }
    }

    #[test]
    fn schema_violations_are_typed() {
        for bad in ["{\"type\":\"run\"}", "{\"type\":\"nope\"}", "{}", "[1,2,3]"] {
            let mut buf = Vec::new();
            write_frame(&mut buf, bad).unwrap();
            assert!(
                matches!(recv::<_, Request>(&mut &buf[..]), Err(ProtoError::Schema(_))),
                "{bad} must fail schema validation"
            );
        }
        // Every key of every message: the wrong JSON type is rejected, and
        // an absent or null key is rejected or decodes to its default.
        for (golden, decode) in golden_cases() {
            for path in key_paths(&golden) {
                assert_rejects(decode, &edit(&golden, &path, Some(&Json::Arr(vec![]))), &path);
                let dropped = [edit(&golden, &path, None), edit(&golden, &path, Some(&Json::Null))];
                match absent_value(path.last().unwrap()) {
                    Some(default) => {
                        let expected = edit(&golden, &path, Some(&default));
                        for v in dropped {
                            assert_eq!(decode(&v).unwrap(), expected, "{path:?}");
                        }
                    }
                    None => dropped.iter().for_each(|v| assert_rejects(decode, v, &path)),
                }
            }
        }
        // Well-typed values the schema still rules out.
        let key = |path: &[&str]| path.iter().map(|k| k.to_string()).collect::<Vec<_>>();
        let too_big = Json::U64(u32::MAX as u64 + 1);
        let cases = golden_cases();
        let (run, result, error) = (&cases[0], &cases[5], &cases[7]);
        for (case, path, value) in [
            (run, key(&["run", "wmin"]), too_big.clone()),
            (run, key(&["run", "repeat"]), too_big),
            (run, key(&["run", "repeat"]), Json::U64(0)),
            (run, key(&["run", "scale"]), Json::F64(0.0)),
            (run, key(&["run", "scale"]), Json::I64(-1)),
            (result, key(&["result", "artifact_source"]), Json::Str("nope".into())),
            (error, key(&["kind"]), Json::Str("nope".into())),
            (error, key(&["type"]), Json::Str("nope".into())),
        ] {
            assert_rejects(case.1, &edit(&case.0, &path, Some(&value)), &path);
        }
    }

    #[test]
    fn content_fingerprint_ignores_request_key() {
        let mut a = sample_run_request();
        let mut b = sample_run_request();
        a.request_key = None;
        b.request_key = Some("other-key".into());
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
        b.iters = Some(6);
        assert_ne!(a.content_fingerprint(), b.content_fingerprint());
    }
}
