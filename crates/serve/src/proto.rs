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
//! Requests and responses are serde-derived structs (the vendored `serde`
//! is declarative-only, so the actual codec is the explicit
//! [`Json`](crate::json::Json) mapping implemented here — one function pair
//! per type, which keeps the wire schema reviewable in one place).

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
// Requests
// ---------------------------------------------------------------------------

/// One execution request: dataset × workload × runtime × configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunRequest {
    /// Workload name (`bfs`, `pr`, `mis`, `bc`, `cc`, `kcore`, `sssp`,
    /// `adsorption`).
    pub workload: String,
    /// Runtime name (`hygra`, `gla`, `chgraph`, `hcg`, `hats`,
    /// `prefetcher`).
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

fn opt_u64(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::U64)
}

fn opt_usize(v: Option<usize>) -> Json {
    v.map_or(Json::Null, |n| Json::U64(n as u64))
}

fn get_opt_u64(v: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtoError::Schema(format!("{key} must be a non-negative integer"))),
    }
}

fn get_u64(v: &Json, key: &str) -> Result<u64, ProtoError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtoError::Schema(format!("missing integer field {key:?}")))
}

fn get_f64(v: &Json, key: &str) -> Result<f64, ProtoError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ProtoError::Schema(format!("missing number field {key:?}")))
}

fn get_str(v: &Json, key: &str) -> Result<String, ProtoError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtoError::Schema(format!("missing string field {key:?}")))
}

fn get_bool(v: &Json, key: &str) -> Result<bool, ProtoError> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| ProtoError::Schema(format!("missing bool field {key:?}")))
}

fn get_opt_str(v: &Json, key: &str) -> Result<Option<String>, ProtoError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(s) => s
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| ProtoError::Schema(format!("{key} must be a string"))),
    }
}

impl WireMessage for RunRequest {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("runtime", Json::Str(self.runtime.clone())),
            ("dataset", Json::Str(self.dataset.clone())),
            ("scale", Json::F64(self.scale)),
            ("cores", opt_usize(self.cores)),
            ("wmin", self.wmin.map_or(Json::Null, |n| Json::U64(n as u64))),
            ("dmax", opt_usize(self.dmax)),
            ("iters", opt_usize(self.iters)),
            ("max_cycles", opt_u64(self.max_cycles)),
            ("max_wall_ms", opt_u64(self.max_wall_ms)),
            ("self_check", Json::Bool(self.self_check)),
            ("validate", Json::Bool(self.validate)),
            ("repeat", Json::U64(self.repeat as u64)),
            ("request_key", self.request_key.clone().map_or(Json::Null, Json::Str)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        let scale = get_f64(v, "scale")?;
        if !(scale.is_finite() && scale > 0.0) {
            return schema_err("scale must be a positive finite number");
        }
        let repeat = get_u64(v, "repeat")?;
        if repeat == 0 || repeat > u32::MAX as u64 {
            return schema_err("repeat must be in 1..=u32::MAX");
        }
        Ok(RunRequest {
            workload: get_str(v, "workload")?,
            runtime: get_str(v, "runtime")?,
            dataset: get_str(v, "dataset")?,
            scale,
            cores: get_opt_u64(v, "cores")?.map(|n| n as usize),
            wmin: match get_opt_u64(v, "wmin")? {
                Some(n) if n > u32::MAX as u64 => return schema_err("wmin out of range"),
                other => other.map(|n| n as u32),
            },
            dmax: get_opt_u64(v, "dmax")?.map(|n| n as usize),
            iters: get_opt_u64(v, "iters")?.map(|n| n as usize),
            max_cycles: get_opt_u64(v, "max_cycles")?,
            max_wall_ms: get_opt_u64(v, "max_wall_ms")?,
            self_check: get_bool(v, "self_check")?,
            validate: get_bool(v, "validate")?,
            repeat: repeat as u32,
            request_key: get_opt_str(v, "request_key")?,
        })
    }
}

impl WireMessage for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::Run(r) => {
                Json::obj(vec![("type", Json::Str("run".into())), ("run", r.to_json())])
            }
            Request::Stats => Json::obj(vec![("type", Json::Str("stats".into()))]),
            Request::Ping => Json::obj(vec![("type", Json::Str("ping".into()))]),
            Request::Shutdown => Json::obj(vec![("type", Json::Str("shutdown".into()))]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        match get_str(v, "type")?.as_str() {
            "run" => {
                let body = v
                    .get("run")
                    .ok_or_else(|| ProtoError::Schema("run request missing \"run\" body".into()))?;
                Ok(Request::Run(RunRequest::from_json(body)?))
            }
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => schema_err(format!("unknown request type {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Where a run's prepared artifacts came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArtifactSource {
    /// Served from the in-memory LRU.
    LruHit,
    /// Another request was already building the same key; this one waited
    /// for it (single-flight dedup).
    Coalesced,
    /// Built (possibly restored from the on-disk cache) by this request.
    Built,
    /// The runtime does not use prepared artifacts.
    NotApplicable,
}

impl ArtifactSource {
    /// The stable wire spelling (`lru-hit`, `coalesced`, `built`, `n/a`).
    pub fn as_str(self) -> &'static str {
        self.wire()
    }

    fn wire(self) -> &'static str {
        match self {
            ArtifactSource::LruHit => "lru-hit",
            ArtifactSource::Coalesced => "coalesced",
            ArtifactSource::Built => "built",
            ArtifactSource::NotApplicable => "n/a",
        }
    }

    fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "lru-hit" => ArtifactSource::LruHit,
            "coalesced" => ArtifactSource::Coalesced,
            "built" => ArtifactSource::Built,
            "n/a" => ArtifactSource::NotApplicable,
            _ => return None,
        })
    }
}

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

impl WireMessage for RunResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("runtime", Json::Str(self.runtime.clone())),
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("iterations", Json::U64(self.iterations)),
            ("cycles", Json::U64(self.cycles)),
            ("core_busy_cycles", Json::U64(self.core_busy_cycles)),
            ("mem_stall_cycles", Json::U64(self.mem_stall_cycles)),
            ("dram_accesses", Json::U64(self.dram_accesses)),
            ("preprocess_cycles", Json::U64(self.preprocess_cycles)),
            ("fingerprint", Json::Str(self.fingerprint.clone())),
            ("self_checked", Json::Bool(self.self_checked)),
            ("artifact_source", Json::Str(self.artifact_source.wire().into())),
            ("prepare_micros", Json::U64(self.prepare_micros)),
            ("execute_micros", Json::U64(self.execute_micros)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        let source = get_str(v, "artifact_source")?;
        Ok(RunResult {
            runtime: get_str(v, "runtime")?,
            algorithm: get_str(v, "algorithm")?,
            iterations: get_u64(v, "iterations")?,
            cycles: get_u64(v, "cycles")?,
            core_busy_cycles: get_u64(v, "core_busy_cycles")?,
            mem_stall_cycles: get_u64(v, "mem_stall_cycles")?,
            dram_accesses: get_u64(v, "dram_accesses")?,
            preprocess_cycles: get_u64(v, "preprocess_cycles")?,
            fingerprint: get_str(v, "fingerprint")?,
            self_checked: get_bool(v, "self_checked")?,
            artifact_source: ArtifactSource::from_wire(&source)
                .ok_or_else(|| ProtoError::Schema(format!("unknown artifact source {source:?}")))?,
            prepare_micros: get_u64(v, "prepare_micros")?,
            execute_micros: get_u64(v, "execute_micros")?,
        })
    }
}

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

impl WireMessage for LatencySummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::U64(self.count)),
            ("p50_micros", Json::U64(self.p50_micros)),
            ("p95_micros", Json::U64(self.p95_micros)),
            ("p99_micros", Json::U64(self.p99_micros)),
            ("max_micros", Json::U64(self.max_micros)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        Ok(LatencySummary {
            count: get_u64(v, "count")?,
            p50_micros: get_u64(v, "p50_micros")?,
            p95_micros: get_u64(v, "p95_micros")?,
            p99_micros: get_u64(v, "p99_micros")?,
            max_micros: get_u64(v, "max_micros")?,
        })
    }
}

impl WireMessage for StatsReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("uptime_secs", Json::U64(self.uptime_secs)),
            ("workers", Json::U64(self.workers)),
            ("queue_capacity", Json::U64(self.queue_capacity)),
            ("queue_depth", Json::U64(self.queue_depth)),
            (
                "requests",
                Json::obj(vec![
                    ("received", Json::U64(self.requests.received)),
                    ("ok", Json::U64(self.requests.ok)),
                    ("failed", Json::U64(self.requests.failed)),
                    ("rejected_overload", Json::U64(self.requests.rejected_overload)),
                    ("protocol_errors", Json::U64(self.requests.protocol_errors)),
                    ("deduped", Json::U64(self.requests.deduped)),
                    ("shed", Json::U64(self.requests.shed)),
                ]),
            ),
            (
                "closes",
                Json::obj(vec![
                    ("clean", Json::U64(self.closes.clean)),
                    ("read_timeout", Json::U64(self.closes.read_timeout)),
                    ("write_timeout", Json::U64(self.closes.write_timeout)),
                    ("frame_deadline", Json::U64(self.closes.frame_deadline)),
                    ("reset", Json::U64(self.closes.reset)),
                    ("protocol", Json::U64(self.closes.protocol)),
                    ("conn_cap", Json::U64(self.closes.conn_cap)),
                ]),
            ),
            (
                "artifacts",
                Json::obj(vec![
                    ("graph_hits", Json::U64(self.artifacts.graph_hits)),
                    ("graph_misses", Json::U64(self.artifacts.graph_misses)),
                    ("oag_hits", Json::U64(self.artifacts.oag_hits)),
                    ("oag_misses", Json::U64(self.artifacts.oag_misses)),
                    ("coalesced", Json::U64(self.artifacts.coalesced)),
                    ("evictions", Json::U64(self.artifacts.evictions)),
                ]),
            ),
            (
                "disk_cache",
                Json::obj(vec![
                    ("enabled", Json::Bool(self.disk_cache.enabled)),
                    ("graph_hits", Json::U64(self.disk_cache.graph_hits)),
                    ("graph_misses", Json::U64(self.disk_cache.graph_misses)),
                    ("oag_hits", Json::U64(self.disk_cache.oag_hits)),
                    ("oag_misses", Json::U64(self.disk_cache.oag_misses)),
                    ("quarantined", Json::U64(self.disk_cache.quarantined)),
                ]),
            ),
            ("prepare_latency", self.prepare_latency.to_json()),
            ("execute_latency", self.execute_latency.to_json()),
            ("total_latency", self.total_latency.to_json()),
            ("queue_wait_latency", self.queue_wait_latency.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        let req = v.get("requests").ok_or_else(|| ProtoError::Schema("missing requests".into()))?;
        let cls = v.get("closes").ok_or_else(|| ProtoError::Schema("missing closes".into()))?;
        let art =
            v.get("artifacts").ok_or_else(|| ProtoError::Schema("missing artifacts".into()))?;
        let disk =
            v.get("disk_cache").ok_or_else(|| ProtoError::Schema("missing disk_cache".into()))?;
        Ok(StatsReport {
            uptime_secs: get_u64(v, "uptime_secs")?,
            workers: get_u64(v, "workers")?,
            queue_capacity: get_u64(v, "queue_capacity")?,
            queue_depth: get_u64(v, "queue_depth")?,
            requests: RequestCounters {
                received: get_u64(req, "received")?,
                ok: get_u64(req, "ok")?,
                failed: get_u64(req, "failed")?,
                rejected_overload: get_u64(req, "rejected_overload")?,
                protocol_errors: get_u64(req, "protocol_errors")?,
                deduped: get_u64(req, "deduped")?,
                shed: get_u64(req, "shed")?,
            },
            closes: CloseCounters {
                clean: get_u64(cls, "clean")?,
                read_timeout: get_u64(cls, "read_timeout")?,
                write_timeout: get_u64(cls, "write_timeout")?,
                frame_deadline: get_u64(cls, "frame_deadline")?,
                reset: get_u64(cls, "reset")?,
                protocol: get_u64(cls, "protocol")?,
                conn_cap: get_u64(cls, "conn_cap")?,
            },
            artifacts: ArtifactCounters {
                graph_hits: get_u64(art, "graph_hits")?,
                graph_misses: get_u64(art, "graph_misses")?,
                oag_hits: get_u64(art, "oag_hits")?,
                oag_misses: get_u64(art, "oag_misses")?,
                coalesced: get_u64(art, "coalesced")?,
                evictions: get_u64(art, "evictions")?,
            },
            disk_cache: DiskCacheCounters {
                enabled: get_bool(disk, "enabled")?,
                graph_hits: get_u64(disk, "graph_hits")?,
                graph_misses: get_u64(disk, "graph_misses")?,
                oag_hits: get_u64(disk, "oag_hits")?,
                oag_misses: get_u64(disk, "oag_misses")?,
                quarantined: get_u64(disk, "quarantined")?,
            },
            prepare_latency: LatencySummary::from_json(
                v.get("prepare_latency")
                    .ok_or_else(|| ProtoError::Schema("missing prepare_latency".into()))?,
            )?,
            execute_latency: LatencySummary::from_json(
                v.get("execute_latency")
                    .ok_or_else(|| ProtoError::Schema("missing execute_latency".into()))?,
            )?,
            total_latency: LatencySummary::from_json(
                v.get("total_latency")
                    .ok_or_else(|| ProtoError::Schema("missing total_latency".into()))?,
            )?,
            queue_wait_latency: LatencySummary::from_json(
                v.get("queue_wait_latency")
                    .ok_or_else(|| ProtoError::Schema("missing queue_wait_latency".into()))?,
            )?,
        })
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
        /// Stable machine-readable error category (`budget-exceeded`,
        /// `invalid-input`, `invalid-config`, `invalid-chain-cover`,
        /// `self-check-failed`, `bad-request`, `shutting-down`,
        /// `internal-panic`, `timeout`, `protocol`).
        kind: String,
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
            Response::Run(r) => {
                Json::obj(vec![("type", Json::Str("run".into())), ("result", r.to_json())])
            }
            Response::Overloaded { queue_capacity, retry_after_ms } => Json::obj(vec![
                ("type", Json::Str("overloaded".into())),
                ("queue_capacity", Json::U64(*queue_capacity)),
                ("retry_after_ms", Json::U64(*retry_after_ms)),
            ]),
            Response::Error { kind, message } => Json::obj(vec![
                ("type", Json::Str("error".into())),
                ("kind", Json::Str(kind.clone())),
                ("message", Json::Str(message.clone())),
            ]),
            Response::Stats(s) => {
                Json::obj(vec![("type", Json::Str("stats".into())), ("stats", s.to_json())])
            }
            Response::Pong => Json::obj(vec![("type", Json::Str("pong".into()))]),
            Response::ShuttingDown => Json::obj(vec![("type", Json::Str("shutting-down".into()))]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        match get_str(v, "type")?.as_str() {
            "run" => {
                let body = v
                    .get("result")
                    .ok_or_else(|| ProtoError::Schema("run response missing result".into()))?;
                Ok(Response::Run(RunResult::from_json(body)?))
            }
            "overloaded" => Ok(Response::Overloaded {
                queue_capacity: get_u64(v, "queue_capacity")?,
                retry_after_ms: get_opt_u64(v, "retry_after_ms")?.unwrap_or(0),
            }),
            "error" => {
                Ok(Response::Error { kind: get_str(v, "kind")?, message: get_str(v, "message")? })
            }
            "stats" => {
                let body = v
                    .get("stats")
                    .ok_or_else(|| ProtoError::Schema("stats response missing stats".into()))?;
                Ok(Response::Stats(StatsReport::from_json(body)?))
            }
            "pong" => Ok(Response::Pong),
            "shutting-down" => Ok(Response::ShuttingDown),
            other => schema_err(format!("unknown response type {other:?}")),
        }
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
        chgraph::ExecError::BudgetExceeded { .. } => "budget-exceeded",
        chgraph::ExecError::InvalidChainCover { .. } => "invalid-chain-cover",
        chgraph::ExecError::InvalidInput(_) => "invalid-input",
        chgraph::ExecError::InvalidConfig(_) => "invalid-config",
    };
    Response::Error { kind: kind.into(), message: e.to_string() }
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

    #[test]
    fn request_round_trips() {
        for req in [
            Request::Run(sample_run_request()),
            Request::Run(RunRequest::new("bfs", "hygra", "WEB")),
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ] {
            let mut buf = Vec::new();
            send(&mut buf, &req).unwrap();
            let back: Request = recv(&mut &buf[..]).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn response_round_trips() {
        let result = RunResult {
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
        };
        for resp in [
            Response::Run(result),
            Response::Overloaded { queue_capacity: 8, retry_after_ms: 250 },
            Response::Error { kind: "budget-exceeded".into(), message: "cycle budget".into() },
            Response::Stats(StatsReport::default()),
            Response::Pong,
            Response::ShuttingDown,
        ] {
            let mut buf = Vec::new();
            send(&mut buf, &resp).unwrap();
            let back: Response = recv(&mut &buf[..]).unwrap();
            assert_eq!(back, resp);
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
    }

    #[test]
    fn zero_repeat_is_rejected() {
        let mut req = sample_run_request();
        req.repeat = 0;
        let v = req.to_json();
        assert!(RunRequest::from_json(&v).is_err());
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

    #[test]
    fn missing_retry_hint_decodes_as_zero() {
        // Frames from a pre-hint peer lack retry_after_ms entirely.
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\":\"overloaded\",\"queue_capacity\":4}").unwrap();
        match recv::<_, Response>(&mut &buf[..]).unwrap() {
            Response::Overloaded { queue_capacity, retry_after_ms } => {
                assert_eq!(queue_capacity, 4);
                assert_eq!(retry_after_ms, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_kinds_are_stable() {
        let e = chgraph::ExecError::InvalidConfig("too many cores".into());
        match error_response(&e) {
            Response::Error { kind, message } => {
                assert_eq!(kind, "invalid-config");
                assert!(message.contains("too many cores"));
            }
            other => panic!("{other:?}"),
        }
    }
}
