//! The daemon core: a thread-per-connection accept loop, an admission
//! gate, and graceful shutdown.
//!
//! # Request flow
//!
//! ```text
//! client ──frame──▶ handler thread ──enter──▶ gate ──slot──▶ execute on the ArtifactStore
//!        ◀─frame──  (same thread: drops the slot, then writes the reply)
//! ```
//!
//! Each connection's handler thread answers every request on it.
//! `Stats`/`Ping`/`Shutdown` are answered at once; a `Run` executes on the
//! handler once the gate grants it one of `workers` slots, at once when a
//! slot is free and otherwise after every run that arrived before it. When
//! `queue_capacity` runs already wait, the handler replies
//! [`Response::Overloaded`] immediately — explicit backpressure instead of
//! unbounded buffering or a hung client.
//!
//! # Shutdown
//!
//! Shutdown (a `Shutdown` request, [`ShutdownHandle::shutdown`], or the
//! daemon's SIGINT bridge) is a drain, not an abort: the accept loop stops
//! taking connections, handlers reject *new* run requests with a typed
//! `shutting-down` error, runs already executing or waiting for a slot
//! finish, every reply is delivered, and [`Server::run`] returns a final
//! [`StatsReport`]. Per-request [`WatchdogConfig`] budgets bound how long a
//! drain can take: a runaway simulation trips its budget and returns a
//! typed error instead of holding its slot forever.
//!
//! Nothing polls on the way there. The accept loop blocks in `accept`;
//! whoever sets the stop flag also opens one throwaway loopback connection
//! to the listener, which wakes the loop, and the loop drops it uncounted.
//! A run waiting for a slot sleeps on the gate's condvar until a finishing
//! run hands it the slot, so the drain wakes nobody. Only idle connections
//! notice the stop on a timer, through their 25 ms peek.

use crate::accept::AcceptStop;
use crate::proto::{
    self, error_response, run_result_from_report, ArtifactSource, DiskCacheCounters, ErrorKind,
    Request, Response, RunRequest, StatsReport,
};
use crate::stats::{CloseCause, Counters, LatencyHistogram};
use chg_bench::{panic_message, ArtifactStore, Fetch, Memo, PreprocessCache, Scale};
use chgraph::{ExecError, ExecutionReport, RunConfig, System, WatchdogConfig};
use hyperalgos::{self_check_prepared, try_run_workload_prepared, SelfCheckError, Workload};
use hypergraph::datasets::Dataset;
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How often an idle connection re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// Samples in the sliding queue-wait window the degraded-mode shed reads
/// its p95 from. Small on purpose: the signal must react within a few
/// requests, not after thousands.
const QUEUE_WAIT_WINDOW: usize = 64;
/// Retry hint attached to conn-cap refusals (connection churn clears much
/// faster than queue congestion, so the hint is short).
const CONN_CAP_RETRY_MS: u64 = 100;

/// Service configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Runs that execute at once, each on its connection's handler thread.
    pub workers: usize,
    /// Runs that may wait while all `workers` slots are held (a run that
    /// finds a slot free starts at once and takes no capacity). A run
    /// beyond them is rejected with `overloaded`.
    pub queue_capacity: usize,
    /// In-memory LRU capacity for loaded graphs.
    pub graph_lru: usize,
    /// In-memory LRU capacity for prepared OAG pairs.
    pub oag_lru: usize,
    /// On-disk preprocess cache directory (`None` disables).
    pub cache_dir: Option<String>,
    /// Watchdog budgets applied to every request **in addition to** its own
    /// (the stricter of the two wins per budget) — the service's runaway
    /// protection.
    pub default_watchdog: WatchdogConfig,
    /// Quiet-period budget per read while a frame is in progress: if no
    /// byte arrives for this long, the connection is closed (read-timeout).
    pub read_timeout: Duration,
    /// Budget for each reply write: a client that stops reading cannot pin
    /// its handler past this (write-timeout close).
    pub write_timeout: Duration,
    /// Total budget for one request frame, first byte to last. Bounds
    /// slow-loris drip-feeds that stay under the per-read quiet period.
    pub frame_deadline: Duration,
    /// Concurrent-connection cap; further accepts get a best-effort
    /// `overloaded` reply and an immediate close.
    pub max_connections: usize,
    /// Degraded mode: when the p95 of the last `QUEUE_WAIT_WINDOW`
    /// queue waits crosses this threshold (and a backlog exists), new runs
    /// are shed immediately with an `overloaded` reply carrying a
    /// `retry_after_ms` hint. `None` disables shedding.
    pub shed_queue_wait: Option<Duration>,
    /// Request-key dedup entries kept (in-flight plus most recently used).
    pub dedup_capacity: usize,
    /// Run crash recovery on the on-disk cache at startup: sweep every
    /// `*.tmp.*` leftover, purge `*.corrupt` quarantine residue, and make
    /// future quarantines delete rather than rename. The daemon sets this —
    /// a restart after SIGKILL must converge to a residue-free cache.
    pub recover_cache: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            graph_lru: 8,
            oag_lru: 8,
            cache_dir: None,
            default_watchdog: WatchdogConfig::default(),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            frame_deadline: Duration::from_secs(60),
            max_connections: 64,
            shed_queue_wait: None,
            dedup_capacity: 128,
            recover_cache: false,
        }
    }
}

/// Why [`Gate::enter`] refused a run.
enum Refused {
    /// `queue_capacity` runs already wait — reply `overloaded`.
    Full,
    /// The service is draining — reply `shutting-down`.
    Draining,
}

/// The admission gate: at most `slots` runs execute at once, each on its
/// own connection's handler thread, and at most `capacity` more wait for a
/// slot. `enter` refuses without waiting (backpressure is a rejection, not
/// a wait) and grants slots in arrival order.
struct Gate {
    state: Mutex<GateState>,
    /// Notified when a finishing run hands its slot to the next ticket.
    turn: Condvar,
    slots: usize,
    capacity: usize,
}

/// Everything under the gate's mutex. A finishing run hands its slot
/// straight to the oldest waiter, so runs wait only while every slot is
/// held, and a run that finds a slot free has nobody to pass.
#[derive(Default)]
struct GateState {
    /// Runs holding a slot.
    running: usize,
    /// Runs holding a ticket, waiting for a slot.
    waiting: usize,
    /// Tickets granted a slot so far; the next waiter's ticket is
    /// `granted + waiting`.
    granted: u64,
    /// Set by `drain`: every later `enter` is refused.
    draining: bool,
}

impl Gate {
    fn new(slots: usize, capacity: usize) -> Self {
        Gate {
            state: Mutex::new(GateState::default()),
            turn: Condvar::new(),
            slots: slots.max(1),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits one run: at once when a slot is free, otherwise after every
    /// run that is already waiting. Dropping the returned slot ends the run.
    fn enter(&self) -> Result<Slot<'_>, Refused> {
        let mut g = self.lock();
        if g.draining {
            return Err(Refused::Draining);
        }
        if g.running < self.slots {
            g.running += 1;
            return Ok(Slot(self));
        }
        if g.waiting >= self.capacity {
            return Err(Refused::Full);
        }
        let ticket = g.granted + g.waiting as u64;
        g.waiting += 1;
        while g.granted <= ticket {
            g = self.turn.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        Ok(Slot(self))
    }

    /// Refuses every later `enter`; runs already waiting keep their turn.
    fn drain(&self) {
        self.lock().draining = true;
    }

    /// Waiting plus running runs.
    fn depth(&self) -> usize {
        let g = self.lock();
        g.waiting + g.running
    }

    /// Runs waiting for a slot.
    fn backlog(&self) -> usize {
        self.lock().waiting
    }
}

/// One held execution slot of a [`Gate`].
struct Slot<'a>(&'a Gate);

impl Drop for Slot<'_> {
    /// Hands the slot to the oldest waiting run, or frees it.
    fn drop(&mut self) {
        let mut g = self.0.lock();
        if g.waiting == 0 {
            g.running -= 1;
            return;
        }
        g.waiting -= 1;
        g.granted += 1;
        self.0.turn.notify_all();
    }
}

/// A request-key dedup entry: the content fingerprint of the request that
/// created it (a key reused for a *different* request is rejected instead
/// of served a wrong result) and that request's reply, set once.
type DedupEntry = (u64, OnceLock<Response>);

/// Cloneable handle that triggers graceful shutdown from another thread
/// (the daemon's SIGINT bridge, or tests).
#[derive(Clone)]
pub struct ShutdownHandle(AcceptStop);

impl ShutdownHandle {
    /// Begins graceful shutdown: drain in-flight requests, then return.
    pub fn shutdown(&self) {
        self.0.stop();
    }
}

/// The long-lived query service. Construct with [`Server::bind`], then
/// [`Server::run`] blocks until shutdown and returns the final stats.
pub struct Server {
    listener: TcpListener,
    cfg: ServeConfig,
    stop: AcceptStop,
}

/// Shared state visible to every connection handler.
struct Shared {
    store: ArtifactStore,
    gate: Gate,
    counters: Counters,
    /// Request-key dedup, strict LRU by last use (see [`DedupEntry`]).
    dedup: Memo<String, DedupEntry>,
    prepare_latency: LatencyHistogram,
    execute_latency: LatencyHistogram,
    total_latency: LatencyHistogram,
    queue_wait_latency: LatencyHistogram,
    /// Sliding window of the most recent queue waits (micros) — the
    /// degraded-mode shed signal.
    recent_queue_wait: Mutex<VecDeque<u64>>,
    active_connections: AtomicUsize,
    started: Instant,
    cfg: ServeConfig,
    stop: AcceptStop,
}

impl Shared {
    /// Records one queue wait into the histogram and the shed window.
    fn record_queue_wait(&self, micros: u64) {
        self.queue_wait_latency.record(micros);
        let mut window = self.recent_queue_wait.lock().unwrap_or_else(PoisonError::into_inner);
        window.push_back(micros);
        while window.len() > QUEUE_WAIT_WINDOW {
            window.pop_front();
        }
    }

    /// Nearest-rank p95 over the sliding queue-wait window (0 when empty).
    fn windowed_queue_wait_p95(&self) -> u64 {
        let window = self.recent_queue_wait.lock().unwrap_or_else(PoisonError::into_inner);
        if window.is_empty() {
            return 0;
        }
        let mut sorted: Vec<u64> = window.iter().copied().collect();
        drop(window);
        sorted.sort_unstable();
        let rank = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Whether degraded mode is shedding right now: windowed queue-wait p95
    /// over threshold *and* runs still waiting (an empty wait line means
    /// the congestion cleared, so stale window samples must not wedge the
    /// service in degraded mode).
    fn shedding(&self) -> bool {
        match self.cfg.shed_queue_wait {
            Some(threshold) => {
                self.gate.backlog() > 0
                    && self.windowed_queue_wait_p95() >= threshold.as_micros() as u64
            }
            None => false,
        }
    }
    fn stats(&self) -> StatsReport {
        let disk = match self.store.disk() {
            Some(cache) => {
                let s = cache.stats();
                DiskCacheCounters {
                    enabled: true,
                    graph_hits: s.graph_hits,
                    graph_misses: s.graph_misses,
                    oag_hits: s.oag_hits,
                    oag_misses: s.oag_misses,
                    quarantined: s.quarantined,
                }
            }
            None => DiskCacheCounters::default(),
        };
        StatsReport {
            uptime_secs: self.started.elapsed().as_secs(),
            workers: self.cfg.workers as u64,
            queue_capacity: self.cfg.queue_capacity as u64,
            queue_depth: self.gate.depth() as u64,
            requests: self.counters.snapshot(),
            closes: self.counters.closes(),
            artifacts: self.store.counters(),
            disk_cache: disk,
            prepare_latency: self.prepare_latency.summary(),
            execute_latency: self.execute_latency.summary(),
            total_latency: self.total_latency.summary(),
            queue_wait_latency: self.queue_wait_latency.summary(),
        }
    }
}

/// Binds a listening socket with `SO_REUSEADDR`, which std's
/// `TcpListener::bind` never sets: a daemon restarted after a crash must
/// reclaim its port immediately, even while connections from its previous
/// life linger in TIME_WAIT (the SIGKILL-recovery test depends on this).
/// IPv4-only fast path through the C symbols std already links; anything
/// else falls back to the plain std bind.
#[cfg(target_os = "linux")]
fn bind_listener(addr: &std::net::SocketAddr) -> io::Result<TcpListener> {
    use std::os::fd::FromRawFd;
    let std::net::SocketAddr::V4(v4) = addr else {
        return TcpListener::bind(addr);
    };
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM, 0);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fail = |fd: i32| -> io::Error {
            let e = io::Error::last_os_error();
            close(fd);
            e
        };
        let one: i32 = 1;
        if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) != 0 {
            return Err(fail(fd));
        }
        // struct sockaddr_in: family u16, port u16be, addr u32be, zero[8].
        let mut sa = [0u8; 16];
        sa[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
        sa[2..4].copy_from_slice(&v4.port().to_be_bytes());
        sa[4..8].copy_from_slice(&v4.ip().octets());
        if bind(fd, sa.as_ptr(), 16) != 0 {
            return Err(fail(fd));
        }
        if listen(fd, 128) != 0 {
            return Err(fail(fd));
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

#[cfg(not(target_os = "linux"))]
fn bind_listener(addr: &std::net::SocketAddr) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}

impl Server {
    /// Binds the service socket (port 0 picks an ephemeral port; see
    /// [`local_addr`](Server::local_addr)). The socket carries
    /// `SO_REUSEADDR` so a restarted daemon reclaims its port without
    /// waiting out TIME_WAIT.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> io::Result<Server> {
        let mut last_err = None;
        let mut listener = None;
        for candidate in addr.to_socket_addrs()? {
            match bind_listener(&candidate) {
                Ok(l) => {
                    listener = Some(l);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let listener = match listener {
            Some(l) => l,
            None => {
                return Err(last_err.unwrap_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "no addresses to bind")
                }))
            }
        };
        let stop = AcceptStop::new(&listener, "chgraphd")?;
        Ok(Server { listener, cfg, stop })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that triggers graceful shutdown.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(self.stop.clone())
    }

    /// Runs the service until shutdown; returns the final stats snapshot.
    ///
    /// Handler threads are scoped, so returning proves every accepted
    /// request was drained and replied to.
    pub fn run(self) -> io::Result<StatsReport> {
        let disk = match &self.cfg.cache_dir {
            Some(dir) => match PreprocessCache::new(dir) {
                Ok(cache) => {
                    if self.cfg.recover_cache {
                        cache.set_remove_corrupt(true);
                        let (tmp, corrupt) = cache.recover();
                        if tmp + corrupt > 0 {
                            eprintln!(
                                "[chgraphd: cache recovery swept {tmp} torn write(s), \
                                 {corrupt} quarantined entr{}]",
                                if corrupt == 1 { "y" } else { "ies" }
                            );
                        }
                    }
                    Some(Arc::new(cache))
                }
                Err(e) => {
                    eprintln!("[chgraphd: cache disabled: cannot open {dir}: {e}]");
                    None
                }
            },
            None => None,
        };
        let shared = Shared {
            store: ArtifactStore::new(self.cfg.graph_lru, self.cfg.oag_lru, disk),
            gate: Gate::new(self.cfg.workers, self.cfg.queue_capacity),
            counters: Counters::new(),
            dedup: Memo::new(self.cfg.dedup_capacity),
            prepare_latency: LatencyHistogram::new(),
            execute_latency: LatencyHistogram::new(),
            total_latency: LatencyHistogram::new(),
            queue_wait_latency: LatencyHistogram::new(),
            recent_queue_wait: Mutex::new(VecDeque::new()),
            active_connections: AtomicUsize::new(0),
            started: Instant::now(),
            cfg: self.cfg.clone(),
            stop: self.stop.clone(),
        };
        let shared = &shared;
        std::thread::scope(|scope| {
            // Accept loop: blocks in `accept` until the stop wakes it. The
            // waking connection never reaches the cap check or a handler.
            for mut stream in shared.stop.incoming(&self.listener) {
                if shared.active_connections.load(Ordering::SeqCst)
                    >= shared.cfg.max_connections.max(1)
                {
                    // Shed at the door: best-effort structured refusal,
                    // then close. Never spawn a handler.
                    shared.counters.on_conn_cap();
                    let _ = stream.set_write_timeout(Some(POLL_INTERVAL));
                    let _ = proto::send(
                        &mut stream,
                        &Response::Overloaded {
                            queue_capacity: shared.cfg.queue_capacity as u64,
                            retry_after_ms: CONN_CAP_RETRY_MS,
                        },
                    );
                    continue;
                }
                shared.active_connections.fetch_add(1, Ordering::SeqCst);
                scope.spawn(move || {
                    let cause = handle_connection(stream, shared);
                    shared.counters.on_close(cause);
                    shared.active_connections.fetch_sub(1, Ordering::SeqCst);
                });
            }
            // Drain: refuse new runs. The scope then joins every handler, so
            // each run already executing or waiting finishes and replies.
            shared.gate.drain();
        });
        Ok(shared.stats())
    }
}

/// Executes one run with panic isolation: a simulator bug becomes a typed
/// `internal-panic` error on this request, never a dead handler or a slot
/// that is not handed on.
fn execute_isolated(request: &RunRequest, shared: &Shared) -> Response {
    match catch_unwind(AssertUnwindSafe(|| execute_run(request, shared))) {
        Ok(response) => response,
        Err(payload) => {
            Response::Error { kind: ErrorKind::InternalPanic, message: panic_message(payload) }
        }
    }
}

/// Per-budget minimum of the service default and the request's own budgets
/// — a client cannot opt out of the service's runaway protection, only
/// tighten it.
fn merged_watchdog(service: WatchdogConfig, request: &RunRequest) -> WatchdogConfig {
    let min_opt = |a: Option<u64>, b: Option<u64>| match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let wall = match (service.max_wall, request.max_wall_ms.map(Duration::from_millis)) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    WatchdogConfig {
        max_cycles: min_opt(service.max_cycles, request.max_cycles),
        max_wall: wall,
        max_stalled_iterations: service.max_stalled_iterations,
    }
}

/// Builds the library-level [`RunConfig`] for a request. A machine the
/// simulator cannot build (say, `cores: 0`) is left for [`execute_run`] to
/// reject as an invalid config.
fn build_run_config(request: &RunRequest, shared: &Shared) -> RunConfig {
    let mut cfg = RunConfig::new();
    if let Some(cores) = request.cores {
        cfg = cfg.with_system(archsim::SystemConfig::scaled(cores));
    }
    if let Some(w) = request.wmin {
        cfg = cfg.with_oag(oag::OagConfig::new().with_w_min(w));
    }
    if let Some(d) = request.dmax {
        cfg = cfg.with_chain(oag::ChainConfig::new(d));
    }
    if let Some(n) = request.iters {
        cfg = cfg.with_max_iterations(n);
    }
    cfg.validate = request.validate;
    cfg.watchdog = merged_watchdog(shared.cfg.default_watchdog, request);
    cfg
}

/// The uninsulated run path (inside `catch_unwind`).
fn execute_run(request: &RunRequest, shared: &Shared) -> Response {
    let bad = |msg: String| Response::Error { kind: ErrorKind::BadRequest, message: msg };
    let Some(workload) = Workload::from_name(&request.workload) else {
        return bad(format!("unknown workload {:?}", request.workload));
    };
    let Some(system) = System::from_name(&request.runtime) else {
        return bad(format!("unknown runtime {:?}", request.runtime));
    };
    let Some(dataset) = Dataset::from_name(&request.dataset) else {
        return bad(format!("unknown dataset {:?}", request.dataset));
    };
    let cfg = build_run_config(request, shared);
    // Reject an unbuildable machine before building, caching or writing
    // artifacts for a run that cannot start.
    if let Err(reason) = cfg.system.validate() {
        return error_response(&ExecError::InvalidConfig(reason.to_string()));
    }
    let scale = Scale(request.scale);

    // Phase 1: artifact preparation (LRU → disk cache → build).
    let t_prepare = Instant::now();
    let (graph, prepared, fetch) = if system.needs_oags() {
        let (g, p, fetch) = shared.store.prepared(dataset, scale, &cfg);
        (g, Some(p), fetch)
    } else {
        let (g, fetch) = shared.store.graph(dataset, scale);
        (g, None, fetch)
    };
    let prepare_micros = t_prepare.elapsed().as_micros() as u64;
    shared.prepare_latency.record(prepare_micros);
    let artifact_source = match (&prepared, fetch) {
        (None, _) => ArtifactSource::NotApplicable,
        (Some(_), Fetch::Hit) => ArtifactSource::LruHit,
        (Some(_), Fetch::Coalesced) => ArtifactSource::Coalesced,
        (Some(_), Fetch::Miss) => ArtifactSource::Built,
    };

    // Phase 2: execution (`repeat` identical runs; the last one replies).
    let t_execute = Instant::now();
    let mut last: Option<Result<ExecutionReport, Response>> = None;
    for _ in 0..request.repeat.max(1) {
        let outcome = if request.self_check {
            match self_check_prepared(workload, &system, &graph, &cfg, prepared.as_deref()) {
                Ok(checked) => Ok(checked.report),
                // The run itself failed: the same kind an unchecked run gets.
                Err(SelfCheckError::Exec(e)) => Err(error_response(&e)),
                Err(e) => Err(Response::Error {
                    kind: ErrorKind::SelfCheckFailed,
                    message: e.to_string(),
                }),
            }
        } else {
            match try_run_workload_prepared(workload, &system, &graph, &cfg, prepared.as_deref()) {
                Ok(report) => Ok(report),
                Err(e) => Err(error_response(&e)),
            }
        };
        let failed = outcome.is_err();
        last = Some(outcome);
        if failed {
            break;
        }
    }
    let execute_micros = t_execute.elapsed().as_micros() as u64;
    shared.execute_latency.record(execute_micros);
    // invariant: repeat >= 1, so the loop ran at least once.
    match last.expect("at least one execution") {
        Ok(report) => Response::Run(run_result_from_report(
            &report,
            request.self_check,
            artifact_source,
            prepare_micros,
            execute_micros,
        )),
        Err(resp) => resp,
    }
}

/// Handles one client connection: a sequence of request frames until EOF,
/// timeout, protocol error, or shutdown. Returns why the connection ended;
/// the accept loop tallies it.
fn handle_connection(stream: TcpStream, shared: &Shared) -> CloseCause {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut stream = stream;
    loop {
        // Wait for the next frame's first byte without consuming it, so a
        // shutdown between requests closes idle connections promptly and a
        // read timeout can never tear a half-received frame.
        match wait_for_data(&stream, shared) {
            WaitOutcome::Ready => {}
            WaitOutcome::Closed | WaitOutcome::Shutdown => return CloseCause::Clean,
            WaitOutcome::Reset => return CloseCause::Reset,
        }
        // The frame deadline clock starts at its first byte; the reader
        // enforces both the per-read quiet period and the total deadline.
        let mut reader = DeadlineReader::new(
            &stream,
            shared.cfg.read_timeout,
            Instant::now() + shared.cfg.frame_deadline,
        );
        let request: Request = match proto::recv(&mut reader) {
            Ok(req) => req,
            Err(proto::ProtoError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Tell the slow peer why before closing (best effort — its
                // send direction may be the broken one).
                let cause = if reader.deadline_hit {
                    CloseCause::FrameDeadline
                } else {
                    CloseCause::ReadTimeout
                };
                let resp = Response::Error {
                    kind: ErrorKind::Timeout,
                    message: match cause {
                        CloseCause::FrameDeadline => format!(
                            "request frame exceeded the {:?} frame deadline",
                            shared.cfg.frame_deadline
                        ),
                        _ => format!(
                            "no data for {:?} while a frame was in progress",
                            shared.cfg.read_timeout
                        ),
                    },
                };
                let _ = proto::send(&mut stream, &resp);
                return cause;
            }
            Err(proto::ProtoError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return CloseCause::Reset; // connection died mid-frame
            }
            Err(proto::ProtoError::Io(_)) => return CloseCause::Reset,
            Err(e) => {
                shared.counters.on_protocol_error();
                let resp = Response::Error { kind: ErrorKind::Protocol, message: e.to_string() };
                let _ = proto::send(&mut stream, &resp);
                return CloseCause::Protocol;
            }
        };
        shared.counters.on_received();
        let done = matches!(request, Request::Shutdown);
        let response = dispatch(request, shared);
        if let Err(e) = proto::send(&mut stream, &response) {
            return match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => CloseCause::WriteTimeout,
                _ => CloseCause::Reset,
            };
        }
        if done {
            return CloseCause::Clean;
        }
    }
}

enum WaitOutcome {
    Ready,
    Closed,
    Shutdown,
    Reset,
}

/// Polls `peek` until a byte is available, the peer closes, or shutdown is
/// requested.
fn wait_for_data(stream: &TcpStream, shared: &Shared) -> WaitOutcome {
    let mut byte = [0u8; 1];
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return WaitOutcome::Reset;
    }
    loop {
        match stream.peek(&mut byte) {
            Ok(0) => return WaitOutcome::Closed,
            Ok(_) => return WaitOutcome::Ready,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.stop.is_stopped() {
                    return WaitOutcome::Shutdown;
                }
            }
            Err(_) => return WaitOutcome::Reset,
        }
    }
}

/// A [`Read`] adapter over a `TcpStream` that enforces two budgets at once:
/// a per-read quiet period (`read_timeout`) and an absolute per-frame
/// deadline. Each read's socket timeout is the *smaller* of the quiet
/// period and the time left until the deadline, so a slow-loris drip that
/// always arrives just inside the quiet period still hits the frame
/// deadline. After a timeout, `deadline_hit` says which budget fired.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    read_timeout: Duration,
    deadline: Instant,
    /// `true` when the last timeout came from the frame deadline rather
    /// than the per-read quiet period.
    deadline_hit: bool,
}

impl<'a> DeadlineReader<'a> {
    fn new(stream: &'a TcpStream, read_timeout: Duration, deadline: Instant) -> Self {
        DeadlineReader { stream, read_timeout, deadline, deadline_hit: false }
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            self.deadline_hit = true;
            return Err(io::Error::new(io::ErrorKind::TimedOut, "frame deadline exceeded"));
        }
        let budget = remaining.min(self.read_timeout);
        // `set_read_timeout(Some(ZERO))` is an invalid argument; `budget`
        // is nonzero here because `remaining` is.
        self.stream.set_read_timeout(Some(budget))?;
        match self.stream.read(buf) {
            Ok(n) => Ok(n),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                self.deadline_hit = budget < self.read_timeout;
                Err(io::Error::new(io::ErrorKind::TimedOut, e))
            }
            Err(e) => Err(e),
        }
    }
}

/// Routes one request: `Run` executes here once the gate admits it,
/// everything else is answered at once.
fn dispatch(request: Request, shared: &Shared) -> Response {
    match request {
        Request::Ping => Response::Pong,
        Request::Stats => Response::Stats(shared.stats()),
        Request::Shutdown => {
            shared.stop.stop();
            Response::ShuttingDown
        }
        Request::Run(run) => {
            if shared.stop.is_stopped() {
                return Response::Error {
                    kind: ErrorKind::ShuttingDown,
                    message: "service is draining; not accepting new runs".into(),
                };
            }
            // Degraded mode: shed before touching dedup or the gate so a
            // congested service answers in microseconds, not queue waits.
            if shared.shedding() {
                shared.counters.on_shed();
                let threshold = shared.cfg.shed_queue_wait.unwrap_or_default();
                return Response::Overloaded {
                    queue_capacity: shared.cfg.queue_capacity as u64,
                    retry_after_ms: (threshold.as_millis() as u64).max(1),
                };
            }
            // Idempotent replay: the first request of a key owns its dedup
            // entry and executes; later ones wait on the owner's reply and
            // receive it without executing again.
            let owned = match &run.request_key {
                Some(key) => {
                    let fp = run.content_fingerprint();
                    let (entry, fetch) = shared.dedup.entry(
                        key.clone(),
                        || (fp, OnceLock::new()),
                        |(_, reply)| reply.get().is_some(),
                    );
                    if fetch != Fetch::Miss {
                        if entry.0 != fp {
                            return Response::Error {
                                kind: ErrorKind::BadRequest,
                                message: "request_key reused with a different request".into(),
                            };
                        }
                        shared.counters.on_deduped();
                        // The owner always sets the reply (every path below
                        // yields a response), so this wait is bounded by the
                        // owner's run and its watchdog budget.
                        return entry.1.wait().clone();
                    }
                    Some((key.clone(), entry))
                }
                None => None,
            };
            let entered = Instant::now();
            let response = match shared.gate.enter() {
                Ok(slot) => {
                    shared.record_queue_wait(entered.elapsed().as_micros() as u64);
                    let response = execute_isolated(&run, shared);
                    match &response {
                        Response::Run(_) => shared.counters.on_ok(),
                        _ => shared.counters.on_failed(),
                    }
                    shared.total_latency.record(entered.elapsed().as_micros() as u64);
                    // Handed on before the reply leaves: a client holding its
                    // reply never sees its own run in `queue_depth`.
                    drop(slot);
                    response
                }
                Err(Refused::Draining) => Response::Error {
                    kind: ErrorKind::ShuttingDown,
                    message: "service is draining; not accepting new runs".into(),
                },
                Err(Refused::Full) => {
                    shared.counters.on_rejected();
                    Response::Overloaded {
                        queue_capacity: shared.cfg.queue_capacity as u64,
                        retry_after_ms: 0,
                    }
                }
            };
            if let Some((key, entry)) = owned {
                // Only a completed run is replay-safe under this key; a
                // transient outcome (overloaded, draining) must not be
                // replayed to the retry that comes to fix it.
                if !matches!(response, Response::Run(_)) {
                    shared.dedup.forget(&key);
                }
                // invariant: only the owner sets its entry's reply.
                let _ = entry.1.set(response.clone());
            }
            response
        }
    }
}
