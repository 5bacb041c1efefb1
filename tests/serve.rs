//! End-to-end tests of the serving layer: protocol round-trips (including
//! fault-injected frames), artifact-LRU behavior, result identity between
//! the daemon path and direct library execution, backpressure, and
//! graceful drain. The hard guarantees from DESIGN.md §"Serving layer":
//!
//! - a second identical request is served from the artifact LRU (counter
//!   increments, no rebuild),
//! - a served result is byte-identical to direct library execution,
//! - a full queue yields a structured `overloaded` rejection, not a hang,
//! - shutdown drains in-flight requests and replies to all of them.

use chg_bench::faultutil::{Fault, FaultReader};
use chg_serve::proto::{self, fingerprint_report};
use chg_serve::{
    Client, ClientError, ErrorKind, ProtoError, Request, Response, RunRequest, ServeConfig, Server,
    ShutdownHandle, StatsReport,
};
use hyperalgos::{try_run_workload_prepared, Workload};
use hypergraph::datasets::Dataset;
use proptest::prelude::*;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.02;

/// Starts an in-process service, returning its address, a shutdown closure
/// (drains and joins), and the server thread handle.
fn start(
    cfg: ServeConfig,
) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<chg_serve::StatsReport>>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_ready(addr, Duration::from_secs(10)).expect("service becomes ready")
}

fn base_request() -> RunRequest {
    let mut req = RunRequest::new("pr", "chgraph", "LJ");
    req.scale = SCALE;
    req.iters = Some(4);
    req
}

/// Polls the service until `pred` holds on a stats snapshot (or panics at
/// the deadline) — the deterministic way to sequence multi-connection
/// scenarios without sleeping blind.
fn wait_stats(addr: SocketAddr, what: &str, pred: impl Fn(&chg_serve::StatsReport) -> bool) {
    let mut client = connect(addr);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("stats");
        if pred(&stats) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------------
// (a) + (b): LRU reuse and result identity
// ---------------------------------------------------------------------------

#[test]
fn second_identical_request_hits_the_lru_with_identical_result() {
    let (addr, handle) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut client = connect(addr);

    let first = client.run(base_request()).expect("first run");
    assert_eq!(first.artifact_source.as_str(), "built", "cold store must build");

    let before = client.stats().expect("stats").artifacts;
    let second = client.run(base_request()).expect("second run");
    let after = client.stats().expect("stats").artifacts;

    // The artifact came from the LRU and the hit counter moved.
    assert_eq!(second.artifact_source.as_str(), "lru-hit");
    assert_eq!(after.oag_hits, before.oag_hits + 1, "second request must count as an LRU hit");
    assert_eq!(after.oag_misses, before.oag_misses, "second request must not rebuild");

    // Identical result, not merely a similar one.
    assert_eq!(first.fingerprint, second.fingerprint);
    assert_eq!(first.cycles, second.cycles);
    assert_eq!(first.iterations, second.iterations);

    // (b) The served result is byte-identical to direct library execution:
    // same config knobs, no daemon, no cache.
    let g = chg_bench::load_scaled(Dataset::LiveJournal, chg_bench::Scale(SCALE));
    let cfg = chgraph::RunConfig::new().with_max_iterations(4);
    let direct = try_run_workload_prepared(Workload::Pr, &chgraph::System::ChGraph, &g, &cfg, None)
        .expect("direct run");
    assert_eq!(
        first.fingerprint,
        format!("{:016x}", fingerprint_report(&direct)),
        "daemon result must be byte-identical to the direct library path"
    );
    assert_eq!(first.cycles, direct.cycles);

    let mut closer = connect(addr);
    closer.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

// ---------------------------------------------------------------------------
// (c): backpressure is a structured rejection, not a hang
// ---------------------------------------------------------------------------

#[test]
fn full_queue_rejects_with_overloaded() {
    // One worker, one queue slot: A executes, B occupies the slot, C must
    // be rejected. The `repeat` knob keeps A/B busy long enough that the
    // stats-polled sequencing below is deterministic, not timing-lucky.
    let cfg = ServeConfig { workers: 1, queue_capacity: 1, ..ServeConfig::default() };
    let (addr, handle) = start(cfg);

    // Warm the artifact store so A/B's occupancy is pure execution time.
    connect(addr).run(base_request()).expect("warmup");

    let heavy = || {
        let mut req = base_request();
        req.repeat = 120;
        req
    };
    let outcome: (Result<_, ClientError>, Result<_, ClientError>, Result<_, ClientError>) =
        std::thread::scope(|s| {
            let a = s.spawn(move || connect(addr).run(heavy()));
            // A is in flight once the queue has drained back to depth 1
            // (pop happens immediately with an idle worker).
            wait_stats(addr, "A in flight", |st| st.queue_depth == 1);
            let b = s.spawn(move || connect(addr).run(heavy()));
            wait_stats(addr, "B queued", |st| st.queue_depth == 2);
            // C: worker busy with A, queue full with B -> immediate reject.
            let started = Instant::now();
            let c = connect(addr).run(heavy());
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "rejection must be prompt, not a hang"
            );
            (a.join().expect("A thread"), b.join().expect("B thread"), c)
        });

    let (a, b, c) = outcome;
    assert!(a.is_ok(), "A must complete: {a:?}");
    assert!(b.is_ok(), "B must complete: {b:?}");
    match c {
        Err(ClientError::Overloaded { queue_capacity, .. }) => assert_eq!(queue_capacity, 1),
        other => panic!("C must be rejected with Overloaded, got {other:?}"),
    }

    let stats = connect(addr).stats().expect("stats");
    assert_eq!(stats.requests.rejected_overload, 1);

    let mut closer = connect(addr);
    closer.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

// ---------------------------------------------------------------------------
// (d): shutdown drains in-flight work
// ---------------------------------------------------------------------------

#[test]
fn shutdown_drains_in_flight_requests() {
    let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let (addr, handle) = start(cfg);
    connect(addr).run(base_request()).expect("warmup");

    let heavy = {
        let mut req = base_request();
        req.repeat = 120;
        req
    };
    let in_flight = std::thread::spawn(move || connect(addr).run(heavy));
    wait_stats(addr, "heavy request in flight", |st| st.queue_depth == 1);

    // Trigger drain while the heavy request is mid-execution.
    let mut closer = connect(addr);
    closer.shutdown().expect("shutdown ack");

    // The in-flight request still completes and gets its reply.
    let result = in_flight.join().expect("client thread").expect("drained run must succeed");
    assert!(!result.fingerprint.is_empty());

    // The server exits cleanly and its final snapshot saw the request.
    let stats = handle.join().expect("server thread").expect("clean exit");
    assert!(stats.requests.ok >= 2, "warmup + drained heavy request: {:?}", stats.requests);

    // New connections are refused once the listener is down.
    assert!(
        Client::connect(addr).and_then(|mut c| c.ping()).is_err(),
        "a drained server must not accept new work"
    );
}

#[test]
fn runs_after_shutdown_are_rejected_as_draining() {
    let (addr, handle) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut client = connect(addr);
    // Same connection: shutdown ack, then the server replies to nothing
    // further on it — but a pre-shutdown-opened second connection gets the
    // typed shutting-down error for a run submitted during the drain window.
    let mut second = connect(addr);
    client.shutdown().expect("shutdown ack");
    match second.run(base_request()) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::ShuttingDown),
        // The drain can finish (and close the socket) before the request
        // lands; that is also a non-hang outcome.
        Err(ClientError::Proto(_)) => {}
        other => panic!("expected shutting-down or closed socket, got {other:?}"),
    }
    handle.join().expect("server thread").expect("clean exit");
}

// ---------------------------------------------------------------------------
// Connection path: accepts are immediate, and a stop wakes the accept
// ---------------------------------------------------------------------------

/// Starts a default service bound to `bind` and returns its loopback
/// address, its shutdown handle, and a receiver that yields what `run`
/// returns.
fn start_with_handle(
    bind: &str,
) -> (SocketAddr, ShutdownHandle, mpsc::Receiver<std::io::Result<StatsReport>>) {
    let server = Server::bind(bind, ServeConfig::default()).expect("bind ephemeral");
    let port = server.local_addr().expect("local addr").port();
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let stop = server.shutdown_handle();
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(server.run());
    });
    (addr, stop, finished)
}

/// Shuts the service down through its handle; `run` must return promptly.
fn stop_and_wait(
    stop: &ShutdownHandle,
    finished: &mpsc::Receiver<std::io::Result<StatsReport>>,
) -> StatsReport {
    stop.shutdown();
    finished
        .recv_timeout(Duration::from_secs(10))
        .expect("run() returns after shutdown")
        .expect("clean exit")
}

/// Each fresh connection is accepted as it arrives. A listener polled
/// every 25 ms makes every connection after the first wait out a sleep
/// (at least 475 ms for these 20); a blocking accept takes a few ms.
#[test]
fn fresh_connections_are_accepted_without_a_poll_delay() {
    let (addr, handle) = start(ServeConfig::default());
    connect(addr); // up and idle
    let started = Instant::now();
    for _ in 0..20 {
        Client::connect(addr).expect("connect").ping().expect("ping");
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_millis(250), "20 connect + ping took {elapsed:?}");
    connect(addr).shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

/// The waking connection of a server bound to the wildcard address goes to
/// loopback, so `ShutdownHandle` still ends `run`.
#[test]
fn shutdown_handle_stops_a_server_bound_to_the_wildcard_address() {
    let (addr, stop, finished) = start_with_handle("0.0.0.0:0");
    // Once a ping is answered, the accept loop is blocked in `accept`.
    connect(addr);
    stop_and_wait(&stop, &finished);
}

/// The waking connection is dropped unseen: the final close tallies cover
/// exactly the connections the test opened.
#[test]
fn the_waking_connection_is_not_counted() {
    let (addr, stop, finished) = start_with_handle("127.0.0.1:0");
    for _ in 0..3 {
        connect(addr); // one ping, then closed
    }
    let stats = stop_and_wait(&stop, &finished);
    let c = &stats.closes;
    let closes =
        c.clean + c.read_timeout + c.write_timeout + c.frame_deadline + c.reset + c.protocol;
    assert_eq!((closes, c.clean, c.conn_cap), (3, 3, 0), "{c:?}");
    assert_eq!(stats.requests.received, 3, "{:?}", stats.requests);
}

/// SIGINT and SIGTERM drain the daemon process: it exits 0 and prints its
/// `drained` line. The signal is sent the moment the address line appears,
/// so a handler installed after that line would let the default action kill
/// the process instead.
#[test]
fn signals_drain_the_daemon_process() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};
    for signal in ["-INT", "-TERM"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_chgraphd"))
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn chgraphd");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first).expect("read stdout");
        assert!(first.contains("listening on"), "{first:?}");
        let pid = child.id().to_string();
        let killed = Command::new("kill").args([signal, &pid]).status().expect("run kill");
        assert!(killed.success(), "kill {signal} {pid}");
        // EOF on stdout means the daemon exited; a daemon that does not is
        // killed after 30 s, so the test fails instead of hanging.
        let (done, eof) = mpsc::channel();
        std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = done.send(stdout.read_to_string(&mut rest).map(|_| rest));
        });
        let Ok(out) = eof.recv_timeout(Duration::from_secs(30)) else {
            let _ = child.kill();
            panic!("chgraphd did not exit within 30 s of kill {signal}");
        };
        let out = out.expect("read the rest of stdout");
        let status = child.wait().expect("wait for chgraphd");
        assert!(status.success(), "{signal}: {status:?}\n{out}");
        assert!(out.contains("chgraphd drained: 0 requests"), "{signal}:\n{out}");
    }
}

/// A request's `cores` is a runtime input: a machine the simulator cannot
/// build (20 cores on the scaled machine's 4×4 mesh, or none) is answered
/// `invalid-config` with the reason, checked or not, and the worker
/// survives to serve the next request.
#[test]
fn unbuildable_core_counts_are_answered_invalid_config() {
    let cache_dir = std::env::temp_dir().join(format!("chg-serve-badcores-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        cache_dir: Some(cache_dir.to_str().expect("utf8 cache dir").to_string()),
        ..ServeConfig::default()
    });
    let mut client = connect(addr);
    for (cores, self_check, reason) in [
        (20, false, "mesh must be large enough"),
        (20, true, "mesh must be large enough"),
        (0, false, "need at least one core"),
    ] {
        let mut req = base_request();
        req.cores = Some(cores);
        req.self_check = self_check;
        match client.run(req) {
            Err(ClientError::Server { kind, message }) => {
                assert_eq!(kind, ErrorKind::InvalidConfig, "{cores} cores: {message}");
                assert!(message.contains(reason), "{cores} cores: {message}");
            }
            other => panic!("{cores} cores: expected invalid-config, got {other:?}"),
        }
    }
    // The machine is checked before any artifact is prepared.
    let artifacts = client.stats().expect("stats").artifacts;
    assert_eq!((artifacts.graph_misses, artifacts.oag_misses), (0, 0), "{artifacts:?}");
    let written: Vec<_> = std::fs::read_dir(&cache_dir).expect("cache dir").collect();
    assert!(written.is_empty(), "rejected runs must write no cache files: {written:?}");
    client.run(base_request()).expect("the worker still serves");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

// ---------------------------------------------------------------------------
// Protocol robustness: fault-injected frames
// ---------------------------------------------------------------------------

fn encode_request(req: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    proto::send(&mut bytes, req).expect("encode");
    bytes
}

#[test]
fn bit_flipped_frames_are_rejected_not_misdecoded() {
    let frame = encode_request(&Request::Run(base_request()));
    for offset in 0..frame.len() as u64 {
        let mut reader = FaultReader::new(&frame[..], Fault::FlipBit { offset, bit: 2 });
        let decoded: Result<Request, _> = proto::recv(&mut reader);
        assert!(
            decoded.is_err(),
            "a flipped bit at offset {offset} must fail decoding, not pass silently"
        );
    }
}

#[test]
fn truncated_frames_fail_cleanly_at_every_length() {
    let frame = encode_request(&Request::Stats);
    for offset in 0..frame.len() as u64 {
        let mut reader = FaultReader::new(&frame[..], Fault::Truncate { offset });
        let decoded: Result<Request, _> = proto::recv(&mut reader);
        match decoded {
            Err(ProtoError::Io(_))
            | Err(ProtoError::Magic)
            | Err(ProtoError::ChecksumMismatch { .. }) => {}
            other => panic!("truncation at {offset} must be a framing error, got {other:?}"),
        }
    }
}

#[test]
fn short_reads_do_not_corrupt_frames() {
    // Single-byte reads past offset 3 stress every read_exact loop; the
    // frame must still decode to the identical value.
    let req = Request::Run(base_request());
    let frame = encode_request(&req);
    let mut reader = FaultReader::new(&frame[..], Fault::Short { offset: 3 });
    let decoded: Request = proto::recv(&mut reader).expect("short reads are not errors");
    assert_eq!(decoded, req);
}

#[test]
fn garbage_on_the_socket_gets_a_typed_protocol_error() {
    let (addr, handle) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write garbage");
        let reply: Result<Response, _> = proto::recv(&mut raw);
        match reply {
            Ok(Response::Error { kind, .. }) => assert_eq!(kind, ErrorKind::Protocol),
            other => panic!("expected a protocol error response, got {other:?}"),
        }
    }
    wait_stats(addr, "protocol error counted", |st| st.requests.protocol_errors == 1);
    let mut closer = connect(addr);
    closer.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

// ---------------------------------------------------------------------------
// Connection hardening: slow-loris, idempotent replays, degraded mode
// ---------------------------------------------------------------------------

#[test]
fn slow_loris_drip_hits_the_frame_deadline_and_frees_the_worker() {
    use std::io::Write;
    let cfg = ServeConfig {
        workers: 1,
        // Quiet period far above the drip interval: only the *total* frame
        // deadline can fire, which is exactly the slow-loris guard.
        read_timeout: Duration::from_secs(5),
        frame_deadline: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(cfg);

    let frame = encode_request(&Request::Ping);
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.set_nodelay(true).ok();
    // Drip one byte per 100 ms: each read stays inside the quiet period,
    // but the frame cannot complete inside the 500 ms deadline.
    for byte in frame.iter().take(12) {
        if raw.write_all(&[*byte]).is_err() {
            break; // server already closed on us — also a pass condition
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    // The server must have sent a typed timeout error before closing.
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
    let reply: Result<Response, _> = proto::recv(&mut raw);
    match reply {
        Ok(Response::Error { kind, .. }) => assert_eq!(kind, ErrorKind::Timeout),
        other => panic!("expected a typed timeout error, got {other:?}"),
    }
    // ... and then nothing more: the connection is closed.
    let eof: Result<Response, _> = proto::recv(&mut raw);
    assert!(eof.is_err(), "connection must be closed after the timeout reply");
    drop(raw);

    // The close is tallied under frame-deadline, and the worker is free:
    // a fresh connection completes a real run.
    wait_stats(addr, "frame-deadline close counted", |st| st.closes.frame_deadline == 1);
    let result = connect(addr).run(base_request()).expect("fresh connection must succeed");
    assert!(!result.fingerprint.is_empty());

    let mut closer = connect(addr);
    closer.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn duplicate_request_key_executes_once_with_identical_replies() {
    let (addr, handle) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut req = base_request();
    req.request_key = Some("idem-1".into());

    let mut client = connect(addr);
    let first = client.run(req.clone()).expect("first run");
    let replay = client.run(req.clone()).expect("replayed run");
    // Two identical replies...
    assert_eq!(first.fingerprint, replay.fingerprint);
    assert_eq!(first.cycles, replay.cycles);
    assert_eq!(first.iterations, replay.iterations);
    // ... from one execution: the replay came out of the single-flight
    // slot, not the worker pool.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests.deduped, 1);
    assert_eq!(stats.requests.ok, 1, "the key must execute exactly once");
    assert!(stats.requests.received >= 2);

    // The same key with a *different* request body is a bad request, never
    // a silently wrong cached result.
    let mut mismatched = base_request();
    mismatched.request_key = Some("idem-1".into());
    mismatched.iters = Some(5);
    match client.run(mismatched) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, ErrorKind::BadRequest);
            assert!(message.contains("request_key"), "message should name the key: {message}");
        }
        other => panic!("expected bad-request for a reused key, got {other:?}"),
    }

    let mut closer = connect(addr);
    closer.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn concurrent_duplicate_request_is_single_flighted() {
    let (addr, handle) = start(ServeConfig { workers: 2, ..ServeConfig::default() });
    connect(addr).run(base_request()).expect("warmup");

    let keyed_heavy = || {
        let mut req = base_request();
        req.repeat = 60;
        req.request_key = Some("single-flight".into());
        req
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(move || connect(addr).run(keyed_heavy()));
        wait_stats(addr, "owner in flight", |st| st.queue_depth >= 1);
        // Same key from a second connection: follower, not a second run.
        // (Even if the owner already finished, the completed slot lingers
        // and still answers — either way, one execution.)
        let b = s.spawn(move || connect(addr).run(keyed_heavy()));
        wait_stats(addr, "follower deduped", |st| st.requests.deduped == 1);
        (a.join().expect("owner thread"), b.join().expect("follower thread"))
    });
    let (owner, follower) = (a.expect("owner run"), b.expect("follower run"));
    assert_eq!(owner.fingerprint, follower.fingerprint);
    assert_eq!(owner.cycles, follower.cycles);

    let stats = connect(addr).stats().expect("stats");
    assert_eq!(stats.requests.deduped, 1);
    assert_eq!(stats.requests.ok, 2, "warmup + one keyed execution, not two");

    let mut closer = connect(addr);
    closer.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn drain_during_a_deduped_in_flight_request_answers_owner_and_follower() {
    let (addr, handle) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let keyed_heavy = || {
        let mut req = base_request();
        req.repeat = 120;
        req.request_key = Some("drain-dedup".into());
        req
    };
    let (owner, follower) = std::thread::scope(|s| {
        let owner = s.spawn(move || connect(addr).run(keyed_heavy()));
        wait_stats(addr, "owner in flight", |st| st.queue_depth == 1);
        let follower = s.spawn(move || connect(addr).run(keyed_heavy()));
        // `ok == 0`: the owner is still executing while the follower waits.
        wait_stats(addr, "follower waiting on the owner", |st| {
            st.requests.deduped == 1 && st.requests.ok == 0
        });
        connect(addr).shutdown().expect("shutdown ack");
        (owner.join().expect("owner thread"), follower.join().expect("follower thread"))
    });
    let (owner, follower) = (owner.expect("owner run"), follower.expect("follower run"));
    assert_eq!(owner.fingerprint, follower.fingerprint);
    assert_eq!(owner.cycles, follower.cycles);

    let stats = handle.join().expect("server thread").expect("clean exit");
    assert_eq!(stats.requests.ok, 1, "the key executed once");
    assert_eq!(stats.requests.deduped, 1);
}

#[test]
fn overloaded_keyed_request_is_forgotten_and_executes_on_retry() {
    let cfg = ServeConfig { workers: 1, queue_capacity: 1, ..ServeConfig::default() };
    let (addr, handle) = start(cfg);
    let warmup = connect(addr).run(base_request()).expect("warmup");

    let heavy = || {
        let mut req = base_request();
        req.repeat = 120;
        req
    };
    let mut keyed = base_request();
    keyed.request_key = Some("retry-after-overload".into());
    std::thread::scope(|s| {
        let a = s.spawn(move || connect(addr).run(heavy()));
        wait_stats(addr, "A in flight", |st| st.queue_depth == 1);
        let b = s.spawn(move || connect(addr).run(heavy()));
        wait_stats(addr, "B queued", |st| st.queue_depth == 2);
        match connect(addr).run(keyed.clone()) {
            Err(ClientError::Overloaded { .. }) => {}
            other => panic!("the keyed request must be rejected with Overloaded, got {other:?}"),
        }
        a.join().expect("A thread").expect("A run");
        b.join().expect("B thread").expect("B run");
    });

    // The queue has drained: the same key executes instead of replaying
    // the rejection.
    let retried = connect(addr).run(keyed).expect("retried run");
    assert_eq!(retried.fingerprint, warmup.fingerprint);

    let stats = connect(addr).stats().expect("stats");
    assert_eq!(stats.requests.rejected_overload, 1);
    assert_eq!(stats.requests.deduped, 0, "the overloaded reply must not be replayed");
    assert_eq!(stats.requests.ok, 4, "warmup + A + B + the retried key");

    let mut closer = connect(addr);
    closer.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn degraded_mode_sheds_with_a_retry_hint() {
    // Threshold zero: shed whenever a backlog exists — the deterministic
    // way to reach degraded mode without timing games.
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 4,
        shed_queue_wait: Some(Duration::ZERO),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(cfg);
    connect(addr).run(base_request()).expect("warmup");

    let heavy = || {
        let mut req = base_request();
        req.repeat = 120;
        req
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(move || connect(addr).run(heavy()));
        wait_stats(addr, "A in flight", |st| st.queue_depth == 1);
        let b = s.spawn(move || connect(addr).run(heavy()));
        wait_stats(addr, "B queued behind A", |st| st.queue_depth == 2);
        // Backlog exists (B is queued) -> degraded mode sheds immediately,
        // with a pacing hint.
        match connect(addr).run(base_request()) {
            Err(ClientError::Overloaded { retry_after_ms, .. }) => {
                assert!(retry_after_ms >= 1, "shed reply must carry a retry hint");
            }
            other => panic!("expected a shed Overloaded reply, got {other:?}"),
        }
        (a.join().expect("A thread"), b.join().expect("B thread"))
    });
    assert!(a.is_ok() && b.is_ok(), "queued work still completes while shedding");

    let stats = connect(addr).stats().expect("stats");
    assert_eq!(stats.requests.shed, 1);
    // The queue-wait histogram is live in the stats endpoint.
    assert!(
        stats.queue_wait_latency.count >= 3,
        "warmup + A + B queue waits must be recorded: {:?}",
        stats.queue_wait_latency
    );

    let mut closer = connect(addr);
    closer.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean exit");
}

// ---------------------------------------------------------------------------
// Property tests: wire round-trips for arbitrary field values
// ---------------------------------------------------------------------------

/// `Option<T>` via `(present, value)` — the vendored proptest has no
/// `prop::option`.
fn opt<T>(present: bool, value: T) -> Option<T> {
    present.then_some(value)
}

fn arb_run_request() -> impl Strategy<Value = RunRequest> {
    const WORKLOADS: [&str; 4] = ["pr", "bfs", "sssp", "nonsense"];
    const RUNTIMES: [&str; 4] = ["chgraph", "hygra", "gla", "weird"];
    const DATASETS: [&str; 4] = ["LJ", "WEB", "FS", "??"];
    (
        (0usize..4, 0usize..4, 0usize..4, 1u64..4000),
        (any::<bool>(), 1usize..64, any::<bool>(), 0u32..16),
        (
            (any::<bool>(), 1usize..64),
            (any::<bool>(), 1usize..1000),
            (any::<bool>(), any::<u64>()),
            (any::<bool>(), 1u64..600_000),
        ),
        (any::<bool>(), any::<bool>(), 1u32..1000, any::<bool>()),
    )
        .prop_map(
            |(
                (w, r, d, scale_millis),
                (has_cores, cores, has_wmin, wmin),
                ((has_dmax, dmax), (has_iters, iters), (has_mc, max_cycles), (has_mw, max_wall)),
                (self_check, validate, repeat, has_key),
            )| {
                let mut req = RunRequest::new(WORKLOADS[w], RUNTIMES[r], DATASETS[d]);
                req.scale = scale_millis as f64 / 1000.0;
                req.cores = opt(has_cores, cores);
                req.wmin = opt(has_wmin, wmin);
                req.dmax = opt(has_dmax, dmax);
                req.iters = opt(has_iters, iters);
                req.max_cycles = opt(has_mc, max_cycles.max(1));
                req.max_wall_ms = opt(has_mw, max_wall);
                req.self_check = self_check;
                req.validate = validate;
                req.repeat = repeat;
                req.request_key = opt(has_key, format!("key-{repeat:04x}"));
                req
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_run_request_round_trips_the_wire(req in arb_run_request()) {
        let frame = encode_request(&Request::Run(req.clone()));
        let decoded: Request = proto::recv(&mut &frame[..]).expect("decode");
        prop_assert_eq!(decoded, Request::Run(req));
    }

    #[test]
    fn any_single_bit_flip_is_detected(req in arb_run_request(), bit in 0u32..8, pick in any::<usize>()) {
        let frame = encode_request(&Request::Run(req));
        let offset = (pick % frame.len()) as u64;
        let mut reader = FaultReader::new(&frame[..], Fault::FlipBit { offset, bit: bit as u8 });
        let decoded: Result<Request, _> = proto::recv(&mut reader);
        prop_assert!(decoded.is_err(), "flip at byte {} bit {} must not decode", offset, bit);
    }
}
