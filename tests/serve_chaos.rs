//! Network-chaos tests of the serving layer: a deterministic fault proxy
//! sits between a retrying client and the daemon, and every outcome must
//! be (a) reproducible from the chaos seed and (b) correct — retried
//! requests return results bit-identical to a fault-free run. The last
//! test goes further than socket faults: it SIGKILLs a real `chgraphd`
//! process mid-run, vandalizes its on-disk cache, restarts it on the same
//! port, and proves a retrying client completes with the same fingerprint
//! while the cache converges back to a residue-free state.
//!
//! Determinism discipline: the fault schedule is a pure function of
//! (seed, connection index). The schedule-determinism test runs its
//! requests sequentially so connection indices are reproducible; the
//! survival test drives two concurrent clients, whose connections race for
//! those indices, so it asserts only facts that hold under any accept
//! order. The CI workflow runs this suite twice to enforce run-to-run
//! equality of the assertions below.

use chg_serve::{
    plan_for, ChaosPolicy, ChaosProxy, Client, ErrorClass, RetryPolicy, RunRequest, ServeConfig,
    Server,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SCALE: f64 = 0.02;

fn start(cfg: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    (addr, handle)
}

fn base_request() -> RunRequest {
    let mut req = RunRequest::new("pr", "chgraph", "LJ");
    req.scale = SCALE;
    req.iters = Some(4);
    req
}

fn shutdown(addr: SocketAddr) {
    let mut closer = Client::connect_ready(addr, Duration::from_secs(10)).expect("closer");
    closer.shutdown().expect("shutdown");
}

// ---------------------------------------------------------------------------
// Determinism: the schedule is a pure function of (seed, connection index)
// ---------------------------------------------------------------------------

#[test]
fn same_seed_yields_the_same_fault_schedule() {
    // Pure-function level: two policies with the same seed agree plan by
    // plan; a different seed disagrees somewhere early.
    let a = ChaosPolicy::new(0xC0FFEE, 0.5);
    let b = ChaosPolicy::new(0xC0FFEE, 0.5);
    let c = ChaosPolicy::new(0xC0FFED, 0.5);
    let plans_a: Vec<_> = (0..256).map(|i| plan_for(&a, i)).collect();
    let plans_b: Vec<_> = (0..256).map(|i| plan_for(&b, i)).collect();
    let plans_c: Vec<_> = (0..256).map(|i| plan_for(&c, i)).collect();
    assert_eq!(plans_a, plans_b, "identical seeds must produce identical schedules");
    assert_ne!(plans_a, plans_c, "a different seed must diverge");

    // End-to-end level: the same seeded proxy fed the same sequential
    // workload twice produces the same event log and the same per-request
    // attempt counts. Requests are sequential so connection indices (and
    // therefore fault plans) line up run to run.
    let run_once = || {
        let (upstream, handle) = start(ServeConfig { workers: 2, ..ServeConfig::default() });
        // Warm up directly so proxied connections carry pure execution.
        Client::connect_ready(upstream, Duration::from_secs(30))
            .expect("warmup connect")
            .run(base_request())
            .expect("warmup");
        let mut proxy =
            ChaosProxy::spawn(upstream, ChaosPolicy::new(0xC0FFEE, 0.5)).expect("proxy");
        let addr = proxy.addr();

        let mut outcomes = Vec::new();
        for i in 0..8u64 {
            let mut req = base_request();
            req.request_key = Some(format!("chaos-det-{i}"));
            let policy = RetryPolicy {
                max_attempts: 12,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(50),
                overall_deadline: Duration::from_secs(60),
                seed: 0x5EED ^ i,
            };
            let outcome = Client::run_with_retry(addr, req, policy)
                .unwrap_or_else(|e| panic!("request {i} must survive chaos, got {e}"));
            outcomes.push((i, outcome.attempts, outcome.result.fingerprint));
        }
        proxy.stop();
        let events = proxy.events();
        shutdown(upstream);
        handle.join().expect("server thread");
        (outcomes, events)
    };

    let (outcomes_1, events_1) = run_once();
    let (outcomes_2, events_2) = run_once();
    assert_eq!(events_1, events_2, "same seed + same workload must log the same fault events");
    assert_eq!(outcomes_1, outcomes_2, "attempt counts and results must be reproducible");
    assert!(
        events_1.iter().any(|e| !matches!(e.plan, chg_serve::FaultPlan::Clean)),
        "at 50% error rate the schedule must actually contain faults: {events_1:?}"
    );
}

// ---------------------------------------------------------------------------
// Resilience: a retrying client completes through heavy chaos, bit-identical
// ---------------------------------------------------------------------------

#[test]
fn retrying_client_survives_chaos_with_identical_results() {
    let (upstream, handle) = start(ServeConfig { workers: 2, ..ServeConfig::default() });
    // The fault-free reference fingerprint, straight to the server.
    let reference = Client::connect_ready(upstream, Duration::from_secs(30))
        .expect("direct connect")
        .run(base_request())
        .expect("direct run")
        .fingerprint;

    let mut proxy = ChaosProxy::spawn(upstream, ChaosPolicy::new(41, 0.4)).expect("proxy");
    let addr = proxy.addr();

    // Two concurrent clients, five keyed requests each: they race for the
    // proxy's accept order, so which request meets which fault varies run to
    // run, and every assertion below holds under any interleaving. The
    // barrier makes both start together.
    let start_together = std::sync::Barrier::new(2);
    let client = |first: u64| {
        start_together.wait();
        let mut attempts = 0;
        for i in first..first + 5 {
            let mut req = base_request();
            req.request_key = Some(format!("chaos-res-{i}"));
            let policy = RetryPolicy {
                max_attempts: 12,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(50),
                overall_deadline: Duration::from_secs(60),
                seed: 97 ^ i,
            };
            let outcome = Client::run_with_retry(addr, req, policy)
                .unwrap_or_else(|e| panic!("request {i} must survive chaos, got {e}"));
            assert_eq!(
                outcome.result.fingerprint, reference,
                "request {i}: a retried result must be bit-identical to the fault-free run"
            );
            attempts += outcome.attempts;
        }
        attempts
    };
    let total_attempts: u32 = std::thread::scope(|s| {
        let clients = [s.spawn(|| client(0)), s.spawn(|| client(5))];
        clients.map(|c| c.join().expect("client thread")).iter().sum()
    });
    assert!(
        total_attempts > 10,
        "40% error rate over 10 requests must force at least one retry (attempts: {total_attempts})"
    );

    proxy.stop();
    // The server observed the chaos: mid-frame teardowns and/or mangled
    // frames show up in the per-cause close counters.
    let stats = Client::connect_ready(upstream, Duration::from_secs(10))
        .expect("stats connect")
        .stats()
        .expect("stats");
    let hostile = stats.closes.reset + stats.closes.protocol;
    assert!(hostile > 0, "chaos must register in the close counters: {:?}", stats.closes);

    shutdown(upstream);
    handle.join().expect("server thread");
}

// ---------------------------------------------------------------------------
// Error classification: refused is retryable, mangled bytes are not
// ---------------------------------------------------------------------------

#[test]
fn refused_connection_is_transient_and_malformed_reply_fails_fast() {
    // A port with no listener: connect_ready should keep retrying (the
    // error is Transient) until its deadline, then surface the error.
    let dead_port = {
        let l = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        l.local_addr().expect("probe addr")
    }; // listener dropped: the port is now refused
    let start = Instant::now();
    let err = Client::connect_ready(dead_port, Duration::from_millis(400))
        .err()
        .expect("no listener must fail");
    assert!(start.elapsed() >= Duration::from_millis(300), "must retry until the deadline");
    assert_eq!(err.class(), ErrorClass::Transient, "refused is retryable: {err}");

    // A listener that answers the ping with garbage: the failure is a
    // wire-integrity error and connect_ready must give up immediately
    // instead of burning its whole deadline on a hopeless peer.
    let garbage = TcpListener::bind("127.0.0.1:0").expect("garbage bind");
    let addr = garbage.local_addr().expect("garbage addr");
    let t = std::thread::spawn(move || {
        if let Ok((mut s, _)) = garbage.accept() {
            let _ = s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nhi");
            // Half-close, then drain until the client hangs up. Closing with
            // its ping still unread would send a reset instead of the bytes
            // above, and a reset is (rightly) transient: the client would
            // retry against a listener that no longer exists.
            let _ = s.shutdown(std::net::Shutdown::Write);
            let _ = std::io::copy(&mut s, &mut std::io::sink());
        }
    });
    let start = Instant::now();
    let err = Client::connect_ready(addr, Duration::from_secs(20))
        .err()
        .expect("garbage reply must fail");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "a non-transient probe failure must not burn the whole deadline"
    );
    assert_ne!(err.class(), ErrorClass::Transient, "mangled bytes are not transient: {err}");
    t.join().expect("garbage listener thread");
}

// ---------------------------------------------------------------------------
// Crash recovery: SIGKILL mid-run, restart on the same port, bit-identical
// ---------------------------------------------------------------------------

/// Spawns `chgraphd` and parses the `listening on <addr>` line; the rest
/// of stdout is drained by a background thread so the pipe never blocks
/// the daemon.
fn spawn_daemon(addr: &str, cache_dir: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_chgraphd"))
        .args([
            "--addr",
            addr,
            "--workers",
            "1",
            "--cache-dir",
            cache_dir.to_str().expect("utf8 cache dir"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn chgraphd");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let local = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read daemon stdout");
        assert!(n > 0, "daemon exited before announcing its address");
        if let Some(rest) = line.split("listening on ").nth(1) {
            let token = rest.split_whitespace().next().expect("addr token");
            break token.parse::<SocketAddr>().expect("parse daemon addr");
        }
    };
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    (child, local)
}

/// A loopback port that is free now and lies below the kernel's ephemeral
/// range (read from `/proc/sys/net/ipv4/ip_local_port_range` when present,
/// else Linux's default start, 32768), so no outgoing connection or
/// port-0 bind is ever assigned it. The search starts at a pid-derived
/// offset so concurrent runs of the suite probe different ports. Falls
/// back to 0 (an ephemeral port) only if no such port is free.
fn free_port_below_ephemeral_range() -> u16 {
    const FIRST_UNPRIVILEGED: u16 = 1024;
    let ephemeral_start = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
        .ok()
        .and_then(|range| range.split_whitespace().next()?.parse::<u16>().ok())
        .unwrap_or(32768);
    let span = u32::from(ephemeral_start.saturating_sub(FIRST_UNPRIVILEGED));
    let offset = std::process::id() % span.max(1);
    (0..span)
        .map(|i| FIRST_UNPRIVILEGED + ((offset + i) % span) as u16)
        .find(|&port| TcpListener::bind(("127.0.0.1", port)).is_ok())
        .unwrap_or(0)
}

/// Cache residue of the kinds crash recovery must clean up.
fn cache_residue(dir: &Path) -> Vec<String> {
    let mut residue = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".corrupt") || name.contains(".tmp.") {
                residue.push(name);
            }
        }
    }
    residue
}

#[test]
fn sigkill_recovery_preserves_results_and_heals_the_cache() {
    let cache_dir = std::env::temp_dir().join(format!("chg-chaos-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");

    // The restart below reclaims this port while the retrying client is
    // connecting to it with nothing listening. An ephemeral port could be
    // taken in that gap by a TCP self-connect of the client or by any other
    // socket's ephemeral bind; a port below the ephemeral range cannot.
    let port = free_port_below_ephemeral_range();
    let (mut child, addr) = spawn_daemon(&format!("127.0.0.1:{port}"), &cache_dir);

    // Reference result from the first daemon life; this also populates the
    // on-disk cache with the prepared artifacts.
    let reference = Client::connect_ready(addr, Duration::from_secs(60))
        .expect("daemon becomes ready")
        .run(base_request())
        .expect("reference run")
        .fingerprint;

    // Park a long request in flight, then SIGKILL the daemon under it.
    let inflight = std::thread::spawn(move || {
        let mut req = base_request();
        req.repeat = 200;
        Client::connect_ready(addr, Duration::from_secs(10)).expect("inflight connect").run(req)
    });
    {
        let mut stats_client =
            Client::connect_ready(addr, Duration::from_secs(10)).expect("stats connect");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = stats_client.stats().expect("stats");
            if stats.queue_depth >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "request never went in flight: {stats:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    child.kill().expect("SIGKILL chgraphd");
    child.wait().expect("reap killed daemon");
    let err = inflight
        .join()
        .expect("inflight thread")
        .expect_err("the in-flight request must fail when the daemon dies");
    assert!(err.is_retryable(), "a mid-run crash must classify as retryable: {err}");

    // Vandalize the cache the way a crash mid-write would: truncate a real
    // entry and plant tmp/quarantine residue.
    let victim = std::fs::read_dir(&cache_dir)
        .expect("read cache dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "bin"))
        .expect("the first run must have written cache entries");
    let len = std::fs::metadata(&victim).expect("victim metadata").len();
    let file = std::fs::OpenOptions::new().write(true).open(&victim).expect("open victim");
    file.set_len(len / 2).expect("truncate victim");
    drop(file);
    std::fs::write(cache_dir.join("orphan.bin.tmp.4242"), b"partial write").expect("plant tmp");
    std::fs::write(cache_dir.join("old.bin.corrupt"), b"previous life").expect("plant corrupt");

    // Start the retrying client BEFORE the daemon is back: its first
    // attempts hit a refused port and must back off, not give up.
    let policy = RetryPolicy {
        max_attempts: 60,
        base: Duration::from_millis(50),
        cap: Duration::from_millis(500),
        overall_deadline: Duration::from_secs(120),
        seed: 7,
    };
    let retry = std::thread::spawn(move || Client::run_with_retry(addr, base_request(), policy));
    std::thread::sleep(Duration::from_millis(300));

    // Restart on the SAME port (SO_REUSEADDR makes this immediate even
    // with the previous life's connections in TIME_WAIT).
    let (mut child2, addr2) = spawn_daemon(&addr.to_string(), &cache_dir);
    assert_eq!(addr2, addr, "the restarted daemon must reclaim its port");

    let outcome = retry
        .join()
        .expect("retry thread")
        .expect("the retrying client must complete after the restart");
    assert_eq!(
        outcome.result.fingerprint, reference,
        "the result across a crash/restart must be bit-identical"
    );
    assert!(outcome.attempts > 1, "the retrying client must actually have retried");

    // The truncated entry was quarantine-deleted and rebuilt during the
    // retried run; startup recovery swept the planted residue. The cache
    // is clean and still serves the right bytes.
    let residue = cache_residue(&cache_dir);
    assert!(residue.is_empty(), "crash recovery must leave no residue: {residue:?}");
    let again = Client::connect_ready(addr, Duration::from_secs(30))
        .expect("post-recovery connect")
        .run(base_request())
        .expect("post-recovery run");
    assert_eq!(again.fingerprint, reference, "the healed cache must serve identical results");

    shutdown(addr);
    let status = child2.wait().expect("reap restarted daemon");
    assert!(status.success(), "the restarted daemon must drain cleanly: {status:?}");
    let _ = std::fs::remove_dir_all(&cache_dir);
}
