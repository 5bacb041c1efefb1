//! `chgraphd` — the long-lived chgraph query daemon.
//!
//! ```text
//! chgraphd --addr 127.0.0.1:7411 --workers 4 --cache-dir .chgraph-cache
//! ```
//!
//! Accepts run requests (dataset × algorithm × runtime × configuration)
//! over the `chg_serve` protocol, executes them on a bounded worker pool,
//! and keeps hot prepared artifacts in an in-memory LRU backed by the
//! on-disk preprocess cache. `chgraph-cli submit` / `serve-stats` are the
//! matching clients. A missing OAG pair is built serially on the worker
//! that first requests it; `--workers` is the daemon's only parallelism.
//! Any flag the usage text does not list is rejected with the usage and
//! a non-zero exit.
//!
//! SIGINT and SIGTERM trigger a graceful drain: intake stops, queued and
//! in-flight runs finish and reply, and the process exits 0. A protocol
//! `shutdown` request does the same (the script-friendly path).

use chg_serve::{ServeConfig, Server};
use chgraph::WatchdogConfig;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set from the signal handler; polled by the bridge thread.
static SIGNALED: AtomicBool = AtomicBool::new(false);

/// Installs a graceful-shutdown handler for `signum` via the C `signal`
/// symbol std already links, avoiding any new dependency. The handler body
/// is a single atomic store — async-signal-safe.
fn install_signal(signum: i32) {
    extern "C" fn on_signal(_signum: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(signum, on_signal as *const () as usize);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  chgraphd [--addr <host:port>]   (default 127.0.0.1:7411; port 0 = ephemeral)\n\
         \x20          [--workers <n>]         (default 2)\n\
         \x20          [--queue <n>]           (bounded queue capacity, default 16)\n\
         \x20          [--graph-lru <n>]       (resident graphs, default 8)\n\
         \x20          [--oag-lru <n>]         (resident prepared-OAG pairs, default 8)\n\
         \x20          [--cache-dir <dir>]     (on-disk preprocess cache; off by default)\n\
         \x20          [--max-cycles <n>]      (default per-request cycle budget)\n\
         \x20          [--max-wall-ms <n>]     (default per-request wall-clock budget)\n\
         \x20          [--read-timeout-ms <n>] (per-read quiet period mid-frame, default 30000)\n\
         \x20          [--write-timeout-ms <n>](per-reply write budget, default 30000)\n\
         \x20          [--frame-deadline-ms <n>] (total per-frame budget, default 60000)\n\
         \x20          [--max-conns <n>]       (concurrent connection cap, default 64)\n\
         \x20          [--shed-ms <n>]         (degraded mode: shed when queue-wait p95\n\
         \x20                                   exceeds this; off by default)\n\
         \x20          [--dedup <n>]           (request-key single-flight slots, default 128)"
    );
    ExitCode::FAILURE
}

/// The flags the usage text documents; any other flag is rejected.
const FLAGS: &[&str] = &[
    "addr",
    "workers",
    "queue",
    "graph-lru",
    "oag-lru",
    "cache-dir",
    "max-cycles",
    "max-wall-ms",
    "read-timeout-ms",
    "write-timeout-ms",
    "frame-deadline-ms",
    "max-conns",
    "shed-ms",
    "dedup",
];

/// Parses `--flag value` pairs; `None` on a token that is not a flag, a
/// flag without a value, or a flag outside [`FLAGS`].
fn parse_flags(args: &[String]) -> Option<HashMap<String, String>> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].strip_prefix("--")?;
        if !FLAGS.contains(&key) {
            eprintln!("error: unknown flag --{key}");
            return None;
        }
        let value = args.get(i + 1)?.clone();
        map.insert(key.to_string(), value);
        i += 2;
    }
    Some(map)
}

fn run(flags: HashMap<String, String>) -> Result<(), String> {
    let get_num = |key: &str, default: usize| -> Result<usize, String> {
        match flags.get(key) {
            Some(v) => v.parse().map_err(|_| format!("bad --{key}")),
            None => Ok(default),
        }
    };
    let mut watchdog = WatchdogConfig::default();
    if let Some(n) = flags.get("max-cycles") {
        watchdog.max_cycles = Some(n.parse().map_err(|_| "bad --max-cycles")?);
    }
    if let Some(n) = flags.get("max-wall-ms") {
        watchdog.max_wall =
            Some(Duration::from_millis(n.parse().map_err(|_| "bad --max-wall-ms")?));
    }
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        workers: get_num("workers", 2)?.max(1),
        queue_capacity: get_num("queue", 16)?.max(1),
        graph_lru: get_num("graph-lru", 8)?.max(1),
        oag_lru: get_num("oag-lru", 8)?.max(1),
        cache_dir: flags.get("cache-dir").cloned(),
        default_watchdog: watchdog,
        read_timeout: Duration::from_millis(
            get_num("read-timeout-ms", defaults.read_timeout.as_millis() as usize)?.max(1) as u64,
        ),
        write_timeout: Duration::from_millis(
            get_num("write-timeout-ms", defaults.write_timeout.as_millis() as usize)?.max(1) as u64,
        ),
        frame_deadline: Duration::from_millis(
            get_num("frame-deadline-ms", defaults.frame_deadline.as_millis() as usize)?.max(1)
                as u64,
        ),
        max_connections: get_num("max-conns", defaults.max_connections)?.max(1),
        shed_queue_wait: flags
            .get("shed-ms")
            .map(|v| v.parse().map(Duration::from_millis).map_err(|_| "bad --shed-ms"))
            .transpose()?,
        dedup_capacity: get_num("dedup", defaults.dedup_capacity)?.max(1),
        // The daemon is long-lived and restartable: converge the cache to a
        // residue-free state after any crash instead of keeping post-mortem
        // copies around forever.
        recover_cache: true,
    };
    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7411");

    let server = Server::bind(addr, cfg.clone()).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    // The exact line scripts wait for (the port matters under --addr ...:0).
    println!(
        "chgraphd listening on {local} ({} workers, queue {})",
        cfg.workers, cfg.queue_capacity
    );

    install_signal(2); // SIGINT
    install_signal(15); // SIGTERM
    let handle = server.shutdown_handle();
    std::thread::spawn(move || {
        while !SIGNALED.load(Ordering::SeqCst) {
            if handle.is_shutdown() {
                return; // protocol-initiated shutdown; nothing to bridge
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        eprintln!("[chgraphd: signal received, draining]");
        handle.shutdown();
    });

    let stats = server.run().map_err(|e| format!("serve: {e}"))?;
    println!(
        "chgraphd drained: {} requests ({} ok, {} failed, {} rejected), uptime {}s",
        stats.requests.received,
        stats.requests.ok,
        stats.requests.failed,
        stats.requests.rejected_overload,
        stats.uptime_secs
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(flags) = parse_flags(&args) else {
        return usage();
    };
    match run(flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
