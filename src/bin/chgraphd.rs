//! `chgraphd` — the long-lived chgraph query daemon.
//!
//! ```text
//! chgraphd --addr 127.0.0.1:7411 --workers 4 --cache-dir .chgraph-cache
//! ```
//!
//! Accepts run requests (dataset × algorithm × runtime × configuration)
//! over the `chg_serve` protocol, executes each on its connection's thread,
//! and keeps hot prepared artifacts in an in-memory LRU backed by the
//! on-disk preprocess cache. `chgraph-cli submit` / `serve-stats` are the
//! matching clients. At most `--workers` runs execute at once; up to
//! `--queue` more wait for a slot in arrival order, and a run beyond them is
//! answered `overloaded`. A missing OAG pair is built serially by the run
//! that first requests it, so `--workers` bounds the daemon's simulation
//! parallelism. Any flag the usage text does not list is rejected with
//! the usage and a non-zero exit.
//!
//! SIGINT and SIGTERM trigger a graceful drain: intake stops, waiting and
//! executing runs finish and reply, and the process exits 0. A protocol
//! `shutdown` request does the same (the script-friendly path).

use chg_serve::{ServeConfig, Server};
use chgraph::WatchdogConfig;
use std::collections::HashMap;
use std::io::Read;
use std::os::fd::IntoRawFd;
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicI32, Ordering};
use std::time::Duration;

/// Write end of the self-pipe the signal handler wakes the bridge through.
static SIGNAL_PIPE: AtomicI32 = AtomicI32::new(-1);

/// Installs a graceful-shutdown handler for SIGINT and SIGTERM via the C
/// `signal` symbol std already links, avoiding any new dependency, and
/// returns the read end of a self-pipe: each signal writes one byte to it.
/// The handler body is one `write`, which is async-signal-safe; the write
/// end is non-blocking, so a signal never blocks in the handler (with the
/// pipe full, the byte is dropped and the bridge is already awake).
fn install_signals() -> std::io::Result<UnixStream> {
    extern "C" fn on_signal(_signum: i32) {
        let byte = 1u8;
        // SAFETY: `write` reads one byte from a live local; the descriptor
        // was stored before the handler was installed and is never closed.
        unsafe {
            write(SIGNAL_PIPE.load(Ordering::SeqCst), &byte, 1);
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
    let (reader, writer) = UnixStream::pair()?;
    writer.set_nonblocking(true)?;
    SIGNAL_PIPE.store(writer.into_raw_fd(), Ordering::SeqCst);
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    for signum in [SIGINT, SIGTERM] {
        // SAFETY: `on_signal` is an `extern "C" fn(i32)`, the handler type
        // `signal` expects, and does only async-signal-safe work.
        unsafe {
            signal(signum, on_signal as *const () as usize);
        }
    }
    Ok(reader)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  chgraphd [--addr <host:port>]   (default 127.0.0.1:7411; port 0 = ephemeral)\n\
         \x20          [--workers <n>]         (runs executed at once, default 2)\n\
         \x20          [--queue <n>]           (runs that may wait for a slot, default 16)\n\
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
    // Installed before the address line, so a script that signals as soon
    // as it reads that line always gets the graceful drain.
    let mut signals = install_signals().map_err(|e| format!("signal pipe: {e}"))?;
    let handle = server.shutdown_handle();
    // Blocks until the first signal; after a protocol shutdown the process
    // exits with this thread still waiting.
    std::thread::spawn(move || {
        if signals.read_exact(&mut [0u8]).is_ok() {
            eprintln!("[chgraphd: signal received, draining]");
            handle.shutdown();
        }
    });
    // The exact line scripts wait for (the port matters under --addr ...:0).
    println!(
        "chgraphd listening on {local} ({} workers, queue {})",
        cfg.workers, cfg.queue_capacity
    );

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
