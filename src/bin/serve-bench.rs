//! Load generator for `chgraphd`, emitting a JSON load record.
//!
//! ```text
//! serve-bench --clients 4 --requests 32 --scale 0.05 --out serve-bench.json
//! serve-bench --addr 127.0.0.1:7411 ...   (drive an external daemon instead)
//! ```
//!
//! By default it hosts the service in-process on an ephemeral port (so the
//! record is reproducible with one command), drives it with concurrent
//! client connections cycling through a workload × runtime mix, and writes
//! throughput plus client-observed p50/p95/p99 latency — alongside the
//! server's own stats snapshot and the host metadata that makes the record
//! interpretable later ([`chg_bench::HostMeta`]).
//!
//! Latency percentiles here are exact (client-side, sorted samples), unlike
//! the server's ≤2× log-bucketed histogram; the JSON carries both so the
//! two views can be cross-checked.

use chg_bench::HostMeta;
use chg_serve::json::Json;
use chg_serve::{
    ChaosPolicy, ChaosProxy, Client, FaultPlan, RetryPolicy, RunRequest, ServeConfig, Server,
    WireMessage,
};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The request mix: 2 algorithms × 2 runtimes, per the CI smoke matrix.
const MIX: [(&str, &str); 4] =
    [("pr", "chgraph"), ("pr", "hygra"), ("bfs", "chgraph"), ("bfs", "hygra")];

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  serve-bench [--addr <host:port>]  (default: in-process server, ephemeral port)\n\
         \x20            [--clients <n>]      (concurrent connections, default 4)\n\
         \x20            [--requests <n>]     (requests per client, default 24)\n\
         \x20            [--dataset <abbrev>] (default LJ)\n\
         \x20            [--scale <f>]        (dataset scale, default 0.05)\n\
         \x20            [--workers <n>]      (in-process server workers, default 2)\n\
         \x20            [--chaos-seed <n>]   (route clients through the seeded fault\n\
         \x20                                  proxy; same seed = same fault schedule)\n\
         \x20            [--error-rate <f>]   (fraction of faulted connections under\n\
         \x20                                  chaos, default 0.25)\n\
         \x20            [--retries <n>]      (attempts per request; default 5 under\n\
         \x20                                  chaos, 1 otherwise)\n\
         \x20            [--out <file>]       (default serve-bench.json)"
    );
    ExitCode::FAILURE
}

fn parse_flags(args: &[String]) -> Option<HashMap<String, String>> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].strip_prefix("--")?;
        let value = args.get(i + 1)?.clone();
        map.insert(key.to_string(), value);
        i += 2;
    }
    Some(map)
}

/// Exact client-side percentile: nearest-rank on sorted micros.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[derive(Default)]
struct ClientOutcome {
    latencies_micros: Vec<u64>,
    errors: usize,
    /// Errors whose classification permitted a retry (exhausted budget).
    retryable_errors: usize,
    /// Errors that terminated immediately (bad request, failed run, ...).
    terminal_errors: usize,
    /// Attempts beyond the first, summed over successful requests.
    extra_attempts: u64,
    /// Requests that needed more than one attempt to succeed.
    retried_requests: u64,
}

/// One client issuing its share of the mix sequentially. With `retries`
/// above 1 each request goes through [`Client::run_with_retry`] (fresh
/// connection per attempt, seeded backoff, per-request idempotency key);
/// otherwise one persistent connection issues plain runs.
fn drive_client(
    addr: std::net::SocketAddr,
    client_idx: usize,
    requests: usize,
    dataset: &str,
    scale: f64,
    retries: u32,
    retry_seed: u64,
) -> ClientOutcome {
    let mut outcome = ClientOutcome::default();
    let mut persistent = if retries <= 1 {
        match Client::connect_ready(addr, Duration::from_secs(10)) {
            Ok(c) => Some(c),
            Err(_) => {
                outcome.errors = requests;
                return outcome;
            }
        }
    } else {
        None
    };
    for i in 0..requests {
        let (workload, runtime) = MIX[(client_idx + i) % MIX.len()];
        let mut req = RunRequest::new(workload, runtime, dataset);
        req.scale = scale;
        req.iters = Some(4);
        let start = Instant::now();
        let result = match &mut persistent {
            Some(client) => client.run(req).map(|_| 1u32),
            None => {
                // A unique key per logical request: retries of *this*
                // request dedup on the server; distinct requests do not.
                req.request_key = Some(format!("bench-{retry_seed:x}-{client_idx}-{i}"));
                let policy = RetryPolicy::with_attempts(retries)
                    .with_seed(retry_seed ^ ((client_idx as u64) << 32) ^ i as u64);
                Client::run_with_retry(addr, req, policy).map(|o| o.attempts)
            }
        };
        match result {
            Ok(attempts) => {
                outcome.latencies_micros.push(start.elapsed().as_micros() as u64);
                outcome.extra_attempts += u64::from(attempts.saturating_sub(1));
                if attempts > 1 {
                    outcome.retried_requests += 1;
                }
            }
            Err(e) => {
                outcome.errors += 1;
                if e.is_retryable() {
                    outcome.retryable_errors += 1;
                } else {
                    outcome.terminal_errors += 1;
                }
            }
        }
    }
    outcome
}

/// Stable label for a fault plan, for the per-kind breakdown.
fn plan_kind(plan: &FaultPlan) -> &'static str {
    match plan {
        FaultPlan::Clean => "clean",
        FaultPlan::Refuse => "refuse",
        FaultPlan::Delay { .. } => "delay",
        FaultPlan::Drip { .. } => "drip",
        FaultPlan::Reset { .. } => "reset",
        FaultPlan::Truncate { .. } => "truncate",
        FaultPlan::Duplicate { .. } => "duplicate",
        FaultPlan::Split { .. } => "split",
    }
}

fn run(flags: HashMap<String, String>) -> Result<(), String> {
    let get_num = |key: &str, default: usize| -> Result<usize, String> {
        match flags.get(key) {
            Some(v) => v.parse().map_err(|_| format!("bad --{key}")),
            None => Ok(default),
        }
    };
    let clients = get_num("clients", 4)?.max(1);
    let requests = get_num("requests", 24)?.max(1);
    let dataset = flags.get("dataset").cloned().unwrap_or_else(|| "LJ".to_string());
    let scale: f64 =
        flags.get("scale").map_or(Ok(0.05), |v| v.parse().map_err(|_| "bad --scale"))?;
    let out_path = flags.get("out").cloned().unwrap_or_else(|| "serve-bench.json".to_string());
    let chaos_seed: Option<u64> =
        flags.get("chaos-seed").map(|v| v.parse().map_err(|_| "bad --chaos-seed")).transpose()?;
    let error_rate: f64 =
        flags.get("error-rate").map_or(Ok(0.25), |v| v.parse().map_err(|_| "bad --error-rate"))?;
    let retries: u32 = match flags.get("retries") {
        Some(v) => v.parse().map_err(|_| "bad --retries")?,
        None => {
            if chaos_seed.is_some() {
                5
            } else {
                1
            }
        }
    };
    if chaos_seed.is_some() && retries <= 1 {
        return Err("--chaos-seed needs --retries > 1 (faulted requests must be retryable)".into());
    }

    // Either drive an external daemon or host the service in-process.
    let (upstream, in_process) = match flags.get("addr") {
        Some(a) => {
            let addr = a
                .parse::<std::net::SocketAddr>()
                .map_err(|_| format!("bad --addr {a:?} (need host:port)"))?;
            (addr, None)
        }
        None => {
            let cfg = ServeConfig {
                workers: get_num("workers", 2)?.max(1),
                queue_capacity: (clients * 2).max(16),
                ..ServeConfig::default()
            };
            let server =
                Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind ephemeral: {e}"))?;
            let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
            (addr, Some(std::thread::spawn(move || server.run())))
        }
    };

    // Under chaos, measured clients go through the fault proxy; warmup,
    // stats, and shutdown keep a clean path to the daemon itself.
    let proxy = match chaos_seed {
        Some(seed) => Some(
            ChaosProxy::spawn(upstream, ChaosPolicy::new(seed, error_rate))
                .map_err(|e| format!("chaos proxy: {e}"))?,
        ),
        None => None,
    };
    let addr = proxy.as_ref().map_or(upstream, |p| p.addr());

    // Warmup: populate the artifact LRU so the measured window reports
    // steady-state (served-from-memory) latency, which is the quantity a
    // resident service exists to provide.
    {
        let mut warm = Client::connect_ready(upstream, Duration::from_secs(10))
            .map_err(|e| format!("connect {upstream}: {e}"))?;
        for (workload, runtime) in MIX {
            let mut req = RunRequest::new(workload, runtime, dataset.as_str());
            req.scale = scale;
            req.iters = Some(4);
            warm.run(req).map_err(|e| format!("warmup {workload}/{runtime}: {e}"))?;
        }
    }

    let chaos_note = match chaos_seed {
        Some(seed) => format!(", chaos seed {seed} @ error rate {error_rate}"),
        None => String::new(),
    };
    eprintln!(
        "serve-bench: {clients} clients x {requests} requests, dataset {dataset} @ {scale}, \
         {addr}{chaos_note}"
    );
    let started = Instant::now();
    let retry_seed = chaos_seed.unwrap_or(1);
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|idx| {
                let dataset = dataset.as_str();
                s.spawn(move || {
                    drive_client(addr, idx, requests, dataset, scale, retries, retry_seed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = started.elapsed();

    let mut latencies: Vec<u64> =
        outcomes.iter().flat_map(|o| o.latencies_micros.clone()).collect();
    latencies.sort_unstable();
    let errors: usize = outcomes.iter().map(|o| o.errors).sum();
    let completed = latencies.len();
    let throughput = completed as f64 / elapsed.as_secs_f64();

    // Final server-side stats, then (if we own it) drain and join. Both go
    // straight to the daemon, never through the fault proxy.
    let mut stats_client =
        Client::connect_ready(upstream, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    let stats = stats_client.stats().map_err(|e| format!("stats: {e}"))?;
    // Stop injecting before the drain so no pump thread races the daemon's
    // teardown.
    let fault_events = proxy.map(|mut p| {
        p.stop();
        p.events()
    });
    if let Some(handle) = in_process {
        stats_client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
    }

    let retryable_errors: usize = outcomes.iter().map(|o| o.retryable_errors).sum();
    let terminal_errors: usize = outcomes.iter().map(|o| o.terminal_errors).sum();
    let extra_attempts: u64 = outcomes.iter().map(|o| o.extra_attempts).sum();
    let retried_requests: u64 = outcomes.iter().map(|o| o.retried_requests).sum();
    let fault_breakdown = fault_events.as_ref().map(|events| {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for event in events {
            let kind = plan_kind(&event.plan);
            match counts.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => counts.push((kind, 1)),
            }
        }
        counts
    });

    let host = HostMeta::collect();
    let doc = Json::obj(vec![
        (
            "description",
            Json::Str(
                "Steady-state load test of chgraphd: concurrent clients cycling a 2-workload x \
                 2-runtime mix against a warmed prepared-artifact LRU. Latency percentiles are \
                 exact client-observed round-trip times; `server_stats` is the daemon's own \
                 snapshot (log2-bucketed latency, <=2x resolution) for cross-checking."
                    .into(),
            ),
        ),
        ("command", Json::Str(format!(
            "cargo run --release --bin serve-bench -- --clients {clients} --requests {requests} --dataset {dataset} --scale {scale}{}",
            match chaos_seed {
                Some(seed) => format!(" --chaos-seed {seed} --error-rate {error_rate} --retries {retries}"),
                None => String::new(),
            }
        ))),
        (
            "host",
            Json::obj(vec![
                ("cpu", Json::Str(host.cpu)),
                ("available_cores", Json::U64(host.available_cores as u64)),
                ("os", Json::Str(host.os)),
                ("arch", Json::Str(host.arch)),
                ("unix_timestamp", Json::U64(host.unix_timestamp)),
                ("timestamp_source", Json::Str(host.timestamp_source)),
            ]),
        ),
        (
            "load",
            Json::obj(vec![
                ("clients", Json::U64(clients as u64)),
                ("requests_per_client", Json::U64(requests as u64)),
                ("dataset", Json::Str(dataset.clone())),
                ("scale", Json::F64(scale)),
                (
                    "mix",
                    Json::Arr(
                        MIX.iter()
                            .map(|(w, r)| Json::Str(format!("{w}/{r}")))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "results",
            Json::obj(vec![
                ("completed", Json::U64(completed as u64)),
                ("errors", Json::U64(errors as u64)),
                ("wall_seconds", Json::F64(elapsed.as_secs_f64())),
                ("throughput_rps", Json::F64(throughput)),
                ("p50_micros", Json::U64(percentile(&latencies, 0.50))),
                ("p95_micros", Json::U64(percentile(&latencies, 0.95))),
                ("p99_micros", Json::U64(percentile(&latencies, 0.99))),
                ("max_micros", Json::U64(latencies.last().copied().unwrap_or(0))),
            ]),
        ),
        (
            "resilience",
            Json::obj(vec![
                ("chaos_enabled", Json::Bool(chaos_seed.is_some())),
                (
                    "chaos_seed",
                    chaos_seed.map_or(Json::Null, Json::U64),
                ),
                (
                    "error_rate",
                    if chaos_seed.is_some() { Json::F64(error_rate) } else { Json::Null },
                ),
                ("retries", Json::U64(u64::from(retries))),
                ("retried_requests", Json::U64(retried_requests)),
                ("extra_attempts", Json::U64(extra_attempts)),
                ("retryable_errors", Json::U64(retryable_errors as u64)),
                ("terminal_errors", Json::U64(terminal_errors as u64)),
                (
                    "fault_plans",
                    fault_breakdown.map_or(Json::Null, |counts| {
                        Json::obj(
                            counts.into_iter().map(|(k, n)| (k, Json::U64(n))).collect(),
                        )
                    }),
                ),
            ]),
        ),
        ("server_stats", stats.to_json()),
    ]);
    std::fs::write(&out_path, doc.pretty()).map_err(|e| format!("write {out_path}: {e}"))?;
    eprintln!(
        "serve-bench: {completed} ok / {errors} err in {:.2}s ({throughput:.1} req/s) -> {out_path}",
        elapsed.as_secs_f64()
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
