//! Command-line front end: run any workload on any input under any runtime
//! on the simulated machine, and print the execution report.
//!
//! ```text
//! chgraph-cli run --workload pr --runtime chgraph --dataset WEB
//! chgraph-cli run --workload bfs --runtime hygra --input my.hgr --cores 8
//! chgraph-cli run --workload pr --runtime chgraph --dataset LJ --json
//! chgraph-cli stats --dataset LJ
//! chgraph-cli gen --vertices 10000 --hyperedges 4000 --out my.hgr
//! chgraph-cli submit --addr 127.0.0.1:7411 --workload pr --runtime chgraph --dataset LJ
//! chgraph-cli serve-stats --addr 127.0.0.1:7411
//! ```
//!
//! Input files use the hMETIS-like text format of `hypergraph::io`.
//! `submit` and `serve-stats` talk to a running `chgraphd`; `run --json`
//! emits the same [`chg_serve::RunResult`] schema the daemon replies with,
//! so scripted consumers are agnostic to where a run executed.

use archsim::SystemConfig;
use chg_serve::WireMessage;
use chgraph::{RunConfig, System};
use hyperalgos::{self_check_prepared, try_run_workload_prepared, Workload};
use hypergraph::datasets::Dataset;
use hypergraph::{stats, Hypergraph, Side};
use std::collections::HashMap;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  chgraph-cli run --workload <bfs|pr|mis|bc|cc|kcore|sssp|adsorption>\n\
         \x20                 --runtime <hygra|gla|chgraph|chgraph-hcg|hats-v|prefetcher>\n\
         \x20                 (runtime aliases: hcg = chgraph-hcg, hats = hats-v)\n\
         \x20                 (--dataset <FS|OK|LJ|WEB|OG> | --input <file.hgr>)\n\
         \x20                 [--cores <n>] [--dmax <n>] [--wmin <n>] [--iters <n>]\n\
         \x20                 [--threads <n>]  (host threads for OAG construction;\n\
         \x20                                   default: available parallelism, output\n\
         \x20                                   is bit-identical for any value)\n\
         \x20                 [--validate]     (deep structural checks: input, OAGs,\n\
         \x20                                   and per-schedule chain-cover proofs)\n\
         \x20                 [--self-check]   (diff the result against the naive\n\
         \x20                                   reference implementation)\n\
         \x20                 [--max-cycles <n>]  (watchdog: fail with a typed error\n\
         \x20                                      once the simulated cycle budget\n\
         \x20                                      is exhausted)\n\
         \x20                 [--json]         (emit the chg_serve RunResult schema)\n\
         \x20 chgraph-cli stats (--dataset <..> | --input <file.hgr>)\n\
         \x20 chgraph-cli gen --vertices <n> --hyperedges <n> --out <file.hgr> [--seed <n>]\n\
         \x20 chgraph-cli submit --addr <host:port> --workload <..> --runtime <..>\n\
         \x20                 --dataset <..> [--scale <f>] [--cores <n>] [--dmax <n>]\n\
         \x20                 [--wmin <n>] [--iters <n>] [--max-cycles <n>]\n\
         \x20                 [--max-wall-ms <n>] [--repeat <n>] [--validate]\n\
         \x20                 [--self-check] [--json]\n\
         \x20                 [--retries <n>]      (retry transient failures with\n\
         \x20                                       backoff + jitter; default 1 = none)\n\
         \x20                 [--retry-base-ms <n>] [--request-key <key>]\n\
         \x20 chgraph-cli serve-stats --addr <host:port> [--json]"
    );
    ExitCode::FAILURE
}

fn parse_flags(args: &[String]) -> Option<HashMap<String, String>> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].strip_prefix("--")?;
        // Boolean flags (`--validate`) may appear bare: when the next token
        // is another flag (or absent), the value defaults to "true".
        let value = match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                i += 2;
                v.clone()
            }
            _ => {
                i += 1;
                "true".to_string()
            }
        };
        map.insert(key.to_string(), value);
    }
    Some(map)
}

/// `true` when a boolean flag is present (bare or `--flag true`).
fn flag_on(flags: &HashMap<String, String>, key: &str) -> bool {
    flags.get(key).map(String::as_str) == Some("true")
}

fn load_input(flags: &HashMap<String, String>) -> Result<Hypergraph, String> {
    if let Some(ds) = flags.get("dataset") {
        let dataset = Dataset::ALL
            .into_iter()
            .find(|d| d.abbrev().eq_ignore_ascii_case(ds))
            .ok_or_else(|| format!("unknown dataset {ds:?}"))?;
        return Ok(dataset.load());
    }
    if let Some(path) = flags.get("input") {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        return hypergraph::io::read_text(std::io::BufReader::new(file))
            .map_err(|e| format!("parse {path}: {e}"));
    }
    Err("need --dataset or --input".into())
}

fn cmd_run(flags: HashMap<String, String>) -> Result<(), String> {
    let mut g = load_input(&flags)?;
    let workload = flags
        .get("workload")
        .and_then(|w| Workload::from_name(w))
        .ok_or("missing or unknown --workload")?;
    let system = flags
        .get("runtime")
        .and_then(|r| System::from_name(r))
        .ok_or("missing or unknown --runtime")?;
    let mut cfg = RunConfig::new().with_oag_build_threads(chg_bench::default_threads());
    if let Some(t) = flags.get("threads") {
        cfg = cfg.with_oag_build_threads(t.parse().map_err(|_| "bad --threads")?);
    }
    if let Some(c) = flags.get("cores") {
        let cores: usize = c.parse().map_err(|_| "bad --cores")?;
        cfg = cfg.with_system(SystemConfig::scaled(cores));
    }
    if let Some(d) = flags.get("dmax") {
        cfg = cfg.with_chain(oag::ChainConfig::new(d.parse().map_err(|_| "bad --dmax")?));
    }
    if let Some(w) = flags.get("wmin") {
        cfg = cfg.with_oag(oag::OagConfig::new().with_w_min(w.parse().map_err(|_| "bad --wmin")?));
    }
    if let Some(n) = flags.get("iters") {
        cfg = cfg.with_max_iterations(n.parse().map_err(|_| "bad --iters")?);
    }
    if flag_on(&flags, "validate") {
        cfg = cfg.with_validate(true);
    }
    if let Some(n) = flags.get("max-cycles") {
        cfg = cfg.with_max_cycles(n.parse().map_err(|_| "bad --max-cycles")?);
    }
    if flag_on(&flags, "partition") {
        let parts = hypergraph::partition::streaming_partition(&g, cfg.system.num_cores);
        let (reordered, _) = hypergraph::partition::apply_hyperedge_partition(&g, &parts);
        g = reordered;
        println!("applied overlap-aware partitioning into {} parts", cfg.system.num_cores);
    }
    let json = flag_on(&flags, "json");
    if !json {
        println!(
            "input: {} vertices, {} hyperedges, {} bipartite edges\n",
            g.num_vertices(),
            g.num_hyperedges(),
            g.num_bipartite_edges()
        );
    }
    let self_checked = flag_on(&flags, "self-check");
    let started = std::time::Instant::now();
    let report = if self_checked {
        let checked =
            self_check_prepared(workload, &system, &g, &cfg, None).map_err(|e| format!("{e}"))?;
        if !json {
            println!(
                "self-check passed: {} elements match the reference\n",
                checked.elements_checked
            );
        }
        checked.report
    } else {
        try_run_workload_prepared(workload, &system, &g, &cfg, None).map_err(|e| format!("{e}"))?
    };
    if json {
        // The same RunResult schema a daemon reply carries; a local run has
        // no artifact store, and its preparation happens inside execution.
        let result = chg_serve::run_result_from_report(
            &report,
            self_checked,
            chg_serve::ArtifactSource::NotApplicable,
            0,
            started.elapsed().as_micros() as u64,
        );
        print!("{}", result.to_json().pretty());
    } else {
        print!("{report}");
    }
    Ok(())
}

fn cmd_submit(flags: HashMap<String, String>) -> Result<(), String> {
    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7411");
    let workload = flags.get("workload").ok_or("missing --workload")?;
    let runtime = flags.get("runtime").ok_or("missing --runtime")?;
    let dataset = flags.get("dataset").ok_or("missing --dataset")?;
    let mut req = chg_serve::RunRequest::new(workload.clone(), runtime.clone(), dataset.clone());
    if let Some(v) = flags.get("scale") {
        req.scale = v.parse().map_err(|_| "bad --scale")?;
    }
    if let Some(v) = flags.get("cores") {
        req.cores = Some(v.parse().map_err(|_| "bad --cores")?);
    }
    if let Some(v) = flags.get("wmin") {
        req.wmin = Some(v.parse().map_err(|_| "bad --wmin")?);
    }
    if let Some(v) = flags.get("dmax") {
        req.dmax = Some(v.parse().map_err(|_| "bad --dmax")?);
    }
    if let Some(v) = flags.get("iters") {
        req.iters = Some(v.parse().map_err(|_| "bad --iters")?);
    }
    if let Some(v) = flags.get("max-cycles") {
        req.max_cycles = Some(v.parse().map_err(|_| "bad --max-cycles")?);
    }
    if let Some(v) = flags.get("max-wall-ms") {
        req.max_wall_ms = Some(v.parse().map_err(|_| "bad --max-wall-ms")?);
    }
    if let Some(v) = flags.get("repeat") {
        req.repeat = v.parse().map_err(|_| "bad --repeat")?;
    }
    req.self_check = flag_on(&flags, "self-check");
    req.validate = flag_on(&flags, "validate");
    req.request_key = flags.get("request-key").cloned();
    let retries: u32 = match flags.get("retries") {
        Some(v) => v.parse().map_err(|_| "bad --retries")?,
        None => 1,
    };
    let result = if retries > 1 {
        let mut policy = chg_serve::RetryPolicy::with_attempts(retries);
        if let Some(v) = flags.get("retry-base-ms") {
            policy.base =
                std::time::Duration::from_millis(v.parse().map_err(|_| "bad --retry-base-ms")?);
        }
        let outcome =
            chg_serve::Client::run_with_retry(addr, req, policy).map_err(|e| format!("{e}"))?;
        if outcome.attempts > 1 {
            eprintln!(
                "[submit: succeeded on attempt {} after {} ms of backoff]",
                outcome.attempts,
                outcome.backoff_total.as_millis()
            );
        }
        outcome.result
    } else {
        let mut client =
            chg_serve::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        client.run(req).map_err(|e| format!("{e}"))?
    };
    if flag_on(&flags, "json") {
        print!("{}", result.to_json().pretty());
    } else {
        println!("runtime:          {}", result.runtime);
        println!("algorithm:        {}", result.algorithm);
        println!("iterations:       {}", result.iterations);
        println!("cycles:           {}", result.cycles);
        println!("dram accesses:    {}", result.dram_accesses);
        println!("fingerprint:      {}", result.fingerprint);
        println!("artifact source:  {}", result.artifact_source.as_str());
        println!("self-checked:     {}", result.self_checked);
        println!("prepare latency:  {} us", result.prepare_micros);
        println!("execute latency:  {} us", result.execute_micros);
    }
    Ok(())
}

fn cmd_serve_stats(flags: HashMap<String, String>) -> Result<(), String> {
    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7411");
    let mut client =
        chg_serve::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let stats = client.stats().map_err(|e| format!("{e}"))?;
    if flag_on(&flags, "json") {
        print!("{}", stats.to_json().pretty());
        return Ok(());
    }
    println!("uptime:          {} s", stats.uptime_secs);
    println!("workers:         {}", stats.workers);
    println!(
        "queue:           {} in flight / {} capacity",
        stats.queue_depth, stats.queue_capacity
    );
    let r = &stats.requests;
    println!(
        "requests:        {} received ({} ok, {} failed, {} overloaded, {} protocol errors)",
        r.received, r.ok, r.failed, r.rejected_overload, r.protocol_errors
    );
    println!(
        "resilience:      {} deduped (request_key), {} shed (degraded mode)",
        r.deduped, r.shed
    );
    let c = &stats.closes;
    println!(
        "closes by cause: {} clean, {} read-timeout, {} write-timeout, {} frame-deadline, \
         {} reset, {} protocol, {} conn-cap",
        c.clean, c.read_timeout, c.write_timeout, c.frame_deadline, c.reset, c.protocol, c.conn_cap
    );
    let a = &stats.artifacts;
    println!(
        "artifact LRU:    graphs {} hit / {} miss, oags {} hit / {} miss, {} coalesced, {} evicted",
        a.graph_hits, a.graph_misses, a.oag_hits, a.oag_misses, a.coalesced, a.evictions
    );
    let d = &stats.disk_cache;
    if d.enabled {
        println!(
            "disk cache:      graphs {} hit / {} miss, oags {} hit / {} miss, {} quarantined",
            d.graph_hits, d.graph_misses, d.oag_hits, d.oag_misses, d.quarantined
        );
    } else {
        println!("disk cache:      disabled");
    }
    for (name, l) in [
        ("prepare", &stats.prepare_latency),
        ("execute", &stats.execute_latency),
        ("total", &stats.total_latency),
        ("queue", &stats.queue_wait_latency),
    ] {
        println!(
            "{name:<8} latency: p50 {} / p95 {} / p99 {} / max {} us ({} samples)",
            l.p50_micros, l.p95_micros, l.p99_micros, l.max_micros, l.count
        );
    }
    Ok(())
}

fn cmd_stats(flags: HashMap<String, String>) -> Result<(), String> {
    let g = load_input(&flags)?;
    println!("vertices:        {}", g.num_vertices());
    println!("hyperedges:      {}", g.num_hyperedges());
    println!("bipartite edges: {}", g.num_bipartite_edges());
    for side in [Side::Vertex, Side::Hyperedge] {
        let d = stats::degree_stats(&g, side);
        println!(
            "{side} degrees:  min {} / median {} / mean {:.1} / max {}",
            d.min, d.median, d.mean, d.max
        );
    }
    for k in [2usize, 4, 7] {
        println!(
            "shared by >= {k} hyperedges: {:.1}% of vertices",
            stats::sharable_ratio(&g, Side::Vertex, k) * 100.0
        );
    }
    Ok(())
}

fn cmd_gen(flags: HashMap<String, String>) -> Result<(), String> {
    let nv: usize = flags.get("vertices").and_then(|v| v.parse().ok()).ok_or("bad --vertices")?;
    let nh: usize =
        flags.get("hyperedges").and_then(|v| v.parse().ok()).ok_or("bad --hyperedges")?;
    let seed: u64 = flags.get("seed").and_then(|v| v.parse().ok()).unwrap_or(42);
    let out = flags.get("out").ok_or("missing --out")?;
    let g = hypergraph::generate::GeneratorConfig::new(nv, nh).with_seed(seed).generate();
    let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    hypergraph::io::write_text(&g, std::io::BufWriter::new(file))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} ({} bipartite edges)", out, g.num_bipartite_edges());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(flags) = parse_flags(rest) else {
        return usage();
    };
    // Panic isolation: a workload or simulator bug becomes a clean error
    // exit with a message, never an abort trace reaching the caller.
    let result = std::panic::catch_unwind(move || match cmd.as_str() {
        "run" => Some(cmd_run(flags)),
        "stats" => Some(cmd_stats(flags)),
        "gen" => Some(cmd_gen(flags)),
        "submit" => Some(cmd_submit(flags)),
        "serve-stats" => Some(cmd_serve_stats(flags)),
        _ => None,
    });
    match result {
        Ok(None) => usage(),
        Ok(Some(Ok(()))) => ExitCode::SUCCESS,
        Ok(Some(Err(e))) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            eprintln!("error: internal panic: {msg}");
            ExitCode::FAILURE
        }
    }
}
