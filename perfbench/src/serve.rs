//! `serve`: a closed loop of two persistent client connections driving an
//! in-process `chg_serve::Server` (two workers, ephemeral port).
//!
//! No traffic record exists in the repository, so this is a synthetic
//! coverage mix: one hit class and one miss class, each chosen for a
//! property the traced run shows.
//!
//! - Hit class (7 in 8 requests): `serve-bench`'s default shape, BFS under
//!   ChGraph on LJ at scale 0.05 (its `--dataset`/`--scale` defaults and one
//!   entry of its mix). Warmed in setup, so every hit is an LRU hit, execute
//!   takes a few ms, and the wire, codec and queue share is visible. Latency
//!   percentiles stay inside this class.
//! - Miss class (1 in 8): PageRank, the other `serve-bench` workload, at one
//!   iteration, on one key per dataset at a smaller scale. The two-entry
//!   graph and OAG LRUs hold the hit key and one miss key, so a miss evicts
//!   the miss key before it, and a key that comes back is restored from the
//!   disk cache: the write-beside-read use of the LRU and of `bench::cache`
//!   (traced at seeds 0, 3 and 11: `serve.disk_hit_rate` 1, with 31 to 42
//!   LRU evictions and 46 to 63 disk-cache hits per pass of 20 misses).
//!
//! The seed picks the order of each client's requests.

use crate::common::{
    checked, peak_rss_mib, reset_peak_rss, sim_ratios, timed_loop, Counts, Outcome, Rng, Rt,
};
use crate::layers::{per_layer, ServeLayers};
use crate::stats::{geomean, median, overhead_micros, percentile, supported_percentile};
use crate::trace::{Open, Tracer};
use chg_bench::{load_scaled, PreprocessCache, Scale};
use chg_serve::proto::{fingerprint_report, recv, send};
use chg_serve::{
    Client, Request, Response, RunRequest, RunResult, ServeConfig, Server, StatsReport,
};
use chgraph::{ExecutionReport, RunConfig};
use hyperalgos::Workload;
use hypergraph::datasets::Dataset;
use hypergraph::Side;
use oag::OagConfig;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Requests each client sends per pass. Passes are short, so a run times
/// many and its median pass is steady.
const PER_CLIENT: usize = 80;
/// One request in this many is from the miss class: 10 of each client's
/// 80 per pass, so each of the five miss keys comes back twice per client
/// per pass, with other miss keys in between to evict it.
const MISS_ONE_IN: usize = 8;
/// Below the hit scale, so LJ's miss key is a distinct graph as well as a
/// distinct OAG, and a miss (restore plus one PR iteration) stays within a
/// few hit round trips.
const MISS_SCALE: f64 = 0.03;
const HIT_DATASET: Dataset = Dataset::LiveJournal;
const HIT_SCALE: f64 = 0.05;
/// Entries per artifact LRU: the hit key and one miss key.
const LRU_ENTRIES: usize = 2;
/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Hit-class requests that warm each started server, split over the clients.
const WARM_REQUESTS: usize = 64;
/// Encode/decode round trips timed for `serve.codec_us`.
const CODEC_REPS: u32 = 2000;

/// The distinct requests: index 0 is the hit class, then one PR miss key
/// per dataset.
fn request_set() -> Vec<RunRequest> {
    let mut hit = RunRequest::new("bfs", "chgraph", HIT_DATASET.abbrev());
    hit.scale = HIT_SCALE;
    let misses = Dataset::ALL.into_iter().map(|ds| {
        let mut r = RunRequest::new("pr", "chgraph", ds.abbrev());
        r.scale = MISS_SCALE;
        r.iters = Some(1);
        r
    });
    std::iter::once(hit).chain(misses).collect()
}

/// Each client's request sequence, as indices into the request set: an
/// exact miss share, spread evenly over the miss keys, in seeded order.
fn scripts(seed: u64, keys: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed ^ 0xC11E7);
    (0..CLIENTS)
        .map(|c| {
            let mut script: Vec<usize> =
                (0..PER_CLIENT)
                    .map(|j| {
                        if j % MISS_ONE_IN == 0 {
                            1 + (j / MISS_ONE_IN + c) % (keys - 1)
                        } else {
                            0
                        }
                    })
                    .collect();
            for i in (1..script.len()).rev() {
                script.swap(i, rng.below(i + 1));
            }
            script
        })
        .collect()
}

fn dataset(req: &RunRequest) -> Dataset {
    Dataset::ALL
        .into_iter()
        .find(|d| d.abbrev() == req.dataset)
        .expect("request set uses dataset abbreviations")
}

fn workload(req: &RunRequest) -> Workload {
    match req.workload.as_str() {
        "bfs" => Workload::Bfs,
        _ => Workload::Pr,
    }
}

/// The library configuration the server derives from `req`.
fn library_config(req: &RunRequest) -> RunConfig {
    let mut cfg = RunConfig::new();
    if let Some(w) = req.wmin {
        cfg = cfg.with_oag(OagConfig::new().with_w_min(w));
    }
    if let Some(n) = req.iters {
        cfg = cfg.with_max_iterations(n);
    }
    cfg
}

/// The library twin of each distinct request, self-checked against the
/// naive reference, plus the Hygra baseline of the same request.
fn library_twins(
    requests: &[RunRequest],
    out: &mut Outcome,
) -> Vec<Option<(ExecutionReport, ExecutionReport)>> {
    requests
        .iter()
        .map(|req| {
            let g = load_scaled(dataset(req), Scale(req.scale));
            let cfg = library_config(req);
            let run = |rt| checked(workload(req), rt, &g, &cfg, None);
            match (run(Rt::ChGraph), run(Rt::Hygra)) {
                (Ok(c), Ok(h)) => Some((c, h)),
                (Err(e), _) | (_, Err(e)) => {
                    out.fail(e);
                    None
                }
            }
        })
        .collect()
}

struct Running {
    handle: JoinHandle<std::io::Result<StatsReport>>,
    control: Client,
    /// One persistent connection per closed-loop client.
    clients: Vec<Client>,
}

impl Running {
    fn stop(mut self) -> Result<StatsReport, String> {
        drop(self.clients);
        self.control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        drop(self.control);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// Starts a server on `cache_dir` and connects the clients. With `warm`,
/// the disk cache starts empty and the hit-class artifacts are warmed;
/// without, the server starts on the cache as it is and serves nothing
/// before the clients do, so its stats cover only their requests.
fn start(cache_dir: &Path, hit: &RunRequest, warm: bool) -> Result<Running, String> {
    if warm {
        let _ = std::fs::remove_dir_all(cache_dir);
    }
    let cfg = ServeConfig {
        workers: WORKERS,
        graph_lru: LRU_ENTRIES,
        oag_lru: LRU_ENTRIES,
        cache_dir: Some(cache_dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    let handle = std::thread::spawn(move || server.run());
    let connect = || {
        Client::connect_ready(addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))
    };
    let control = connect()?;
    let mut clients = (0..CLIENTS).map(|_| connect()).collect::<Result<Vec<_>, _>>()?;
    if warm {
        // Every client warms at once, so setup uses every worker and core.
        std::thread::scope(|s| {
            let warmers: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    s.spawn(move || {
                        for _ in 0..WARM_REQUESTS / CLIENTS {
                            client.run(hit.clone()).map_err(|e| format!("warm-up: {e}"))?;
                        }
                        Ok::<(), String>(())
                    })
                })
                .collect();
            warmers.into_iter().try_for_each(|w| w.join().expect("warm-up client panicked"))
        })?;
    }
    Ok(Running { handle, control, clients })
}

/// One client-observed request.
struct Sample {
    key: usize,
    rtt_us: u64,
    reply: Result<RunResult, String>,
}

/// One pass: every client runs its script on its own connection.
fn pass(
    clients: &mut [Client],
    scripts: &[Vec<usize>],
    requests: &[RunRequest],
    tracers: &mut [Tracer],
    pass_id: u64,
) -> (f64, Vec<Sample>) {
    let start = Instant::now();
    let samples = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(scripts)
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(c, ((client, script), tracer))| {
                s.spawn(move || {
                    let mut samples = Vec::with_capacity(script.len());
                    for (j, &key) in script.iter().enumerate() {
                        let id =
                            (pass_id * CLIENTS as u64 + c as u64) * PER_CLIENT as u64 + j as u64;
                        let t = Instant::now();
                        let reply = tracer.span("serve.rtt", id, Open::ROOT, || {
                            client.run(requests[key].clone())
                        });
                        let rtt_us = t.elapsed().as_micros() as u64;
                        samples.push(Sample {
                            key,
                            rtt_us,
                            reply: reply.map_err(|e| e.to_string()),
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (start.elapsed().as_secs_f64(), samples)
}

/// Passes until `seconds` have elapsed: their walls and every sample.
fn measure(
    clients: &mut [Client],
    scripts: &[Vec<usize>],
    requests: &[RunRequest],
    tracers: &mut [Tracer],
    seconds: f64,
    pass_id: &mut u64,
) -> (Vec<f64>, Vec<Sample>) {
    let mut samples = Vec::new();
    let walls = timed_loop(seconds, || {
        let (wall, s) = pass(clients, scripts, requests, tracers, *pass_id);
        *pass_id += 1;
        samples.extend(s);
        wall
    });
    (walls, samples)
}

/// Checks every reply: fingerprint against the library twin, and the
/// ledger (round trip covers prepare + execute).
fn verify(samples: &[Sample], expected: &[Option<String>], out: &mut Outcome) {
    for s in samples {
        out.attempted += 1;
        match &s.reply {
            Err(e) => out.fail(format!("request {}: {e}", s.key)),
            Ok(r) if Some(&r.fingerprint) != expected[s.key].as_ref() => out.fail(format!(
                "request {}: fingerprint {} differs from the library's",
                s.key, r.fingerprint
            )),
            Ok(r) if overhead_micros(s.rtt_us, r.prepare_micros, r.execute_micros).is_none() => out
                .fail(format!(
                    "request {}: round trip {} us < prepare {} + execute {} us",
                    s.key, s.rtt_us, r.prepare_micros, r.execute_micros
                )),
            Ok(_) => {}
        }
    }
}

/// `(p50, tail)` in ms of `micros`, the tail at p99 or the highest
/// percentile with ten samples beyond it (named in `notes`).
fn p50_tail(label: &str, mut micros: Vec<f64>, notes: &mut Vec<String>) -> (f64, f64) {
    micros.sort_by(f64::total_cmp);
    let ms = |p: f64| percentile(&micros, p).unwrap_or(0.0) / 1e3;
    let tail = supported_percentile(micros.len(), 99);
    if tail != Some(99) {
        notes.push(format!(
            "{label}.p99 reports p{} ({} samples)",
            tail.map_or("100".into(), |p| p.to_string()),
            micros.len()
        ));
    }
    (ms(50.0), ms(tail.map_or(100.0, f64::from)))
}

/// `send`/`recv` of a real request and reply through an in-memory buffer:
/// mean microseconds per request-plus-reply round.
fn codec_us(request: &RunRequest, reply: &RunResult, tracer: &mut Tracer) -> f64 {
    let request = Request::Run(request.clone());
    let reply = Response::Run(reply.clone());
    let mut buf = Vec::new();
    let t = Instant::now();
    tracer.span("serve.codec", 0, Open::ROOT, || {
        for _ in 0..CODEC_REPS {
            buf.clear();
            send(&mut buf, &request).expect("in-memory write");
            let back: Request = recv(&mut buf.as_slice()).expect("own encoding decodes");
            buf.clear();
            send(&mut buf, &reply).expect("in-memory write");
            let again: Response = recv(&mut buf.as_slice()).expect("own encoding decodes");
            std::hint::black_box((back, again));
        }
    });
    t.elapsed().as_secs_f64() * 1e6 / f64::from(CODEC_REPS)
}

/// Restores every miss key from the server's disk cache through
/// `PreprocessCache`, timed as `bench.cache.load` spans; mean ms per key.
fn cache_probe(dir: &Path, misses: &[RunRequest], tracer: &mut Tracer, out: &mut Outcome) -> f64 {
    let cache = match PreprocessCache::new(dir) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("open cache {}: {e}", dir.display()));
            return 0.0;
        }
    };
    let t = Instant::now();
    for (i, req) in misses.iter().enumerate() {
        let loaded = tracer.span("bench.cache.load", i as u64, Open::ROOT, || {
            let g = cache.load_graph(dataset(req), Scale(req.scale))?;
            let cfg = library_config(req).oag;
            cache.load_oag(&g, &cfg, Side::Hyperedge)?;
            cache.load_oag(&g, &cfg, Side::Vertex)
        });
        if loaded.is_none() {
            out.fail(format!("miss key {i} was not restorable from the disk cache"));
        }
    }
    t.elapsed().as_secs_f64() * 1e3 / misses.len() as f64
}

/// Serve layer readings over the traced passes. `stats` comes from a
/// server that served only those passes; counters are per pass.
fn serve_layers(
    samples: &[Sample],
    passes: usize,
    stats: &StatsReport,
    notes: &mut Vec<String>,
) -> ServeLayers {
    let hits = samples.iter().filter(|s| s.key == 0);
    let ok_hits: Vec<(&Sample, &RunResult)> =
        hits.filter_map(|s| s.reply.as_ref().ok().map(|r| (s, r))).collect();
    let col = |f: &dyn Fn(&Sample, &RunResult) -> f64| -> Vec<f64> {
        ok_hits.iter().map(|(s, r)| f(s, r)).collect()
    };
    let rtt = p50_tail("serve.rtt_ms", col(&|s, _| s.rtt_us as f64), notes);
    let prepare = p50_tail("serve.prepare_ms", col(&|_, r| r.prepare_micros as f64), notes);
    let execute = p50_tail("serve.execute_ms", col(&|_, r| r.execute_micros as f64), notes);
    let overhead = p50_tail(
        "serve.overhead_ms",
        col(&|s, r| {
            overhead_micros(s.rtt_us, r.prepare_micros, r.execute_micros).unwrap_or(0) as f64
        }),
        notes,
    );
    let miss_rtt: Vec<f64> =
        samples.iter().filter(|s| s.key != 0).map(|s| s.rtt_us as f64).collect();
    let a = &stats.artifacts;
    let lru_hits = (a.graph_hits + a.oag_hits) as f64;
    let lru_misses = (a.graph_misses + a.oag_misses) as f64;
    let coalesced = a.coalesced as f64;
    let d = &stats.disk_cache;
    let disk_hits = (d.graph_hits + d.oag_hits) as f64;
    let disk_misses = (d.graph_misses + d.oag_misses) as f64;
    let ms = |us: u64| us as f64 / 1e3;
    let per_pass = |n: f64| n / passes as f64;
    let rate = |x: f64, y: f64| if x + y > 0.0 { x / (x + y) } else { 0.0 };
    ServeLayers {
        rtt_ms: rtt,
        prepare_ms: prepare,
        execute_ms: execute,
        overhead_ms: overhead,
        daemon_total_p50_ms: ms(stats.total_latency.p50_micros),
        miss_rtt_p50_ms: median(&miss_rtt).unwrap_or(0.0) / 1e3,
        queue_wait_ms: (
            ms(stats.queue_wait_latency.p50_micros),
            ms(stats.queue_wait_latency.p99_micros),
        ),
        lru_hit_rate: rate(lru_hits, lru_misses + coalesced),
        disk_hit_rate: rate(disk_hits, disk_misses),
        evictions: per_pass(a.evictions as f64),
        coalesced: per_pass(coalesced),
        cache_hits: per_pass(disk_hits),
        cache_misses: per_pass(disk_misses),
        execute_total_ms: per_pass(
            samples
                .iter()
                .filter_map(|s| s.reply.as_ref().ok())
                .map(|r| r.execute_micros as f64 / 1e3)
                .sum(),
        ),
        ..ServeLayers::default()
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let requests = request_set();
    let scripts = scripts(seed, requests.len());
    let cache_dir = PathBuf::from(format!(".bench_out/serve-cache-{seed}-{}", std::process::id()));

    // The oracle, outside every timed window.
    let twins = library_twins(&requests, &mut out);
    let expected: Vec<Option<String>> = twins
        .iter()
        .map(|t| t.as_ref().map(|(c, _)| format!("{:016x}", fingerprint_report(c))))
        .collect();
    let (speedups, reductions): (Vec<f64>, Vec<f64>) =
        twins.iter().flatten().map(|(c, h)| sim_ratios(h, c)).unzip();

    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(prev) = server.take() {
            if let Err(e) = Running::stop(prev) {
                out.fail(e);
            }
        }
        let t = Instant::now();
        match start(&cache_dir, &requests[0], true) {
            Ok(s) => server = Some(s),
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut server = server.expect("at least one setup");

    let rss_reset = reset_peak_rss();
    let mut pass_id = 0;
    let mut off: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::off()).collect();
    let (walls, samples) =
        measure(&mut server.clients, &scripts, &requests, &mut off, seconds, &mut pass_id);
    verify(&samples, &expected, &mut out);

    let wall_s = median(&walls).unwrap_or(0.0);
    let mut hit_ms: Vec<f64> =
        samples.iter().filter(|s| s.key == 0).map(|s| s.rtt_us as f64 / 1e3).collect();
    hit_ms.sort_by(f64::total_cmp);
    out.notes.push(format!("setup_s samples {setup_s:.4?}; pass walls {walls:.3?}"));
    let e2e = &mut out.end_to_end;
    e2e.push("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    e2e.push("wall_s", wall_s, "s");
    e2e.push("peak_rss_mib", peak_rss_mib(), "MiB");
    e2e.push("req_p50_ms", percentile(&hit_ms, 50.0).unwrap_or(0.0), "ms");
    e2e.push("req_per_s", (CLIENTS * PER_CLIENT) as f64 / wall_s, "1/s");
    e2e.push("sim_speedup_geomean", geomean(&speedups).unwrap_or(0.0), "x");
    e2e.push("sim_dram_reduction_geomean", geomean(&reductions).unwrap_or(0.0), "x");
    out.notes.push(format!(
        "{} requests per pass from {CLIENTS} closed-loop clients, {} timed pass(es); \
         req_p50_ms is the hit class ({} samples); wall_s is the median pass; {rss_reset}",
        CLIENTS * PER_CLIENT,
        walls.len(),
        hit_ms.len()
    ));
    match server.stop() {
        Ok(stats) => out.notes.push(format!(
            "daemon over its lifetime (warm-up and both classes): {} ok, {} failed, \
             total_latency p50 {} us (log2 buckets, <=2x)",
            stats.requests.ok, stats.requests.failed, stats.total_latency.p50_micros
        )),
        Err(e) => out.fail(e),
    }

    if trace {
        // A fresh server on the now-populated disk cache, not warmed, so
        // its stats cover the traced passes alone.
        match start(&cache_dir, &requests[0], false) {
            Ok(mut server) => {
                let mut tracer = Tracer::on(Instant::now(), 0);
                let mut lanes: Vec<Tracer> = (1..=CLIENTS as u64).map(|c| tracer.fork(c)).collect();
                let (traced_walls, s) = measure(
                    &mut server.clients,
                    &scripts,
                    &requests,
                    &mut lanes,
                    seconds,
                    &mut pass_id,
                );
                let stats = server.control.stats();
                verify(&s, &expected, &mut out);
                for lane in lanes {
                    tracer.absorb(lane);
                }
                if let Err(e) = server.stop() {
                    out.fail(e);
                }
                match stats {
                    Ok(stats) => {
                        let passes = traced_walls.len();
                        let mut layers = serve_layers(&s, passes, &stats, &mut out.notes);
                        let reply =
                            s.iter().find_map(|x| x.reply.as_ref().ok().filter(|_| x.key == 0));
                        if let Some(reply) = reply {
                            layers.codec_us = codec_us(&requests[0], reply, &mut tracer);
                        }
                        layers.cache_load_ms =
                            cache_probe(&cache_dir, &requests[1..], &mut tracer, &mut out);
                        // One pass's simulated work: the server's reports
                        // equal the twins' (the fingerprints matched).
                        let mut counts = Counts::default();
                        for &key in scripts.iter().flatten() {
                            if let Some((c, _)) = &twins[key] {
                                counts.add_report(c, 1);
                            }
                        }
                        let traced_wall = median(&traced_walls).unwrap_or(0.0);
                        out.per_layer = per_layer(&tracer, &counts, &layers, traced_wall - wall_s);
                    }
                    Err(e) => out.fail(format!("stats: {e}")),
                }
                out.tracer = Some(tracer);
            }
            Err(e) => out.fail(e),
        }
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    out
}
