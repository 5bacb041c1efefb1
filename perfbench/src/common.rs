//! Pieces every workload shares: seeded inputs, runtimes, the correctness
//! oracle, the timed loop, and per-layer work counts.

use crate::trace::{Open, Tracer};
use chgraph::{
    ChGraphRuntime, EngineReport, ExecError, ExecutionReport, GlaRuntime, HygraRuntime,
    PreparedOags, RunConfig, Runtime,
};
use hyperalgos::Workload;
use hypergraph::datasets::Dataset;
use hypergraph::{Frontier, Hypergraph};
use oag::{generate_chains_with_scratch, ChainScratch, OagBuildStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// For a per-layer metric, the end-to-end metric it should move.
    pub moves: &'static str,
}

/// An ordered metric list.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit, moves: "" });
    }

    /// A per-layer metric with the end-to-end metric it should move.
    pub fn layer(&mut self, name: &str, unit: &'static str, moves: &'static str, value: f64) {
        self.0.push(Metric { name: name.into(), value, unit, moves });
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    /// Filled only by a traced run.
    pub per_layer: Metrics,
    /// Extra facts for the result file (sample counts, percentile names).
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records one failed operation with its reason.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {why}");
    }
}

/// SplitMix64: the benchmark's seeded stream for everything it generates.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The dataset stand-in generated from the benchmark seed. Seed 0 keeps
/// the stand-in's own generator seed, so it reproduces `Dataset::load`.
pub fn seeded_graph(ds: Dataset, seed: u64) -> Hypergraph {
    let cfg = ds.config();
    let mixed = if seed == 0 { cfg.seed } else { cfg.seed ^ Rng::new(seed).next_u64() };
    cfg.with_seed(mixed).generate()
}

/// The runtimes the workloads compare.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rt {
    Hygra,
    Gla,
    ChGraph,
}

impl Rt {
    pub fn runtime(self) -> Box<dyn Runtime> {
        match self {
            Rt::Hygra => Box::new(HygraRuntime),
            Rt::Gla => Box::new(GlaRuntime),
            Rt::ChGraph => Box::new(ChGraphRuntime::new()),
        }
    }

    /// Span name of an execution under this runtime.
    pub fn span(self) -> &'static str {
        match self {
            Rt::Hygra => "chgraph.execute.hygra",
            Rt::Gla => "chgraph.execute.gla",
            Rt::ChGraph => "chgraph.execute.chgraph",
        }
    }
}

/// Executes one cell: the call every workload times.
pub fn execute(
    workload: Workload,
    rt: Rt,
    g: &Hypergraph,
    cfg: &RunConfig,
    prepared: Option<&PreparedOags>,
) -> Result<ExecutionReport, ExecError> {
    hyperalgos::try_run_workload_prepared(workload, rt.runtime().as_ref(), g, cfg, prepared)
}

/// The correctness oracle, never timed: the library self-check diffs the
/// run against the naive reference implementation.
pub fn checked(
    workload: Workload,
    rt: Rt,
    g: &Hypergraph,
    cfg: &RunConfig,
    prepared: Option<&PreparedOags>,
) -> Result<ExecutionReport, String> {
    hyperalgos::self_check_prepared(workload, rt.runtime().as_ref(), g, cfg, prepared)
        .map(|c| c.report)
        .map_err(|e| format!("{workload}/{rt:?}: self-check: {e}"))
}

/// Runs `job(i, lane)` for every `i` in `0..n` on `chg_bench::default_threads()`
/// workers that pull the next index from a shared counter, the way the
/// `figures` harness schedules grid cells. Worker `w` records its spans on
/// lane `w + 1` of `tracer`. Returns the wall seconds of the whole batch
/// and each job's (milliseconds, output) in index order.
///
/// Running a pass on every core also steadies it: on a shared VM each vCPU
/// has its own slow periods (two copies of one pass, run at once, differed
/// by 1.3x), and a pass spread over all of them averages their speeds.
pub fn run_pass<T: Send>(
    n: usize,
    tracer: &mut Tracer,
    job: impl Fn(usize, &mut Tracer) -> T + Sync,
) -> (f64, Vec<(f64, T)>) {
    let next = AtomicUsize::new(0);
    let (next, job) = (&next, &job);
    let mut lanes: Vec<Tracer> =
        (0..chg_bench::default_threads()).map(|w| tracer.fork(w as u64 + 1)).collect();
    let start = Instant::now();
    let mut done: Vec<(usize, f64, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        let t = Instant::now();
                        let out = job(i, lane);
                        done.push((i, t.elapsed().as_secs_f64() * 1e3, out));
                    }
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("pass worker panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    for lane in lanes {
        tracer.absorb(lane);
    }
    done.sort_by_key(|d| d.0);
    (wall, done.into_iter().map(|(_, ms, out)| (ms, out)).collect())
}

/// Runs `pass` (which returns its own wall seconds) until `seconds` have
/// elapsed, at least once.
pub fn timed_loop(seconds: f64, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(pass());
        if start.elapsed().as_secs_f64() >= seconds {
            return walls;
        }
    }
}

/// Simulated ChGraph-over-Hygra results for one cell pair: (cycle speedup,
/// main-memory-access reduction).
pub fn sim_ratios(hygra: &ExecutionReport, chgraph: &ExecutionReport) -> (f64, f64) {
    (chgraph.speedup_over(hygra), chgraph.mem_reduction_over(hygra))
}

/// Work counts of the layer calls in one traced pass.
#[derive(Default)]
pub struct Counts {
    pub bipartite_edges: u64,
    pub two_hop_steps: u64,
    pub pairs_considered: u64,
    pub edges_kept: u64,
    pub oag_bytes: u64,
    pub chains: u64,
    pub chain_elements: u64,
    pub sim_cycles: u64,
    pub core_busy_cycles: u64,
    pub mem_stall_cycles: u64,
    pub engine: EngineReport,
    pub accesses: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub l3_hits: u64,
    pub dram_fetches: u64,
    pub dram_writebacks: u64,
}

impl Counts {
    pub fn add_build(&mut self, p: &PreparedOags) {
        let s: OagBuildStats = p.report.oag_build.unwrap_or_default();
        self.two_hop_steps += s.two_hop_steps;
        self.pairs_considered += s.pairs_considered;
        self.edges_kept += s.edges_kept as u64;
        self.oag_bytes += s.size_bytes as u64;
    }

    /// Adds `times` executions that produced `r`.
    pub fn add_report(&mut self, r: &ExecutionReport, times: u64) {
        use archsim::{Level, Region};
        let served = |level| Region::ALL.iter().map(|&g| r.mem.served_at(g, level)).sum::<u64>();
        self.sim_cycles += r.cycles * times;
        self.core_busy_cycles += r.core_busy_cycles * times;
        self.mem_stall_cycles += r.mem_stall_cycles * times;
        if let Some(e) = r.engine {
            self.engine.hcg_cycles += e.hcg_cycles * times;
            self.engine.cp_cycles += e.cp_cycles * times;
            self.engine.chains_generated += e.chains_generated * times;
            self.engine.fifo_full_stalls += e.fifo_full_stalls * times;
            self.engine.fifo_empty_stalls += e.fifo_empty_stalls * times;
        }
        self.accesses += r.mem.all_accesses() * times;
        self.l1_hits += served(Level::L1) * times;
        self.l2_hits += served(Level::L2) * times;
        self.l3_hits += served(Level::L3) * times;
        self.dram_fetches += served(Level::Mem) * times;
        self.dram_writebacks +=
            Region::ALL.iter().map(|&g| r.mem.dram_writebacks(g)).sum::<u64>() * times;
    }
}

/// Chain generation over each side's full active set on built OAGs, timed
/// as `oag.chain_gen` spans.
pub fn probe_chains(
    p: &PreparedOags,
    cfg: &RunConfig,
    id: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) {
    let mut scratch = ChainScratch::new();
    for oag in [&p.hyperedge, &p.vertex] {
        let n = oag.len();
        let active = Frontier::full(n);
        let chains = tracer.span("oag.chain_gen", id, Open::ROOT, || {
            generate_chains_with_scratch(oag, &active, 0..n as u32, &cfg.chain, &mut scratch)
        });
        counts.chains += chains.num_chains() as u64;
        counts.chain_elements += chains.num_elements() as u64;
    }
}

/// Resets this process's `VmHWM` to its current resident size, so that
/// [`peak_rss_mib`] covers only what runs after the call, not the untimed
/// oracle. Returns the note that says which of the two it measures.
pub fn reset_peak_rss() -> &'static str {
    // "5" in clear_refs resets the peak-RSS high-water mark (Linux >= 4.0).
    match std::fs::write("/proc/self/clear_refs", "5") {
        Ok(()) => "peak_rss_mib covers the timed passes (VmHWM reset after setup and oracle)",
        Err(_) => "peak_rss_mib includes setup and oracle (VmHWM could not be reset)",
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
