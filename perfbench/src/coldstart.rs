//! `coldstart`: a sequence of cold chain-driven runs, each paying what one
//! `chgraph-cli run` pays: generate the dataset, build both OAGs, run one
//! sparse traversal. All five datasets (heavy and light overlap change the
//! two-hop work several-fold) at W_min 1 and 3, with no in-memory or disk
//! cache. The traversals are BFS and BC under ChGraph and software GLA,
//! rotated over the runs so that a pass is ten cold runs and every dataset
//! sees both traversals and both runtimes; a pass spreads its cold runs
//! over every core. The OAG build outweighs the traversal here, so this
//! workload shows the `hypergraph` and `oag` changes that the warm `serve`
//! hit path hides.

use crate::common::{
    checked, execute, peak_rss_mib, probe_chains, reset_peak_rss, run_pass, seeded_graph,
    sim_ratios, timed_loop, Counts, Outcome, Rt,
};
use crate::layers::{per_layer, ServeLayers};
use crate::stats::{class_median_geomean, geomean, median};
use crate::trace::{Open, Tracer};
use chg_serve::proto::fingerprint_report;
use chgraph::{ExecutionReport, PreparedOags, RunConfig};
use hyperalgos::Workload;
use hypergraph::datasets::Dataset;
use oag::OagConfig;
use std::time::Instant;

const W_MINS: [u32; 2] = [1, 3];
const WORKLOADS: [Workload; 2] = [Workload::Bfs, Workload::Bc];
/// The traversals the cold runs rotate through, in order.
const TRAVERSALS: [(Workload, Rt); 4] = [
    (Workload::Bfs, Rt::ChGraph),
    (Workload::Bc, Rt::Gla),
    (Workload::Bfs, Rt::Gla),
    (Workload::Bc, Rt::ChGraph),
];
/// Setup samples per run; `setup_s` is their median. A sample is one
/// warm-up cold run on every dataset.
const SETUPS: usize = 5;

#[derive(Clone, Copy)]
struct Cell {
    ds: Dataset,
    w_min: u32,
    workload: Workload,
    rt: Rt,
}

fn config(w_min: u32) -> RunConfig {
    RunConfig::new().with_oag(OagConfig::new().with_w_min(w_min))
}

/// One cold run, as spans under a `cold_run` root.
fn cold_run(
    cell: Cell,
    seed: u64,
    id: u64,
    tracer: &mut Tracer,
) -> Result<(ExecutionReport, usize, PreparedOags), String> {
    let cfg = config(cell.w_min);
    let root = tracer.begin("cold_run", id, Open::ROOT);
    let g = tracer.span("hypergraph.gen", id, root, || seeded_graph(cell.ds, seed));
    let prepared = tracer.span("oag.build", id, root, || PreparedOags::build(&g, &cfg));
    let result = tracer.span(cell.rt.span(), id, root, || {
        execute(cell.workload, cell.rt, &g, &cfg, Some(&prepared))
    });
    tracer.end(root);
    result
        .map(|r| (r, g.num_bipartite_edges(), prepared))
        .map_err(|e| format!("coldstart {}/{:?}: {e}", cell.ds, cell.rt))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut tracer = if trace { Tracer::on(epoch, 0) } else { Tracer::off() };

    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let (wall, warm) = run_pass(Dataset::ALL.len(), &mut Tracer::off(), |d, lane| {
            let ds = Dataset::ALL[d];
            cold_run(Cell { ds, w_min: 3, workload: Workload::Bfs, rt: Rt::ChGraph }, seed, 0, lane)
        });
        for (_, result) in warm {
            out.attempted += 1;
            if let Err(e) = result {
                out.fail(e);
            }
        }
        setup_s.push(wall);
    }

    let cells: Vec<Cell> = Dataset::ALL
        .into_iter()
        .enumerate()
        .flat_map(|(d, ds)| {
            W_MINS.into_iter().enumerate().map(move |(w, w_min)| {
                let (workload, rt) = TRAVERSALS[(d * W_MINS.len() + w) % TRAVERSALS.len()];
                Cell { ds, w_min, workload, rt }
            })
        })
        .collect();

    // The oracle, outside every timed window: one graph and OAG pair per
    // (dataset, W_min) and a Hygra baseline per (dataset, traversal). The
    // simulated ratios cover every BFS and BC run under ChGraph on these
    // inputs, not only the rotated ones a pass times.
    let mut chain_counts = Counts::default();
    let mut expected = vec![None; cells.len()];
    let mut speedups = Vec::new();
    let mut reductions = Vec::new();
    for ds in Dataset::ALL {
        let g = seeded_graph(ds, seed);
        let hygra: Vec<Option<ExecutionReport>> = WORKLOADS
            .into_iter()
            .map(|workload| {
                checked(workload, Rt::Hygra, &g, &config(W_MINS[0]), None)
                    .map_err(|e| out.fail(e))
                    .ok()
            })
            .collect();
        for (wi, w_min) in W_MINS.into_iter().enumerate() {
            let cfg = config(w_min);
            let prepared = PreparedOags::build(&g, &cfg);
            if trace {
                let id = (cells.len() + wi) as u64;
                probe_chains(&prepared, &cfg, id, &mut tracer, &mut chain_counts);
            }
            for (workload, h) in WORKLOADS.into_iter().zip(&hygra) {
                for rt in [Rt::ChGraph, Rt::Gla] {
                    let timed = cells.iter().position(|c| {
                        c.ds == ds && c.w_min == w_min && c.workload == workload && c.rt == rt
                    });
                    if rt == Rt::Gla && timed.is_none() {
                        continue;
                    }
                    match checked(workload, rt, &g, &cfg, Some(&prepared)) {
                        Ok(r) => {
                            if let Some(i) = timed {
                                expected[i] = Some(fingerprint_report(&r));
                            }
                            if let (Rt::ChGraph, Some(h)) = (rt, h) {
                                let (s, d) = sim_ratios(h, &r);
                                speedups.push(s);
                                reductions.push(d);
                            }
                        }
                        Err(e) => out.fail(e),
                    }
                }
            }
        }
    }

    let pass = |tracer: &mut Tracer, out: &mut Outcome, latencies: &mut [Vec<f64>]| {
        let mut counts = Counts::default();
        let (wall, results) =
            run_pass(cells.len(), tracer, |i, lane| cold_run(cells[i], seed, i as u64, lane));
        for (i, (ms, result)) in results.into_iter().enumerate() {
            latencies[i].push(ms);
            out.attempted += 1;
            match result {
                Ok((r, edges, prepared)) if Some(fingerprint_report(&r)) == expected[i] => {
                    counts.bipartite_edges += edges as u64;
                    counts.add_build(&prepared);
                    counts.add_report(&r, 1);
                }
                Ok(_) => {
                    out.fail(format!("coldstart run {i}: result differs from its checked run"))
                }
                Err(e) => out.fail(e),
            }
        }
        (wall, counts)
    };

    let rss_reset = reset_peak_rss();
    let mut latencies = vec![Vec::new(); cells.len()];
    let walls = timed_loop(seconds, || pass(&mut Tracer::off(), &mut out, &mut latencies).0);
    let wall_s = median(&walls).unwrap_or(0.0);
    out.notes.push(format!("setup_s samples {setup_s:.4?}; pass walls {walls:.3?}"));
    let e2e = &mut out.end_to_end;
    e2e.push("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    e2e.push("wall_s", wall_s, "s");
    e2e.push("peak_rss_mib", peak_rss_mib(), "MiB");
    e2e.push("req_p50_ms", class_median_geomean(&latencies).unwrap_or(0.0), "ms");
    e2e.push("req_per_s", cells.len() as f64 / wall_s, "1/s");
    e2e.push("sim_speedup_geomean", geomean(&speedups).unwrap_or(0.0), "x");
    e2e.push("sim_dram_reduction_geomean", geomean(&reductions).unwrap_or(0.0), "x");
    out.notes.push(format!(
        "{} cold runs per pass, {} timed pass(es); a request is one cold run, and \
         req_p50_ms is the geomean over runs of each run's median over passes; \
         wall_s is the median pass; {}",
        cells.len(),
        walls.len(),
        rss_reset
    ));

    if trace {
        let (traced_wall, mut counts) =
            pass(&mut tracer, &mut out, &mut vec![Vec::new(); cells.len()]);
        counts.chains = chain_counts.chains;
        counts.chain_elements = chain_counts.chain_elements;
        out.per_layer = per_layer(&tracer, &counts, &ServeLayers::default(), traced_wall - wall_s);
        out.tracer = Some(tracer);
    }
    out
}
