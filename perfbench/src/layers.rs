//! The per-layer metrics: every layer metric, its unit, the end-to-end
//! metric (on which workload) it should move, and its value.

use crate::common::{Counts, Metrics};
use crate::trace::Tracer;

/// Serve-only layer readings; the other workloads leave them at zero.
#[derive(Default)]
pub struct ServeLayers {
    pub rtt_ms: (f64, f64),
    pub prepare_ms: (f64, f64),
    pub execute_ms: (f64, f64),
    pub overhead_ms: (f64, f64),
    pub daemon_total_p50_ms: f64,
    pub miss_rtt_p50_ms: f64,
    pub codec_us: f64,
    pub queue_wait_ms: (f64, f64),
    pub lru_hit_rate: f64,
    pub disk_hit_rate: f64,
    pub evictions: f64,
    pub coalesced: f64,
    pub cache_load_ms: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    /// Server-side execute time of the pass, for `archsim.ns_per_access`.
    pub execute_total_ms: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Builds every per-layer metric from one traced pass: span times from
/// `tracer`, work counts from `c`. Layers a workload does not call read
/// zero.
pub fn per_layer(tracer: &Tracer, c: &Counts, serve: &ServeLayers, overhead_s: f64) -> Metrics {
    let ms = |name: &str| tracer.total_ms(name);
    let build_ms = ms("oag.build");
    let execute_ms =
        ["gla", "chgraph"].map(|rt| ms(&format!("chgraph.execute.{rt}"))).iter().sum::<f64>()
            + serve.execute_total_ms;
    let f = |n: u64| n as f64;
    let mut m = Metrics::default();
    let cold_setup = "coldstart wall_s; coldstart setup_s";
    let sim_speedup = "sim_speedup_geomean";
    let sim_dram = "sim_dram_reduction_geomean";
    let miss_path = "serve wall_s (miss path)";

    m.layer("hypergraph.gen_ms", "ms", cold_setup, ms("hypergraph.gen"));
    m.layer("hypergraph.bipartite_edges", "count", cold_setup, f(c.bipartite_edges));
    m.layer(
        "oag.build_ms",
        "ms",
        "coldstart wall_s; coldstart setup_s; serve wall_s (miss path)",
        build_ms,
    );
    m.layer("oag.two_hop_steps", "count", cold_setup, f(c.two_hop_steps));
    m.layer("oag.pairs_considered", "count", cold_setup, f(c.pairs_considered));
    m.layer("oag.edges_kept", "count", cold_setup, f(c.edges_kept));
    m.layer("oag.bytes", "bytes", "coldstart wall_s; coldstart peak_rss_mib", f(c.oag_bytes));
    m.layer("oag.build_ns_per_step", "ns", cold_setup, ratio(build_ms * 1e6, f(c.two_hop_steps)));
    m.layer("oag.chain_gen_ms", "ms", "coldstart wall_s (gla/chgraph runs)", ms("oag.chain_gen"));
    m.layer("oag.chains", "count", "coldstart wall_s", f(c.chains));
    m.layer(
        "oag.mean_chain_len",
        "elements",
        "coldstart wall_s",
        ratio(f(c.chain_elements), f(c.chains)),
    );

    m.layer("chgraph.execute_ms.gla", "ms", "coldstart wall_s", ms("chgraph.execute.gla"));
    m.layer(
        "chgraph.execute_ms.chgraph",
        "ms",
        "coldstart wall_s; serve req_p50_ms",
        ms("chgraph.execute.chgraph"),
    );
    m.layer("chgraph.sim_cycles", "cycles", sim_speedup, f(c.sim_cycles));
    m.layer(
        "chgraph.mem_stall_frac",
        "ratio",
        sim_speedup,
        ratio(f(c.mem_stall_cycles), f(c.core_busy_cycles)),
    );
    m.layer("chgraph.engine.hcg_cycles", "cycles", sim_speedup, f(c.engine.hcg_cycles));
    m.layer("chgraph.engine.cp_cycles", "cycles", sim_speedup, f(c.engine.cp_cycles));
    m.layer("chgraph.engine.chains_generated", "count", sim_speedup, f(c.engine.chains_generated));
    m.layer("chgraph.engine.fifo_full_stalls", "cycles", sim_speedup, f(c.engine.fifo_full_stalls));
    m.layer(
        "chgraph.engine.fifo_empty_stalls",
        "cycles",
        sim_speedup,
        f(c.engine.fifo_empty_stalls),
    );

    m.layer("archsim.accesses", "count", "serve req_p50_ms; coldstart wall_s", f(c.accesses));
    m.layer("archsim.l1_hit_rate", "ratio", sim_dram, ratio(f(c.l1_hits), f(c.accesses)));
    m.layer("archsim.l2_hits", "count", sim_dram, f(c.l2_hits));
    m.layer("archsim.l3_hits", "count", sim_dram, f(c.l3_hits));
    m.layer("archsim.dram_fetches", "count", sim_dram, f(c.dram_fetches));
    m.layer("archsim.dram_writebacks", "count", sim_dram, f(c.dram_writebacks));
    m.layer(
        "archsim.ns_per_access",
        "ns",
        "serve req_p50_ms (host execute time, run loop and apply included)",
        ratio(execute_ms * 1e6, f(c.accesses)),
    );

    m.layer("bench.cache.load_ms", "ms", miss_path, serve.cache_load_ms);
    m.layer("bench.cache.hits", "count", miss_path, serve.cache_hits);
    m.layer("bench.cache.misses", "count", miss_path, serve.cache_misses);

    m.layer("serve.rtt_ms.p50", "ms", "serve req_p50_ms", serve.rtt_ms.0);
    m.layer("serve.rtt_ms.p99", "ms", "serve req_p50_ms; req_per_s", serve.rtt_ms.1);
    m.layer("serve.prepare_ms.p50", "ms", "serve req_p50_ms", serve.prepare_ms.0);
    m.layer("serve.prepare_ms.p99", "ms", "serve req_per_s", serve.prepare_ms.1);
    m.layer("serve.execute_ms.p50", "ms", "serve req_p50_ms", serve.execute_ms.0);
    m.layer("serve.execute_ms.p99", "ms", "serve req_per_s", serve.execute_ms.1);
    m.layer("serve.overhead_ms.p50", "ms", "serve req_p50_ms; req_per_s", serve.overhead_ms.0);
    m.layer("serve.overhead_ms.p99", "ms", "serve req_per_s", serve.overhead_ms.1);
    m.layer(
        "serve.daemon_total_ms.p50",
        "ms",
        "serve req_p50_ms (daemon, both classes, log2 buckets, <=2x)",
        serve.daemon_total_p50_ms,
    );
    m.layer("serve.miss_rtt_ms.p50", "ms", "serve wall_s; req_per_s", serve.miss_rtt_p50_ms);
    m.layer("serve.codec_us", "us", "serve req_p50_ms", serve.codec_us);
    m.layer(
        "serve.queue_wait_ms.p50",
        "ms",
        "serve req_p50_ms (daemon, both classes, log2 buckets, <=2x)",
        serve.queue_wait_ms.0,
    );
    m.layer(
        "serve.queue_wait_ms.p99",
        "ms",
        "serve wall_s (daemon, both classes, log2 buckets, <=2x)",
        serve.queue_wait_ms.1,
    );
    m.layer("serve.lru_hit_rate", "ratio", "serve wall_s", serve.lru_hit_rate);
    m.layer("serve.disk_hit_rate", "ratio", "serve wall_s", serve.disk_hit_rate);
    m.layer("serve.evictions", "count", "serve wall_s", serve.evictions);
    m.layer("serve.coalesced", "count", "serve wall_s", serve.coalesced);

    m.layer("trace.overhead_s", "s", "traced wall_s minus untraced wall_s", overhead_s);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;
    use chg_serve::json::{parse, Json};

    fn zero() -> Metrics {
        per_layer(&Tracer::off(), &Counts::default(), &ServeLayers::default(), 0.0)
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in &zero().0 {
            assert!(valid_metric_name(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}: unit {:?}", m.name, m.unit);
            assert!(!m.moves.is_empty(), "{}: no end-to-end target", m.name);
        }
    }

    #[test]
    fn untouched_layers_read_zero() {
        assert!(zero().0.iter().all(|x| x.value == 0.0 && x.value.is_finite()));
    }

    /// The declared per-layer list in `BENCHMARK.json` is exactly what a
    /// traced run prints, in order, with the same units.
    #[test]
    fn matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let declared: Vec<(&str, &str)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name"), field("unit"))
            })
            .collect();
        let printed = zero();
        let printed: Vec<(&str, &str)> = printed.0.iter().map(|m| (&*m.name, m.unit)).collect();
        assert_eq!(declared, printed);
    }
}
