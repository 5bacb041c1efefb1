//! Hot-path kernel benchmark: the three rewritten kernels measured against
//! their retained original implementations.
//!
//! The hottest loops of the repository — the set-associative cache lookup
//! every simulated memory reference funnels through, the OAG build, and the
//! chain-generation walk — were rewritten with flat, cache-friendly layouts
//! (and, for the OAG build, symmetric half-counting), keeping the originals
//! under the `reference-kernels` feature (`archsim::reference`,
//! `oag::reference`). This benchmark times both sides on identical inputs,
//! proves the outputs equal while doing so, and writes the committed record
//! `BENCH_hotpath.json` (with the measuring host's [`HostMeta`] embedded,
//! since the numbers are meaningless without it).
//!
//! Run modes:
//!
//! - `cargo bench -p chg-bench --features reference-kernels --bench hotpath`
//!   — full measurement; writes `BENCH_hotpath.json` into the current
//!   directory (override with `-- --out <path>`).
//! - `... --bench hotpath -- --test` — CI smoke mode: tiny inputs, one
//!   repetition, identity assertions only, no JSON.

use chg_bench::{load_scaled, HostMeta, Scale};
use hypergraph::datasets::Dataset;
use hypergraph::{Frontier, Hypergraph, Side};
use oag::{generate_chains_with_scratch, ChainConfig, ChainScratch, OagConfig};
use std::time::Instant;

/// One measured kernel: reference vs optimized wall-clock and the work unit
/// count for context.
struct KernelResult {
    name: &'static str,
    reference_ms: f64,
    optimized_ms: f64,
    units: u64,
    unit_name: &'static str,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.optimized_ms.max(1e-9)
    }
}

/// Times `fa` and `fb` interleaved — a/b/a/b across `reps` rounds, after
/// one untimed warmup each — and returns each side's best wall-clock in
/// milliseconds plus the final outputs. Interleaving matters more than the
/// rep count: timing one side to completion and then the other lets any
/// drift in machine load (thermal throttling, a background build) land
/// entirely on one side and silently skew the ratio, while alternating
/// makes both sides sample the same noise. Best-of, not mean: the kernels
/// are deterministic, so the minimum is the least-noise estimate.
fn time_pair<T>(
    reps: usize,
    mut fa: impl FnMut() -> T,
    mut fb: impl FnMut() -> T,
) -> (f64, f64, T, T) {
    let mut a_out = fa(); // warmup
    let mut b_out = fb();
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        a_out = fa();
        best_a = best_a.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        b_out = fb();
        best_b = best_b.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best_a, best_b, a_out, b_out)
}

/// Deterministic 64-bit LCG (same constants as the archsim unit tests).
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state
}

/// Folds a [`archsim::CacheAccess`] into a running checksum so the access
/// loop cannot be dead-code-eliminated and the two implementations can be
/// diffed cheaply.
fn fold_access(sum: u64, a: archsim::CacheAccess) -> u64 {
    sum.wrapping_mul(31)
        .wrapping_add(a.hit as u64)
        .wrapping_add(a.writeback.unwrap_or(u64::MAX).wrapping_mul(3))
        .wrapping_add(a.evicted.unwrap_or(u64::MAX).wrapping_mul(7))
}

/// Kernel 1: the set-associative cache, timed on both geometries the
/// simulated machine instantiates (`archsim::MachineConfig` defaults): the
/// 32 KiB 8-way L1 every core-side reference funnels through, and the
/// 2 MiB 16-way L3 bank (32 MiB shared L3 across 16 banks) every L1 miss
/// lands in. A mixed read/write/probe stream (the same op mix the identity
/// tests replay); the two geometries' times are summed — a simulated
/// memory reference pays both lookups on the miss path, and the L3 bank is
/// where the flat layout matters most (its line metadata alone overflows
/// the host L2, so the victim scan's footprint is the bottleneck).
fn bench_cache(smoke: bool, reps: usize) -> KernelResult {
    let geometries = [
        archsim::CacheConfig { size_bytes: 32 * 1024, ways: 8, latency: 1 },
        archsim::CacheConfig { size_bytes: 2 * 1024 * 1024, ways: 16, latency: 1 },
    ];
    let accesses: u64 = if smoke { 20_000 } else { 4_000_000 };
    let mut reference_ms = 0.0;
    let mut optimized_ms = 0.0;
    for cfg in &geometries {
        let run_ref = || {
            let mut c = archsim::reference::Cache::new(cfg, 64);
            let mut state = 0x243F_6A88_85A3_08D3u64;
            let mut sum = 0u64;
            for _ in 0..accesses {
                let s = lcg(&mut state);
                let addr = (s >> 16) % (cfg.size_bytes as u64 * 8);
                match s % 16 {
                    0 => sum = sum.wrapping_add(c.invalidate(addr).map_or(2, u64::from)),
                    1 => sum = sum.wrapping_add(c.mark_dirty(addr) as u64),
                    2 => sum = sum.wrapping_add(c.contains(addr) as u64),
                    _ => sum = fold_access(sum, c.access(addr, s & 1 == 1)),
                }
            }
            sum.wrapping_add(c.resident_lines() as u64)
        };
        let run_opt = || {
            let mut c = archsim::Cache::new(cfg, 64, 1);
            let mut state = 0x243F_6A88_85A3_08D3u64;
            let mut sum = 0u64;
            for _ in 0..accesses {
                let s = lcg(&mut state);
                let addr = (s >> 16) % (cfg.size_bytes as u64 * 8);
                match s % 16 {
                    0 => sum = sum.wrapping_add(c.invalidate(0, addr).map_or(2, u64::from)),
                    1 => sum = sum.wrapping_add(c.mark_dirty(0, addr) as u64),
                    2 => sum = sum.wrapping_add(c.contains(0, addr) as u64),
                    _ => sum = fold_access(sum, c.access(0, addr, s & 1 == 1)),
                }
            }
            sum.wrapping_add(c.resident_lines(0) as u64)
        };
        let (r_ms, o_ms, ref_sum, opt_sum) = time_pair(reps, run_ref, run_opt);
        assert_eq!(ref_sum, opt_sum, "cache kernels diverged ({} B)", cfg.size_bytes);
        reference_ms += r_ms;
        optimized_ms += o_ms;
    }
    KernelResult {
        name: "cache_sim",
        reference_ms,
        optimized_ms,
        units: accesses * geometries.len() as u64,
        unit_name: "accesses",
    }
}

/// Kernel 2: OAG construction — the production half-counting build
/// against the reference full two-hop walk — on the Web-trackers stand-in,
/// at the two endpoints of the Fig. 18 `W_min` sweep the figure harness
/// rebuilds on every regeneration: the paper default (`W_min = 3`, sparse
/// candidate rows) and `W_min = 1` (every two-hop neighbor survives the
/// filter — the heaviest rows and the most mirrored pairs), for both sides,
/// since every chain-driven run builds both OAGs. Times are summed across
/// the four builds.
fn bench_oag_build(g: &Hypergraph, reps: usize) -> KernelResult {
    let mut reference_ms = 0.0;
    let mut optimized_ms = 0.0;
    for w_min in [3u32, 1] {
        let cfg = OagConfig::new().with_w_min(w_min);
        for side in [Side::Hyperedge, Side::Vertex] {
            let (r_ms, o_ms, ref_out, opt_out) = time_pair(
                reps,
                || oag::reference::build_with_stats(&cfg, g, side),
                || cfg.build_with_stats(g, side),
            );
            assert_eq!(ref_out, opt_out, "OAG build kernels diverged (w_min={w_min}, {side:?})");
            reference_ms += r_ms;
            optimized_ms += o_ms;
        }
    }
    KernelResult {
        name: "oag_build",
        reference_ms,
        optimized_ms,
        units: 2 * g.num_bipartite_edges() as u64,
        unit_name: "bipartite_edges",
    }
}

/// Kernel 3: chain generation as the execution driver issues it — per-core
/// chunks, a sparse frontier, many iterations — where the rewrite's reused
/// epoch-tagged visited scratch replaces an `O(chunk width)` allocation per
/// call.
fn bench_chain_gen(g: &Hypergraph, smoke: bool, reps: usize) -> KernelResult {
    let oag = OagConfig::new().build(g, Side::Hyperedge);
    let n = g.num_hyperedges() as u32;
    // Every 64th element active: the mid-to-late-round frontier shape of a
    // frontier-driven execution (BFS/SSSP), where the driver still issues a
    // chain-generation call per chunk per round but most of each chunk is
    // inactive — exactly where the reference's per-call visited allocation
    // stops being amortized by walk work.
    let frontier = Frontier::from_iter(n as usize, (0..n).step_by(64));
    let cfg = ChainConfig::default();
    let cores = 16u32;
    let chunk = n.div_ceil(cores);
    let iterations = if smoke { 2 } else { 200 };
    let chunks: Vec<std::ops::Range<u32>> =
        (0..cores).map(|c| (c * chunk).min(n)..((c + 1) * chunk).min(n)).collect();
    let run_ref = || {
        let mut total = 0usize;
        for _ in 0..iterations {
            for r in &chunks {
                total += oag::reference::generate_chains(&oag, &frontier, r.clone(), &cfg)
                    .num_elements();
            }
        }
        total
    };
    let run_opt = || {
        let mut scratch = ChainScratch::new();
        let mut total = 0usize;
        for _ in 0..iterations {
            for r in &chunks {
                total +=
                    generate_chains_with_scratch(&oag, &frontier, r.clone(), &cfg, &mut scratch)
                        .num_elements();
            }
        }
        total
    };
    let (reference_ms, optimized_ms, ref_total, opt_total) = time_pair(reps, run_ref, run_opt);
    assert_eq!(ref_total, opt_total, "chain generation kernels diverged");
    KernelResult {
        name: "chain_gen",
        reference_ms,
        optimized_ms,
        units: (ref_total / iterations) as u64,
        unit_name: "scheduled_elements_per_iteration",
    }
}

fn emit_json(path: &str, results: &[KernelResult]) {
    let host = HostMeta::collect();
    let mut body = String::new();
    body.push_str("{\n");
    body.push_str(
        "  \"description\": \"Hot-path kernel speedups: the rewritten kernels \
         (SoA set-associative cache; the OAG build by symmetric half-counting with a \
         branch-free scatter into a counter cleared as it drains, mirrored pairs kept in the \
         output rows and bounded top-k degree capping, both sides; chain \
         generation with reused epoch-tagged visited scratch) timed against the retained \
         reference kernels on identical inputs. Outputs are asserted bit-identical in the \
         same run; the workspace identity test suite (tests/hotpath_identity.rs) pins the \
         equivalence independently.\",\n",
    );
    body.push_str(
        "  \"command\": \"cargo bench -p chg-bench --features reference-kernels --bench hotpath\",\n",
    );
    body.push_str(&format!("  \"date\": \"{}\",\n", host.date()));
    body.push_str(&format!("  \"host\": {},\n", host.to_json()));
    body.push_str("  \"results\": {\n");
    for (i, r) in results.iter().enumerate() {
        body.push_str(&format!(
            "    \"{}\": {{ \"reference_ms\": {:.2}, \"optimized_ms\": {:.2}, \
             \"speedup\": {:.2}, \"{}\": {} }}{}\n",
            r.name,
            r.reference_ms,
            r.optimized_ms,
            r.speedup(),
            r.unit_name,
            r.units,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    body.push_str("  }\n}\n");
    std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `cargo bench` forwards libtest-style flags (`--bench`); ignore
    // anything unrecognized rather than failing the whole bench run.
    let smoke = args.iter().any(|a| a == "--test");
    // `cargo bench` runs the binary with the *package* root as CWD, so the
    // default lands the record next to the other BENCH_*.json at the
    // workspace root rather than inside crates/bench/.
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json").to_string()
        });
    let reps = if smoke { 1 } else { 7 };
    let scale = if smoke { Scale(0.05) } else { Scale(0.5) };
    let g = load_scaled(Dataset::WebTrackers, scale);

    let results =
        [bench_cache(smoke, reps), bench_oag_build(&g, reps), bench_chain_gen(&g, smoke, reps)];
    for r in &results {
        println!(
            "{:<10} reference {:>9.2} ms   optimized {:>9.2} ms   speedup {:>5.2}x   ({} {})",
            r.name,
            r.reference_ms,
            r.optimized_ms,
            r.speedup(),
            r.units,
            r.unit_name,
        );
    }
    if smoke {
        println!("smoke mode: kernel outputs identical; skipping JSON emission");
    } else {
        emit_json(&out, &results);
    }
}
