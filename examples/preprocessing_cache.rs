//! The amortization story of §VI-G: preprocess once — build the bipartite
//! structure and both OAGs, cache them on disk in the binary formats — then
//! run many different algorithms against the cached artifacts.
//!
//! ```text
//! cargo run --release --example preprocessing_cache
//! ```

use chgraph::{RunConfig, System};
use hyperalgos::{try_run_workload_prepared, Workload};
use hypergraph::{Hypergraph, Side};
use oag::{Oag, OagConfig};
use std::io::BufReader;
use std::time::Instant;

fn cache_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("chgraph-cache");
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

fn preprocess_and_cache() -> (Hypergraph, Oag, Oag, std::time::Duration) {
    let t0 = Instant::now();
    let g = hypergraph::datasets::Dataset::LiveJournal.load();
    let h_oag = OagConfig::new().build(&g, Side::Hyperedge);
    let v_oag = OagConfig::new().build(&g, Side::Vertex);
    let took = t0.elapsed();
    let dir = cache_dir();
    hypergraph::io::write_binary(&g, std::fs::File::create(dir.join("lj.chg")).unwrap())
        .expect("write hypergraph");
    oag::io::write_binary(&h_oag, std::fs::File::create(dir.join("lj.hoag")).unwrap())
        .expect("write H-OAG");
    oag::io::write_binary(&v_oag, std::fs::File::create(dir.join("lj.voag")).unwrap())
        .expect("write V-OAG");
    (g, h_oag, v_oag, took)
}

fn load_cached() -> (Hypergraph, Oag, Oag, std::time::Duration) {
    let dir = cache_dir();
    let t0 = Instant::now();
    let g = hypergraph::io::read_binary(BufReader::new(
        std::fs::File::open(dir.join("lj.chg")).unwrap(),
    ))
    .expect("read hypergraph");
    let h_oag =
        oag::io::read_binary(BufReader::new(std::fs::File::open(dir.join("lj.hoag")).unwrap()))
            .expect("read H-OAG");
    let v_oag =
        oag::io::read_binary(BufReader::new(std::fs::File::open(dir.join("lj.voag")).unwrap()))
            .expect("read V-OAG");
    (g, h_oag, v_oag, t0.elapsed())
}

fn main() {
    let (g, h_oag, v_oag, build_time) = preprocess_and_cache();
    println!(
        "preprocessed LiveJournal stand-in in {build_time:?}: {} hyperedges, \
         H-OAG {} edges, V-OAG {} edges",
        g.num_hyperedges(),
        h_oag.num_edge_entries(),
        v_oag.num_edge_entries()
    );

    let (g2, h2, v2, load_time) = load_cached();
    assert_eq!(g, g2);
    assert_eq!(h_oag, h2);
    assert_eq!(v_oag, v2);
    println!(
        "reloaded all three artifacts from the binary cache in {load_time:?} \
         ({:.0}x faster than rebuilding)",
        build_time.as_secs_f64() / load_time.as_secs_f64().max(1e-9)
    );

    // One preprocessing, many algorithms (the paper's amortization claim).
    let cfg = RunConfig::new();
    println!("\nrunning the whole workload suite against the cached input:");
    for w in Workload::HYPERGRAPH {
        let t0 = Instant::now();
        let r = try_run_workload_prepared(w, &System::ChGraph, &g2, &cfg, None)
            .unwrap_or_else(|e| panic!("{w}: {e}"));
        println!(
            "  {:<7} {:>12} simulated cycles, {:>9} DRAM accesses  (host {:?})",
            w.abbrev(),
            r.cycles,
            r.mem.main_memory_accesses(),
            t0.elapsed()
        );
    }
    println!(
        "\nthe OAG build cost is paid once; every execution above reuses it \
         (paper SVI-G: overheads amortized across algorithms)."
    );
}
