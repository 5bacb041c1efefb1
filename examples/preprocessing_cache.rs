//! The amortization story of §VI-G: preprocess once — build the bipartite
//! structure and both OAGs, cache them on disk in the binary formats — then
//! run many different algorithms against the cached artifacts.
//!
//! ```text
//! cargo run --release --example preprocessing_cache
//! ```

use chg_bench::{ArtifactStore, PreprocessCache, Scale};
use chgraph::{RunConfig, System};
use hyperalgos::{try_run_workload_prepared, Workload};
use hypergraph::datasets::Dataset;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let dir = std::env::temp_dir().join("chgraph-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(PreprocessCache::new(&dir).expect("create cache dir"));
    let cfg = RunConfig::new();

    // A fresh store (cold memory) over the shared disk cache.
    let prepare_in_fresh_store = || {
        let t0 = Instant::now();
        let store = ArtifactStore::new(1, 1, Some(cache.clone()));
        let (g, prepared, _) = store.prepared(Dataset::LiveJournal, Scale::FULL, &cfg);
        (g, prepared, t0.elapsed())
    };

    // The first store builds the graph and both OAGs and persists them.
    let (g, built, build_time) = prepare_in_fresh_store();
    println!(
        "preprocessed LiveJournal stand-in in {build_time:?}: {} hyperedges, \
         H-OAG {} edges, V-OAG {} edges",
        g.num_hyperedges(),
        built.hyperedge.num_edge_entries(),
        built.vertex.num_edge_entries()
    );

    // The second restores all three, with build stats, from the disk cache.
    let (g2, prepared, load_time) = prepare_in_fresh_store();
    assert_eq!(g, g2);
    assert_eq!(built.hyperedge, prepared.hyperedge);
    assert_eq!(built.vertex, prepared.vertex);
    assert_eq!(built.report, prepared.report);
    println!(
        "reloaded all three artifacts from the binary cache in {load_time:?} \
         ({:.0}x faster than rebuilding)",
        build_time.as_secs_f64() / load_time.as_secs_f64().max(1e-9)
    );
    println!("{}", cache.summary());

    // One preprocessing, many algorithms (the paper's amortization claim):
    // every execution below shares the restored OAGs.
    println!("\nrunning the whole workload suite against the cached input:");
    for w in Workload::HYPERGRAPH {
        let t0 = Instant::now();
        let r = try_run_workload_prepared(w, &System::ChGraph, &g2, &cfg, Some(&*prepared))
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
