//! Quickstart: build a hypergraph, run PageRank under the three systems,
//! and compare cycles and off-chip memory traffic.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use chgraph::{RunConfig, System};
use hyperalgos::PageRank;
use hypergraph::datasets::Dataset;

fn main() {
    // The paper's headline dataset (synthetic stand-in, deterministic).
    let g = Dataset::WebTrackers.load();
    println!(
        "Web-trackers stand-in: {} vertices, {} hyperedges, {} bipartite edges",
        g.num_vertices(),
        g.num_hyperedges(),
        g.num_bipartite_edges()
    );

    // Default machine: 16 cores, capacity-scaled caches (Table I latencies).
    let cfg = RunConfig::new();
    let pr = PageRank::new();

    let hygra = System::Hygra.execute(&g, &pr, &cfg);
    let gla = System::Gla.execute(&g, &pr, &cfg);
    let chg = System::ChGraph.execute(&g, &pr, &cfg);

    println!(
        "\n{:<10} {:>14} {:>16} {:>10} {:>12}",
        "system", "cycles", "dram accesses", "speedup", "dram redux"
    );
    for r in [&hygra, &gla, &chg] {
        println!(
            "{:<10} {:>14} {:>16} {:>9.2}x {:>11.2}x",
            r.runtime,
            r.cycles,
            r.mem.main_memory_accesses(),
            r.speedup_over(&hygra),
            r.mem_reduction_over(&hygra),
        );
    }

    // The chain-driven schedules change only performance, never results.
    let diff = hygra
        .state
        .vertex_value
        .iter()
        .zip(&chg.state.vertex_value)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\nmax |rank difference| Hygra vs ChGraph: {diff:.2e} (float-order noise only)");

    if let Some(engine) = chg.engine {
        println!(
            "engine: {} chains generated, {} tuples delivered through the bipartite-edge FIFO",
            engine.chains_generated, engine.tuples_delivered
        );
    }
}
