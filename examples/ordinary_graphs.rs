//! The generality study (paper §VI-I): conventional graphs are 2-uniform
//! hypergraphs, so ChGraph runs ordinary graph workloads unmodified.
//!
//! Compares the index-ordered baseline ("Ligra" — exactly the special case
//! of Hygra on 2-uniform input), the HATS hardware traversal scheduler, and
//! ChGraph on SSSP and Adsorption over the com-Amazon / soc-Pokec stand-ins.
//!
//! ```text
//! cargo run --release --example ordinary_graphs
//! ```

use chgraph::{RunConfig, System};
use hyperalgos::{try_run_workload_prepared, Workload};
use hypergraph::datasets::GraphDataset;

fn main() {
    let cfg = RunConfig::new();
    println!(
        "{:<11} {:<6} {:<10} {:>13} {:>15} {:>9}",
        "workload", "graph", "system", "cycles", "dram accesses", "speedup"
    );
    for w in Workload::GRAPH {
        for gd in GraphDataset::ALL {
            let g = gd.load();
            let run = |sys: System| {
                try_run_workload_prepared(w, &sys, &g, &cfg, None)
                    .unwrap_or_else(|e| panic!("{w} under {}: {e}", sys.name()))
            };
            let ligra = run(System::Hygra);
            for (label, sys) in
                [("Ligra", System::Hygra), ("HATS", System::HatsV), ("ChGraph", System::ChGraph)]
            {
                let r = run(sys);
                println!(
                    "{:<11} {:<6} {:<10} {:>13} {:>15} {:>8.2}x",
                    w.abbrev(),
                    gd.abbrev(),
                    label,
                    r.cycles,
                    r.mem.main_memory_accesses(),
                    r.speedup_over(&ligra)
                );
            }
            println!();
        }
    }
    println!(
        "For 2-uniform inputs the OAG coincides with the input graph's \
         adjacency, so ChGraph degenerates gracefully to a HATS-class \
         traversal scheduler with a prefetcher (paper SVI-I)."
    );
}
