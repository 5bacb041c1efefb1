//! Design-space exploration of the ChGraph engine: sweep the chain depth
//! bound `D_max`, the OAG threshold `W_min`, and the FIFO capacity, and
//! report the best configuration alongside the hardware budget — the kind
//! of study an architect would run before freezing the RTL.
//!
//! ```text
//! cargo run --release --example accelerator_study
//! ```

use chgraph::engine::EngineCostModel;
use chgraph::{RunConfig, System};
use hyperalgos::PageRank;
use hypergraph::datasets::Dataset;
use oag::{ChainConfig, OagConfig};

fn main() {
    let g = Dataset::LiveJournal.load();
    let pr = PageRank::new().with_iterations(5);
    let baseline = System::Hygra.execute(&g, &pr, &RunConfig::new());
    println!(
        "LiveJournal stand-in, PR x5 iterations; Hygra baseline: {} cycles\n",
        baseline.cycles
    );

    println!(
        "{:<8} {:<8} {:<6} {:>12} {:>9} {:>11}",
        "D_max", "W_min", "FIFO", "cycles", "speedup", "dram redux"
    );
    let mut best: Option<(u64, String)> = None;
    for d_max in [4usize, 8, 16, 32] {
        for w_min in [1u32, 3, 5] {
            for fifo in [8usize, 32] {
                let mut cfg = RunConfig::new()
                    .with_chain(ChainConfig::new(d_max))
                    .with_oag(OagConfig::new().with_w_min(w_min));
                cfg.fifo_capacity = fifo;
                let r = System::ChGraph.execute(&g, &pr, &cfg);
                let line = format!(
                    "{:<8} {:<8} {:<6} {:>12} {:>8.2}x {:>10.2}x",
                    d_max,
                    w_min,
                    fifo,
                    r.cycles,
                    r.speedup_over(&baseline),
                    r.mem_reduction_over(&baseline)
                );
                println!("{line}");
                if best.as_ref().is_none_or(|(c, _)| r.cycles < *c) {
                    best = Some((r.cycles, format!("D_max={d_max}, W_min={w_min}, FIFO={fifo}")));
                }
            }
        }
    }

    let (cycles, config) = best.expect("sweep is nonempty");
    println!("\nbest configuration: {config} ({cycles} cycles)");

    let cost = EngineCostModel::paper();
    println!(
        "hardware budget at the paper's design point: {} B of engine storage, \
         {:.3} mm^2 ({:.2}% of a 65 nm core), {:.0} mW ({:.2}% of TDP)",
        cost.total_storage_bytes(),
        cost.area_mm2,
        cost.area_fraction_of_core() * 100.0,
        cost.power_mw,
        cost.power_fraction_of_tdp() * 100.0
    );
}
