//! Preprocessing cost estimation (Fig. 21 / Fig. 22).
//!
//! Both Hygra and ChGraph preprocess the input once: parse the edge list and
//! build the two bipartite CSRs. ChGraph additionally builds the two OAGs.
//! The iterative computation is simulated cycle-by-cycle, so to compare
//! *total* running time (Fig. 22) preprocessing must be expressed in the
//! same unit. This module converts preprocessing operation counts into
//! cycle estimates.
//!
//! Calibration: parsing/CSR construction is charged per bipartite edge
//! (dominated by input scanning, which is sequential and single-pass),
//! while the OAG two-hop counting kernel — a tight, branch-light loop over
//! in-cache counters that parallelizes perfectly across the 16 cores — is
//! charged per step at 1/16 the serial rate. These constants put the OAG
//! overhead in the 13–46 % band the paper reports (§VI-G) for inputs with
//! the paper's overlap profiles; the *shape* (ChGraph pays more, the
//! light-overlap WEB pays the least relative overhead) is what the Fig. 21
//! harness asserts.

use crate::PreprocessReport;
use hypergraph::Hypergraph;
use oag::OagBuildStats;

/// Cycles per bipartite edge for parsing + CSR construction.
pub const CYCLES_PER_EDGE_BUILD: u64 = 52;
/// Cycles per element (offset array initialization, counting).
pub const CYCLES_PER_ELEMENT_BUILD: u64 = 8;
/// Serial cycles per step of the paper's two-hop counting walk.
pub const CYCLES_PER_TWO_HOP_STEP: u64 = 4;
/// Serial cycles per OAG edge kept (sort + append).
pub const CYCLES_PER_OAG_EDGE: u64 = 30;
/// Parallel speedup of the OAG counting kernel (16 cores).
pub const OAG_PARALLELISM: u64 = 16;

/// Cycle estimate of the preprocessing both systems share: parsing the
/// input and building the two bipartite CSRs.
pub fn bipartite_build_cycles(g: &Hypergraph) -> u64 {
    g.num_bipartite_edges() as u64 * CYCLES_PER_EDGE_BUILD
        + (g.num_vertices() + g.num_hyperedges()) as u64 * CYCLES_PER_ELEMENT_BUILD
}

/// Cycle estimate of building one OAG from its construction statistics.
///
/// This charges the paper's preprocessing (§IV-A), not the host's build
/// loop. `stats.two_hop_steps` is the length of the full two-hop walk,
/// `Σ deg(p)²` over the pivots `p` within the pivot cap, whatever loop
/// the host actually runs. So a faster host build cannot move Fig. 21/22;
/// the `oag` crate's tests pin the closed form on every dataset and side.
pub fn oag_build_cycles(stats: &OagBuildStats) -> u64 {
    (stats.two_hop_steps * CYCLES_PER_TWO_HOP_STEP + stats.edges_kept as u64 * CYCLES_PER_OAG_EDGE)
        / OAG_PARALLELISM
}

/// Assembles the [`PreprocessReport`] for a runtime without OAGs (Hygra,
/// HATS-V, the prefetcher baseline).
pub fn report_plain(g: &Hypergraph) -> PreprocessReport {
    PreprocessReport {
        bipartite_build_ops: g.num_bipartite_edges() as u64,
        oag_build: None,
        oag_extra_bytes: 0,
        cycles_estimate: bipartite_build_cycles(g),
    }
}

/// Assembles the [`PreprocessReport`] for a chain-driven runtime that built
/// both OAGs. `merged` is the element-wise sum of the two sides' build
/// statistics; `extra_bytes` the OAGs' combined storage.
pub fn report_with_oag(
    g: &Hypergraph,
    merged: OagBuildStats,
    extra_bytes: usize,
) -> PreprocessReport {
    PreprocessReport {
        bipartite_build_ops: g.num_bipartite_edges() as u64,
        oag_build: Some(merged),
        oag_extra_bytes: extra_bytes,
        cycles_estimate: bipartite_build_cycles(g) + oag_build_cycles(&merged),
    }
}

/// Element-wise sum of two [`OagBuildStats`] (the two OAG sides).
pub fn merge_stats(a: OagBuildStats, b: OagBuildStats) -> OagBuildStats {
    OagBuildStats {
        two_hop_steps: a.two_hop_steps + b.two_hop_steps,
        pairs_considered: a.pairs_considered + b.pairs_considered,
        edges_kept: a.edges_kept + b.edges_kept,
        pivots_skipped: a.pivots_skipped + b.pivots_skipped,
        size_bytes: a.size_bytes + b.size_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_report_has_no_oag() {
        let g = hypergraph::fig1_example();
        let r = report_plain(&g);
        assert!(r.oag_build.is_none());
        assert_eq!(r.bipartite_build_ops, 12);
        assert_eq!(r.cycles_estimate, 12 * CYCLES_PER_EDGE_BUILD + 11 * CYCLES_PER_ELEMENT_BUILD);
    }

    #[test]
    fn oag_report_costs_more() {
        let g = hypergraph::fig1_example();
        let stats = OagBuildStats {
            two_hop_steps: 100,
            pairs_considered: 20,
            edges_kept: 6,
            pivots_skipped: 0,
            size_bytes: 68,
        };
        let with = report_with_oag(&g, stats, 68);
        let without = report_plain(&g);
        assert!(with.cycles_estimate > without.cycles_estimate);
        assert_eq!(with.oag_extra_bytes, 68);
    }

    #[test]
    fn merge_adds_fields() {
        let a = OagBuildStats {
            two_hop_steps: 1,
            pairs_considered: 2,
            edges_kept: 3,
            pivots_skipped: 4,
            size_bytes: 5,
        };
        let m = merge_stats(a, a);
        assert_eq!(m.two_hop_steps, 2);
        assert_eq!(m.edges_kept, 6);
        assert_eq!(m.size_bytes, 10);
    }

    #[test]
    fn oag_overhead_band_on_datasets() {
        // The calibration target: OAG preprocessing adds a bounded share on
        // the stand-in datasets (the paper reports 13-46 %; the densest
        // downscaled stand-ins run above that band — see EXPERIMENTS.md),
        // with WEB below the maximum of the five.
        use hypergraph::datasets::Dataset;
        use hypergraph::Side;
        use oag::OagConfig;
        let mut overheads = Vec::new();
        for ds in Dataset::ALL {
            let g = ds.load();
            let (_, sh) = OagConfig::new().build_with_stats(&g, Side::Hyperedge);
            let (_, sv) = OagConfig::new().build_with_stats(&g, Side::Vertex);
            let oag = oag_build_cycles(&merge_stats(sh, sv)) as f64;
            let base = bipartite_build_cycles(&g) as f64;
            overheads.push((ds, oag / base));
        }
        for &(ds, ov) in &overheads {
            assert!(ov > 0.03 && ov < 2.5, "{ds}: OAG overhead {ov:.2} out of plausible band");
        }
        let web = overheads.iter().find(|(d, _)| *d == Dataset::WebTrackers).unwrap().1;
        let max = overheads.iter().map(|&(_, o)| o).fold(0.0f64, f64::max);
        assert!(web < max, "WEB must not have the largest OAG overhead");
    }
}
