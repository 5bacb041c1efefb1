//! Comparison baselines. HATS-V (§II-C) and the event-driven hardware
//! prefetcher (§VI-H) are [`System::HatsV`](crate::System::HatsV) and
//! [`System::Prefetcher`](crate::System::Prefetcher); the reordering
//! technique (§VI-H) is [`reorder`].

pub mod reorder;

#[cfg(test)]
mod tests {
    use crate::{MinLabel, RunConfig, System};
    use archsim::SystemConfig;
    use hypergraph::Hypergraph;

    fn graph() -> Hypergraph {
        // Quarter-scale Web-trackers stand-in, matching the scaled caches
        // below (the paper's capacity-miss regime at test size).
        let mut c = hypergraph::datasets::Dataset::WebTrackers.config();
        c.num_vertices /= 4;
        c.num_hyperedges /= 4;
        c.generate()
    }

    fn cfg() -> RunConfig {
        let mut s = SystemConfig::scaled(4);
        s.l1.size_bytes = 1024;
        s.l2.size_bytes = 4 * 1024;
        s.l3.size_bytes = 16 * 1024;
        RunConfig::new().with_system(s)
    }

    #[test]
    fn baselines_compute_correct_results() {
        let g = graph();
        let cfg = cfg();
        let reference = System::Hygra.execute(&g, &MinLabel, &cfg);
        for (name, report) in [
            ("hats", System::HatsV.execute(&g, &MinLabel, &cfg)),
            ("pf", System::Prefetcher.execute(&g, &MinLabel, &cfg)),
        ] {
            assert_eq!(report.state.vertex_value, reference.state.vertex_value, "{name}");
        }
    }

    #[test]
    fn chgraph_beats_hats_v() {
        let g = graph();
        let cfg = cfg();
        let pr = crate::testutil::PrLike { iterations: 3 };
        let hats = System::HatsV.execute(&g, &pr, &cfg);
        let chg = System::ChGraph.execute(&g, &pr, &cfg);
        assert!(
            chg.cycles < hats.cycles,
            "ChGraph ({}) must beat HATS-V ({})",
            chg.cycles,
            hats.cycles
        );
    }

    #[test]
    fn prefetcher_helps_hygra_but_not_as_much_as_chgraph() {
        let g = graph();
        let cfg = cfg();
        let pr = crate::testutil::PrLike { iterations: 3 };
        let hygra = System::Hygra.execute(&g, &pr, &cfg);
        let pf = System::Prefetcher.execute(&g, &pr, &cfg);
        let chg = System::ChGraph.execute(&g, &pr, &cfg);
        assert!(pf.cycles < hygra.cycles, "prefetching must hide some latency");
        assert!(
            (chg.cycles as f64) < 1.1 * pf.cycles as f64,
            "ChGraph must at least match the prefetcher at test scale              (integration tests assert strict wins at larger scale)"
        );
        // The prefetcher does not reduce DRAM traffic (it may add noise).
        assert!(
            pf.mem.main_memory_accesses() as f64 >= hygra.mem.main_memory_accesses() as f64 * 0.95,
            "prefetcher must not meaningfully reduce main-memory accesses"
        );
    }
}
