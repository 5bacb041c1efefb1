//! Property-based verification of the algorithms against their naive
//! references, on randomly generated hypergraphs.

use chgraph::{RunConfig, System};
use hyperalgos::{
    default_source, reference, Bfs, ConnectedComponents, CoreDecomposition, Mis, PageRank, Sssp,
};
use hypergraph::generate::GeneratorConfig;
use hypergraph::Hypergraph;
use proptest::prelude::*;

/// Random small family-model hypergraphs (the structured regime) and
/// unstructured ones (adversarial for the chain machinery).
fn arb_graph() -> impl Strategy<Value = Hypergraph> {
    (50usize..300, 30usize..200, 1usize..12, 0u64..1_000, prop::bool::ANY).prop_map(
        |(nv, nh, fam, seed, structured)| {
            let mut cfg = GeneratorConfig::new(nv.max(64), nh);
            cfg = cfg.with_seed(seed);
            if structured {
                cfg = cfg.with_family_range(fam, fam * 4).with_member_prob(0.8);
            } else {
                cfg = cfg.with_family_range(1, 2).with_member_prob(0.3).with_noise(3);
            }
            cfg.generate()
        },
    )
}

fn cfg() -> RunConfig {
    RunConfig::new().with_system(archsim::SystemConfig::scaled(2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bfs_matches_reference(g in arb_graph()) {
        let src = default_source(&g);
        let r = System::Hygra.execute(&g, &Bfs::new(src), &cfg());
        let (vd, hd) = reference::bfs(&g, src);
        prop_assert_eq!(r.state.vertex_value, vd);
        prop_assert_eq!(r.state.hyperedge_value, hd);
    }

    #[test]
    fn cc_matches_reference(g in arb_graph()) {
        let r = System::ChGraph.execute(&g, &ConnectedComponents, &cfg());
        prop_assert_eq!(r.state.vertex_value, reference::connected_components(&g));
    }

    #[test]
    fn coreness_matches_reference(g in arb_graph()) {
        let r = System::Hygra.execute(&g, &CoreDecomposition::new(), &cfg());
        let got = CoreDecomposition::coreness(&r.state);
        prop_assert_eq!(got, reference::coreness(&g));
    }

    #[test]
    fn mis_is_always_valid_and_maximal(g in arb_graph()) {
        let r = System::ChGraph.execute(&g, &Mis, &cfg());
        reference::assert_valid_mis(&g, &Mis::statuses(&r.state));
    }

    #[test]
    fn sssp_matches_dijkstra(g in arb_graph()) {
        let src = default_source(&g);
        let r = System::Hygra.execute(&g, &Sssp::new(src), &cfg());
        prop_assert_eq!(r.state.vertex_value, reference::sssp(&g, src));
    }

    #[test]
    fn pagerank_matches_reference_within_float_noise(g in arb_graph()) {
        let pr = PageRank::new().with_iterations(4);
        let r = System::Hygra.execute(&g, &pr, &cfg());
        let want = reference::pagerank(&g, 0.85, 4);
        for (got, want) in r.state.vertex_value.iter().zip(&want) {
            prop_assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn bc_dependencies_are_nonnegative_and_zero_off_component(g in arb_graph()) {
        let src = default_source(&g);
        let r = hyperalgos::try_run_bc_prepared(System::Hygra, &g, &cfg(), src, None).unwrap();
        let (vd, _) = reference::bfs(&g, src);
        for (v, (&delta, &dist)) in r.state.vertex_value.iter().zip(&vd).enumerate() {
            prop_assert!(delta >= 0.0, "v{v} has negative dependency {delta}");
            if dist.is_infinite() && v != src.index() {
                prop_assert_eq!(delta, 0.0, "unreachable v{} must have zero delta", v);
            }
        }
    }
}
