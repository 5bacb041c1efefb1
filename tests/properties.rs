//! Property-based tests over the whole stack.

use hypergraph::{Frontier, Hypergraph, HypergraphBuilder, Side, VertexId};
use oag::{generate_chains, ChainConfig, OagConfig};
use proptest::prelude::*;

/// Strategy: an arbitrary small hypergraph as (num_vertices, hyperedges).
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (2usize..40).prop_flat_map(|nv| {
        (Just(nv), prop::collection::vec(prop::collection::vec(0u32..nv as u32, 1..8), 1..30))
            .prop_map(|(nv, rows)| {
                let mut b = HypergraphBuilder::new(nv);
                for row in rows {
                    b.add_hyperedge(row.into_iter().map(VertexId::new)).expect("in range");
                }
                b.build()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn text_io_roundtrips(g in arb_hypergraph()) {
        let mut buf = Vec::new();
        hypergraph::io::write_text(&g, &mut buf).unwrap();
        let g2 = hypergraph::io::read_text(&buf[..]).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn csr_sides_are_mutually_consistent(g in arb_hypergraph()) {
        // v in N(h) iff h in N(v).
        for h in 0..g.num_hyperedges() as u32 {
            for &v in g.incidence(Side::Hyperedge, h) {
                prop_assert!(g.incidence(Side::Vertex, v).contains(&h));
            }
        }
        for v in 0..g.num_vertices() as u32 {
            for &h in g.incidence(Side::Vertex, v) {
                prop_assert!(g.incidence(Side::Hyperedge, h).contains(&v));
            }
        }
    }

    #[test]
    fn oag_matches_naive_intersections(g in arb_hypergraph(), w_min in 1u32..4) {
        let oag = OagConfig::new()
            .with_w_min(w_min)
            .with_max_degree(u32::MAX)
            .with_max_pivot_degree(u32::MAX)
            .build(&g, Side::Hyperedge);
        for a in 0..g.num_hyperedges() as u32 {
            for b in 0..g.num_hyperedges() as u32 {
                if a == b { continue; }
                let sa = g.incidence(Side::Hyperedge, a);
                let sb = g.incidence(Side::Hyperedge, b);
                let w = sa.iter().filter(|v| sb.contains(v)).count() as u32;
                if w >= w_min {
                    prop_assert_eq!(oag.weight(a, b), Some(w));
                } else {
                    prop_assert_eq!(oag.weight(a, b), None);
                }
            }
        }
    }

    #[test]
    fn chains_are_a_permutation_of_the_active_set(
        g in arb_hypergraph(),
        d_max in 1usize..20,
        keep in prop::collection::vec(any::<bool>(), 1..30),
    ) {
        let n = g.num_hyperedges();
        let oag = OagConfig::new().with_w_min(1).build(&g, Side::Hyperedge);
        let frontier = Frontier::from_iter(
            n,
            (0..n as u32).filter(|&h| keep.get(h as usize).copied().unwrap_or(false)),
        );
        let chains = generate_chains(&oag, &frontier, 0..n as u32, &ChainConfig::new(d_max));
        let mut sched: Vec<u32> = chains.schedule().to_vec();
        sched.sort_unstable();
        prop_assert_eq!(sched, frontier.to_vec());
        prop_assert!(chains.max_chain_len() <= d_max.max(1));
    }

    #[test]
    fn frontier_semantics_match_a_btreeset(
        ops in prop::collection::vec((0u32..64, any::<bool>()), 0..200)
    ) {
        let mut f = Frontier::empty(64);
        let mut set = std::collections::BTreeSet::new();
        for (id, insert) in ops {
            if insert {
                prop_assert_eq!(f.insert(id), set.insert(id));
            } else {
                prop_assert_eq!(f.remove(id), set.remove(&id));
            }
            prop_assert_eq!(f.len(), set.len());
        }
        prop_assert_eq!(f.to_vec(), set.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn runtimes_agree_on_random_hypergraphs(g in arb_hypergraph()) {
        use chgraph::{MinLabel, RunConfig, System};
        let cfg = RunConfig::new().with_system(archsim::SystemConfig::scaled(2));
        let a = System::Hygra.execute(&g, &MinLabel, &cfg);
        let b = System::ChGraph.execute(&g, &MinLabel, &cfg);
        prop_assert_eq!(a.state.vertex_value, b.state.vertex_value);
        prop_assert_eq!(a.state.hyperedge_value, b.state.hyperedge_value);
    }

    #[test]
    fn reorder_is_an_isomorphism(g in arb_hypergraph()) {
        let (r, _) = chgraph::baseline::reorder::reorder(&g);
        prop_assert_eq!(r.num_vertices(), g.num_vertices());
        prop_assert_eq!(r.num_hyperedges(), g.num_hyperedges());
        prop_assert_eq!(r.num_bipartite_edges(), g.num_bipartite_edges());
        let degs = |g: &Hypergraph, side: Side| {
            let mut d: Vec<usize> = (0..g.num_on(side)).map(|i| g.csr_for(side).degree(i)).collect();
            d.sort_unstable();
            d
        };
        prop_assert_eq!(degs(&r, Side::Hyperedge), degs(&g, Side::Hyperedge));
        prop_assert_eq!(degs(&r, Side::Vertex), degs(&g, Side::Vertex));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulated cache must behave exactly like a reference LRU model.
    #[test]
    fn cache_matches_reference_lru(
        addrs in prop::collection::vec((0u64..64, any::<bool>()), 1..300)
    ) {
        use archsim::{Cache, CacheConfig};
        // 2 sets x 4 ways.
        let mut cache = Cache::new(&CacheConfig { size_bytes: 512, ways: 4, latency: 1 }, 64, 1);
        // Reference: per-set LRU list of line numbers.
        let mut sets: Vec<Vec<u64>> = vec![Vec::new(); 2];
        for (line, write) in addrs {
            let addr = line * 64;
            let set = (line % 2) as usize;
            let expected_hit = sets[set].contains(&line);
            let got = cache.access(0, addr, write);
            prop_assert_eq!(got.hit, expected_hit, "line {} set {}", line, set);
            if expected_hit {
                let pos = sets[set].iter().position(|&l| l == line).unwrap();
                sets[set].remove(pos);
            } else if sets[set].len() == 4 {
                let victim = sets[set].remove(0);
                prop_assert_eq!(got.evicted, Some(victim * 64));
            }
            sets[set].push(line);
        }
    }
}
