//! Overlap-aware partitioning composed with chain generation: the paper's
//! remark that GLA is "compatible and flexible with other partitioning
//! methods" (SIV-B), demonstrated end to end.

use hypergraph::chunk::partition as chunked;
use hypergraph::generate::GeneratorConfig;
use hypergraph::partition::{apply_hyperedge_partition, co_location_rate, streaming_partition};
use hypergraph::{Frontier, Hypergraph, Side};
use oag::{generate_chains, ChainConfig, OagConfig};

/// A family-structured input with all id locality destroyed, so contiguous
/// chunking is blind to families — the case partitioners exist for.
fn shuffled_families() -> Hypergraph {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let g = GeneratorConfig::new(6_000, 3_000)
        .with_seed(17)
        .with_family_range(6, 48)
        .with_member_prob(0.85)
        .generate();
    let mut rng = SmallRng::seed_from_u64(99);
    let mut order: Vec<u32> = (0..g.num_hyperedges() as u32).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut b = hypergraph::HypergraphBuilder::new(g.num_vertices());
    for &h in &order {
        b.add_hyperedge(
            g.incidence(Side::Hyperedge, h).iter().map(|&v| hypergraph::VertexId::new(v)),
        )
        .expect("copied hyperedges are valid");
    }
    b.build()
}

fn element_weighted_chain_len(g: &Hypergraph, num_chunks: usize) -> f64 {
    let oag = OagConfig::new().build(g, Side::Hyperedge);
    let chunks = chunked(g, Side::Hyperedge, num_chunks);
    let frontier = Frontier::full(g.num_hyperedges());
    let mut elements = 0usize;
    let mut weighted = 0usize;
    for c in &chunks {
        let chains = generate_chains(&oag, &frontier, c.first..c.last, &ChainConfig::default());
        for chain in chains.iter() {
            weighted += chain.len() * chain.len();
            elements += chain.len();
        }
    }
    weighted as f64 / elements.max(1) as f64
}

#[test]
fn partitioned_input_yields_longer_chains() {
    let g = shuffled_families();
    let parts = streaming_partition(&g, 16);
    let (reordered, _) = apply_hyperedge_partition(&g, &parts);
    let before = element_weighted_chain_len(&g, 16);
    let after = element_weighted_chain_len(&reordered, 16);
    assert!(
        after > before * 1.5,
        "partitioning must lengthen per-chunk chains ({before:.2} -> {after:.2})"
    );
}

#[test]
fn partitioning_improves_chgraph_on_globally_shuffled_inputs() {
    use chgraph::{RunConfig, System};
    let g = shuffled_families();
    let parts = streaming_partition(&g, 16);
    let (reordered, _) = apply_hyperedge_partition(&g, &parts);
    let cfg = RunConfig::new();
    let pr = hyperalgos::PageRank::new().with_iterations(3);
    let base = System::ChGraph.execute(&g, &pr, &cfg);
    let part = System::ChGraph.execute(&reordered, &pr, &cfg);
    assert!(
        part.mem.main_memory_accesses() < base.mem.main_memory_accesses(),
        "co-locating families must cut ChGraph's off-chip traffic ({} vs {})",
        part.mem.main_memory_accesses(),
        base.mem.main_memory_accesses()
    );
    // Results are invariant under the renumbering up to the permutation:
    // compare total rank mass.
    let sum = |s: &[f64]| s.iter().sum::<f64>();
    assert!((sum(&base.state.vertex_value) - sum(&part.state.vertex_value)).abs() < 1e-9);
}

#[test]
fn co_location_rate_bounds() {
    let g = shuffled_families();
    let all_one = vec![0u32; g.num_hyperedges()];
    assert_eq!(co_location_rate(&g, &all_one, 3), 1.0);
    let alternating: Vec<u32> = (0..g.num_hyperedges()).map(|h| (h % 2) as u32).collect();
    let r = co_location_rate(&g, &alternating, 3);
    assert!((0.0..1.0).contains(&r));
}
