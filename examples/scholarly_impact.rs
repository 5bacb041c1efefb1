//! The paper's introductory example: measuring scholarly impact on an
//! author-collaboration network.
//!
//! Authors are vertices and each co-authored paper is a hyperedge, so a
//! paper with five authors is one relationship — not ten pairwise edges.
//! The example builds a synthetic collaboration network, ranks authors with
//! hypergraph PageRank, and contrasts the result with PageRank on the
//! clique-expanded ordinary graph, where prolific large collaborations
//! drown out selective ones (the inaccuracy the paper's introduction
//! describes).
//!
//! ```text
//! cargo run --release --example scholarly_impact
//! ```

use chgraph::{RunConfig, System};
use hyperalgos::PageRank;
use hypergraph::{Hypergraph, HypergraphBuilder, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NUM_AUTHORS: usize = 3_000;
const NUM_PAPERS: usize = 5_000;

/// Builds a synthetic collaboration network: research groups write runs of
/// papers with overlapping author subsets (exactly the "family" structure
/// real co-authorship exhibits), plus occasional cross-group papers.
fn collaboration_network(seed: u64) -> Hypergraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = HypergraphBuilder::new(NUM_AUTHORS);
    let mut papers = 0usize;
    while papers < NUM_PAPERS {
        // A group: a PI and their collaborators, clustered in id space.
        let group_size = rng.gen_range(3..=12);
        let base = rng.gen_range(0..(NUM_AUTHORS - group_size * 8) as u32);
        let members: Vec<u32> =
            (0..group_size).map(|_| base + rng.gen_range(0..(group_size * 8) as u32)).collect();
        let output = rng.gen_range(1..=20).min(NUM_PAPERS - papers);
        for _ in 0..output {
            // Each paper: the PI, a core subset, sometimes an external guest.
            let mut authors = vec![members[0]];
            for &m in &members[1..] {
                if rng.gen_bool(0.6) {
                    authors.push(m);
                }
            }
            if rng.gen_bool(0.2) {
                authors.push(rng.gen_range(0..NUM_AUTHORS as u32));
            }
            b.add_hyperedge(authors.into_iter().map(VertexId::new)).expect("valid paper");
            papers += 1;
        }
    }
    b.build()
}

/// Clique-expands the hypergraph into a 2-uniform one (every co-author pair
/// becomes an edge) — the lossy ordinary-graph representation.
fn clique_expand(g: &Hypergraph) -> Hypergraph {
    let mut b = HypergraphBuilder::new(g.num_vertices());
    let mut seen = std::collections::HashSet::new();
    for h in 0..g.num_hyperedges() as u32 {
        let vs = g.incidence(hypergraph::Side::Hyperedge, h);
        for (i, &a) in vs.iter().enumerate() {
            for &c in &vs[i + 1..] {
                let key = (a.min(c), a.max(c));
                if seen.insert(key) {
                    b.add_hyperedge([VertexId::new(key.0), VertexId::new(key.1)])
                        .expect("valid pair");
                }
            }
        }
    }
    b.build()
}

fn top_k(ranks: &[f64], k: usize) -> Vec<(usize, f64)> {
    let mut idx: Vec<usize> = (0..ranks.len()).collect();
    idx.sort_by(|&a, &b| ranks[b].total_cmp(&ranks[a]));
    idx.into_iter().take(k).map(|i| (i, ranks[i])).collect()
}

fn main() {
    let g = collaboration_network(0xC0FFEE);
    println!(
        "collaboration network: {} authors, {} papers, {} authorships",
        g.num_vertices(),
        g.num_hyperedges(),
        g.num_bipartite_edges()
    );

    let cfg = RunConfig::new();
    let hyper = System::ChGraph.execute(&g, &PageRank::new(), &cfg);

    let clique = clique_expand(&g);
    println!(
        "clique expansion blows {} authorships up into {} pairwise edges",
        g.num_bipartite_edges(),
        clique.num_hyperedges()
    );
    let flat = System::Hygra.execute(&clique, &PageRank::new(), &cfg);

    println!("\ntop authors by hypergraph PageRank (papers weighted once):");
    for (author, rank) in top_k(&hyper.state.vertex_value, 8) {
        println!("  author {author:>5}: {rank:.3e}");
    }
    println!("\ntop authors by clique-expanded PageRank (large collaborations inflated):");
    for (author, rank) in top_k(&flat.state.vertex_value, 8) {
        println!("  author {author:>5}: {rank:.3e}");
    }

    // How much do the two rankings disagree in their top-50?
    let top_h: std::collections::HashSet<usize> =
        top_k(&hyper.state.vertex_value, 50).into_iter().map(|(a, _)| a).collect();
    let top_c: std::collections::HashSet<usize> =
        top_k(&flat.state.vertex_value, 50).into_iter().map(|(a, _)| a).collect();
    let agree = top_h.intersection(&top_c).count();
    println!(
        "\ntop-50 agreement between the two models: {agree}/50 — the representations \
         genuinely rank impact differently"
    );
    println!(
        "hypergraph run: {} cycles on the simulated 16-core machine ({} DRAM accesses)",
        hyper.cycles,
        hyper.mem.main_memory_accesses()
    );
}
