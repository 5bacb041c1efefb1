//! Single-source shortest paths (weighted, Bellman-Ford style).

use chgraph::{Algorithm, State, UpdateOutcome};
use hypergraph::{Frontier, HyperedgeId, Hypergraph, VertexId};

/// Single-source shortest paths with per-hyperedge weights.
///
/// Traversing a hyperedge `h` costs [`Sssp::weight`]; the distance of a
/// vertex is the cheapest sequence of hyperedge traversals from the source.
/// On 2-uniform hypergraphs this is ordinary weighted SSSP — the
/// generality-study configuration of the paper's §VI-I.
///
/// Synchronous Bellman-Ford: each iteration relaxes the frontier of
/// improved elements until a fixpoint.
#[derive(Clone, Copy, Debug)]
pub struct Sssp {
    /// The source vertex.
    pub source: VertexId,
}

impl Sssp {
    /// SSSP from vertex `source`.
    pub fn new(source: VertexId) -> Self {
        Sssp { source }
    }

    /// The deterministic weight of hyperedge `h`: `1 + (h mod 4)`.
    pub fn weight(h: HyperedgeId) -> f64 {
        1.0 + (h.raw() % 4) as f64
    }
}

impl Default for Sssp {
    fn default() -> Self {
        Sssp::new(VertexId::new(0))
    }
}

impl Algorithm for Sssp {
    fn name(&self) -> &'static str {
        "sssp"
    }

    fn init(&self, g: &Hypergraph) -> (State, Frontier) {
        let mut state = State::filled(g, f64::INFINITY, f64::INFINITY);
        state.vertex_value[self.source.index()] = 0.0;
        (state, Frontier::from_iter(g.num_vertices(), [self.source.raw()]))
    }

    fn apply_hf(&self, _g: &Hypergraph, state: &mut State, v: u32, h: u32) -> UpdateOutcome {
        // Entering the hyperedge from an improved vertex.
        let cand = state.vertex_value[v as usize];
        if cand < state.hyperedge_value[h as usize] {
            state.hyperedge_value[h as usize] = cand;
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else {
            UpdateOutcome::NONE
        }
    }

    fn apply_vf(&self, _g: &Hypergraph, state: &mut State, h: u32, v: u32) -> UpdateOutcome {
        // Leaving the hyperedge costs its weight.
        let cand = state.hyperedge_value[h as usize] + Sssp::weight(HyperedgeId::new(h));
        if cand < state.vertex_value[v as usize] {
            state.vertex_value[v as usize] = cand;
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else {
            UpdateOutcome::NONE
        }
    }

    fn hf_compute_cycles(&self) -> u64 {
        4
    }

    fn vf_compute_cycles(&self) -> u64 {
        5
    }

    fn max_iterations(&self) -> usize {
        10_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use chgraph::{RunConfig, System};
    use hypergraph::generate::two_uniform_graph;

    #[test]
    fn matches_dijkstra_on_graphs() {
        for seed in [4u64, 13] {
            let g = two_uniform_graph(200, 600, seed);
            let r = System::Hygra.execute(&g, &Sssp::default(), &RunConfig::new());
            let want = reference::sssp(&g, VertexId::new(0));
            assert_eq!(r.state.vertex_value, want, "seed {seed}");
        }
    }

    #[test]
    fn matches_dijkstra_on_hypergraphs() {
        let g = hypergraph::generate::GeneratorConfig::new(300, 200).with_seed(6).generate();
        let r = System::Hygra.execute(&g, &Sssp::default(), &RunConfig::new());
        assert_eq!(r.state.vertex_value, reference::sssp(&g, VertexId::new(0)));
    }

    #[test]
    fn runtimes_agree() {
        let g = two_uniform_graph(150, 500, 3);
        let cfg = RunConfig::new();
        let a = System::Hygra.execute(&g, &Sssp::default(), &cfg);
        let b = System::ChGraph.execute(&g, &Sssp::default(), &cfg);
        assert_eq!(a.state.vertex_value, b.state.vertex_value);
    }

    #[test]
    fn weights_are_in_declared_range() {
        for h in 0..16u32 {
            let w = Sssp::weight(HyperedgeId::new(h));
            assert!((1.0..=4.0).contains(&w));
        }
        assert_eq!(Sssp::weight(HyperedgeId::new(5)), 2.0);
    }
}
