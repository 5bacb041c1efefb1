//! Breadth-first search.

use chgraph::{Algorithm, State, UpdateOutcome};
use hypergraph::{Frontier, Hypergraph, VertexId};

/// Breadth-first search from a source vertex.
///
/// Distances are measured in **bipartite hops**: the source is 0, its
/// incident hyperedges 1, their incident vertices 2, and so on — so vertex
/// distances are even and hyperedge distances odd. (Divide vertex distances
/// by two for "hyperedge hops".) Unreached elements keep `f64::INFINITY`.
#[derive(Clone, Copy, Debug)]
pub struct Bfs {
    /// The source vertex.
    pub source: VertexId,
}

impl Bfs {
    /// BFS from vertex `source`.
    pub fn new(source: VertexId) -> Self {
        Bfs { source }
    }
}

impl Default for Bfs {
    fn default() -> Self {
        Bfs::new(VertexId::new(0))
    }
}

impl Algorithm for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn init(&self, g: &Hypergraph) -> (State, Frontier) {
        let mut state = State::filled(g, f64::INFINITY, f64::INFINITY);
        state.vertex_value[self.source.index()] = 0.0;
        (state, Frontier::from_iter(g.num_vertices(), [self.source.raw()]))
    }

    fn apply_hf(&self, _g: &Hypergraph, state: &mut State, v: u32, h: u32) -> UpdateOutcome {
        let cand = state.vertex_value[v as usize] + 1.0;
        if cand < state.hyperedge_value[h as usize] {
            state.hyperedge_value[h as usize] = cand;
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else {
            UpdateOutcome::NONE
        }
    }

    fn apply_vf(&self, _g: &Hypergraph, state: &mut State, h: u32, v: u32) -> UpdateOutcome {
        let cand = state.hyperedge_value[h as usize] + 1.0;
        if cand < state.vertex_value[v as usize] {
            state.vertex_value[v as usize] = cand;
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else {
            UpdateOutcome::NONE
        }
    }

    fn hf_compute_cycles(&self) -> u64 {
        3
    }

    fn vf_compute_cycles(&self) -> u64 {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use chgraph::{RunConfig, System};

    #[test]
    fn fig1_distances() {
        let g = hypergraph::fig1_example();
        let r = System::Hygra.execute(&g, &Bfs::default(), &RunConfig::new());
        // v0 -> h0/h2 (1) -> v2,v4,v6 (2) -> h1 (3) -> v1,v3,v5 (4).
        assert_eq!(r.state.vertex_value, vec![0.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0]);
        assert_eq!(r.state.hyperedge_value, vec![1.0, 3.0, 1.0, 5.0]);
    }

    #[test]
    fn matches_reference_on_random_inputs() {
        for seed in [1u64, 7, 42] {
            let g = hypergraph::generate::GeneratorConfig::new(400, 300).with_seed(seed).generate();
            let r = System::Hygra.execute(&g, &Bfs::default(), &RunConfig::new());
            let (vd, hd) = reference::bfs(&g, VertexId::new(0));
            assert_eq!(r.state.vertex_value, vd, "seed {seed}");
            assert_eq!(r.state.hyperedge_value, hd, "seed {seed}");
        }
    }

    #[test]
    fn source_choice_matters() {
        let g = hypergraph::fig1_example();
        let r = System::Hygra.execute(&g, &Bfs::new(VertexId::new(5)), &RunConfig::new());
        assert_eq!(r.state.vertex_value[5], 0.0);
        assert_eq!(r.state.vertex_value[1], 2.0); // v5 -> h1 -> v1
        assert_eq!(r.state.vertex_value[0], 4.0); // v5 -> h1 -> v2 -> h2 -> v0
    }
}
