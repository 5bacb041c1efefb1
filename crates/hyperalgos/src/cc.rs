//! Connected components.

use chgraph::{Algorithm, State, UpdateOutcome};
use hypergraph::{Frontier, Hypergraph};

/// Connected components by min-label propagation.
///
/// Every vertex starts labelled with its own id; hyperedges and vertices
/// repeatedly take the minimum label of their active incident elements
/// until a fixpoint. Two vertices end with the same label iff they are
/// connected through some sequence of shared hyperedges.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnectedComponents;

impl Algorithm for ConnectedComponents {
    fn name(&self) -> &'static str {
        "cc"
    }

    fn init(&self, g: &Hypergraph) -> (State, Frontier) {
        let mut state = State::filled(g, 0.0, f64::INFINITY);
        for (v, val) in state.vertex_value.iter_mut().enumerate() {
            *val = v as f64;
        }
        (state, Frontier::full(g.num_vertices()))
    }

    fn apply_hf(&self, _g: &Hypergraph, state: &mut State, v: u32, h: u32) -> UpdateOutcome {
        let cand = state.vertex_value[v as usize];
        if cand < state.hyperedge_value[h as usize] {
            state.hyperedge_value[h as usize] = cand;
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else {
            UpdateOutcome::NONE
        }
    }

    fn apply_vf(&self, _g: &Hypergraph, state: &mut State, h: u32, v: u32) -> UpdateOutcome {
        let cand = state.hyperedge_value[h as usize];
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
    fn fig1_is_one_component() {
        let g = hypergraph::fig1_example();
        let r = System::Hygra.execute(&g, &ConnectedComponents, &RunConfig::new());
        assert!(r.state.vertex_value.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn matches_reference_labels() {
        for seed in [3u64, 9] {
            let g = hypergraph::generate::GeneratorConfig::new(300, 120).with_seed(seed).generate();
            let r = System::Hygra.execute(&g, &ConnectedComponents, &RunConfig::new());
            let want = reference::connected_components(&g);
            assert_eq!(r.state.vertex_value, want, "seed {seed}");
        }
    }

    #[test]
    fn disjoint_pieces_keep_distinct_labels() {
        use hypergraph::{HypergraphBuilder, VertexId};
        let mut b = HypergraphBuilder::new(6);
        b.add_hyperedge([0, 1, 2].map(VertexId::new)).unwrap();
        b.add_hyperedge([3, 4].map(VertexId::new)).unwrap();
        let g = b.build();
        let r = System::Gla.execute(&g, &ConnectedComponents, &RunConfig::new());
        assert_eq!(r.state.vertex_value[..3], [0.0, 0.0, 0.0]);
        assert_eq!(r.state.vertex_value[3..5], [3.0, 3.0]);
        assert_eq!(r.state.vertex_value[5], 5.0, "isolated vertex keeps its own label");
    }
}
