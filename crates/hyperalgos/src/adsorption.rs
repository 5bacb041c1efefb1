//! Adsorption (label propagation with injection).

use chgraph::{Algorithm, State, UpdateOutcome};
use hypergraph::{Frontier, HyperedgeId, Hypergraph, VertexId};

/// Adsorption-style label propagation (the second generality-study workload
/// of §VI-I). A sparse set of *seed* vertices carries a unit label prior;
/// each iteration every vertex recomputes its score as a mix of its
/// injected prior and the mean score of its incident hyperedges, which in
/// turn average their incident vertices — an all-active accumulation
/// workload like PageRank but with per-vertex injection.
#[derive(Clone, Copy, Debug)]
pub struct Adsorption {
    /// Weight of the injected prior.
    pub injection: f64,
    /// Weight of the propagated neighborhood score.
    pub continuation: f64,
    /// Every `seed_stride`-th vertex carries a unit prior.
    pub seed_stride: u32,
    /// Number of iterations.
    pub iterations: usize,
}

impl Adsorption {
    /// Default parameters: 25 % injection, 75 % continuation, seeds every
    /// 32nd vertex, 10 iterations.
    pub fn new() -> Self {
        Adsorption { injection: 0.25, continuation: 0.75, seed_stride: 32, iterations: 10 }
    }

    fn prior(&self, v: u32) -> f64 {
        if v.is_multiple_of(self.seed_stride) {
            1.0
        } else {
            0.0
        }
    }
}

impl Default for Adsorption {
    fn default() -> Self {
        Adsorption::new()
    }
}

impl Algorithm for Adsorption {
    fn name(&self) -> &'static str {
        "adsorption"
    }

    fn init(&self, g: &Hypergraph) -> (State, Frontier) {
        let mut state = State::filled_with_aux(g, 0.0, 0.0, 0.0, 0.0);
        for v in 0..g.num_vertices() as u32 {
            state.vertex_value[v as usize] = self.prior(v);
            state.vertex_aux[v as usize] = self.prior(v);
        }
        (state, Frontier::full(g.num_vertices()))
    }

    fn begin_iteration(&self, _g: &Hypergraph, state: &mut State, _iteration: usize) {
        state.hyperedge_value.fill(0.0);
    }

    fn begin_vertex_phase(&self, _g: &Hypergraph, state: &mut State, _iteration: usize) {
        state.vertex_value.fill(0.0);
    }

    fn apply_hf(&self, g: &Hypergraph, state: &mut State, v: u32, h: u32) -> UpdateOutcome {
        let deg = g.vertex_degree(VertexId::new(v)).max(1) as f64;
        state.hyperedge_value[h as usize] += state.vertex_value[v as usize] / deg;
        UpdateOutcome::WROTE_AND_ACTIVATED
    }

    fn apply_vf(&self, g: &Hypergraph, state: &mut State, h: u32, v: u32) -> UpdateOutcome {
        let vdeg = g.vertex_degree(VertexId::new(v)).max(1) as f64;
        let hdeg = g.hyperedge_degree(HyperedgeId::new(h)).max(1) as f64;
        // Per-edge injection share sums to `injection * prior(v)`.
        state.vertex_value[v as usize] += self.injection * state.vertex_aux[v as usize] / vdeg
            + self.continuation * state.hyperedge_value[h as usize] / hdeg;
        UpdateOutcome::WROTE_AND_ACTIVATED
    }

    fn max_iterations(&self) -> usize {
        self.iterations
    }

    fn all_active(&self) -> bool {
        true
    }

    fn hf_compute_cycles(&self) -> u64 {
        6
    }

    fn vf_compute_cycles(&self) -> u64 {
        10
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use chgraph::{RunConfig, System};
    use hypergraph::generate::two_uniform_graph;

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn matches_reference() {
        let g = two_uniform_graph(120, 400, 9);
        let algo = Adsorption { iterations: 4, ..Adsorption::new() };
        let r = System::Hygra.execute(&g, &algo, &RunConfig::new());
        let want = reference::adsorption(&g, 0.25, 0.75, 32, 4);
        assert!(close(&r.state.vertex_value, &want));
    }

    #[test]
    fn seeds_spread_influence() {
        let g = two_uniform_graph(100, 500, 2);
        let r = System::Hygra.execute(&g, &Adsorption::new(), &RunConfig::new());
        let touched = r.state.vertex_value.iter().filter(|&&x| x > 0.0).count();
        assert!(touched > 50, "labels must propagate beyond the seeds ({touched})");
    }

    #[test]
    fn zero_injection_keeps_priors_irrelevant() {
        let g = two_uniform_graph(60, 150, 5);
        let mut algo = Adsorption::new();
        algo.injection = 0.0;
        algo.iterations = 3;
        let r = System::Hygra.execute(&g, &algo, &RunConfig::new());
        // With no injection and zeroed accumulators, only the initial-state
        // propagation survives — still finite and nonnegative.
        assert!(r.state.vertex_value.iter().all(|x| x.is_finite() && *x >= 0.0));
    }
}
