//! PageRank — the paper's own formulation.

use chgraph::{Algorithm, State, UpdateOutcome};
use hypergraph::{Frontier, HyperedgeId, Hypergraph, VertexId};

/// Hypergraph PageRank, exactly as the paper's Algorithm 1 (lines 15–21):
///
/// - `HF(v, h)`: `hyperedge_value\[h\] += vertex_value\[v\] / deg(v)`;
/// - `VF(h, v)`: `vertex_value\[v\] += (1 - d) / (|V| * deg(v))
///   + d * hyperedge_value\[h\] / deg(h)`
///
/// where the per-edge addend sums to the usual `(1 - d) / |V|` base term
/// over a vertex's `deg(v)` incident hyperedges. All elements are active in
/// every iteration; the evaluation runs 10 iterations (§VI-A).
#[derive(Clone, Copy, Debug)]
pub struct PageRank {
    /// Damping factor (the paper's α/ω).
    pub damping: f64,
    /// Number of iterations (paper: 10).
    pub iterations: usize,
}

impl PageRank {
    /// PageRank with damping 0.85 and the paper's 10 iterations.
    pub fn new() -> Self {
        PageRank { damping: 0.85, iterations: 10 }
    }

    /// Overrides the iteration count.
    pub fn with_iterations(mut self, n: usize) -> Self {
        self.iterations = n;
        self
    }
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank::new()
    }
}

impl Algorithm for PageRank {
    fn name(&self) -> &'static str {
        "pr"
    }

    fn init(&self, g: &Hypergraph) -> (State, Frontier) {
        let state = State::filled(g, 1.0 / g.num_vertices() as f64, 0.0);
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
        let addend = (1.0 - self.damping) / (g.num_vertices() as f64 * vdeg);
        state.vertex_value[v as usize] +=
            addend + self.damping * state.hyperedge_value[h as usize] / hdeg;
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

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol * x.abs().max(1e-12).max(y.abs()))
    }

    #[test]
    fn matches_reference() {
        let g = hypergraph::generate::GeneratorConfig::new(300, 200).with_seed(5).generate();
        let pr = PageRank::new().with_iterations(5);
        let r = System::Hygra.execute(&g, &pr, &RunConfig::new());
        let want = reference::pagerank(&g, 0.85, 5);
        assert!(close(&r.state.vertex_value, &want, 1e-9), "simulated PR diverges from reference");
    }

    #[test]
    fn mass_is_conserved_approximately() {
        let g = hypergraph::generate::GeneratorConfig::new(400, 300).with_seed(6).generate();
        let r = System::Hygra.execute(&g, &PageRank::new(), &RunConfig::new());
        let total: f64 = r.state.vertex_value.iter().sum();
        // Vertices with no incident hyperedges leak mass; total stays within
        // (0, 1].
        assert!(total > 0.1 && total <= 1.0 + 1e-9, "total rank {total}");
        assert_eq!(r.iterations, 10);
    }

    #[test]
    fn runtimes_agree_within_float_tolerance() {
        let g = hypergraph::generate::GeneratorConfig::new(300, 220).with_seed(7).generate();
        let pr = PageRank::new().with_iterations(4);
        let cfg = RunConfig::new();
        let a = System::Hygra.execute(&g, &pr, &cfg);
        let b = System::ChGraph.execute(&g, &pr, &cfg);
        // Different schedules sum in different orders: equality up to
        // floating-point associativity.
        assert!(close(&a.state.vertex_value, &b.state.vertex_value, 1e-9));
    }

    #[test]
    fn higher_degree_vertices_get_more_rank_than_isolated() {
        let g = hypergraph::fig1_example();
        let r = System::Hygra.execute(&g, &PageRank::new(), &RunConfig::new());
        // Every vertex of fig1 is incident to something; ranks positive.
        assert!(r.state.vertex_value.iter().all(|&x| x > 0.0));
    }
}
