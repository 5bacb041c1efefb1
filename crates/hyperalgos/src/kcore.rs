//! k-core decomposition by iterative peeling.

use chgraph::{Algorithm, State, UpdateOutcome};
use hypergraph::{Frontier, HyperedgeId, Hypergraph};

/// k-core decomposition (peeling): repeatedly remove vertices incident to
/// fewer than `k` alive hyperedges; a hyperedge dies when fewer than two of
/// its vertices remain alive. The surviving vertices form the hypergraph
/// k-core.
///
/// State encoding: `vertex_value` / `hyperedge_value` hold the current
/// alive-incidence counts; `vertex_aux` / `hyperedge_aux` are death flags
/// (`0` alive, `1` dead). An element is processed by the frontier exactly
/// once — in the phase after it dies — propagating its removal.
#[derive(Clone, Copy, Debug)]
pub struct KCore {
    /// The core parameter `k`.
    pub k: usize,
}

impl KCore {
    /// Peeling with threshold `k` (minimum 1).
    pub fn new(k: usize) -> Self {
        KCore { k: k.max(1) }
    }

    /// Returns the alive (core-member) flags per vertex.
    pub fn core_members(state: &State) -> Vec<bool> {
        state.vertex_aux.iter().map(|&d| d == 0.0).collect()
    }
}

impl Default for KCore {
    fn default() -> Self {
        KCore::new(3)
    }
}

impl Algorithm for KCore {
    fn name(&self) -> &'static str {
        "kcore"
    }

    fn init(&self, g: &Hypergraph) -> (State, Frontier) {
        let mut state = State::filled_with_aux(g, 0.0, 0.0, 0.0, 0.0);
        // Hyperedges connecting fewer than two vertices are dead from the
        // start (they cannot witness any co-membership).
        for h in 0..g.num_hyperedges() {
            let deg = g.hyperedge_degree(HyperedgeId::from_index(h));
            state.hyperedge_value[h] = deg as f64;
            if deg < 2 {
                state.hyperedge_aux[h] = 1.0;
            }
        }
        for v in 0..g.num_vertices() {
            state.vertex_value[v] = g
                .incidence(hypergraph::Side::Vertex, v as u32)
                .iter()
                .filter(|&&h| state.hyperedge_aux[h as usize] == 0.0)
                .count() as f64;
        }
        // Initially dying vertices: alive-degree below k.
        let mut frontier = Frontier::empty(g.num_vertices());
        for v in 0..g.num_vertices() {
            if state.vertex_value[v] < self.k as f64 {
                state.vertex_aux[v] = 1.0;
                frontier.insert(v as u32);
            }
        }
        (state, frontier)
    }

    fn apply_hf(&self, _g: &Hypergraph, state: &mut State, v: u32, h: u32) -> UpdateOutcome {
        // `v` just died: decrement the hyperedge's alive-vertex count.
        debug_assert_eq!(state.vertex_aux[v as usize], 1.0, "frontier vertices are dying");
        if state.hyperedge_aux[h as usize] == 1.0 {
            return UpdateOutcome::NONE;
        }
        state.hyperedge_value[h as usize] -= 1.0;
        if state.hyperedge_value[h as usize] < 2.0 {
            state.hyperedge_aux[h as usize] = 1.0;
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else {
            UpdateOutcome::WROTE
        }
    }

    fn apply_vf(&self, _g: &Hypergraph, state: &mut State, h: u32, v: u32) -> UpdateOutcome {
        // `h` just died: decrement the vertex's alive-hyperedge count.
        debug_assert_eq!(state.hyperedge_aux[h as usize], 1.0, "frontier hyperedges are dying");
        if state.vertex_aux[v as usize] == 1.0 {
            return UpdateOutcome::NONE;
        }
        state.vertex_value[v as usize] -= 1.0;
        if state.vertex_value[v as usize] < self.k as f64 {
            state.vertex_aux[v as usize] = 1.0;
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else {
            UpdateOutcome::WROTE
        }
    }

    fn hf_compute_cycles(&self) -> u64 {
        4
    }

    fn vf_compute_cycles(&self) -> u64 {
        4
    }

    fn max_iterations(&self) -> usize {
        10_000
    }
}

/// Full k-core **decomposition**: computes every vertex's coreness (the
/// largest `k` such that the vertex belongs to the k-core) by peeling with
/// a rising threshold. This is the paper's "k-core" workload: unlike a
/// single-`k` query it performs substantial work on every input.
///
/// `vertex_aux` ends holding the coreness (vertices alive at threshold `k`
/// that die during round `k` receive coreness `k - 1`); the sentinel `-1`
/// marks still-alive vertices during execution. Hyperedges die below two
/// alive vertices, as in [`KCore`].
#[derive(Debug, Default)]
pub struct CoreDecomposition {
    current_k: std::cell::Cell<usize>,
}

impl CoreDecomposition {
    /// Creates the decomposition workload.
    pub fn new() -> Self {
        CoreDecomposition { current_k: std::cell::Cell::new(1) }
    }

    /// Coreness per vertex from a finished state.
    pub fn coreness(state: &State) -> Vec<usize> {
        state.vertex_aux.iter().map(|&c| if c < 0.0 { usize::MAX } else { c as usize }).collect()
    }

    fn alive(aux: f64) -> bool {
        aux < 0.0
    }

    /// Raises the threshold until some alive vertex falls below it (seeding
    /// the next peeling round) or every vertex is dead.
    fn seed_next_threshold(&self, g: &Hypergraph, state: &mut State, frontier: &mut Frontier) {
        let max_k = g.num_hyperedges().max(2);
        loop {
            let k = self.current_k.get() + 1;
            if k > max_k || state.vertex_aux.iter().all(|&a| !Self::alive(a)) {
                return;
            }
            self.current_k.set(k);
            for v in 0..g.num_vertices() {
                if Self::alive(state.vertex_aux[v]) && state.vertex_value[v] < k as f64 {
                    state.vertex_aux[v] = (k - 1) as f64;
                    frontier.insert(v as u32);
                }
            }
            if !frontier.is_empty() {
                return;
            }
        }
    }
}

impl Algorithm for CoreDecomposition {
    fn name(&self) -> &'static str {
        "kcore"
    }

    fn init(&self, g: &Hypergraph) -> (State, Frontier) {
        self.current_k.set(1);
        let mut state = State::filled_with_aux(g, 0.0, 0.0, -1.0, 0.0);
        for h in 0..g.num_hyperedges() {
            let deg = g.hyperedge_degree(HyperedgeId::from_index(h));
            state.hyperedge_value[h] = deg as f64;
            if deg < 2 {
                state.hyperedge_aux[h] = 1.0;
            }
        }
        let mut frontier = Frontier::empty(g.num_vertices());
        for v in 0..g.num_vertices() {
            state.vertex_value[v] = g
                .incidence(hypergraph::Side::Vertex, v as u32)
                .iter()
                .filter(|&&h| state.hyperedge_aux[h as usize] == 0.0)
                .count() as f64;
            if state.vertex_value[v] < 1.0 {
                state.vertex_aux[v] = 0.0; // coreness 0
                frontier.insert(v as u32);
            }
        }
        if frontier.is_empty() {
            // No isolated vertices: advance to the first threshold that
            // peels something.
            self.seed_next_threshold(g, &mut state, &mut frontier);
        }
        (state, frontier)
    }

    fn apply_hf(&self, _g: &Hypergraph, state: &mut State, _v: u32, h: u32) -> UpdateOutcome {
        if state.hyperedge_aux[h as usize] == 1.0 {
            return UpdateOutcome::NONE;
        }
        state.hyperedge_value[h as usize] -= 1.0;
        if state.hyperedge_value[h as usize] < 2.0 {
            state.hyperedge_aux[h as usize] = 1.0;
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else {
            UpdateOutcome::WROTE
        }
    }

    fn apply_vf(&self, _g: &Hypergraph, state: &mut State, h: u32, v: u32) -> UpdateOutcome {
        debug_assert_eq!(state.hyperedge_aux[h as usize], 1.0);
        if !Self::alive(state.vertex_aux[v as usize]) {
            return UpdateOutcome::NONE;
        }
        state.vertex_value[v as usize] -= 1.0;
        if state.vertex_value[v as usize] < self.current_k.get() as f64 {
            state.vertex_aux[v as usize] = (self.current_k.get() - 1) as f64;
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else {
            UpdateOutcome::WROTE
        }
    }

    fn end_iteration(
        &self,
        g: &Hypergraph,
        state: &mut State,
        next_vertices: &mut Frontier,
        _iteration: usize,
    ) {
        if !next_vertices.is_empty() {
            return; // the current threshold's cascade continues
        }
        // The k-core for the current threshold is stable: raise k and seed
        // the next peeling round.
        self.seed_next_threshold(g, state, next_vertices);
    }

    fn hf_compute_cycles(&self) -> u64 {
        4
    }

    fn vf_compute_cycles(&self) -> u64 {
        4
    }

    fn max_iterations(&self) -> usize {
        100_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use chgraph::{RunConfig, System};

    #[test]
    fn fig1_two_core_is_empty() {
        // Every vertex of fig1 has degree <= 2; the 3-core is empty.
        let g = hypergraph::fig1_example();
        let r = System::Hygra.execute(&g, &KCore::new(3), &RunConfig::new());
        assert!(KCore::core_members(&r.state).iter().all(|&alive| !alive));
    }

    #[test]
    fn fig1_one_core_keeps_everything() {
        let g = hypergraph::fig1_example();
        let r = System::Hygra.execute(&g, &KCore::new(1), &RunConfig::new());
        assert!(KCore::core_members(&r.state).iter().all(|&alive| alive));
    }

    #[test]
    fn matches_reference_peeling() {
        for (seed, k) in [(1u64, 2usize), (5, 3), (9, 4)] {
            let g = hypergraph::generate::GeneratorConfig::new(300, 200).with_seed(seed).generate();
            let r = System::Hygra.execute(&g, &KCore::new(k), &RunConfig::new());
            let want = reference::kcore(&g, k);
            assert_eq!(KCore::core_members(&r.state), want, "seed {seed} k {k}");
        }
    }

    #[test]
    fn runtimes_agree() {
        let g = hypergraph::generate::GeneratorConfig::new(300, 200).with_seed(2).generate();
        let cfg = RunConfig::new();
        let a = System::Hygra.execute(&g, &KCore::new(3), &cfg);
        let b = System::ChGraph.execute(&g, &KCore::new(3), &cfg);
        assert_eq!(a.state.vertex_aux, b.state.vertex_aux);
        assert_eq!(a.state.hyperedge_aux, b.state.hyperedge_aux);
    }

    #[test]
    fn decomposition_matches_reference_coreness() {
        for seed in [1u64, 6] {
            let g = hypergraph::generate::GeneratorConfig::new(250, 180).with_seed(seed).generate();
            let r = System::Hygra.execute(&g, &CoreDecomposition::new(), &RunConfig::new());
            let got = CoreDecomposition::coreness(&r.state);
            let want = reference::coreness(&g);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn decomposition_is_consistent_with_single_k_queries() {
        let g = hypergraph::generate::GeneratorConfig::new(200, 150).with_seed(4).generate();
        let cfg = RunConfig::new();
        let cores = CoreDecomposition::coreness(
            &System::Hygra.execute(&g, &CoreDecomposition::new(), &cfg).state,
        );
        for k in 1..=4usize {
            let members =
                KCore::core_members(&System::Hygra.execute(&g, &KCore::new(k), &cfg).state);
            for v in 0..g.num_vertices() {
                assert_eq!(members[v], cores[v] >= k, "v{v} at k={k}");
            }
        }
    }

    #[test]
    fn decomposition_agrees_across_runtimes() {
        let g = hypergraph::generate::GeneratorConfig::new(250, 200).with_seed(8).generate();
        let cfg = RunConfig::new();
        let a = System::Hygra.execute(&g, &CoreDecomposition::new(), &cfg);
        let b = System::ChGraph.execute(&g, &CoreDecomposition::new(), &cfg);
        assert_eq!(a.state.vertex_aux, b.state.vertex_aux);
    }

    #[test]
    fn cores_are_nested() {
        let g = hypergraph::generate::GeneratorConfig::new(400, 300).with_seed(3).generate();
        let cfg = RunConfig::new();
        let core2 = KCore::core_members(&System::Hygra.execute(&g, &KCore::new(2), &cfg).state);
        let core4 = KCore::core_members(&System::Hygra.execute(&g, &KCore::new(4), &cfg).state);
        for v in 0..g.num_vertices() {
            assert!(!core4[v] || core2[v], "4-core member v{v} missing from 2-core");
        }
    }
}
