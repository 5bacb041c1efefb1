//! The programming model: algorithm-specific update functions.
//!
//! Hypergraph processing (Algorithm 1 of the paper) is an iterative
//! procedure alternating two kernels:
//!
//! - **hyperedge computation** — every active vertex updates its incident
//!   hyperedges through the hyperedge update function `HF`;
//! - **vertex computation** — every active hyperedge updates its incident
//!   vertices through the vertex update function `VF`.
//!
//! An [`Algorithm`] supplies `HF`/`VF` plus initialization, and the runtimes
//! (Hygra / software GLA / ChGraph / baselines) supply the *schedule* in
//! which bipartite edges are processed. Like the paper's systems, execution
//! is synchronous: an update made in iteration `i` is consumed in iteration
//! `i + 1`; a well-formed algorithm's result therefore cannot depend on the
//! schedule (the property the cross-runtime equivalence tests assert).

use hypergraph::{Frontier, Hypergraph};

/// Mutable per-element values of one execution.
///
/// The `*_value` arrays are the paper's `vertex_value` / `hyperedge_value`,
/// whose accesses the simulator charges to the [`archsim::Region`] value
/// regions. The `*_aux` arrays hold algorithm-private companion state
/// (e.g. BC path counts, MIS decision flags); their accesses are folded into
/// the corresponding value access (modelling a wider per-element record),
/// identically for every runtime, so comparisons stay fair.
#[derive(Clone, PartialEq, Debug)]
pub struct State {
    /// `vertex_value[v]` — the attribute of vertex `v`.
    pub vertex_value: Vec<f64>,
    /// `hyperedge_value[h]` — the attribute of hyperedge `h`.
    pub hyperedge_value: Vec<f64>,
    /// Optional per-vertex auxiliary state (empty when unused).
    pub vertex_aux: Vec<f64>,
    /// Optional per-hyperedge auxiliary state (empty when unused).
    pub hyperedge_aux: Vec<f64>,
}

impl State {
    /// Creates a state with every value set to `v0` (vertices) / `h0`
    /// (hyperedges) and no auxiliary arrays.
    pub fn filled(g: &Hypergraph, v0: f64, h0: f64) -> Self {
        State {
            vertex_value: vec![v0; g.num_vertices()],
            hyperedge_value: vec![h0; g.num_hyperedges()],
            vertex_aux: Vec::new(),
            hyperedge_aux: Vec::new(),
        }
    }

    /// Like [`State::filled`], additionally allocating auxiliary arrays
    /// initialized to `va0` / `ha0`.
    pub fn filled_with_aux(g: &Hypergraph, v0: f64, h0: f64, va0: f64, ha0: f64) -> Self {
        State {
            vertex_value: vec![v0; g.num_vertices()],
            hyperedge_value: vec![h0; g.num_hyperedges()],
            vertex_aux: vec![va0; g.num_vertices()],
            hyperedge_aux: vec![ha0; g.num_hyperedges()],
        }
    }
}

/// Outcome of one `HF`/`VF` application.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UpdateOutcome {
    /// The destination element's value changed (a store is simulated).
    pub wrote: bool,
    /// The destination element becomes active next phase (first activation
    /// is what inserts it into the next frontier).
    pub activated: bool,
}

impl UpdateOutcome {
    /// Neither wrote nor activated.
    pub const NONE: UpdateOutcome = UpdateOutcome { wrote: false, activated: false };
    /// Wrote and activated — the common case for monotone algorithms.
    pub const WROTE_AND_ACTIVATED: UpdateOutcome = UpdateOutcome { wrote: true, activated: true };
    /// Wrote without activating (e.g. accumulation below threshold).
    pub const WROTE: UpdateOutcome = UpdateOutcome { wrote: true, activated: false };
}

/// An iterative hypergraph algorithm expressed as `HF`/`VF` update
/// functions (paper Algorithm 1).
///
/// Implementations must be *schedule-oblivious*: `apply_hf`/`apply_vf` may
/// only combine the source element's value into the destination's with an
/// order-insensitive (commutative, associative) operation, since runtimes
/// process bipartite edges in different orders.
pub trait Algorithm {
    /// Short name (used in reports and figures).
    fn name(&self) -> &'static str;

    /// Builds the initial state and the initial active-vertex frontier.
    fn init(&self, g: &Hypergraph) -> (State, Frontier);

    /// Hook invoked at the start of every iteration, before hyperedge
    /// computation (e.g. PageRank zeroes the hyperedge accumulators).
    fn begin_iteration(&self, g: &Hypergraph, state: &mut State, iteration: usize) {
        let _ = (g, state, iteration);
    }

    /// Hook invoked between the hyperedge-computation and
    /// vertex-computation kernels of an iteration (e.g. PageRank zeroes the
    /// vertex accumulators once their previous values have been consumed).
    fn begin_vertex_phase(&self, g: &Hypergraph, state: &mut State, iteration: usize) {
        let _ = (g, state, iteration);
    }

    /// Hook invoked after both kernels of an iteration. Receives the
    /// just-built next vertex frontier; algorithms with bulk per-iteration
    /// decisions (e.g. MIS join/exclude) may rewrite it. Frontier
    /// manipulation here is identical across runtimes and is not charged to
    /// the simulated memory system.
    fn end_iteration(
        &self,
        g: &Hypergraph,
        state: &mut State,
        next_vertices: &mut Frontier,
        iteration: usize,
    ) {
        let _ = (g, state, next_vertices, iteration);
    }

    /// `HF`: processes the bipartite edge `<v, h>`, folding the influence of
    /// active vertex `v` into hyperedge `h`.
    fn apply_hf(&self, g: &Hypergraph, state: &mut State, v: u32, h: u32) -> UpdateOutcome;

    /// `VF`: processes the bipartite edge `<h, v>`, folding the influence of
    /// active hyperedge `h` into vertex `v`.
    fn apply_vf(&self, g: &Hypergraph, state: &mut State, h: u32, v: u32) -> UpdateOutcome;

    /// Maximum number of iterations (PageRank runs 10; traversal algorithms
    /// run to convergence).
    fn max_iterations(&self) -> usize {
        usize::MAX
    }

    /// Returns `true` when every element is unconditionally active each
    /// iteration (PageRank). All-active algorithms generate chains once and
    /// reuse them (§VI-B), and never consult the bitmap (§VI-C).
    fn all_active(&self) -> bool {
        false
    }

    /// Core compute cycles per `HF` application (ALU work of the update).
    fn hf_compute_cycles(&self) -> u64 {
        4
    }

    /// Core compute cycles per `VF` application.
    fn vf_compute_cycles(&self) -> u64 {
        6
    }
}

/// A minimal connected-components-style test algorithm: label propagation
/// by `min`, used by this crate's unit tests and doc examples.
///
/// Every vertex starts with its own id as label; hyperedges take the min of
/// their active incident vertices, vertices take the min of their active
/// incident hyperedges, until a fixpoint.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinLabel;

impl Algorithm for MinLabel {
    fn name(&self) -> &'static str {
        "min-label"
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_filled() {
        let g = hypergraph::fig1_example();
        let s = State::filled(&g, 1.5, -2.0);
        assert_eq!(s.vertex_value.len(), 7);
        assert_eq!(s.hyperedge_value.len(), 4);
        assert!(s.vertex_value.iter().all(|&v| v == 1.5));
        assert!(s.hyperedge_value.iter().all(|&h| h == -2.0));
    }

    #[test]
    fn min_label_init() {
        let g = hypergraph::fig1_example();
        let (s, f) = MinLabel.init(&g);
        assert_eq!(s.vertex_value[3], 3.0);
        assert_eq!(f.len(), 7);
    }

    #[test]
    fn min_label_updates_are_monotone() {
        let g = hypergraph::fig1_example();
        let (mut s, _) = MinLabel.init(&g);
        let o = MinLabel.apply_hf(&g, &mut s, 4, 0);
        assert_eq!(o, UpdateOutcome::WROTE_AND_ACTIVATED);
        assert_eq!(s.hyperedge_value[0], 4.0);
        let o = MinLabel.apply_hf(&g, &mut s, 6, 0);
        assert_eq!(o, UpdateOutcome::NONE, "6 > 4: no change");
        let o = MinLabel.apply_hf(&g, &mut s, 0, 0);
        assert_eq!(o, UpdateOutcome::WROTE_AND_ACTIVATED);
        assert_eq!(s.hyperedge_value[0], 0.0);
    }

    #[test]
    fn outcome_constants() {
        // Checked at compile time: a wrong constant fails the build.
        const {
            assert!(!UpdateOutcome::NONE.wrote);
            assert!(UpdateOutcome::WROTE.wrote && !UpdateOutcome::WROTE.activated);
            assert!(UpdateOutcome::WROTE_AND_ACTIVATED.activated);
        }
    }
}
