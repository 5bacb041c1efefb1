//! Single-source betweenness centrality (Brandes on the bipartite graph).
//!
//! Following HyperBC-style formulations, centrality is computed on the
//! bipartite representation: both vertices and hyperedges are nodes, edges
//! are the bipartite incidences, and the dependency of the source on every
//! node is accumulated with Brandes' backward recurrence
//!
//! ```text
//! delta(u) = sum over successors x of  sigma(u)/sigma(x) * (1 + delta(x))
//! ```
//!
//! The computation is two chained executions — [`BcForward`] (BFS with
//! shortest-path counting) and [`BcBackward`] (level-synchronous dependency
//! accumulation) — composed by [`run_bc`].

use chgraph::{Algorithm, ExecError, ExecutionReport, RunConfig, Runtime, State, UpdateOutcome};
use hypergraph::{Frontier, Hypergraph, VertexId};
use std::cell::Cell;

/// Forward pass: BFS distances (bipartite hops) and shortest-path counts.
///
/// `vertex_value`/`hyperedge_value` hold distances; `vertex_aux`/
/// `hyperedge_aux` hold path counts σ. Path counts are integers stored in
/// `f64` (exact up to 2^53), and every same-level accumulation is a sum of
/// such integers, so results are schedule-independent bit-for-bit.
#[derive(Clone, Copy, Debug)]
pub struct BcForward {
    /// The source vertex.
    pub source: VertexId,
}

impl Algorithm for BcForward {
    fn name(&self) -> &'static str {
        "bc-forward"
    }

    fn init(&self, g: &Hypergraph) -> (State, Frontier) {
        let mut state = State::filled_with_aux(g, f64::INFINITY, f64::INFINITY, 0.0, 0.0);
        state.vertex_value[self.source.index()] = 0.0;
        state.vertex_aux[self.source.index()] = 1.0;
        (state, Frontier::from_iter(g.num_vertices(), [self.source.raw()]))
    }

    fn apply_hf(&self, _g: &Hypergraph, state: &mut State, v: u32, h: u32) -> UpdateOutcome {
        let cand = state.vertex_value[v as usize] + 1.0;
        let cur = state.hyperedge_value[h as usize];
        if cand < cur {
            state.hyperedge_value[h as usize] = cand;
            state.hyperedge_aux[h as usize] = state.vertex_aux[v as usize];
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else if cand == cur {
            state.hyperedge_aux[h as usize] += state.vertex_aux[v as usize];
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else {
            UpdateOutcome::NONE
        }
    }

    fn apply_vf(&self, _g: &Hypergraph, state: &mut State, h: u32, v: u32) -> UpdateOutcome {
        let cand = state.hyperedge_value[h as usize] + 1.0;
        let cur = state.vertex_value[v as usize];
        if cand < cur {
            state.vertex_value[v as usize] = cand;
            state.vertex_aux[v as usize] = state.hyperedge_aux[h as usize];
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else if cand == cur {
            state.vertex_aux[v as usize] += state.hyperedge_aux[h as usize];
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else {
            UpdateOutcome::NONE
        }
    }

    fn hf_compute_cycles(&self) -> u64 {
        5
    }

    fn vf_compute_cycles(&self) -> u64 {
        5
    }
}

/// Backward pass: level-synchronous dependency accumulation.
///
/// `vertex_value`/`hyperedge_value` hold the dependencies δ. Iteration `i`
/// pushes from vertices at bipartite level `L_max - 2i` to their
/// predecessor hyperedges and on to predecessor vertices; frontiers are
/// rewritten per level in `end_iteration` (identically for every runtime).
#[derive(Clone, Debug)]
pub struct BcBackward {
    vdist: Vec<f64>,
    hdist: Vec<f64>,
    vsigma: Vec<f64>,
    hsigma: Vec<f64>,
    max_level: f64,
    current_level: Cell<f64>,
}

impl BcBackward {
    /// Seeds the dependencies of *childless* hyperedges (reachable
    /// hyperedges with no deeper vertex successor): their `delta` is zero,
    /// so their `sigma_v / sigma_h * 1` contribution to each predecessor
    /// vertex is folded into the initial vertex dependencies. Every other
    /// hyperedge is activated by its successor wave during execution.
    fn seed_vertex_deltas(&self, g: &Hypergraph) -> Vec<f64> {
        let mut delta = vec![0.0; g.num_vertices()];
        for h in 0..g.num_hyperedges() as u32 {
            let dh = self.hdist[h as usize];
            if !dh.is_finite() {
                continue;
            }
            let vs = g.incidence(hypergraph::Side::Hyperedge, h);
            let childless = !vs.iter().any(|&v| self.vdist[v as usize] == dh + 1.0);
            if !childless {
                continue;
            }
            for &v in vs {
                if self.vdist[v as usize] == dh - 1.0 {
                    delta[v as usize] += self.vsigma[v as usize] / self.hsigma[h as usize];
                }
            }
        }
        delta
    }
}

impl BcBackward {
    /// Builds the backward pass from a finished forward state.
    pub fn from_forward(forward: &State) -> Self {
        let max_level =
            forward.vertex_value.iter().copied().filter(|d| d.is_finite()).fold(0.0f64, f64::max);
        BcBackward {
            vdist: forward.vertex_value.clone(),
            hdist: forward.hyperedge_value.clone(),
            vsigma: forward.vertex_aux.clone(),
            hsigma: forward.hyperedge_aux.clone(),
            max_level,
            current_level: Cell::new(0.0),
        }
    }

    fn vertices_at(&self, level: f64) -> impl Iterator<Item = u32> + '_ {
        self.vdist.iter().enumerate().filter(move |(_, &d)| d == level).map(|(v, _)| v as u32)
    }
}

impl Algorithm for BcBackward {
    fn name(&self) -> &'static str {
        "bc-backward"
    }

    fn init(&self, g: &Hypergraph) -> (State, Frontier) {
        let mut state = State::filled(g, 0.0, 0.0);
        state.vertex_value = self.seed_vertex_deltas(g);
        self.current_level.set(self.max_level);
        (state, Frontier::from_iter(g.num_vertices(), self.vertices_at(self.max_level)))
    }

    fn begin_iteration(&self, _g: &Hypergraph, _state: &mut State, iteration: usize) {
        self.current_level.set(self.max_level - 2.0 * iteration as f64);
    }

    fn apply_hf(&self, _g: &Hypergraph, state: &mut State, v: u32, h: u32) -> UpdateOutcome {
        // v (level L) pushes to its predecessor hyperedges (level L - 1).
        if self.hdist[h as usize] != self.vdist[v as usize] - 1.0 {
            return UpdateOutcome::NONE;
        }
        let contrib = self.hsigma[h as usize] / self.vsigma[v as usize]
            * (1.0 + state.vertex_value[v as usize]);
        state.hyperedge_value[h as usize] += contrib;
        UpdateOutcome::WROTE_AND_ACTIVATED
    }

    fn apply_vf(&self, _g: &Hypergraph, state: &mut State, h: u32, v: u32) -> UpdateOutcome {
        // h (level L - 1) pushes to its predecessor vertices (level L - 2).
        if self.vdist[v as usize] != self.hdist[h as usize] - 1.0 {
            return UpdateOutcome::NONE;
        }
        let contrib = self.vsigma[v as usize] / self.hsigma[h as usize]
            * (1.0 + state.hyperedge_value[h as usize]);
        state.vertex_value[v as usize] += contrib;
        UpdateOutcome::WROTE_AND_ACTIVATED
    }

    fn end_iteration(
        &self,
        _g: &Hypergraph,
        _state: &mut State,
        next_vertices: &mut Frontier,
        iteration: usize,
    ) {
        // The next wave is exactly the vertices two levels down, regardless
        // of which of them received contributions (leaf branches must still
        // push their own 1 + delta).
        let next_level = self.max_level - 2.0 * (iteration as f64 + 1.0);
        next_vertices.clear();
        if next_level >= 1.0 {
            next_vertices.extend(self.vertices_at(next_level));
        }
    }

    fn hf_compute_cycles(&self) -> u64 {
        8
    }

    fn vf_compute_cycles(&self) -> u64 {
        8
    }
}

/// Runs single-source betweenness centrality under `runtime`: the forward
/// pass, then the backward pass, returning a merged report whose state holds
/// the dependencies (δ in the value arrays, forward σ untouched in the
/// backward state's aux — empty).
///
/// # Panics
///
/// Panics with the [`ExecError`] message if either pass fails; use
/// [`try_run_bc_prepared`] to keep failures typed.
pub fn run_bc(
    runtime: &dyn Runtime,
    g: &Hypergraph,
    cfg: &RunConfig,
    source: VertexId,
) -> ExecutionReport {
    try_run_bc_prepared(runtime, g, cfg, source, None)
        .unwrap_or_else(|e| panic!("{}: {e}", runtime.name()))
}

/// Fallible [`run_bc`] with optional pre-built OAG artifacts shared by both
/// passes: watchdog budgets and validation failures in either pass surface
/// as a typed [`ExecError`] instead of a panic.
pub fn try_run_bc_prepared(
    runtime: &dyn Runtime,
    g: &Hypergraph,
    cfg: &RunConfig,
    source: VertexId,
    prepared: Option<&chgraph::PreparedOags>,
) -> Result<ExecutionReport, ExecError> {
    let forward = runtime.try_execute_prepared(g, &BcForward { source }, cfg, prepared)?;
    let backward_algo = BcBackward::from_forward(&forward.state);
    let mut backward = runtime.try_execute_prepared(g, &backward_algo, cfg, prepared)?;
    backward.algorithm = "bc";
    backward.cycles += forward.cycles;
    backward.core_busy_cycles += forward.core_busy_cycles;
    backward.mem_stall_cycles += forward.mem_stall_cycles;
    backward.iterations += forward.iterations;
    backward.mem.merge(&forward.mem);
    if let (Some(b), Some(f)) = (backward.engine.as_mut(), forward.engine.as_ref()) {
        b.hcg_cycles += f.hcg_cycles;
        b.cp_cycles += f.cp_cycles;
        b.tuples_delivered += f.tuples_delivered;
        b.chains_generated += f.chains_generated;
        b.fifo_full_stalls += f.fifo_full_stalls;
        b.fifo_empty_stalls += f.fifo_empty_stalls;
    }
    Ok(backward)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use chgraph::{ChGraphRuntime, HygraRuntime, RunConfig};

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn forward_counts_paths_on_fig1() {
        let g = hypergraph::fig1_example();
        let r =
            HygraRuntime.execute(&g, &BcForward { source: VertexId::new(0) }, &RunConfig::new());
        // v0 -> {h0, h2}; v4 is in both: two shortest paths.
        assert_eq!(r.state.vertex_aux[4], 2.0);
        assert_eq!(r.state.vertex_aux[6], 1.0); // only via h0
        assert_eq!(r.state.vertex_aux[2], 1.0); // only via h2
    }

    #[test]
    fn bc_matches_reference_brandes() {
        for seed in [1u64, 8, 21] {
            let g = hypergraph::generate::GeneratorConfig::new(150, 90).with_seed(seed).generate();
            let r = run_bc(&HygraRuntime, &g, &RunConfig::new(), VertexId::new(0));
            let (vd, hd) = reference::bc_single_source(&g, VertexId::new(0));
            assert!(close(&r.state.vertex_value, &vd), "vertex deltas diverge (seed {seed})");
            assert!(close(&r.state.hyperedge_value, &hd), "hyperedge deltas diverge (seed {seed})");
        }
    }

    #[test]
    fn runtimes_agree_on_bc() {
        let g = hypergraph::generate::GeneratorConfig::new(200, 120).with_seed(3).generate();
        let cfg = RunConfig::new();
        let a = run_bc(&HygraRuntime, &g, &cfg, VertexId::new(0));
        let b = run_bc(&ChGraphRuntime::new(), &g, &cfg, VertexId::new(0));
        assert!(close(&a.state.vertex_value, &b.state.vertex_value));
        assert_eq!(a.algorithm, "bc");
        assert!(b.engine.is_some());
    }

    #[test]
    fn unreachable_parts_have_zero_dependency() {
        use hypergraph::HypergraphBuilder;
        let mut b = HypergraphBuilder::new(5);
        b.add_hyperedge([0, 1].map(VertexId::new)).unwrap();
        b.add_hyperedge([2, 3, 4].map(VertexId::new)).unwrap();
        let g = b.build();
        let r = run_bc(&HygraRuntime, &g, &RunConfig::new(), VertexId::new(0));
        assert_eq!(r.state.vertex_value[2], 0.0);
        assert_eq!(r.state.hyperedge_value[1], 0.0);
    }
}
