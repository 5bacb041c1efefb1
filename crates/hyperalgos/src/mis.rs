//! Maximal independent set.

use chgraph::{Algorithm, State, UpdateOutcome};
use hypergraph::{Frontier, Hypergraph, Side};

/// Decision state of a vertex in the MIS computation, encoded in
/// `vertex_aux`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MisStatus {
    /// Not yet decided.
    Undecided,
    /// Selected into the independent set.
    InSet,
    /// Excluded (shares a hyperedge with a selected vertex).
    Excluded,
}

impl MisStatus {
    /// Decodes the `vertex_aux` encoding.
    pub fn from_aux(aux: f64) -> MisStatus {
        match aux as i64 {
            1 => MisStatus::InSet,
            2 => MisStatus::Excluded,
            _ => MisStatus::Undecided,
        }
    }
}

/// Maximal independent set on a hypergraph: no two selected vertices share
/// a hyperedge (strong independence), and no unselected vertex can be added.
///
/// Greedy-by-id rounds: each round, every undecided vertex publishes its id
/// to its incident hyperedges (`HF`, min); a vertex whose id equals the
/// minimum over *all* its incident hyperedges joins the set; its hyperedge
/// neighbors are excluded. Selection/exclusion bookkeeping runs in the
/// `end_iteration` hook identically for every runtime.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mis;

impl Mis {
    /// Decoded per-vertex statuses from a finished state.
    pub fn statuses(state: &State) -> Vec<MisStatus> {
        state.vertex_aux.iter().map(|&a| MisStatus::from_aux(a)).collect()
    }
}

impl Algorithm for Mis {
    fn name(&self) -> &'static str {
        "mis"
    }

    fn init(&self, g: &Hypergraph) -> (State, Frontier) {
        // vertex_value: per-round min accumulator; hyperedge_value: per-round
        // min of undecided incident vertex ids; vertex_aux: MisStatus.
        let mut state = State::filled_with_aux(g, f64::INFINITY, f64::INFINITY, 0.0, 0.0);
        // Vertices with no incident hyperedges join trivially (maximality);
        // they can never conflict with anything.
        for v in 0..g.num_vertices() {
            if g.vertex_degree(hypergraph::VertexId::from_index(v)) == 0 {
                state.vertex_aux[v] = 1.0;
            }
        }
        (state, Frontier::full(g.num_vertices()))
    }

    fn begin_iteration(&self, _g: &Hypergraph, state: &mut State, _iteration: usize) {
        state.hyperedge_value.fill(f64::INFINITY);
        state.vertex_value.fill(f64::INFINITY);
    }

    fn apply_hf(&self, _g: &Hypergraph, state: &mut State, v: u32, h: u32) -> UpdateOutcome {
        if MisStatus::from_aux(state.vertex_aux[v as usize]) != MisStatus::Undecided {
            return UpdateOutcome::NONE;
        }
        let cand = v as f64;
        if cand < state.hyperedge_value[h as usize] {
            state.hyperedge_value[h as usize] = cand;
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else {
            // The hyperedge still participates in the round even when this
            // vertex is not its minimum.
            UpdateOutcome { wrote: false, activated: true }
        }
    }

    fn apply_vf(&self, _g: &Hypergraph, state: &mut State, h: u32, v: u32) -> UpdateOutcome {
        if MisStatus::from_aux(state.vertex_aux[v as usize]) != MisStatus::Undecided {
            return UpdateOutcome::NONE;
        }
        let cand = state.hyperedge_value[h as usize];
        if cand < state.vertex_value[v as usize] {
            state.vertex_value[v as usize] = cand;
            UpdateOutcome::WROTE_AND_ACTIVATED
        } else {
            UpdateOutcome { wrote: false, activated: true }
        }
    }

    fn end_iteration(
        &self,
        g: &Hypergraph,
        state: &mut State,
        next_vertices: &mut Frontier,
        _iteration: usize,
    ) {
        // A vertex joins iff it is the minimum undecided id in every
        // incident hyperedge it shares with an undecided vertex:
        // vertex_value accumulated min over incident hyperedges' minima,
        // all of which are <= v; equality to v means v is min everywhere.
        let joined: Vec<u32> = next_vertices
            .iter()
            .filter(|&v| {
                MisStatus::from_aux(state.vertex_aux[v as usize]) == MisStatus::Undecided
                    && state.vertex_value[v as usize] == v as f64
            })
            .collect();
        for &v in &joined {
            state.vertex_aux[v as usize] = 1.0;
            for &h in g.incidence(Side::Vertex, v) {
                for &u in g.incidence(Side::Hyperedge, h) {
                    if MisStatus::from_aux(state.vertex_aux[u as usize]) == MisStatus::Undecided {
                        state.vertex_aux[u as usize] = 2.0;
                    }
                }
            }
        }
        // Next round: only still-undecided vertices stay active.
        let undecided: Vec<u32> = next_vertices
            .iter()
            .filter(|&v| MisStatus::from_aux(state.vertex_aux[v as usize]) == MisStatus::Undecided)
            .collect();
        next_vertices.clear();
        next_vertices.extend(undecided);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use chgraph::{RunConfig, System};

    #[test]
    fn fig1_mis_is_valid_and_greedy() {
        let g = hypergraph::fig1_example();
        let r = System::Hygra.execute(&g, &Mis, &RunConfig::new());
        let statuses = Mis::statuses(&r.state);
        reference::assert_valid_mis(&g, &statuses);
        // Greedy by id: v0 joins first; v2/v4/v6 excluded (share h0/h2);
        // v1 joins next; v3/v5 excluded (share h1/h3).
        assert_eq!(statuses[0], MisStatus::InSet);
        assert_eq!(statuses[1], MisStatus::InSet);
        for v in [2usize, 3, 4, 5, 6] {
            assert_eq!(statuses[v], MisStatus::Excluded, "v{v}");
        }
    }

    #[test]
    fn random_inputs_yield_valid_maximal_sets() {
        for seed in [2u64, 11, 23] {
            let g = hypergraph::generate::GeneratorConfig::new(300, 150).with_seed(seed).generate();
            let r = System::Hygra.execute(&g, &Mis, &RunConfig::new());
            reference::assert_valid_mis(&g, &Mis::statuses(&r.state));
        }
    }

    #[test]
    fn runtimes_agree() {
        let g = hypergraph::generate::GeneratorConfig::new(250, 120).with_seed(4).generate();
        let cfg = RunConfig::new();
        let a = System::Hygra.execute(&g, &Mis, &cfg);
        let b = System::ChGraph.execute(&g, &Mis, &cfg);
        assert_eq!(a.state.vertex_aux, b.state.vertex_aux);
    }

    #[test]
    fn status_decoding() {
        assert_eq!(MisStatus::from_aux(0.0), MisStatus::Undecided);
        assert_eq!(MisStatus::from_aux(1.0), MisStatus::InSet);
        assert_eq!(MisStatus::from_aux(2.0), MisStatus::Excluded);
    }
}
