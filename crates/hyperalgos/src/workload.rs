//! The evaluation's workload set and a uniform entry point.

use crate::{
    try_run_bc_prepared, Adsorption, Bfs, ConnectedComponents, CoreDecomposition, Mis, PageRank,
    Sssp,
};
use chgraph::{ExecError, ExecutionReport, PreparedOags, RunConfig, Runtime};
use hypergraph::{Hypergraph, VertexId};
use std::fmt;

/// The deterministic source vertex used by the traversal workloads: the
/// highest-degree vertex (ties broken by lowest id), so the traversal is
/// never a trivial no-op on an isolated vertex.
pub fn default_source(g: &Hypergraph) -> VertexId {
    let mut best = 0usize;
    for v in 1..g.num_vertices() {
        if g.vertex_degree(VertexId::from_index(v)) > g.vertex_degree(VertexId::from_index(best)) {
            best = v;
        }
    }
    VertexId::from_index(best)
}

/// The six hypergraph workloads of the paper's evaluation (§VI-A) plus the
/// two ordinary-graph workloads of the generality study (§VI-I).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Workload {
    /// Breadth-first search.
    Bfs,
    /// PageRank (10 iterations, all active).
    Pr,
    /// Maximal independent set.
    Mis,
    /// Betweenness centrality (single source, forward + backward).
    Bc,
    /// Connected components.
    Cc,
    /// k-core decomposition (full coreness computation).
    KCore,
    /// Weighted single-source shortest paths (generality study).
    Sssp,
    /// Adsorption label propagation (generality study).
    Adsorption,
}

impl Workload {
    /// The six hypergraph workloads, in the paper's presentation order.
    pub const HYPERGRAPH: [Workload; 6] =
        [Workload::Bfs, Workload::Pr, Workload::Mis, Workload::Bc, Workload::Cc, Workload::KCore];

    /// The two ordinary-graph workloads of Fig. 25.
    pub const GRAPH: [Workload; 2] = [Workload::Adsorption, Workload::Sssp];

    /// Short label as used in the paper's figures.
    pub fn abbrev(self) -> &'static str {
        match self {
            Workload::Bfs => "BFS",
            Workload::Pr => "PR",
            Workload::Mis => "MIS",
            Workload::Bc => "BC",
            Workload::Cc => "CC",
            Workload::KCore => "k-core",
            Workload::Sssp => "SSSP",
            Workload::Adsorption => "Adsorption",
        }
    }

    /// Parses a workload name as the CLI and the daemon accept it, ignoring
    /// ASCII case: `bfs`, `pr`/`pagerank`, `mis`, `bc`, `cc`,
    /// `kcore`/`k-core`, `sssp`, `adsorption`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Some(match name.to_ascii_lowercase().as_str() {
            "bfs" => Workload::Bfs,
            "pr" | "pagerank" => Workload::Pr,
            "mis" => Workload::Mis,
            "bc" => Workload::Bc,
            "cc" => Workload::Cc,
            "kcore" | "k-core" => Workload::KCore,
            "sssp" => Workload::Sssp,
            "adsorption" => Workload::Adsorption,
            _ => return None,
        })
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Executes `workload` on `g` under `runtime`'s [`System`](chgraph::System)
/// with the standard parameters of the evaluation (the
/// [`default_source`] for traversals, full coreness for k-core,
/// 10 iterations for PR/Adsorption). Passing `Some(prepared)` skips
/// per-execution OAG construction for chain-driven systems; the report is
/// bit-identical either way (see [`System::run`](chgraph::System::run)).
pub fn try_run_workload_prepared(
    workload: Workload,
    runtime: &dyn Runtime,
    g: &Hypergraph,
    cfg: &RunConfig,
    prepared: Option<&PreparedOags>,
) -> Result<ExecutionReport, ExecError> {
    let system = runtime.system();
    let source = default_source(g);
    match workload {
        Workload::Bfs => system.run(g, &Bfs::new(source), cfg, prepared),
        Workload::Pr => system.run(g, &PageRank::new(), cfg, prepared),
        Workload::Mis => system.run(g, &Mis, cfg, prepared),
        Workload::Bc => try_run_bc_prepared(system, g, cfg, source, prepared),
        Workload::Cc => system.run(g, &ConnectedComponents, cfg, prepared),
        Workload::KCore => system.run(g, &CoreDecomposition::new(), cfg, prepared),
        Workload::Sssp => system.run(g, &Sssp::new(source), cfg, prepared),
        Workload::Adsorption => system.run(g, &Adsorption::new(), cfg, prepared),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chgraph::System;

    #[test]
    fn every_workload_runs_on_fig1() {
        let g = hypergraph::fig1_example();
        let cfg = RunConfig::new();
        for w in Workload::HYPERGRAPH.into_iter().chain(Workload::GRAPH) {
            let r = try_run_workload_prepared(w, &System::Hygra, &g, &cfg, None).unwrap();
            assert!(r.cycles > 0, "{w}: zero cycles");
            assert!(r.iterations > 0, "{w}: zero iterations");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Workload::KCore.to_string(), "k-core");
        assert_eq!(Workload::Pr.abbrev(), "PR");
        assert_eq!(Workload::HYPERGRAPH.len(), 6);
        assert_eq!(Workload::GRAPH.len(), 2);
    }

    #[test]
    fn every_workload_spelling_parses() {
        for (name, want) in [
            ("bfs", Workload::Bfs),
            ("pr", Workload::Pr),
            ("pagerank", Workload::Pr),
            ("mis", Workload::Mis),
            ("bc", Workload::Bc),
            ("cc", Workload::Cc),
            ("kcore", Workload::KCore),
            ("k-core", Workload::KCore),
            ("sssp", Workload::Sssp),
            ("adsorption", Workload::Adsorption),
        ] {
            assert_eq!(Workload::from_name(name), Some(want), "{name}");
            assert_eq!(Workload::from_name(&name.to_ascii_uppercase()), Some(want), "{name}");
        }
        assert_eq!(Workload::from_name("pagerank2"), None);
    }
}
