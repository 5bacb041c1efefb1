#![warn(missing_docs)]

//! The hypergraph algorithms of the ChGraph evaluation.
//!
//! Implements, against the [`chgraph::Algorithm`] programming model
//! (Algorithm 1's `HF`/`VF` update functions), the six workloads of the
//! paper's §VI-A:
//!
//! - [`Bfs`] — breadth-first search (distances in bipartite hops);
//! - [`PageRank`] — the paper's own `HF`/`VF` formulation (Algorithm 1,
//!   lines 15–21), run for 10 iterations, all elements active;
//! - [`Mis`] — maximal independent set (greedy-by-id rounds);
//! - bc — single-source betweenness centrality (Brandes on the bipartite
//!   graph; forward + backward executions composed by [`run_workload`]);
//! - [`ConnectedComponents`] — min-label propagation;
//! - [`KCore`] — k-core decomposition by iterative peeling;
//!
//! plus the two ordinary-graph algorithms of the generality study (§VI-I),
//! which run on 2-uniform hypergraphs: [`Sssp`] (weighted shortest paths)
//! and [`Adsorption`] (label propagation).
//!
//! Every algorithm has a naive reference implementation in [`mod@reference`],
//! used by the test suite to verify simulated executions end-to-end.
//!
//! # Example
//!
//! ```
//! use chgraph::{HygraRuntime, RunConfig};
//! use hyperalgos::{run_workload, Workload};
//!
//! let g = hypergraph::fig1_example();
//! let report = run_workload(Workload::Bfs, &HygraRuntime, &g, &RunConfig::new());
//! // v0 is the source: distance 0; its co-members of h0/h2 are 2 hops away.
//! assert_eq!(report.state.vertex_value[0], 0.0);
//! assert_eq!(report.state.vertex_value[4], 2.0);
//! ```

mod adsorption;
mod bc;
mod bfs;
mod cc;
mod kcore;
mod mis;
mod pagerank;
pub mod reference;
pub mod selfcheck;
mod sssp;
mod workload;

pub use adsorption::Adsorption;
pub use bc::{run_bc, try_run_bc_prepared, BcBackward, BcForward};
pub use bfs::Bfs;
pub use cc::ConnectedComponents;
pub use kcore::{CoreDecomposition, KCore};
pub use mis::{Mis, MisStatus};
pub use pagerank::PageRank;
pub use selfcheck::{self_check, self_check_prepared, SelfCheckError, SelfCheckReport};
pub use sssp::Sssp;
pub use workload::{default_source, run_workload, try_run_workload_prepared, Workload};
