#![warn(missing_docs)]

//! Overlap-aware abstraction graph (OAG) and chain generation.
//!
//! This crate implements §IV of the ChGraph paper:
//!
//! - the **OAG** (Definition 1): a weighted undirected graph with one vertex
//!   per hyperedge (or per vertex), an edge between two elements iff they are
//!   *overlapped*, and edge weight `|N(a) ∩ N(b)|`. Edges with weight below
//!   a user threshold `W_min` are discarded — a space/locality trade-off
//!   that never affects correctness, because elements that lose their overlap
//!   information are simply scheduled in index order;
//! - the **chain** (Definition 2): a sequence of connected OAG vertices, and
//!   the chain-generation procedure (Algorithm 3): a greedy,
//!   maximal-weight-successor walk bounded by a maximum exploration depth
//!   `D_max`, seeded from the minimum-index active element. This is exactly
//!   the walk the hardware chain generator of §V-B performs with its
//!   16-deep stack.
//!
//! Chain generation accepts a [`ChainObserver`] so the architectural
//! simulator can charge every bitmap scan, offset fetch and edge scan to the
//! simulated memory hierarchy without duplicating the algorithm.
//!
//! # Example
//!
//! ```
//! use hypergraph::{Side, Frontier};
//! use oag::{OagConfig, ChainConfig, generate_chains};
//!
//! let g = hypergraph::fig1_example();
//! let oag = OagConfig::new().with_w_min(1).build(&g, Side::Hyperedge);
//! let frontier = Frontier::full(g.num_hyperedges());
//! let chains = generate_chains(&oag, &frontier, 0..4, &ChainConfig::default());
//! // The paper's chain rooted at h0: <h0, h2, h1, h3>.
//! assert_eq!(chains.chain(0), &[0, 2, 1, 3]);
//! ```

mod build;
mod chain;
mod generate;
mod graph;
pub mod io;
pub mod quality;
#[cfg(any(test, feature = "reference-kernels"))]
pub mod reference;

pub use build::{OagBuildStats, OagConfig};
pub use chain::ChainSet;
pub use generate::{
    generate_chains, generate_chains_observed_with_scratch, generate_chains_with_scratch,
    ChainConfig, ChainObserver, ChainScratch, NoopObserver,
};
pub use graph::Oag;
pub use hypergraph::ValidationError;
