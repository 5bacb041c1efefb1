#![warn(missing_docs)]

//! ChGraph: chain-driven hypergraph processing with a hardware-accelerated
//! engine — the core of the HPCA'22 reproduction.
//!
//! This crate implements the paper's contribution and its evaluation
//! apparatus:
//!
//! - the [`Algorithm`] programming model (`HF`/`VF` update functions of
//!   Algorithm 1);
//! - the simulated [`System`]s, each run by [`System::run`]: the
//!   chain-driven **Generate-Load-Apply** execution model (§IV) in two
//!   forms, pure software ([`System::Gla`]), whose chain-generation overhead
//!   makes it *slower* than Hygra despite fewer memory accesses
//!   (Figs. 2–3), and hardware-accelerated ([`System::ChGraph`]), whose
//!   per-core engine (the 4-stage hardware chain generator plus the 4-stage
//!   chain-driven prefetcher of §V, connected by FIFOs) reverses the
//!   situation; the HCG-only ablation; the [`System::Hygra`] baseline
//!   (index-ordered scheduling); and the comparison baselines of §II-C and
//!   §VI-H, [`System::HatsV`] and [`System::Prefetcher`];
//! - the reordering transformation in [`baseline::reorder`];
//! - the engine cost model ([`engine`]) reproducing the §VI-E area/power
//!   accounting;
//! - [`ExecutionReport`] with the paper's metrics: cycles, off-chip
//!   main-memory accesses by array, stall fractions, preprocessing
//!   overheads.
//!
//! # Example
//!
//! ```
//! use chgraph::{MinLabel, RunConfig, System};
//!
//! let g = hypergraph::datasets::Dataset::LiveJournal.config()
//!     .with_seed(1).generate();
//! let cfg = RunConfig::new().with_max_iterations(2);
//! let hygra = System::Hygra.run(&g, &MinLabel, &cfg, None)?;
//! let chg = System::ChGraph.run(&g, &MinLabel, &cfg, None)?;
//! assert_eq!(hygra.state.vertex_value, chg.state.vertex_value);
//! # Ok::<(), chgraph::ExecError>(())
//! ```

mod algorithm;
pub mod baseline;
pub mod engine;
mod exec;
pub mod guard;
pub mod layout;
pub mod preprocess;
mod report;
mod runtime;
mod runtimes;
#[cfg(test)]
mod testutil;

pub use algorithm::{Algorithm, MinLabel, State, UpdateOutcome};
pub use guard::{Budget, ExecError, ExecProgress, Watchdog, WatchdogConfig};
pub use report::{EngineReport, ExecutionReport, PreprocessReport};
pub use runtime::{ChGraphRuntime, GlaRuntime, HygraRuntime, RunConfig, Runtime, System};
pub use runtimes::PreparedOags;
