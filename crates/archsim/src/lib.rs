#![warn(missing_docs)]

//! Cycle-level multicore memory-hierarchy simulator.
//!
//! The ChGraph paper evaluates on a ZSim-simulated 16-core system (Table I).
//! This crate is the from-scratch substitute: an access-driven simulator of
//! the machine's memory hierarchy with enough fidelity to reproduce the
//! paper's *memory-system* results — per-array main-memory access counts
//! (Fig. 15), stall fractions (Fig. 5), cache-size and core-count
//! sensitivity (Figs. 19–20) — without modelling an out-of-order pipeline
//! instruction by instruction.
//!
//! Components:
//!
//! - [`SystemConfig`] — the machine description, with the paper's Table I
//!   parameters ([`SystemConfig::paper`]) and a capacity-scaled variant
//!   ([`SystemConfig::scaled`]) matched to the ~400× smaller stand-in
//!   datasets;
//! - [`AddressMap`] / [`Region`] — logical data-array layout; every access
//!   names the array it touches, which is how the per-array breakdown of
//!   Fig. 15 is produced;
//! - [`Machine`] — per-core private L1/L2 (inclusive), shared banked L3
//!   (inclusive for Table I's machine, non-inclusive for the scaled one;
//!   [`SystemConfig::l3_inclusive`]) with a directory MESI-lite
//!   invalidation model, a 4×4 mesh NoC latency model, and DDR memory
//!   controllers with queueing contention;
//! - [`CoreTimer`] — a simple decoupled core cost model: compute cycles plus
//!   memory stalls shortened by a memory-level-parallelism factor;
//! - [`MemStats`] / [`EnergyModel`] — access accounting and the
//!   McPAT/CACTI-substitute energy model.
//!
//! # Example
//!
//! ```
//! use archsim::{AddressMap, Machine, Region, SystemConfig, AccessKind, Level};
//!
//! let cfg = SystemConfig::scaled(1);
//! let mut map = AddressMap::new(cfg.line_bytes);
//! map.add(Region::VertexValue, 8, 1024);
//! let mut m = Machine::new(cfg, map);
//! let first = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
//! assert_eq!(first.level, Level::Mem); // cold miss goes to main memory
//! let again = m.access(0, Region::VertexValue, 1, AccessKind::Read, Level::L1, 10);
//! assert_eq!(again.level, Level::L1); // same 64-B line: L1 hit
//! ```

mod address;
mod cache;
mod config;
mod dram;
mod energy;
mod machine;
mod noc;
#[cfg(any(test, feature = "reference-kernels"))]
pub mod reference;
mod stats;
mod timer;

pub use address::{AddressMap, Region, RegionGroup};
pub use cache::{Cache, CacheAccess};
pub use config::{CacheConfig, DramConfig, NocConfig, SystemConfig};
pub use dram::DramModel;
pub use energy::{EnergyModel, EnergyReport};
pub use machine::{AccessKind, AccessResult, Level, Machine, MachineConfigError};
pub use noc::MeshNoc;
pub use stats::MemStats;
pub use timer::CoreTimer;
