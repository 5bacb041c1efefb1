#![warn(missing_docs)]

//! Benchmark harness for the ChGraph reproduction.
//!
//! Every table and figure of the paper's evaluation (§VI) has a
//! regeneration function in [`figures`] that executes the corresponding
//! workloads on the simulated machine and returns (and pretty-prints) the
//! same rows/series the paper reports. The `figures` binary of the
//! workspace root dispatches to these functions:
//!
//! ```text
//! cargo run --release --bin figures -- fig14 --scale 0.5
//! cargo run --release --bin figures -- all
//! ```
//!
//! Absolute numbers differ from the paper (the substrate is this
//! repository's simulator, not the authors' ZSim testbed, and the datasets
//! are synthetic stand-ins); the *shapes* — who wins, by what rough factor,
//! where crossovers fall — are asserted by the integration tests in
//! `tests/`.

pub mod cache;
#[cfg(any(test, feature = "fault-injection"))]
pub mod faultutil;
pub mod figures;
pub mod hostmeta;
pub mod memo;
mod scale;
mod store;
mod table;

pub use cache::{CacheStats, PreprocessCache};
pub use hostmeta::HostMeta;
pub use memo::{Fetch, Memo};
pub use scale::{load_graph_scaled, load_scaled, Scale};
pub use store::{ArtifactCounters, ArtifactStore};
pub use table::Table;

/// Default worker-thread count for the CLI binaries: the host's available
/// parallelism, clamped to at least 1. A fixed default above the host's
/// core count was measured to cost a 1.33× oversubscription penalty, so
/// every binary that fans out defaults to this and lets an explicit
/// `--threads` value win.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Renders a `catch_unwind` payload (typically a `&str` or `String` from
/// `panic!`) for error reports.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
