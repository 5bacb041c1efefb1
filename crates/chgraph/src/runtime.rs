//! The runtime abstraction and its configuration.

use crate::guard::{ExecError, WatchdogConfig};
use crate::{Algorithm, ExecutionReport};
use archsim::SystemConfig;
use hypergraph::Hypergraph;
use oag::{ChainConfig, OagConfig};

/// Configuration shared by every runtime execution.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The simulated machine.
    pub system: SystemConfig,
    /// OAG construction parameters (`W_min`, caps) for chain-driven runtimes.
    pub oag: OagConfig,
    /// Chain-walk parameters (`D_max`).
    pub chain: ChainConfig,
    /// Overrides the algorithm's iteration bound when set.
    pub max_iterations: Option<usize>,
    /// Capacity of the chain FIFO and the bipartite-edge FIFO (paper: 32).
    pub fifo_capacity: usize,
    /// Effective memory-level parallelism of the ChGraph engine's pipelined,
    /// decoupled accesses (deeper than the core's OOO window).
    pub engine_mlp: u64,
    /// Run-ahead distance, in elements, of the event-driven prefetcher
    /// baseline (§VI-H).
    pub prefetcher_distance: usize,
    /// Percentage (0–100) of the prefetcher baseline's value prefetches
    /// that fetch a useless line ("noisy data", §II-C).
    pub prefetcher_noise_pct: u8,
    /// Chain-driven runtimes fall back to index order for phases whose
    /// frontier is smaller than `universe / sparse_chain_divisor`: with few
    /// active elements, overlap partners are almost surely inactive, so the
    /// OAG walk costs traffic it cannot repay. The element count is known
    /// from the previous phase's activation counter, so hardware can make
    /// the same decision. `0` disables the fallback.
    pub sparse_chain_divisor: usize,
    /// Host worker threads used to *construct* OAGs. This is a build-speed
    /// knob only: the OAG (and therefore every simulated result) is
    /// bit-identical for any value — see
    /// [`OagConfig::build_with_stats_threads`](oag::OagConfig::build_with_stats_threads).
    pub oag_build_threads: usize,
    /// Execution watchdog budgets (cycles, wall clock, frontier stalls).
    /// The default has no budgets, so nothing ever trips; budgets convert
    /// runaway executions into typed
    /// [`ExecError::BudgetExceeded`](crate::ExecError::BudgetExceeded)
    /// failures with partial statistics.
    pub watchdog: WatchdogConfig,
    /// Deep structural checking: validate the hypergraph and both OAGs
    /// before execution, and prove every generated chain schedule covers
    /// the active set exactly once (§IV reordering invariant) before
    /// consuming it. Costs a full pass per schedule; off by default.
    pub validate: bool,
}

impl RunConfig {
    /// Default configuration: the scaled 16-core machine, `W_min = 3`,
    /// `D_max = 16`, 32-entry FIFOs.
    pub fn new() -> Self {
        RunConfig {
            system: SystemConfig::scaled16(),
            oag: OagConfig::new(),
            chain: ChainConfig::default(),
            max_iterations: None,
            fifo_capacity: 32,
            engine_mlp: 8,
            prefetcher_distance: 8,
            prefetcher_noise_pct: 20,
            sparse_chain_divisor: 12,
            oag_build_threads: 1,
            watchdog: WatchdogConfig::default(),
            validate: false,
        }
    }

    /// Replaces the simulated machine.
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Replaces the OAG configuration.
    pub fn with_oag(mut self, oag: OagConfig) -> Self {
        self.oag = oag;
        self
    }

    /// Replaces the chain configuration.
    pub fn with_chain(mut self, chain: ChainConfig) -> Self {
        self.chain = chain;
        self
    }

    /// Caps the number of iterations.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = Some(n);
        self
    }

    /// Sets the host thread count for OAG construction (minimum 1). Results
    /// are bit-identical for any value; only wall-clock changes.
    pub fn with_oag_build_threads(mut self, threads: usize) -> Self {
        self.oag_build_threads = threads.max(1);
        self
    }

    /// Replaces the watchdog budgets.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Caps simulated cycles (shorthand for a cycle-only watchdog budget).
    pub fn with_max_cycles(mut self, cycles: u64) -> Self {
        self.watchdog.max_cycles = Some(cycles);
        self
    }

    /// Enables or disables deep structural validation (see
    /// [`RunConfig::validate`]).
    pub fn with_validate(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::new()
    }
}

/// A hypergraph-processing system simulated on the machine: Hygra, software
/// GLA, ChGraph, or one of the comparison baselines.
pub trait Runtime {
    /// Short name used in reports and figures.
    fn name(&self) -> &'static str;

    /// Executes `algo` on `g` under this runtime, returning the full report
    /// (final state, cycles, memory statistics, preprocessing accounting) —
    /// or a typed [`ExecError`] when a watchdog budget is exhausted, a
    /// structural validation fails, or the configuration cannot be
    /// simulated.
    fn try_execute(
        &self,
        g: &Hypergraph,
        algo: &dyn Algorithm,
        cfg: &RunConfig,
    ) -> Result<ExecutionReport, ExecError>;

    /// Like [`try_execute`](Runtime::try_execute), but may reuse pre-built
    /// OAG artifacts instead of rebuilding them per execution.
    ///
    /// The contract is strict: the report must be **bit-identical** to
    /// `try_execute(g, algo, cfg)`. Implementations must therefore verify
    /// that `prepared` matches `cfg.oag` (and rebuild if it does not), and
    /// the default implementation simply ignores `prepared` — correct for
    /// runtimes that never build OAGs.
    fn try_execute_prepared(
        &self,
        g: &Hypergraph,
        algo: &dyn Algorithm,
        cfg: &RunConfig,
        prepared: Option<&crate::PreparedOags>,
    ) -> Result<ExecutionReport, ExecError> {
        let _ = prepared;
        self.try_execute(g, algo, cfg)
    }

    /// Infallible convenience wrapper over
    /// [`try_execute`](Runtime::try_execute).
    ///
    /// # Panics
    ///
    /// Panics with the [`ExecError`] message if the execution fails; with a
    /// default [`RunConfig`] (no budgets, no deep validation) failures only
    /// arise from untrusted inputs or unsimulatable configurations.
    fn execute(&self, g: &Hypergraph, algo: &dyn Algorithm, cfg: &RunConfig) -> ExecutionReport {
        self.try_execute(g, algo, cfg).unwrap_or_else(|e| panic!("{}: {e}", self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_paperlike() {
        let c = RunConfig::new();
        assert_eq!(c.system.num_cores, 16);
        assert_eq!(c.oag.w_min, 3);
        assert_eq!(c.chain.d_max, 16);
        assert_eq!(c.fifo_capacity, 32);
        assert!(c.max_iterations.is_none());
    }

    #[test]
    fn builders_compose() {
        let c = RunConfig::new()
            .with_system(SystemConfig::scaled(4))
            .with_oag(OagConfig::new().with_w_min(1))
            .with_chain(ChainConfig::new(8))
            .with_max_iterations(3);
        assert_eq!(c.system.num_cores, 4);
        assert_eq!(c.oag.w_min, 1);
        assert_eq!(c.chain.d_max, 8);
        assert_eq!(c.max_iterations, Some(3));
    }
}
