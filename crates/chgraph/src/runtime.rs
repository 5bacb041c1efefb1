//! The simulated systems and their shared configuration.

use crate::guard::WatchdogConfig;
use archsim::SystemConfig;
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
    /// Capacity of the bipartite-edge FIFO in tuples (paper: 32): the CP runs
    /// at most this many tuples ahead of the core. The chain FIFO is not
    /// bounded in the simulation; the HCG emits a whole chunk's schedule
    /// ahead of the CP.
    pub fifo_capacity: usize,
    /// Effective memory-level parallelism of the ChGraph engine's pipelined,
    /// decoupled accesses (deeper than the core's OOO window).
    pub engine_mlp: u64,
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
    /// `D_max = 16`, a 32-entry bipartite-edge FIFO.
    pub fn new() -> Self {
        RunConfig {
            system: SystemConfig::scaled16(),
            oag: OagConfig::new(),
            chain: ChainConfig::default(),
            max_iterations: None,
            fifo_capacity: 32,
            engine_mlp: 8,
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

/// A hypergraph-processing system simulated on the machine. All six run
/// the same driver on the same simulated testbed and differ only in how the
/// schedule of active elements is produced and which component (core or
/// engine) issues each load, so every comparison holds everything else
/// equal. [`System::run`] executes one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum System {
    /// Hygra: index-ordered scheduling on general-purpose cores (paper
    /// Algorithm 1; Shun, PPoPP'20). No OAG, no engine.
    Hygra,
    /// Pure-software GLA: the cores generate chains themselves
    /// (Algorithm 3 in software). Reduces main-memory accesses like
    /// ChGraph, but the generation overhead makes it *slower* than Hygra on
    /// most workloads (Figs. 2–3, 14) — the observation motivating the
    /// hardware engine.
    Gla,
    /// ChGraph: the per-core engine generates chains (HCG) and prefetches
    /// bipartite-edge tuples (CP) that the core consumes through the FIFO
    /// (§V).
    ChGraph,
    /// The HCG-only ablation of Fig. 16: hardware chain generation, but the
    /// core performs its own data loading.
    HcgOnly,
    /// HATS-V: the HATS hardware traversal scheduler (Mukkara et al.,
    /// MICRO'18) modified for hypergraphs (§II-C). It schedules by bounded
    /// DFS over the **bipartite structure** rather than an OAG: discovering
    /// each same-side neighbor traverses *two* bipartite edges, and the
    /// successor is the first overlapping element found, not the
    /// maximally-overlapping one. Both make it inferior to ChGraph (Fig. 7).
    HatsV,
    /// The event-driven programmable prefetcher (Ainsworth & Jones,
    /// ASPLOS'18 style, §VI-H): Hygra's index order, with a hardware
    /// prefetcher running a fixed number of elements ahead of the core
    /// and fetching offsets, incidence lists and destination
    /// values into the L2, plus a fraction of useless fetches. It hides
    /// latency but cannot *reduce* main-memory traffic (Fig. 23).
    Prefetcher,
}

impl System {
    /// Every simulated system, in the evaluation's presentation order.
    pub const ALL: [System; 6] = [
        System::Hygra,
        System::Gla,
        System::ChGraph,
        System::HcgOnly,
        System::HatsV,
        System::Prefetcher,
    ];

    /// Short name used in reports, on the wire and in fingerprints.
    pub fn name(self) -> &'static str {
        match self {
            System::Hygra => "hygra",
            System::Gla => "gla",
            System::ChGraph => "chgraph",
            System::HcgOnly => "chgraph-hcg",
            System::HatsV => "hats-v",
            System::Prefetcher => "prefetcher",
        }
    }

    /// Display label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            System::Hygra => "Hygra",
            System::Gla => "GLA",
            System::ChGraph => "ChGraph",
            System::HcgOnly => "HCG-only",
            System::HatsV => "HATS-V",
            System::Prefetcher => "Prefetcher",
        }
    }

    /// Parses a [`name`](System::name) or one of the short aliases `hcg`
    /// and `hats`, ignoring ASCII case.
    pub fn from_name(name: &str) -> Option<System> {
        let name = name.to_ascii_lowercase();
        match name.as_str() {
            "hcg" => Some(System::HcgOnly),
            "hats" => Some(System::HatsV),
            _ => System::ALL.into_iter().find(|s| s.name() == name),
        }
    }

    /// Whether the system walks OAGs, and so builds them or reuses a
    /// matching [`PreparedOags`](crate::PreparedOags).
    pub fn needs_oags(self) -> bool {
        matches!(self, System::Gla | System::ChGraph | System::HcgOnly)
    }
}

/// A handle naming a simulated [`System`]. [`System`] implements it, and so
/// do three unit structs kept because the `perfbench` crate still builds
/// them as `Box<dyn Runtime>`.
pub trait Runtime {
    /// The simulated system this handle names.
    fn system(&self) -> System;
}

impl Runtime for System {
    fn system(&self) -> System {
        *self
    }
}

/// Names [`System::Hygra`]; kept for `dyn Runtime` callers.
#[derive(Clone, Copy, Debug, Default)]
pub struct HygraRuntime;

/// Names [`System::Gla`]; kept for `dyn Runtime` callers.
#[derive(Clone, Copy, Debug, Default)]
pub struct GlaRuntime;

/// Names [`System::ChGraph`]; kept for `dyn Runtime` callers.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChGraphRuntime;

impl ChGraphRuntime {
    /// The full-ChGraph handle.
    pub fn new() -> Self {
        ChGraphRuntime
    }
}

impl Runtime for HygraRuntime {
    fn system(&self) -> System {
        System::Hygra
    }
}

impl Runtime for GlaRuntime {
    fn system(&self) -> System {
        System::Gla
    }
}

impl Runtime for ChGraphRuntime {
    fn system(&self) -> System {
        System::ChGraph
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

    #[test]
    fn names_round_trip_and_old_aliases_parse() {
        for s in System::ALL {
            assert_eq!(System::from_name(s.name()), Some(s), "{s:?}");
            assert_eq!(System::from_name(&s.name().to_ascii_uppercase()), Some(s), "{s:?}");
            assert_eq!(s.system(), s);
        }
        for (alias, want) in [
            ("hygra", System::Hygra),
            ("gla", System::Gla),
            ("chgraph", System::ChGraph),
            ("hcg", System::HcgOnly),
            ("hats", System::HatsV),
            ("hats-v", System::HatsV),
            ("prefetcher", System::Prefetcher),
        ] {
            assert_eq!(System::from_name(alias), Some(want), "{alias}");
        }
        assert_eq!(System::from_name("ligra"), None);
        assert_eq!(System::from_name(""), None);
    }
}
