//! Machine configuration (the paper's Table I).

use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency in core cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets for the given line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets).
    pub fn num_sets(&self, line_bytes: usize) -> usize {
        let sets = self.size_bytes / (self.ways * line_bytes);
        assert!(sets > 0, "cache too small for its associativity/line size");
        sets
    }
}

/// Mesh network-on-chip parameters (Table I: 4×4 mesh, 1-cycle pipelined
/// routers, 1-cycle links, X-Y routing).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct NocConfig {
    /// Mesh width (nodes per row).
    pub width: usize,
    /// Mesh height (nodes per column).
    pub height: usize,
    /// Per-hop router latency in cycles.
    pub router_latency: u64,
    /// Per-hop link latency in cycles.
    pub link_latency: u64,
}

/// Main-memory parameters (Table I: 4 DDR4-1600 controllers, 12.8 GB/s
/// each).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of memory controllers; lines interleave across them.
    pub controllers: usize,
    /// Idle access latency in core cycles (row activation + transfer).
    pub base_latency: u64,
    /// Minimum cycles between line transfers on one controller — the
    /// bandwidth bound. At 2.2 GHz and 12.8 GB/s per controller, one 64-B
    /// line every ~11 cycles.
    pub cycles_per_line: u64,
}

/// Full description of the simulated machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of general-purpose cores.
    pub num_cores: usize,
    /// Cache line size in bytes (Table I: 64 B).
    pub line_bytes: usize,
    /// Per-core L1 data cache.
    pub l1: CacheConfig,
    /// Per-core L2 cache (inclusive of L1).
    pub l2: CacheConfig,
    /// Shared banked L3 (inclusive of all L2s).
    pub l3: CacheConfig,
    /// Number of L3 banks, interleaved by line address.
    pub l3_banks: usize,
    /// Whether the L3 is inclusive of the private caches (Table I's
    /// machine is inclusive). Inclusion requires the L3 to dwarf the sum
    /// of private caches — true at the paper's 32 MB vs 2 MB, impossible
    /// at the scaled geometry, where the LLC is modelled non-inclusive
    /// (as in NINE hierarchies) instead.
    pub l3_inclusive: bool,
    /// NoC between cores and L3 banks.
    pub noc: NocConfig,
    /// Main memory.
    pub dram: DramConfig,
    /// Effective memory-level parallelism of the out-of-order core: the
    /// divisor applied to miss latency when a runtime issues independent
    /// accesses (Haswell-like OOO of Table I; 10 line-fill buffers give an
    /// effective overlap of ~4 on irregular streams).
    pub mlp: u64,
    /// Latency charged to a write that must invalidate remote sharers.
    pub coherence_latency: u64,
}

impl SystemConfig {
    /// The paper's Table I configuration: 16 Haswell-like cores at 2.2 GHz,
    /// 32 KB L1, 128 KB L2, 32 MB shared L3 in 16 banks, 4×4 mesh,
    /// 4 DDR4-1600 controllers.
    pub fn paper() -> Self {
        SystemConfig {
            num_cores: 16,
            line_bytes: 64,
            l1: CacheConfig { size_bytes: 32 * 1024, ways: 8, latency: 3 },
            l2: CacheConfig { size_bytes: 128 * 1024, ways: 8, latency: 6 },
            l3: CacheConfig { size_bytes: 32 * 1024 * 1024, ways: 16, latency: 24 },
            l3_banks: 16,
            l3_inclusive: true,
            noc: NocConfig { width: 4, height: 4, router_latency: 1, link_latency: 1 },
            dram: DramConfig { controllers: 4, base_latency: 200, cycles_per_line: 11 },
            mlp: 4,
            coherence_latency: 30,
        }
    }

    /// The capacity-scaled configuration used with the ~400×-downscaled
    /// stand-in datasets: identical latencies, associativities and topology,
    /// with L1/L2/L3 capacities scaled so the working-set:cache ratio stays
    /// in the paper's regime (see `DESIGN.md` §3).
    pub fn scaled(num_cores: usize) -> Self {
        let mut cfg = SystemConfig::paper();
        cfg.num_cores = num_cores;
        cfg.l1.size_bytes = 2 * 1024;
        cfg.l2.size_bytes = 8 * 1024;
        cfg.l3.size_bytes = 64 * 1024;
        cfg.l3_inclusive = false;
        cfg
    }

    /// The default 16-core scaled machine used across the benchmark harness.
    pub fn scaled16() -> Self {
        SystemConfig::scaled(16)
    }

    /// Replaces the shared-L3 capacity (Fig. 19's sweep axis).
    pub fn with_llc_bytes(mut self, bytes: usize) -> Self {
        self.l3.size_bytes = bytes;
        self
    }

    /// Replaces the core count (Fig. 20's sweep axis).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.num_cores = cores;
        self
    }

    /// Validates internal consistency: every count is non-zero, every
    /// cache level (one L3 bank for the L3) has a power-of-two number of
    /// sets, and the mesh has a node for every core and bank. `Err` names
    /// the first violated rule. The core count is a runtime input (the
    /// CLI's `--cores`, a daemon request's `cores`), so this never panics.
    pub fn validate(&self) -> Result<(), &'static str> {
        let check = |ok: bool, reason| if ok { Ok(()) } else { Err(reason) };
        check(self.num_cores > 0, "need at least one core")?;
        check(self.line_bytes.is_power_of_two(), "line size must be a power of two")?;
        check(self.l3_banks > 0, "need at least one L3 bank")?;
        let mut bank = self.l3;
        bank.size_bytes /= self.l3_banks;
        for level in [self.l1, self.l2, bank] {
            let sets = level.size_bytes / (level.ways.max(1) * self.line_bytes);
            check(
                level.ways > 0 && sets.is_power_of_two(),
                "every cache level needs a non-zero, power-of-two set count",
            )?;
        }
        check(self.dram.controllers > 0, "need at least one memory controller")?;
        check(
            self.noc.width * self.noc.height >= self.num_cores.max(self.l3_banks),
            "mesh must be large enough for cores and banks",
        )?;
        check(self.mlp >= 1, "MLP divisor must be at least 1")
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::scaled16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = SystemConfig::paper();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.num_cores, 16);
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l1.latency, 3);
        assert_eq!(c.l2.latency, 6);
        assert_eq!(c.l3.size_bytes, 32 << 20);
        assert_eq!(c.l3.ways, 16);
        assert_eq!(c.l3_banks, 16);
        assert_eq!(c.noc.width * c.noc.height, 16);
        assert_eq!(c.dram.controllers, 4);
        assert_eq!(c.line_bytes, 64);
    }

    #[test]
    fn scaled_keeps_latencies() {
        let p = SystemConfig::paper();
        let s = SystemConfig::scaled(16);
        assert_eq!(s.validate(), Ok(()));
        assert_eq!(s.l1.latency, p.l1.latency);
        assert_eq!(s.l2.latency, p.l2.latency);
        assert_eq!(s.l3.latency, p.l3.latency);
        assert!(s.l3.size_bytes < p.l3.size_bytes);
    }

    #[test]
    fn num_sets() {
        let c = CacheConfig { size_bytes: 32 * 1024, ways: 8, latency: 3 };
        assert_eq!(c.num_sets(64), 64);
    }

    #[test]
    fn builders() {
        let c = SystemConfig::scaled16().with_llc_bytes(1 << 20).with_cores(4);
        assert_eq!(c.l3.size_bytes, 1 << 20);
        assert_eq!(c.num_cores, 4);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_small_mesh() {
        let mut c = SystemConfig::paper();
        c.noc.width = 2;
        c.noc.height = 2;
        assert_eq!(c.validate(), Err("mesh must be large enough for cores and banks"));
    }
}
