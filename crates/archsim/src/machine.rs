//! The simulated machine: private L1/L2 per core, shared banked inclusive
//! L3 with directory-based invalidation, mesh NoC, and DRAM controllers.

use crate::{AddressMap, Cache, DramModel, MemStats, MeshNoc, Region, SystemConfig};

/// Cache level (or main memory) at which an access was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// Private per-core L1 data cache.
    L1 = 0,
    /// Private per-core L2 (inclusive of L1).
    L2 = 1,
    /// Shared banked L3 (inclusive of all L2s).
    L3 = 2,
    /// Main memory.
    Mem = 3,
}

/// Read or write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// A demand load.
    Read,
    /// A store (write-allocate, write-back).
    Write,
}

/// Outcome of one simulated access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessResult {
    /// Where the access was satisfied.
    pub level: Level,
    /// End-to-end latency in cycles, including NoC and DRAM queueing.
    pub latency: u64,
}

/// A [`SystemConfig`] the machine model cannot simulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MachineConfigError {
    /// The configuration fails [`SystemConfig::validate`] (a zero count,
    /// a degenerate cache geometry, a mesh too small for its cores and
    /// banks).
    Invalid {
        /// The first rule the configuration violates.
        reason: &'static str,
    },
    /// The sharer directory tracks private-cache copies in a `u32` bitmask,
    /// one bit per core; configurations beyond that width cannot model
    /// coherence.
    TooManyCores {
        /// The configured core count.
        num_cores: usize,
        /// The maximum the directory supports.
        max_cores: usize,
    },
}

impl std::fmt::Display for MachineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineConfigError::Invalid { reason } => f.write_str(reason),
            MachineConfigError::TooManyCores { num_cores, max_cores } => write!(
                f,
                "directory bitmask supports up to {max_cores} cores (configured: {num_cores})"
            ),
        }
    }
}

impl std::error::Error for MachineConfigError {}

/// The simulated multicore machine.
///
/// Every data access of a runtime goes through [`Machine::access`], naming
/// the core, the data [`Region`], the element index, read/write, the cache
/// level the request enters at ([`Level::L1`] for the general-purpose core,
/// [`Level::L2`] for the ChGraph engine, which sits beside the L1 and
/// "accesses the main memory via the L2 cache", §V-A), and the issuing
/// component's local cycle count (used for DRAM contention).
pub struct Machine {
    cfg: SystemConfig,
    map: AddressMap,
    /// Private L1s, one instance per core.
    l1: Cache,
    /// Private L2s, one instance per core.
    l2: Cache,
    /// Shared L3, one instance per bank.
    l3: Cache,
    /// NoC request + response latency, `num_cores × l3_banks`, indexed
    /// `core * l3_banks + bank` (from [`MeshNoc::round_trip`]).
    noc_round_trip: Box<[u64]>,
    dram: DramModel,
    stats: MemStats,
    /// `log2(line_bytes)`: byte address -> line number.
    line_shift: u32,
    /// Sharer directory, indexed by line number: the bitmask of cores whose
    /// private L2 holds the line (`0` = no sharers). Dense over the address
    /// map's footprint, so every probe is one indexed load.
    directory: Vec<u32>,
}

impl Machine {
    /// Builds the machine from a configuration and an address map.
    ///
    /// # Panics
    ///
    /// Panics if [`Machine::try_new`] rejects the configuration.
    pub fn new(cfg: SystemConfig, map: AddressMap) -> Self {
        Machine::try_new(cfg, map).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the machine, returning a typed [`MachineConfigError`] for
    /// configurations that fail [`SystemConfig::validate`] and for those
    /// the model structurally cannot simulate (more cores than the sharer
    /// directory's `u32` bitmask can track).
    pub fn try_new(cfg: SystemConfig, map: AddressMap) -> Result<Self, MachineConfigError> {
        cfg.validate().map_err(|reason| MachineConfigError::Invalid { reason })?;
        const MAX_DIRECTORY_CORES: usize = u32::BITS as usize;
        if cfg.num_cores > MAX_DIRECTORY_CORES {
            return Err(MachineConfigError::TooManyCores {
                num_cores: cfg.num_cores,
                max_cores: MAX_DIRECTORY_CORES,
            });
        }
        let mut bank_cfg = cfg.l3;
        bank_cfg.size_bytes /= cfg.l3_banks;
        // Every mapped address lies below the footprint, so one slot per
        // footprint line covers every key. `vec!` of zeros is a zeroed
        // allocation: only pages holding slots of lines that some L2 has
        // cached are ever touched.
        let lines = map.footprint().div_ceil(cfg.line_bytes as u64) as usize;
        let noc = MeshNoc::new(cfg.noc);
        let noc_round_trip = (0..cfg.num_cores)
            .flat_map(|core| (0..cfg.l3_banks).map(move |bank| noc.round_trip(core, bank)))
            .collect();
        Ok(Machine {
            l1: Cache::new(&cfg.l1, cfg.line_bytes, cfg.num_cores),
            l2: Cache::new(&cfg.l2, cfg.line_bytes, cfg.num_cores),
            l3: Cache::new(&bank_cfg, cfg.line_bytes, cfg.l3_banks),
            noc_round_trip,
            dram: DramModel::new(cfg.dram),
            stats: MemStats::new(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            directory: vec![0; lines],
            cfg,
            map,
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The address map in use.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// DRAM controller statistics.
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    #[inline]
    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    /// Line number of a byte address: the L3 interleave and directory key.
    #[inline]
    fn line_no(&self, addr: u64) -> usize {
        (addr >> self.line_shift) as usize
    }

    #[inline]
    fn bank_of(&self, line_addr: u64) -> usize {
        self.line_no(line_addr) % self.cfg.l3_banks
    }

    /// Simulates one access. See the type-level docs for parameter meaning.
    ///
    /// `#[inline]` so that callers in other crates, which pass `kind` and
    /// `entry` as constants, can get a copy specialized to them. The body
    /// is the L1 and L2 lookups; eviction handling and the path past an L2
    /// miss are out-of-line calls, which keeps it small enough to inline.
    ///
    /// # Panics
    ///
    /// Panics if `core >= num_cores`, the region is not laid out, or the
    /// index is out of range.
    #[inline]
    pub fn access(
        &mut self,
        core: usize,
        region: Region,
        index: u64,
        kind: AccessKind,
        entry: Level,
        now: u64,
    ) -> AccessResult {
        assert!(core < self.cfg.num_cores, "core {core} out of range");
        let addr = self.map.addr(region, index);
        let line = self.line_addr(addr);
        let write = kind == AccessKind::Write;
        let mut latency = 0u64;

        // ---- L1 (skipped for engine-entry accesses) ----
        if entry == Level::L1 {
            latency += self.cfg.l1.latency;
            let l1_res = self.l1.access(core, addr, write);
            if l1_res.hit {
                if write {
                    latency += self.invalidate_remote_sharers(core, line);
                }
                self.stats.record(region, Level::L1);
                return AccessResult { level: Level::L1, latency };
            }
            // The miss above already allocated the line (single-pass model);
            // fold the dirty victim, if any, into the inclusive L2 copy.
            if let Some(victim) = l1_res.writeback {
                self.handle_l1_writeback(core, victim);
            }
        }

        // ---- L2 ----
        latency += self.cfg.l2.latency;
        let l2_res = self.l2.access(core, addr, write && entry == Level::L2);
        if let Some(victim) = l2_res.evicted {
            self.handle_l2_eviction(core, victim, l2_res.writeback.is_some());
        }
        if l2_res.hit {
            if write {
                latency += self.invalidate_remote_sharers(core, line);
            }
            self.stats.record(region, Level::L2);
            return AccessResult { level: Level::L2, latency };
        }
        self.access_past_l2(core, region, addr, write, latency, now)
    }

    /// The rest of [`access`](Self::access) after an L2 miss, which already
    /// filled the line into `core`'s L2: the sharer directory, the L3 bank
    /// over the NoC, and DRAM. `latency` is what the access has cost so far.
    fn access_past_l2(
        &mut self,
        core: usize,
        region: Region,
        addr: u64,
        write: bool,
        mut latency: u64,
        now: u64,
    ) -> AccessResult {
        let line = self.line_addr(addr);
        // Newly filled into this core's L2: record it as a sharer.
        let slot = self.line_no(line);
        self.directory[slot] |= 1 << core;

        // ---- L3 (over the NoC) ----
        let bank = self.bank_of(line);
        latency += self.noc_round_trip[core * self.cfg.l3_banks + bank];
        latency += self.cfg.l3.latency;
        let l3_res = self.l3.access(bank, addr, false);
        if let Some(evicted) = l3_res.evicted {
            self.handle_l3_eviction(evicted, l3_res.writeback.is_some());
        }
        if write {
            latency += self.invalidate_remote_sharers(core, line);
        }
        if l3_res.hit {
            self.stats.record(region, Level::L3);
            return AccessResult { level: Level::L3, latency };
        }

        // ---- DRAM ----
        latency += self.dram.access(addr, self.cfg.line_bytes as u64, now + latency);
        self.stats.record(region, Level::Mem);
        AccessResult { level: Level::Mem, latency }
    }

    /// Folds a dirty line evicted from `core`'s L1 into its inclusive L2
    /// copy, or writes it back to DRAM if the L2 (and hence the L3) already
    /// lost the line.
    fn handle_l1_writeback(&mut self, core: usize, victim_line: u64) {
        if !self.l2.mark_dirty(core, victim_line) {
            self.stats.record_writeback(self.map.classify(victim_line));
        }
    }

    /// Handles the eviction side effects of a fill into a private L2:
    /// back-invalidate the core's L1 copy (inclusion) and push dirty data
    /// toward the L3 (or memory if the L3 no longer holds the line).
    fn handle_l2_eviction(&mut self, core: usize, victim_line: u64, l2_dirty: bool) {
        // Inclusion: L1 cannot keep a line its L2 lost.
        let l1_dirty = self.l1.invalidate(core, victim_line).unwrap_or(false);
        let slot = self.line_no(victim_line);
        self.directory[slot] &= !(1 << core);
        if l2_dirty || l1_dirty {
            let region = self.map.classify(victim_line);
            // The read-only OAG arrays are never dirty (paper §V-A notes
            // their lines are dropped, not written back); assert the model
            // agrees rather than special-casing.
            debug_assert!(!region.is_oag(), "OAG lines must never be dirty");
            let bank = self.bank_of(victim_line);
            if !self.l3.mark_dirty(bank, victim_line) {
                // L3 already lost the line: the writeback goes to DRAM.
                self.stats.record_writeback(region);
            }
        }
    }

    /// Handles an L3 eviction. Inclusive hierarchy: back-invalidate every
    /// private copy, folding dirtiness into the memory writeback.
    /// Non-inclusive hierarchy: private copies (and the directory) survive;
    /// only the L3's own dirty data is written back.
    fn handle_l3_eviction(&mut self, victim_line: u64, l3_dirty: bool) {
        let mut dirty = l3_dirty;
        if self.cfg.l3_inclusive {
            let slot = self.line_no(victim_line);
            let shares = std::mem::take(&mut self.directory[slot]);
            for core in 0..self.cfg.num_cores {
                if shares & (1 << core) != 0 {
                    dirty |= self.l1.invalidate(core, victim_line).unwrap_or(false);
                    dirty |= self.l2.invalidate(core, victim_line).unwrap_or(false);
                }
            }
        }
        if dirty {
            self.stats.record_writeback(self.map.classify(victim_line));
        }
    }

    /// MESI-lite: a write invalidates every other core's copy. Returns the
    /// coherence latency charged (zero when the line is private).
    fn invalidate_remote_sharers(&mut self, core: usize, line: u64) -> u64 {
        let slot = self.line_no(line);
        let others = self.directory[slot] & !(1 << core);
        if others == 0 {
            return 0;
        }
        self.directory[slot] &= 1 << core;
        let mut dirty = false;
        for other in 0..self.cfg.num_cores {
            if others & (1 << other) != 0 {
                dirty |= self.l1.invalidate(other, line).unwrap_or(false);
                dirty |= self.l2.invalidate(other, line).unwrap_or(false);
            }
        }
        if dirty {
            // The dirty remote copy is folded into the L3 before our write.
            let bank = self.bank_of(line);
            if !self.l3.mark_dirty(bank, line) {
                self.stats.record_writeback(self.map.classify(line));
            }
        }
        self.stats.invalidations += 1;
        self.cfg.coherence_latency
    }

    /// Drops every cached line silently (no writebacks, no stats). Use only
    /// between independent simulations sharing a `Machine`.
    pub fn flush_all_silently(&mut self) {
        self.l1.flush_silently();
        self.l2.flush_silently();
        self.l3.flush_silently();
        self.directory.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn machine(cores: usize) -> Machine {
        let cfg = SystemConfig::scaled(cores);
        let mut map = AddressMap::new(cfg.line_bytes);
        map.add(Region::VertexValue, 8, 1 << 16);
        map.add(Region::HyperedgeValue, 8, 1 << 16);
        Machine::new(cfg, map)
    }

    #[test]
    fn cold_miss_then_hits_up_the_hierarchy() {
        let mut m = machine(2);
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        assert_eq!(r.level, Level::Mem);
        assert!(r.latency >= 200, "DRAM latency must dominate: {}", r.latency);
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 10);
        assert_eq!(r.level, Level::L1);
        assert_eq!(r.latency, m.config().l1.latency);
    }

    #[test]
    fn spatial_locality_within_a_line() {
        let mut m = machine(1);
        m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        // Elements 1..8 share the 64-B line (8-byte elements).
        for i in 1..8 {
            let r = m.access(0, Region::VertexValue, i, AccessKind::Read, Level::L1, 0);
            assert_eq!(r.level, Level::L1, "element {i}");
        }
        let r = m.access(0, Region::VertexValue, 8, AccessKind::Read, Level::L1, 0);
        assert_eq!(r.level, Level::Mem, "next line is cold");
    }

    #[test]
    fn engine_entry_fills_l2_not_l1() {
        let mut m = machine(1);
        m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L2, 0);
        // Engine prefetch warmed L2: the core's subsequent load misses L1
        // but hits L2.
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        assert_eq!(r.level, Level::L2);
    }

    #[test]
    fn other_core_read_hits_shared_l3() {
        let mut m = machine(2);
        m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        let r = m.access(1, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        assert_eq!(r.level, Level::L3, "second core finds the line in shared L3");
    }

    #[test]
    fn write_invalidates_remote_sharers() {
        let mut m = machine(2);
        m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        m.access(1, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        let w = m.access(1, Region::VertexValue, 0, AccessKind::Write, Level::L1, 0);
        assert!(w.latency >= m.config().coherence_latency);
        assert_eq!(m.stats().invalidations, 1);
        // Core 0 lost its copy: next read must go past L2.
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        assert!(r.level >= Level::L3, "invalidated copy cannot hit privately: {:?}", r.level);
    }

    #[test]
    fn dirty_data_survives_remote_invalidation() {
        let mut m = machine(2);
        m.access(0, Region::VertexValue, 0, AccessKind::Write, Level::L1, 0);
        // Core 1 writes the same line: core 0's dirty copy is folded into L3.
        m.access(1, Region::VertexValue, 0, AccessKind::Write, Level::L1, 0);
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        assert_eq!(r.level, Level::L3, "data must still be on-chip");
    }

    #[test]
    fn main_memory_access_counting() {
        let mut m = machine(1);
        let n_lines = 64u64;
        for i in 0..n_lines {
            m.access(0, Region::VertexValue, i * 8, AccessKind::Read, Level::L1, 0);
        }
        assert_eq!(m.stats().main_memory_accesses(), n_lines);
        assert_eq!(m.stats().dram_fetches(Region::VertexValue), n_lines);
    }

    #[test]
    fn capacity_eviction_causes_re_miss() {
        let mut m = machine(1);
        // Touch far more lines than the whole hierarchy holds.
        let lines = (m.config().l3.size_bytes / 64 * 4) as u64;
        for i in 0..lines {
            m.access(0, Region::VertexValue, (i * 8) % (1 << 16), AccessKind::Read, Level::L1, 0);
        }
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        // Line 0 was evicted long ago.
        assert_eq!(r.level, Level::Mem);
    }

    #[test]
    fn dirty_eviction_reaches_dram_as_writeback() {
        let mut m = machine(1);
        let span = (m.config().l3.size_bytes / 64 * 4) as u64;
        for i in 0..span.min(1 << 13) {
            m.access(0, Region::VertexValue, i * 8, AccessKind::Write, Level::L1, 0);
        }
        assert!(
            m.stats().dram_writebacks(Region::VertexValue) > 0,
            "capacity-evicted dirty lines must be written back"
        );
    }

    #[test]
    fn flush_clears_state() {
        let mut m = machine(1);
        m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        m.flush_all_silently();
        let r = m.access(0, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
        assert_eq!(r.level, Level::Mem);
    }

    #[test]
    #[should_panic(expected = "core 5 out of range")]
    fn bad_core_panics() {
        let mut m = machine(2);
        m.access(5, Region::VertexValue, 0, AccessKind::Read, Level::L1, 0);
    }

    #[test]
    fn too_many_cores_is_a_typed_error() {
        let mut cfg = SystemConfig::scaled(32);
        cfg.num_cores = 33;
        cfg.noc.width = 6;
        cfg.noc.height = 6;
        let map = AddressMap::new(cfg.line_bytes);
        match Machine::try_new(cfg, map) {
            Err(MachineConfigError::TooManyCores { num_cores: 33, max_cores: 32 }) => {}
            other => panic!("expected TooManyCores, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    #[should_panic(expected = "directory bitmask supports up to 32 cores")]
    fn too_many_cores_panics_on_infallible_construction() {
        let mut cfg = SystemConfig::scaled(32);
        cfg.num_cores = 33;
        cfg.noc.width = 6;
        cfg.noc.height = 6;
        let _ = Machine::new(cfg, AddressMap::new(cfg.line_bytes));
    }

    /// A hierarchy small enough that a full directory census after every
    /// access is cheap, with an L3 of half the footprint so inclusive
    /// back-invalidation fires constantly.
    fn tiny_machine(inclusive: bool) -> Machine {
        let mut cfg = SystemConfig::scaled(4);
        cfg.l1.size_bytes = 512;
        cfg.l2.size_bytes = 2 * 1024;
        cfg.l3.size_bytes = 8 * 1024;
        cfg.l3_banks = 4;
        cfg.l3_inclusive = inclusive;
        let mut map = AddressMap::new(cfg.line_bytes);
        map.add(Region::VertexValue, 8, 1024);
        map.add(Region::HyperedgeValue, 8, 1024);
        Machine::new(cfg, map)
    }

    /// Every line's sharer mask is exactly the set of cores whose L2 holds
    /// it, and no slot outside the mapped lines carries a bit.
    fn assert_directory_exact(m: &Machine) {
        for (slot, &shares) in m.directory.iter().enumerate() {
            let line = (slot as u64) << m.line_shift;
            let holders = (0..m.cfg.num_cores)
                .filter(|&c| m.l2.contains(c, line))
                .fold(0u32, |mask, c| mask | 1 << c);
            assert_eq!(shares, holders, "line {line:#x}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The dense directory is exact: it never misses a sharer and never
        /// keeps a stale one, for inclusive and non-inclusive L3s, core and
        /// engine entry, reads and writes; a flush leaves it all-zero.
        fn directory_tracks_exactly_the_l2_holders(
            inclusive in any::<bool>(),
            trace in prop::collection::vec(
                (0usize..4, any::<bool>(), 0u64..1024, any::<bool>(), any::<bool>()),
                1..1500,
            ),
        ) {
            let mut m = tiny_machine(inclusive);
            prop_assert_eq!(
                m.directory.len() as u64,
                m.map.footprint() / m.cfg.line_bytes as u64
            );
            for (now, &(core, vertex, index, write, engine)) in trace.iter().enumerate() {
                let region = if vertex { Region::VertexValue } else { Region::HyperedgeValue };
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let entry = if engine { Level::L2 } else { Level::L1 };
                m.access(core, region, index, kind, entry, now as u64);
                assert_directory_exact(&m);
            }
            m.flush_all_silently();
            prop_assert!(m.directory.iter().all(|&s| s == 0));
        }
    }

    #[test]
    fn thirty_two_cores_is_accepted() {
        let mut cfg = SystemConfig::scaled(32);
        cfg.noc.width = 6;
        cfg.noc.height = 6;
        let map = AddressMap::new(cfg.line_bytes);
        assert!(Machine::try_new(cfg, map).is_ok());
    }
}
