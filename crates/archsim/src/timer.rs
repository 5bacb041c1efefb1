//! The decoupled core cost model.

use crate::{AccessResult, Level};

/// Tracks one component's (core or engine) local clock.
///
/// The out-of-order core of Table I is not simulated instruction by
/// instruction. Instead, runtimes charge:
///
/// - [`CoreTimer::compute`] cycles for ALU/branch work, and
/// - [`CoreTimer::charge`] for each memory access: L1 hits are pipelined
///   (their latency is hidden, costing one issue cycle), while miss latency
///   is divided by the machine's effective memory-level parallelism `mlp`,
///   modelling the line-fill buffers of an OOO core overlapping independent
///   misses. [`CoreTimer::charge_dependent`] charges the full latency for
///   serially-dependent accesses (pointer chasing), which MLP cannot hide.
///
/// The timer separately accumulates cycles attributable to main-memory
/// stalls, producing the stall fractions of Fig. 5.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoreTimer {
    cycles: u64,
    mem_stall: u64,
    mlp: u64,
}

impl CoreTimer {
    /// Creates a timer at cycle zero with the given MLP divisor (min 1).
    pub fn new(mlp: u64) -> Self {
        CoreTimer { cycles: 0, mem_stall: 0, mlp: mlp.max(1) }
    }

    /// Current local cycle count.
    #[inline]
    pub fn now(&self) -> u64 {
        self.cycles
    }

    /// Cycles attributed to main-memory (DRAM-level) stalls.
    #[inline]
    pub fn mem_stall_cycles(&self) -> u64 {
        self.mem_stall
    }

    /// Fraction of elapsed cycles stalled on main memory (Fig. 5's metric).
    pub fn mem_stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mem_stall as f64 / self.cycles as f64
        }
    }

    /// Charges `n` compute cycles.
    #[inline]
    pub fn compute(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Charges an access issued among independent neighbours (MLP applies).
    #[inline]
    pub fn charge(&mut self, access: AccessResult) {
        let effective = match access.level {
            Level::L1 => 1, // pipelined hit: one issue slot
            _ => (access.latency / self.mlp).max(1),
        };
        self.cycles += effective;
        if access.level == Level::Mem {
            self.mem_stall += effective;
        }
    }

    /// Charges a serially-dependent access (full latency, no MLP).
    #[inline]
    pub fn charge_dependent(&mut self, access: AccessResult) {
        let effective = match access.level {
            Level::L1 => access.latency.max(1),
            _ => access.latency,
        };
        self.cycles += effective;
        if access.level == Level::Mem {
            self.mem_stall += effective;
        }
    }

    /// Advances this timer to `other` if `other` is ahead (barrier).
    #[inline]
    pub fn sync_to(&mut self, other: u64) {
        self.cycles = self.cycles.max(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(level: Level, latency: u64) -> AccessResult {
        AccessResult { level, latency }
    }

    #[test]
    fn compute_advances() {
        let mut t = CoreTimer::new(4);
        t.compute(10);
        assert_eq!(t.now(), 10);
        assert_eq!(t.mem_stall_cycles(), 0);
    }

    #[test]
    fn l1_hit_costs_one_issue_cycle() {
        let mut t = CoreTimer::new(4);
        t.charge(hit(Level::L1, 3));
        assert_eq!(t.now(), 1);
    }

    #[test]
    fn miss_latency_divided_by_mlp() {
        let mut t = CoreTimer::new(4);
        t.charge(hit(Level::Mem, 200));
        assert_eq!(t.now(), 50);
        assert_eq!(t.mem_stall_cycles(), 50);
    }

    #[test]
    fn dependent_miss_pays_full_latency() {
        let mut t = CoreTimer::new(4);
        t.charge_dependent(hit(Level::Mem, 200));
        assert_eq!(t.now(), 200);
        assert_eq!(t.mem_stall_cycles(), 200);
    }

    #[test]
    fn l3_hit_is_not_a_mem_stall() {
        let mut t = CoreTimer::new(2);
        t.charge(hit(Level::L3, 30));
        assert_eq!(t.now(), 15);
        assert_eq!(t.mem_stall_cycles(), 0);
    }

    #[test]
    fn stall_fraction() {
        let mut t = CoreTimer::new(1);
        assert_eq!(t.mem_stall_fraction(), 0.0);
        t.compute(100);
        t.charge(hit(Level::Mem, 100));
        assert!((t.mem_stall_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sync_to_only_moves_forward() {
        let mut t = CoreTimer::new(1);
        t.compute(10);
        t.sync_to(5);
        assert_eq!(t.now(), 10);
        t.sync_to(25);
        assert_eq!(t.now(), 25);
    }

    #[test]
    fn mlp_zero_is_clamped() {
        let mut t = CoreTimer::new(0);
        t.charge(hit(Level::Mem, 10));
        assert_eq!(t.now(), 10);
    }
}
