//! Execution reports and cross-runtime comparison helpers.

use crate::State;
use archsim::{MemStats, RegionGroup};
use oag::OagBuildStats;
use std::fmt;

/// Statistics of the ChGraph engine (HCG + CP) for one execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineReport {
    /// Engine cycles spent in the hardware chain generator.
    pub hcg_cycles: u64,
    /// Engine cycles spent in the chain-driven prefetcher.
    pub cp_cycles: u64,
    /// Tuples delivered through the bipartite-edge FIFO.
    pub tuples_delivered: u64,
    /// Chains generated across all iterations and chunks.
    pub chains_generated: u64,
    /// Cycles the engine stalled on a full bipartite-edge FIFO.
    pub fifo_full_stalls: u64,
    /// Cycles the CP waited for the chain generator (the HCG, or HATS-V's
    /// traversal scheduler) to emit its next element into the chain FIFO.
    pub fifo_empty_stalls: u64,
}

/// Preprocessing accounting (Fig. 21): what it cost to prepare the input
/// before the iterative computation started.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct PreprocessReport {
    /// Work units (element + edge visits) to build the bipartite CSR —
    /// preprocessing both Hygra and ChGraph pay.
    pub bipartite_build_ops: u64,
    /// OAG construction statistics (ChGraph only), both sides merged.
    pub oag_build: Option<OagBuildStats>,
    /// Extra bytes the OAGs occupy beyond the bipartite structure.
    pub oag_extra_bytes: usize,
    /// Estimated preprocessing cycles (proportional to the op counts; used
    /// for the Fig. 22 end-to-end comparison).
    pub cycles_estimate: u64,
}

/// Result of executing one algorithm under one runtime on the simulated
/// machine.
#[derive(Clone, PartialEq, Debug)]
pub struct ExecutionReport {
    /// Runtime name (e.g. `"hygra"`, `"gla"`, `"chgraph"`).
    pub runtime: &'static str,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Iterations executed.
    pub iterations: usize,
    /// End-to-end simulated cycles of the iterative computation (barriers
    /// at phase ends; excludes preprocessing).
    pub cycles: u64,
    /// Sum over cores of their busy cycles (for utilization metrics).
    pub core_busy_cycles: u64,
    /// Sum over cores of effective cycles stalled on main-memory accesses.
    pub mem_stall_cycles: u64,
    /// Memory-system statistics (all cores + engines).
    pub mem: MemStats,
    /// Final algorithm state.
    pub state: State,
    /// Engine statistics (ChGraph-family runtimes only).
    pub engine: Option<EngineReport>,
    /// Preprocessing accounting.
    pub preprocess: PreprocessReport,
}

impl ExecutionReport {
    /// This runtime's speedup over `baseline` (>1 means faster), comparing
    /// iterative-computation cycles only (Figs. 3, 14).
    pub fn speedup_over(&self, baseline: &ExecutionReport) -> f64 {
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }

    /// Speedup including preprocessing (Fig. 22's total running time).
    pub fn total_speedup_over(&self, baseline: &ExecutionReport) -> f64 {
        let own = self.cycles + self.preprocess.cycles_estimate;
        let other = baseline.cycles + baseline.preprocess.cycles_estimate;
        other as f64 / own.max(1) as f64
    }

    /// Factor by which this run reduced off-chip main-memory accesses
    /// relative to `baseline` (>1 means fewer; Figs. 2, 15).
    pub fn mem_reduction_over(&self, baseline: &ExecutionReport) -> f64 {
        baseline.mem.main_memory_accesses() as f64 / self.mem.main_memory_accesses().max(1) as f64
    }

    /// Fraction of core-busy cycles stalled on main memory (Fig. 5).
    pub fn mem_stall_fraction(&self) -> f64 {
        if self.core_busy_cycles == 0 {
            0.0
        } else {
            self.mem_stall_cycles as f64 / self.core_busy_cycles as f64
        }
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "runtime:          {}", self.runtime)?;
        writeln!(f, "algorithm:        {}", self.algorithm)?;
        writeln!(f, "iterations:       {}", self.iterations)?;
        writeln!(f, "cycles:           {}", self.cycles)?;
        writeln!(f, "mem-stall share:  {:.1}%", self.mem_stall_fraction() * 100.0)?;
        writeln!(f, "dram accesses:    {}", self.mem.main_memory_accesses())?;
        for grp in RegionGroup::ALL {
            writeln!(f, "  {:16} {}", grp.label(), self.mem.main_memory_accesses_of_group(grp))?;
        }
        writeln!(f, "preprocess cyc:   {}", self.preprocess.cycles_estimate)?;
        if let Some(e) = &self.engine {
            writeln!(
                f,
                "engine:           {} chains, {} tuples, hcg {} cyc, cp {} cyc",
                e.chains_generated, e.tuples_delivered, e.hcg_cycles, e.cp_cycles
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, pre: u64) -> ExecutionReport {
        ExecutionReport {
            runtime: "test",
            algorithm: "test",
            iterations: 1,
            cycles,
            core_busy_cycles: cycles,
            mem_stall_cycles: cycles / 2,
            mem: MemStats::new(),
            state: State {
                vertex_value: vec![],
                hyperedge_value: vec![],
                vertex_aux: vec![],
                hyperedge_aux: vec![],
            },
            engine: None,
            preprocess: PreprocessReport { cycles_estimate: pre, ..Default::default() },
        }
    }

    #[test]
    fn speedup_math() {
        let fast = report(100, 0);
        let slow = report(400, 0);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn total_speedup_includes_preprocessing() {
        let fast = report(100, 300); // 400 total
        let slow = report(400, 0); // 400 total
        assert!((fast.total_speedup_over(&slow) - 1.0).abs() < 1e-12);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn stall_fraction() {
        let r = report(100, 0);
        assert!((r.mem_stall_fraction() - 0.5).abs() < 1e-12);
        let mut z = report(0, 0);
        z.core_busy_cycles = 0;
        assert_eq!(z.mem_stall_fraction(), 0.0);
    }

    #[test]
    fn display_renders_all_sections() {
        let mut r = report(100, 5);
        r.engine = Some(crate::EngineReport { chains_generated: 3, ..Default::default() });
        let text = r.to_string();
        assert!(text.contains("runtime:"));
        assert!(text.contains("value arrays"));
        assert!(text.contains("3 chains"));
    }

    #[test]
    fn mem_reduction_with_zero_accesses_is_finite() {
        let a = report(1, 0);
        let b = report(1, 0);
        assert_eq!(a.mem_reduction_over(&b), 0.0);
    }
}
