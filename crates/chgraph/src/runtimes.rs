//! Running a simulated [`System`], with OAG artifacts shared across runs.

use crate::exec::Driver;
use crate::guard::ExecError;
use crate::{preprocess, Algorithm, ExecutionReport, RunConfig, System};
use hypergraph::{Hypergraph, Side};
use oag::{Oag, OagBuildStats, OagConfig};

/// Both OAGs of a hypergraph plus the preprocessing report they imply,
/// built once and shared across the executions of an evaluation grid
/// (every `(workload, system)` cell of one dataset column reuses them).
///
/// A `PreparedOags` is only valid for the [`OagConfig`] it was built with;
/// [`System::run`] checks `cfg` equality and falls back to a fresh build on
/// mismatch, so reuse can never change a report.
#[derive(Clone, Debug)]
pub struct PreparedOags {
    /// The configuration the OAGs were built with.
    pub cfg: OagConfig,
    /// Hyperedge-side OAG.
    pub hyperedge: Oag,
    /// Vertex-side OAG.
    pub vertex: Oag,
    /// The preprocessing report a chain-driven runtime would produce from
    /// building these OAGs itself.
    pub report: crate::PreprocessReport,
}

impl PreparedOags {
    /// Builds both OAGs with `cfg.oag` across `cfg.oag_build_threads`
    /// host threads. Bit-identical for any thread count.
    pub fn build(g: &Hypergraph, cfg: &RunConfig) -> Self {
        let (h_oag, h_stats) =
            cfg.oag.build_with_stats_threads(g, Side::Hyperedge, cfg.oag_build_threads);
        let (v_oag, v_stats) =
            cfg.oag.build_with_stats_threads(g, Side::Vertex, cfg.oag_build_threads);
        Self::from_parts(g, cfg.oag, (h_oag, h_stats), (v_oag, v_stats))
    }

    /// Assembles a `PreparedOags` from already-built per-side artifacts
    /// (the disk-cache restore path). The parts must be exactly what
    /// `cfg.build_with_stats` would produce for `g`.
    pub fn from_parts(
        g: &Hypergraph,
        cfg: OagConfig,
        hyperedge: (Oag, OagBuildStats),
        vertex: (Oag, OagBuildStats),
    ) -> Self {
        let merged = preprocess::merge_stats(hyperedge.1, vertex.1);
        let extra = hyperedge.0.size_bytes() + vertex.0.size_bytes();
        let report = preprocess::report_with_oag(g, merged, extra);
        PreparedOags { cfg, hyperedge: hyperedge.0, vertex: vertex.0, report }
    }

    /// Whether these artifacts can stand in for a fresh `cfg` build.
    pub fn matches(&self, cfg: &RunConfig) -> bool {
        self.cfg == cfg.oag
    }
}

impl System {
    /// Executes `algo` on `g` under this system, returning the full report
    /// (final state, cycles, memory statistics, preprocessing accounting),
    /// or a typed [`ExecError`] when a watchdog budget is exhausted, a
    /// structural validation fails, or the configuration cannot be
    /// simulated.
    ///
    /// A system that [needs OAGs](System::needs_oags) reuses `prepared`
    /// when it [matches](PreparedOags::matches) `cfg` and builds both OAGs
    /// otherwise; the other systems ignore it. The report is bit-identical
    /// either way.
    pub fn run(
        self,
        g: &Hypergraph,
        algo: &dyn Algorithm,
        cfg: &RunConfig,
        prepared: Option<&PreparedOags>,
    ) -> Result<ExecutionReport, ExecError> {
        let fresh;
        let (oags, preprocess) = if self.needs_oags() {
            let p = match prepared {
                Some(p) if p.matches(cfg) => p,
                _ => {
                    fresh = PreparedOags::build(g, cfg);
                    &fresh
                }
            };
            (Some((&p.hyperedge, &p.vertex)), p.report)
        } else {
            (None, preprocess::report_plain(g))
        };
        let (h_oag, v_oag) = oags.unzip();
        let out = Driver::try_new(g, algo, cfg, self, h_oag, v_oag)?.try_run()?;
        Ok(ExecutionReport {
            runtime: self.name(),
            algorithm: algo.name(),
            iterations: out.iterations,
            cycles: out.cycles,
            core_busy_cycles: out.core_busy_cycles,
            mem_stall_cycles: out.mem_stall_cycles,
            mem: out.mem,
            state: out.state,
            engine: (!matches!(self, System::Hygra | System::Gla)).then_some(out.engine),
            preprocess,
        })
    }

    /// Test and example helper: [`run`](System::run) without prepared
    /// OAGs.
    ///
    /// # Panics
    ///
    /// Panics with the [`ExecError`] message if the execution fails; with a
    /// default [`RunConfig`] (no budgets, no deep validation) failures only
    /// arise from untrusted inputs or unsimulatable configurations.
    pub fn execute(self, g: &Hypergraph, algo: &dyn Algorithm, cfg: &RunConfig) -> ExecutionReport {
        self.run(g, algo, cfg, None).unwrap_or_else(|e| panic!("{}: {e}", self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MinLabel, RunConfig};
    use archsim::SystemConfig;

    fn graph() -> Hypergraph {
        // Quarter-scale Web-trackers stand-in with proportionally scaled
        // caches below: the paper's capacity-miss regime at test size.
        let mut c = hypergraph::datasets::Dataset::WebTrackers.config();
        c.num_vertices /= 4;
        c.num_hyperedges /= 4;
        c.generate()
    }

    fn cfg() -> RunConfig {
        let mut s = SystemConfig::scaled(4);
        s.l1.size_bytes = 1024;
        s.l2.size_bytes = 4 * 1024;
        s.l3.size_bytes = 16 * 1024;
        RunConfig::new().with_system(s)
    }

    #[test]
    fn three_runtimes_agree_on_results() {
        let g = graph();
        let cfg = cfg();
        let h = System::Hygra.execute(&g, &MinLabel, &cfg);
        let s = System::Gla.execute(&g, &MinLabel, &cfg);
        let c = System::ChGraph.execute(&g, &MinLabel, &cfg);
        assert_eq!(h.state.vertex_value, s.state.vertex_value);
        assert_eq!(h.state.vertex_value, c.state.vertex_value);
        assert_eq!(h.iterations, c.iterations);
    }

    #[test]
    fn chain_runtimes_reduce_value_array_accesses() {
        // Chain scheduling targets the value arrays (>90% of Hygra's misses
        // in the paper, Fig. 6/15); the schedule's own OAG traffic lands in
        // other regions and is bounded below. Totals are asserted at larger
        // scale by the integration tests.
        let g = graph();
        let cfg = cfg();
        let pr = crate::testutil::PrLike { iterations: 3 };
        let h = System::Hygra.execute(&g, &pr, &cfg);
        let values = |r: &crate::ExecutionReport| {
            r.mem.main_memory_accesses_of_group(archsim::RegionGroup::Values) as f64
        };
        for r in [System::Gla.execute(&g, &pr, &cfg), System::ChGraph.execute(&g, &pr, &cfg)] {
            let red = values(&h) / values(&r).max(1.0);
            assert!(red > 1.1, "{}: value-array reduction only {red:.2}x", r.runtime);
            assert!(
                r.mem.main_memory_accesses() as f64 <= 1.35 * h.mem.main_memory_accesses() as f64,
                "{}: total traffic ballooned",
                r.runtime
            );
        }
    }

    #[test]
    fn chgraph_is_fastest_gla_software_is_slowest() {
        let g = graph();
        let cfg = cfg();
        let pr = crate::testutil::PrLike { iterations: 3 };
        let h = System::Hygra.execute(&g, &pr, &cfg);
        let s = System::Gla.execute(&g, &pr, &cfg);
        let c = System::ChGraph.execute(&g, &pr, &cfg);
        assert!(c.speedup_over(&h) > 1.0, "ChGraph {:.2}x vs Hygra", c.speedup_over(&h));
        assert!(s.speedup_over(&h) < 1.2, "software GLA should not beat Hygra clearly");
        assert!(c.cycles < s.cycles);
    }

    #[test]
    fn hcg_only_sits_between_gla_and_full_chgraph() {
        let g = graph();
        let cfg = cfg();
        let s = System::Gla.execute(&g, &MinLabel, &cfg);
        let hcg = System::HcgOnly.execute(&g, &MinLabel, &cfg);
        let full = System::ChGraph.execute(&g, &MinLabel, &cfg);
        assert!(hcg.cycles < s.cycles, "HCG must beat software GLA");
        assert!(full.cycles <= hcg.cycles, "CP must not slow ChGraph down");
        assert_eq!(hcg.state.vertex_value, full.state.vertex_value);
    }

    #[test]
    fn preprocessing_reported() {
        let g = graph();
        let cfg = cfg();
        let h = System::Hygra.execute(&g, &MinLabel, &cfg);
        let c = System::ChGraph.execute(&g, &MinLabel, &cfg);
        assert!(h.preprocess.oag_build.is_none());
        assert!(c.preprocess.oag_build.is_some());
        assert!(c.preprocess.cycles_estimate > h.preprocess.cycles_estimate);
        assert!(c.preprocess.oag_extra_bytes > 0);
        assert!(c.engine.is_some());
        assert!(h.engine.is_none());
    }
}
