//! Differential self-check: execute a workload under a simulated runtime
//! and diff the final state against the naive reference implementation of
//! [`mod@crate::reference`].
//!
//! Exact-valued workloads (BFS, CC, SSSP, k-core) must match the reference
//! bit-for-bit; accumulation workloads (PR, BC, Adsorption) sum in
//! schedule-dependent order and are compared under a relative
//! floating-point tolerance; MIS has many valid answers, so its *validity*
//! (independence + maximality) is checked instead of its values. A mismatch
//! reports the first divergent element id, both values, and how many
//! iterations the checked execution ran — enough to reproduce and bisect.

use crate::reference::{self, MisViolation};
use crate::{try_run_workload_prepared, CoreDecomposition, Mis, Workload};
use chgraph::{ExecError, ExecutionReport, PreparedOags, RunConfig, Runtime};
use hypergraph::Hypergraph;
use std::fmt;

/// Relative tolerance for accumulation workloads whose floating-point sums
/// are reassociated by scheduling (PR, BC, Adsorption).
pub const FLOAT_TOLERANCE: f64 = 1e-9;

/// The first element where a simulated execution diverges from the
/// reference.
#[derive(Clone, Copy, Debug)]
pub struct Divergence {
    /// Which state array diverged (`"vertex_value"`, `"hyperedge_value"`,
    /// or `"coreness"`).
    pub field: &'static str,
    /// The first divergent element id within that array.
    pub id: usize,
    /// The simulated value.
    pub got: f64,
    /// The reference value.
    pub want: f64,
    /// The relative tolerance the comparison allowed (`0.0` = exact).
    pub tolerance: f64,
}

/// Why a self-checked execution is not trustworthy.
#[derive(Debug)]
pub enum SelfCheckError {
    /// The execution itself failed (watchdog budget, validation, config)
    /// before producing a state to diff.
    Exec(ExecError),
    /// The execution completed but its state diverges from the reference.
    Diverged {
        /// The checked workload.
        workload: Workload,
        /// The runtime that produced the divergent state.
        runtime: &'static str,
        /// Iterations the checked execution ran before finishing.
        iterations: usize,
        /// First divergent element.
        divergence: Divergence,
    },
    /// The MIS execution completed but its answer is not a valid maximal
    /// independent set.
    InvalidMis {
        /// The runtime that produced the invalid set.
        runtime: &'static str,
        /// Iterations the checked execution ran before finishing.
        iterations: usize,
        /// The first validity violation.
        violation: MisViolation,
    },
}

impl fmt::Display for SelfCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelfCheckError::Exec(e) => write!(f, "execution failed before the diff: {e}"),
            SelfCheckError::Diverged { workload, runtime, iterations, divergence } => {
                let Divergence { field, id, got, want, tolerance } = divergence;
                write!(
                    f,
                    "{workload} under {runtime} diverges from reference at {field}[{id}]: \
                     got {got}, want {want} (tolerance {tolerance}, after {iterations} iterations)"
                )
            }
            SelfCheckError::InvalidMis { runtime, iterations, violation } => {
                write!(
                    f,
                    "MIS under {runtime} is invalid after {iterations} iterations: {violation}"
                )
            }
        }
    }
}

impl std::error::Error for SelfCheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SelfCheckError::Exec(e) => Some(e),
            SelfCheckError::InvalidMis { violation, .. } => Some(violation),
            SelfCheckError::Diverged { .. } => None,
        }
    }
}

impl From<ExecError> for SelfCheckError {
    fn from(e: ExecError) -> Self {
        SelfCheckError::Exec(e)
    }
}

/// A verified execution: the report plus how much of it was diffed.
#[derive(Clone, Debug)]
pub struct SelfCheckReport {
    /// The checked workload.
    pub workload: Workload,
    /// The full execution report, usable exactly as an unchecked run's.
    pub report: ExecutionReport,
    /// How many state elements were compared against the reference.
    pub elements_checked: usize,
}

/// Executes `workload` on `g` under `runtime`'s system, optionally with
/// pre-built OAG artifacts, and verifies the result against the naive
/// reference implementation.
pub fn self_check_prepared(
    workload: Workload,
    runtime: &dyn Runtime,
    g: &Hypergraph,
    cfg: &RunConfig,
    prepared: Option<&PreparedOags>,
) -> Result<SelfCheckReport, SelfCheckError> {
    let source = crate::default_source(g);
    let report = try_run_workload_prepared(workload, runtime, g, cfg, prepared)?;
    let iterations = report.iterations;
    let diverged = |divergence| SelfCheckError::Diverged {
        workload,
        runtime: report.runtime,
        iterations,
        divergence,
    };
    let elements_checked = match workload {
        Workload::Bfs => {
            let (vd, hd) = reference::bfs(g, source);
            diff("vertex_value", &report.state.vertex_value, &vd, 0.0).map_err(diverged)?;
            diff("hyperedge_value", &report.state.hyperedge_value, &hd, 0.0).map_err(diverged)?;
            vd.len() + hd.len()
        }
        Workload::Pr => {
            // The reference must run exactly as many iterations as the
            // simulated execution did (`max_iterations` may cap it).
            let want = reference::pagerank(g, 0.85, iterations);
            diff("vertex_value", &report.state.vertex_value, &want, FLOAT_TOLERANCE)
                .map_err(diverged)?;
            want.len()
        }
        Workload::Mis => {
            let statuses = Mis::statuses(&report.state);
            reference::check_mis(g, &statuses).map_err(|violation| SelfCheckError::InvalidMis {
                runtime: report.runtime,
                iterations,
                violation,
            })?;
            statuses.len()
        }
        Workload::Bc => {
            // Hyperedge deltas of childless hyperedges are folded into the
            // seeding (see `BcBackward`), so only vertex deltas are diffed.
            let (vd, _) = reference::bc_single_source(g, source);
            diff("vertex_value", &report.state.vertex_value, &vd, FLOAT_TOLERANCE)
                .map_err(diverged)?;
            vd.len()
        }
        Workload::Cc => {
            let want = reference::connected_components(g);
            diff("vertex_value", &report.state.vertex_value, &want, 0.0).map_err(diverged)?;
            want.len()
        }
        Workload::KCore => {
            let got = CoreDecomposition::coreness(&report.state);
            let want = reference::coreness(g);
            if let Some(id) = (0..want.len().min(got.len())).find(|&v| got[v] != want[v]) {
                return Err(diverged(Divergence {
                    field: "coreness",
                    id,
                    got: got[id] as f64,
                    want: want[id] as f64,
                    tolerance: 0.0,
                }));
            }
            want.len()
        }
        Workload::Sssp => {
            let want = reference::sssp(g, source);
            diff("vertex_value", &report.state.vertex_value, &want, 0.0).map_err(diverged)?;
            want.len()
        }
        Workload::Adsorption => {
            let a = crate::Adsorption::new();
            let want =
                reference::adsorption(g, a.injection, a.continuation, a.seed_stride, iterations);
            diff("vertex_value", &report.state.vertex_value, &want, FLOAT_TOLERANCE)
                .map_err(diverged)?;
            want.len()
        }
    };
    Ok(SelfCheckReport { workload, report, elements_checked })
}

/// `true` when `got` matches `want` within relative tolerance `tol`
/// (`0.0` = exact). Matching infinities (unreached distances) are equal;
/// NaN never matches anything.
fn close(got: f64, want: f64, tol: f64) -> bool {
    if got.is_infinite() || want.is_infinite() {
        return got == want;
    }
    let scale = got.abs().max(want.abs()).max(1.0);
    (got - want).abs() <= tol * scale
}

fn diff(field: &'static str, got: &[f64], want: &[f64], tolerance: f64) -> Result<(), Divergence> {
    debug_assert_eq!(got.len(), want.len(), "{field}: state/reference length mismatch");
    for (id, (&g, &w)) in got.iter().zip(want).enumerate() {
        if !close(g, w, tolerance) {
            return Err(Divergence { field, id, got: g, want: w, tolerance });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chgraph::System;

    fn self_check(
        workload: Workload,
        system: System,
        g: &Hypergraph,
        cfg: &RunConfig,
    ) -> Result<SelfCheckReport, SelfCheckError> {
        self_check_prepared(workload, &system, g, cfg, None)
    }

    #[test]
    fn every_workload_self_checks_on_fig1() {
        let g = hypergraph::fig1_example();
        let cfg = RunConfig::new();
        for w in Workload::HYPERGRAPH.into_iter().chain(Workload::GRAPH) {
            let r = self_check(w, System::Hygra, &g, &cfg)
                .unwrap_or_else(|e| panic!("{w} failed its self-check: {e}"));
            assert!(r.elements_checked > 0, "{w} checked nothing");
        }
    }

    #[test]
    fn chain_driven_runtime_self_checks_on_a_generated_graph() {
        let g = hypergraph::generate::GeneratorConfig::new(200, 120).with_seed(11).generate();
        let cfg = RunConfig::new().with_system(archsim::SystemConfig::scaled(2));
        for w in Workload::HYPERGRAPH {
            self_check(w, System::ChGraph, &g, &cfg)
                .unwrap_or_else(|e| panic!("{w} failed its self-check: {e}"));
        }
    }

    #[test]
    fn pagerank_respects_iteration_caps() {
        // With a capped iteration count, the reference must be re-run for
        // the same number of iterations — a mismatch here would diverge.
        let g = hypergraph::generate::GeneratorConfig::new(150, 100).with_seed(3).generate();
        let cfg = RunConfig::new().with_max_iterations(3);
        let r = self_check(Workload::Pr, System::Hygra, &g, &cfg).expect("capped PR diverged");
        assert_eq!(r.report.iterations, 3);
    }

    #[test]
    fn a_budget_trip_surfaces_as_an_exec_error() {
        let g = hypergraph::generate::GeneratorConfig::new(150, 100).with_seed(4).generate();
        let cfg = RunConfig::new().with_max_cycles(1);
        match self_check(Workload::Pr, System::Hygra, &g, &cfg) {
            Err(SelfCheckError::Exec(ExecError::BudgetExceeded { progress, .. })) => {
                assert!(progress.cycles > 0, "partial stats must be reported");
            }
            other => panic!("expected a budget trip, got {other:?}"),
        }
    }

    #[test]
    fn a_fabricated_divergence_reports_the_first_bad_id() {
        let want = [0.0, 1.0, 2.0, 3.0];
        let got = [0.0, 1.0, 7.0, 9.0];
        let d = diff("vertex_value", &got, &want, 0.0).unwrap_err();
        assert_eq!(d.id, 2);
        assert_eq!(d.got, 7.0);
        assert_eq!(d.want, 3.0 - 1.0);
    }

    #[test]
    fn tolerance_comparison_handles_infinities_and_nan() {
        assert!(close(f64::INFINITY, f64::INFINITY, 0.0));
        assert!(!close(f64::INFINITY, 1.0, 1e-9));
        assert!(!close(f64::NAN, f64::NAN, 1e-9));
        assert!(close(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!close(1.0, 1.1, 1e-9));
    }

    #[test]
    fn errors_render_actionable_messages() {
        let e = SelfCheckError::Diverged {
            workload: Workload::Bfs,
            runtime: "hygra",
            iterations: 4,
            divergence: Divergence {
                field: "vertex_value",
                id: 17,
                got: 2.0,
                want: 3.0,
                tolerance: 0.0,
            },
        };
        let msg = e.to_string();
        assert!(msg.contains("BFS under hygra"), "{msg}");
        assert!(msg.contains("vertex_value[17]"), "{msg}");
        assert!(msg.contains("after 4 iterations"), "{msg}");
    }
}
