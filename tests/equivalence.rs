//! Cross-runtime equivalence: every scheduling strategy must compute the
//! same results — chains change performance, never semantics.

use chgraph::{ExecutionReport, RunConfig, System};
use hyperalgos::{try_run_workload_prepared, Workload};
use hypergraph::generate::GeneratorConfig;
use hypergraph::Hypergraph;

fn graphs() -> Vec<Hypergraph> {
    vec![
        hypergraph::fig1_example(),
        GeneratorConfig::new(400, 300).with_seed(1).generate(),
        GeneratorConfig::new(600, 250)
            .with_seed(2)
            .with_family_range(4, 64)
            .with_member_prob(0.85)
            .generate(),
        hypergraph::generate::two_uniform_graph(300, 900, 3),
    ]
}

fn run(w: Workload, sys: System, g: &Hypergraph, cfg: &RunConfig) -> ExecutionReport {
    try_run_workload_prepared(w, &sys, g, cfg, None)
        .unwrap_or_else(|e| panic!("{w} under {}: {e}", sys.name()))
}

/// Exact equality for min/count-style algorithms; tolerance for float
/// accumulators (sum order differs across schedules).
fn assert_state_eq(a: &chgraph::State, b: &chgraph::State, tol: f64, ctx: &str) {
    let cmp = |x: &[f64], y: &[f64], what: &str| {
        assert_eq!(x.len(), y.len(), "{ctx}: {what} length");
        for (i, (p, q)) in x.iter().zip(y).enumerate() {
            let scale = p.abs().max(q.abs()).max(1.0);
            assert!(
                (p - q).abs() <= tol * scale || (p.is_infinite() && q.is_infinite()),
                "{ctx}: {what}[{i}] differs: {p} vs {q}"
            );
        }
    };
    cmp(&a.vertex_value, &b.vertex_value, "vertex_value");
    cmp(&a.hyperedge_value, &b.hyperedge_value, "hyperedge_value");
    cmp(&a.vertex_aux, &b.vertex_aux, "vertex_aux");
    cmp(&a.hyperedge_aux, &b.hyperedge_aux, "hyperedge_aux");
}

fn tolerance_of(w: Workload) -> f64 {
    match w {
        // Pure min-propagation / counting: schedule-independent exactly.
        Workload::Bfs | Workload::Cc | Workload::KCore | Workload::Mis | Workload::Sssp => 0.0,
        // Float accumulation: equal up to associativity noise.
        Workload::Pr | Workload::Bc | Workload::Adsorption => 1e-9,
    }
}

#[test]
fn all_runtimes_agree_on_all_workloads() {
    let cfg = RunConfig::new().with_system(archsim::SystemConfig::scaled(4));
    for (gi, g) in graphs().iter().enumerate() {
        for w in Workload::HYPERGRAPH.into_iter().chain(Workload::GRAPH) {
            let reference = run(w, System::Hygra, g, &cfg);
            for sys in System::ALL {
                let r = run(w, sys, g, &cfg);
                assert_state_eq(
                    &r.state,
                    &reference.state,
                    tolerance_of(w),
                    &format!("graph {gi}, {w}, {}", sys.name()),
                );
            }
        }
    }
}

#[test]
fn iteration_counts_match_across_runtimes() {
    let g = GeneratorConfig::new(500, 400).with_seed(7).generate();
    let cfg = RunConfig::new().with_system(archsim::SystemConfig::scaled(2));
    for w in [Workload::Bfs, Workload::Cc, Workload::KCore] {
        let a = run(w, System::Hygra, &g, &cfg);
        let b = run(w, System::ChGraph, &g, &cfg);
        assert_eq!(a.iterations, b.iterations, "{w}");
    }
}

#[test]
fn core_count_does_not_change_results() {
    let g = GeneratorConfig::new(500, 400).with_seed(8).generate();
    for w in [Workload::Bfs, Workload::Cc, Workload::Mis] {
        let cores = |n| RunConfig::new().with_system(archsim::SystemConfig::scaled(n));
        let one = run(w, System::ChGraph, &g, &cores(1));
        let sixteen = run(w, System::ChGraph, &g, &cores(16));
        assert_eq!(one.state.vertex_value, sixteen.state.vertex_value, "{w}");
    }
}

#[test]
fn chain_parameters_do_not_change_results() {
    let g = GeneratorConfig::new(500, 400).with_seed(9).generate();
    let base = run(Workload::Cc, System::ChGraph, &g, &RunConfig::new());
    for d_max in [1usize, 4, 64] {
        for w_min in [1u32, 5] {
            let cfg = RunConfig::new()
                .with_chain(oag::ChainConfig::new(d_max))
                .with_oag(oag::OagConfig::new().with_w_min(w_min));
            let r = run(Workload::Cc, System::ChGraph, &g, &cfg);
            assert_eq!(
                r.state.vertex_value, base.state.vertex_value,
                "D_max={d_max} W_min={w_min}"
            );
        }
    }
}
