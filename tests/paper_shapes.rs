//! Headline shape assertions: the qualitative results of the paper's
//! evaluation must hold on the stand-in datasets (absolute factors differ —
//! see EXPERIMENTS.md — but orderings and crossovers must not).
//!
//! These run at reduced dataset scale to stay fast; the full-scale numbers
//! are produced by `cargo run --release --bin figures`.

use chg_bench::figures::{self, Harness, System};
use chg_bench::Scale;
use hyperalgos::Workload;
use hypergraph::datasets::Dataset;
use std::sync::OnceLock;

/// One reduced-scale harness shared by every test in this file. Its report
/// memo is deterministic and order-independent (`parallel_determinism`
/// proves it), so a cell one test already simulated is reused, not re-run.
fn harness() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| Harness::new(Scale(0.5)))
}

#[test]
fn fig2_fig3_gla_reduces_memory_but_not_time_chgraph_reverses() {
    let h = harness();
    let f2 = figures::fig2(h);
    assert!(
        f2.reduction > 1.15,
        "GLA must cut main-memory accesses for PR on WEB (got {:.2}x)",
        f2.reduction
    );
    let f3 = figures::fig3(h);
    assert!(
        f3.gla_speedup < 1.2,
        "software GLA must not clearly beat Hygra (got {:.2}x)",
        f3.gla_speedup
    );
    assert!(
        f3.chgraph_speedup > 1.5,
        "ChGraph must clearly beat Hygra for PR on WEB (got {:.2}x)",
        f3.chgraph_speedup
    );
    assert!(f3.chgraph_speedup > f3.gla_speedup * 1.5, "hardware must reverse the GLA loss");
}

#[test]
fn fig5_hypergraph_processing_is_memory_bound_under_hygra() {
    let h = harness();
    let f5 = figures::fig5(h);
    let mean: f64 = f5.cells.iter().map(|c| c.2).sum::<f64>() / f5.cells.len() as f64;
    assert!(
        mean > 0.25,
        "a large share of Hygra time must stall on memory (paper 51%; got {:.1}%)",
        mean * 100.0
    );
}

#[test]
fn fig7_chgraph_beats_hats_v_on_every_workload() {
    let h = harness();
    let f7 = figures::fig7(h);
    for &(w, s) in &f7.speedups {
        assert!(s > 0.95, "{w}: ChGraph must not lose to HATS-V (got {s:.2}x)");
    }
    let mean: f64 = f7.speedups.iter().map(|c| c.1).sum::<f64>() / f7.speedups.len() as f64;
    // Deviation note: the paper reports 2.56x-3.01x; our HATS-V model is
    // generously decoupled (it delivers tuples like the CP), so the gap is
    // smaller — ChGraph's remaining edge is the OAG-guided schedule.
    assert!(mean > 1.05, "ChGraph must beat HATS-V on average (got {mean:.2}x)");
}

#[test]
fn fig14_chgraph_wins_everywhere_gla_does_not() {
    let h = harness();
    let f14 = figures::fig14(h);
    let wins = f14.cells.iter().filter(|c| c.3 > 1.0).count();
    assert!(
        wins * 10 >= f14.cells.len() * 9,
        "ChGraph must beat Hygra on at least 90% of cells (won {wins}/{})",
        f14.cells.len()
    );
    for &(w, ds, _gla, chg) in &f14.cells {
        assert!(chg > 0.75, "{w}/{ds}: ChGraph must never lose badly (got {chg:.2}x)");
    }
    assert!(
        f14.mean_gla_speedup() < 1.1,
        "software GLA must not deliver meaningful mean speedup (got {:.2}x)",
        f14.mean_gla_speedup()
    );
    assert!(
        f14.mean_chgraph_speedup() > 1.8,
        "mean ChGraph speedup too small (got {:.2}x)",
        f14.mean_chgraph_speedup()
    );
}

#[test]
fn fig15_chgraph_reduces_memory_accesses() {
    // At reduced test scale the OAG working set shrinks more slowly than
    // the reuse headroom, so only the all-active workloads show clear
    // reductions; the full-scale numbers live in EXPERIMENTS.md (regenerate
    // with `figures fig15`). Assert the regime-robust cells here.
    let h = harness();
    let f15 = figures::fig15(h);
    let web_pr = f15
        .reductions
        .iter()
        .find(|r| r.0 == Workload::Pr && r.1 == Dataset::WebTrackers)
        .expect("cell exists")
        .2;
    assert!(web_pr > 1.15, "PR on WEB reduction too small (got {web_pr:.2}x)");
    assert!(
        f15.mean_reduction() > 0.8,
        "ChGraph must not inflate traffic wholesale (got {:.2}x)",
        f15.mean_reduction()
    );
}

/// Full-scale counterpart of the memory-reduction assertion; slow, so it
/// runs only on demand (`cargo test --release -- --ignored`).
#[test]
#[ignore = "full-scale run (~minutes); the default suite asserts at reduced scale"]
fn fig15_full_scale_mean_reduction() {
    let h = Harness::new(Scale::FULL);
    let f15 = figures::fig15(&h);
    // All-active workloads (the paper's Fig. 2 regime) must show clear
    // reductions at full scale; sparse traversals hover near parity in this
    // model (documented in EXPERIMENTS.md).
    let pr_mean = |filter: fn(Dataset) -> bool| -> f64 {
        let cells: Vec<f64> = f15
            .reductions
            .iter()
            .filter(|r| r.0 == Workload::Pr && filter(r.1))
            .map(|r| r.2)
            .collect();
        cells.iter().sum::<f64>() / cells.len() as f64
    };
    // The light-overlap group carries the big reductions (as in the paper,
    // where FS/WEB lead); the heavy group hovers near parity at this scale.
    let light = pr_mean(|d| !d.heavy_overlap());
    assert!(light > 1.3, "full-scale light-group PR reduction too small (got {light:.2}x)");
    let all = pr_mean(|_| true);
    assert!(all > 1.05, "full-scale PR mean reduction too small (got {all:.2}x)");
    assert!(
        f15.mean_reduction() > 0.85,
        "full-scale mean reduction collapsed (got {:.2}x)",
        f15.mean_reduction()
    );
}

#[test]
fn fig16_hcg_provides_most_of_the_benefit() {
    let h = harness();
    let f16 = figures::fig16(h);
    assert!(
        f16.mean_hcg_speedup() > 1.15,
        "hardware chain generation must speed up software GLA (got {:.2}x)",
        f16.mean_hcg_speedup()
    );
    assert!(
        f16.mean_cp_speedup() > 1.0,
        "the chain-driven prefetcher must add further speedup (got {:.2}x)",
        f16.mean_cp_speedup()
    );
    // Deviation note: the paper attributes 92% of the ablation benefit to
    // the HCG; in this model the decoupled data loading (CP) carries a
    // larger share because the software baseline's dominant cost is its
    // serially-dependent indirect loads rather than chain generation
    // proper. Recorded in EXPERIMENTS.md.
}

#[test]
fn fig22_chgraph_wins_even_with_preprocessing() {
    // Preprocessing amortizes with input size; at reduced scale it weighs
    // disproportionately, so the strong claim is asserted on the heaviest
    // all-active workload and the lenient bound on the mean.
    let h = harness();
    let f22 = figures::fig22(h);
    assert!(
        f22.mean_total_speedup() > 0.75,
        "end-to-end mean collapsed (got {:.2}x)",
        f22.mean_total_speedup()
    );
    let pr_web = f22
        .cells
        .iter()
        .find(|c| c.0 == Workload::Pr && c.1 == Dataset::WebTrackers)
        .expect("cell exists")
        .2;
    assert!(pr_web > 1.2, "PR on WEB must win end-to-end incl. preprocessing (got {pr_web:.2}x)");
}

/// Full-scale counterpart (run with `-- --ignored`).
#[test]
#[ignore = "full-scale run (~minutes); the default suite asserts at reduced scale"]
fn fig22_full_scale_total_speedup() {
    let h = Harness::new(Scale::FULL);
    let f22 = figures::fig22(&h);
    let pr_mean: f64 = {
        let cells: Vec<f64> =
            f22.cells.iter().filter(|c| c.0 == Workload::Pr).map(|c| c.2).collect();
        cells.iter().sum::<f64>() / cells.len() as f64
    };
    assert!(pr_mean > 1.25, "full-scale PR end-to-end speedup too small (got {pr_mean:.2}x)");
}

#[test]
fn fig23_prefetcher_helps_less_than_chgraph() {
    let h = harness();
    let f23 = figures::fig23(h);
    for &(w, s) in &f23.speedups {
        assert!(s > 1.0, "{w}: ChGraph must beat the event-driven prefetcher (got {s:.2}x)");
    }
}

#[test]
fn fig24_reordering_does_not_pay_off_end_to_end() {
    let h = harness();
    let f24 = figures::fig24(h);
    for &(ds, hygra_reorder, chgraph, _chg_reorder) in &f24.cells {
        assert!(
            chgraph > hygra_reorder,
            "{ds}: ChGraph must beat Hygra+Reordering end-to-end ({chgraph:.2}x vs {hygra_reorder:.2}x)"
        );
    }
}

#[test]
fn fig25_generality_chgraph_beats_ligra_on_graphs() {
    let h = harness();
    let f25 = figures::fig25(h);
    assert!(
        f25.mean_vs_ligra() > 1.3,
        "ChGraph must beat the index-ordered graph baseline (paper 2.13x; got {:.2}x)",
        f25.mean_vs_ligra()
    );
}

#[test]
fn engine_reports_are_consistent() {
    let h = harness();
    let chg = h.report(Dataset::LiveJournal, Workload::Pr, System::ChGraph);
    let engine = chg.engine.expect("ChGraph reports engine stats");
    assert!(engine.chains_generated > 0);
    assert!(
        engine.tuples_delivered as usize >= h.graph(Dataset::LiveJournal).num_bipartite_edges()
    );
    assert!(engine.hcg_cycles > 0 && engine.cp_cycles > 0);
}
