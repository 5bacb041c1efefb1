//! Alternatives: Figs. 23 (hardware prefetcher), 24 (reordering), and 25
//! (ordinary-graph generality).

use super::{fx, grid, Harness, System};
use crate::{load_graph_scaled, Table};
use chgraph::baseline::reorder::run_reordered;
use hyperalgos::{try_run_workload_prepared, Workload};
use hypergraph::datasets::{Dataset, GraphDataset};
use std::fmt;

/// Fig. 23: ChGraph vs the event-driven hardware prefetcher.
#[derive(Debug)]
pub struct Fig23 {
    /// Rendered table.
    pub table: Table,
    /// Per-workload ChGraph speedup over the prefetcher (paper:
    /// 1.56x-2.88x).
    pub speedups: Vec<(Workload, f64)>,
}

/// Regenerates Fig. 23 on the Web-trackers stand-in.
pub fn fig23(h: &Harness) -> Fig23 {
    h.prefetch(grid(
        &Workload::HYPERGRAPH,
        &[Dataset::WebTrackers],
        &[System::Hygra, System::Prefetcher, System::ChGraph],
    ));
    let mut table = Table::new(&[
        "workload",
        "Hygra cyc",
        "prefetcher speedup",
        "ChGraph speedup",
        "ChGraph vs prefetcher",
    ]);
    let mut speedups = Vec::new();
    for w in Workload::HYPERGRAPH {
        let hygra = h.report(Dataset::WebTrackers, w, System::Hygra);
        let pf = h.report(Dataset::WebTrackers, w, System::Prefetcher);
        let chg = h.report(Dataset::WebTrackers, w, System::ChGraph);
        let vs_pf = chg.speedup_over(&pf);
        speedups.push((w, vs_pf));
        table.row(&[
            w.abbrev().into(),
            hygra.cycles.to_string(),
            fx(pf.speedup_over(&hygra)),
            fx(chg.speedup_over(&hygra)),
            fx(vs_pf),
        ]);
    }
    Fig23 { table, speedups }
}

impl fmt::Display for Fig23 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 23: ChGraph vs event-driven prefetcher on WEB (paper: 1.56x-2.88x)")?;
        write!(f, "{}", self.table)
    }
}

/// Fig. 24: the reordering technique, with its overhead included.
#[derive(Debug)]
pub struct Fig24 {
    /// Rendered table.
    pub table: Table,
    /// `(dataset, hygra_reorder_total_speedup, chgraph_total_speedup,
    /// chgraph_reorder_total_speedup)` normalized to plain Hygra.
    pub cells: Vec<(Dataset, f64, f64, f64)>,
}

/// Regenerates Fig. 24 with PageRank across the datasets.
pub fn fig24(h: &Harness) -> Fig24 {
    h.prefetch(grid(&[Workload::Pr], &Dataset::ALL, &[System::Hygra, System::ChGraph]));
    let mut table =
        Table::new(&["dataset", "Hygra", "Hygra+Reorder", "ChGraph", "ChGraph+Reorder"]);
    let mut cells = Vec::new();
    for ds in Dataset::ALL {
        let g = h.graph(ds);
        let hygra = h.report(ds, Workload::Pr, System::Hygra);
        let chg = h.report(ds, Workload::Pr, System::ChGraph);
        let reordered = |sys: System| {
            run_reordered(sys, &g, &hyperalgos::PageRank::new(), &h.cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", sys.name()))
        };
        let hygra_re = reordered(System::Hygra);
        let chg_re = reordered(System::ChGraph);
        let s_hr = hygra_re.total_speedup_over(&hygra);
        let s_c = chg.total_speedup_over(&hygra);
        let s_cr = chg_re.total_speedup_over(&hygra);
        cells.push((ds, s_hr, s_c, s_cr));
        table.row(&[ds.abbrev().into(), "1.00x".into(), fx(s_hr), fx(s_c), fx(s_cr)]);
    }
    Fig24 { table, cells }
}

impl fmt::Display for Fig24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 24: reordering comparison, total time incl. overheads (paper: reordering does not pay off)"
        )?;
        write!(f, "{}", self.table)
    }
}

/// Fig. 25: ordinary-graph generality study (Adsorption and SSSP on AZ/PK).
#[derive(Debug)]
pub struct Fig25 {
    /// Rendered table.
    pub table: Table,
    /// `(workload, dataset, chgraph_vs_ligra, chgraph_vs_hats)` total
    /// speedups.
    pub cells: Vec<(Workload, GraphDataset, f64, f64)>,
}

/// Regenerates Fig. 25. "Ligra" is the index-ordered runtime on the
/// 2-uniform input (a conventional graph framework is exactly Hygra's
/// special case); HATS is the hardware traversal scheduler.
pub fn fig25(h: &Harness) -> Fig25 {
    let mut table =
        Table::new(&["workload", "graph", "Ligra cyc", "HATS", "ChGraph", "ChGraph vs HATS"]);
    let mut cells = Vec::new();
    for w in Workload::GRAPH {
        for gd in GraphDataset::ALL {
            let g = load_graph_scaled(gd, h.scale);
            let run = |sys: System| {
                try_run_workload_prepared(w, &sys, &g, &h.cfg, None)
                    .unwrap_or_else(|e| panic!("{}: {e}", sys.name()))
            };
            let ligra = run(System::Hygra);
            let hats = run(System::HatsV);
            let chg = run(System::ChGraph);
            let vs_ligra = chg.total_speedup_over(&ligra);
            let vs_hats = chg.total_speedup_over(&hats);
            cells.push((w, gd, vs_ligra, vs_hats));
            table.row(&[
                w.abbrev().into(),
                gd.abbrev().into(),
                ligra.cycles.to_string(),
                fx(hats.total_speedup_over(&ligra)),
                fx(vs_ligra),
                fx(vs_hats),
            ]);
        }
    }
    Fig25 { table, cells }
}

impl Fig25 {
    /// Mean ChGraph total speedup over Ligra (paper: 2.13x).
    pub fn mean_vs_ligra(&self) -> f64 {
        self.cells.iter().map(|c| c.2).sum::<f64>() / self.cells.len() as f64
    }
}

impl fmt::Display for Fig25 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 25: graph applications (paper: ChGraph 2.13x over Ligra, ~parity with HATS)"
        )?;
        write!(f, "{}", self.table)?;
        writeln!(f, "mean ChGraph vs Ligra: {}", fx(self.mean_vs_ligra()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn fig25_smoke() {
        let h = Harness::new(Scale(0.05));
        let f = fig25(&h);
        assert_eq!(f.cells.len(), 4);
        assert!(f.mean_vs_ligra() > 0.0);
        assert!(f.to_string().contains("SSSP"));
    }
}
