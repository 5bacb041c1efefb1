//! Sensitivity studies: Figs. 17 (`D_max`), 18 (`W_min`), 19 (LLC size),
//! and 20 (core count). Each is one [`Sweep`]: fix a cell, vary one chain
//! or machine parameter, and normalise to the first point.

use super::{fx, grid, pct, Harness, Job, System};
use crate::Table;
use chgraph::RunConfig;
use hyperalgos::Workload;
use hypergraph::datasets::Dataset;
use oag::{ChainConfig, OagConfig};
use std::fmt;

/// One sensitivity sweep: a row per `(dataset, workload, system)` cell, a
/// column per swept point `P`, each entry the row's first-point cycles
/// over the point's cycles.
#[derive(Debug)]
pub struct Sweep<P> {
    /// Caption printed above the table.
    pub title: &'static str,
    /// Rendered table.
    pub table: Table,
    /// Every simulated point, row by row.
    pub samples: Vec<SweepSample<P>>,
}

/// One simulated point of a [`Sweep`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepSample<P> {
    /// The swept parameter's value.
    pub point: P,
    /// The cell's dataset.
    pub dataset: Dataset,
    /// The cell's workload.
    pub workload: Workload,
    /// The cell's system.
    pub system: System,
    /// Simulated cycles.
    pub cycles: u64,
}

impl<P> fmt::Display for Sweep<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        write!(f, "{}", self.table)
    }
}

/// Fig. 17: ChGraph PageRank performance across `D_max`.
pub type Fig17 = Sweep<usize>;
/// Fig. 18: ChGraph PageRank performance across `W_min`.
pub type Fig18 = Sweep<u32>;
/// Fig. 19: execution time on WEB across LLC sizes (points in unscaled
/// bytes).
pub type Fig19 = Sweep<usize>;
/// Fig. 20: PageRank scaling with core count.
pub type Fig20 = Sweep<usize>;

/// Runs every `rows × points` job through [`Harness::run_batch`] and
/// tabulates each row's cycles against its first point, rendered by
/// `ratio`. Rows are labelled by the cell fields that vary across them.
fn sweep<P: Copy>(
    h: &Harness,
    title: &'static str,
    rows: &[Job],
    points: &[(P, RunConfig)],
    column: impl Fn(P) -> String,
    ratio: fn(f64) -> String,
) -> Sweep<P> {
    let jobs: Vec<_> = rows
        .iter()
        .flat_map(|&(ds, w, sys)| points.iter().map(move |&(_, cfg)| (ds, w, sys, cfg)))
        .collect();
    let reports = h.run_batch(&jobs);
    let fields = |(ds, w, sys): Job| {
        [("dataset", ds.abbrev()), ("workload", w.abbrev()), ("system", sys.label())]
    };
    let labelled: Vec<usize> =
        (0..3).filter(|&k| rows.iter().any(|&r| fields(r)[k] != fields(rows[0])[k])).collect();
    let mut header: Vec<String> = labelled.iter().map(|&k| fields(rows[0])[k].0.into()).collect();
    header.extend(points.iter().map(|&(p, _)| column(p)));
    let mut table = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let mut samples = Vec::with_capacity(jobs.len());
    for (&(dataset, workload, system), row) in rows.iter().zip(reports.chunks(points.len())) {
        let label = fields((dataset, workload, system));
        let mut cells: Vec<String> = labelled.iter().map(|&k| label[k].1.into()).collect();
        cells.extend(row.iter().map(|r| ratio(row[0].cycles as f64 / r.cycles as f64)));
        table.row(&cells);
        samples.extend(points.iter().zip(row).map(|(&(point, _), r)| SweepSample {
            point,
            dataset,
            workload,
            system,
            cycles: r.cycles,
        }));
    }
    Sweep { title, table, samples }
}

/// Regenerates Fig. 17 (`D_max` in 2..=64).
pub fn fig17(h: &Harness) -> Fig17 {
    sweep(
        h,
        "Fig. 17: ChGraph PR speedup vs D_max=2 (paper: sweet spot at 16)",
        &grid(&[Workload::Pr], &Dataset::ALL, &[System::ChGraph]),
        &[2, 4, 8, 16, 32, 64].map(|d| (d, h.cfg.with_chain(ChainConfig::new(d)))),
        |d| format!("D_max={d}"),
        fx,
    )
}

/// Regenerates Fig. 18 (`W_min` in 1..=9), normalized to `W_min = 1`.
pub fn fig18(h: &Harness) -> Fig18 {
    sweep(
        h,
        "Fig. 18: ChGraph PR performance vs W_min=1 (paper: 98.7% at W_min=3, degrading beyond)",
        &grid(&[Workload::Pr], &Dataset::ALL, &[System::ChGraph]),
        &[1, 3, 5, 7, 9].map(|w| (w, h.cfg.with_oag(OagConfig::new().with_w_min(w)))),
        |w| format!("W_min={w}"),
        pct,
    )
}

/// Regenerates Fig. 19. The paper sweeps 8–32 MB (a 1:4 range below the
/// working set); the scaled machine sweeps 32 KB–1 MB, which brackets the
/// corresponding transition at stand-in scale.
pub fn fig19(h: &Harness) -> Fig19 {
    let llc_cfg = |llc: usize| {
        let scaled_llc = ((llc as f64 * h.scale.factor()) as usize).next_power_of_two();
        h.cfg.with_system(h.cfg.system.with_llc_bytes(scaled_llc.max(16 << 10)))
    };
    sweep(
        h,
        "Fig. 19: WEB speedup vs the smallest LLC (paper: ChGraph gains 1.30x from 8->32 MB)",
        &grid(
            &[Workload::Pr, Workload::Bfs, Workload::Cc],
            &[Dataset::WebTrackers],
            &[System::ChGraph, System::Hygra],
        ),
        &[32 << 10, 64 << 10, 256 << 10, 1 << 20].map(|llc| (llc, llc_cfg(llc))),
        |llc| format!("{} KB", llc >> 10),
        fx,
    )
}

/// Regenerates Fig. 20 (1..16 cores, ChGraph vs Hygra).
pub fn fig20(h: &Harness) -> Fig20 {
    sweep(
        h,
        "Fig. 20: PR speedup vs 1 core (paper: ChGraph scales better than the baseline)",
        &grid(
            &[Workload::Pr],
            &[Dataset::WebTrackers, Dataset::LiveJournal],
            &[System::ChGraph, System::Hygra],
        ),
        &[1, 2, 4, 8, 16].map(|c| (c, h.cfg.with_system(h.cfg.system.with_cores(c)))),
        |c| format!("{c} cores"),
        fx,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn dmax_sweep_smoke() {
        let h = Harness::new(Scale(0.04));
        let f = fig17(&h);
        assert_eq!(f.samples.len(), 30);
        assert!(f.samples.iter().all(|s| s.cycles > 0));
    }

    #[test]
    fn core_sweep_monotone_smoke() {
        let h = Harness::new(Scale(0.04));
        let f = fig20(&h);
        // More cores must never be catastrophically slower: compare 1 vs 16.
        for ds in [Dataset::WebTrackers, Dataset::LiveJournal] {
            let cycles = |cores| {
                f.samples
                    .iter()
                    .find(|s| s.point == cores && s.dataset == ds && s.system == System::ChGraph)
                    .unwrap()
                    .cycles
            };
            assert!(cycles(16) < cycles(1), "{ds}: 16 cores must beat 1 core");
        }
    }
}
