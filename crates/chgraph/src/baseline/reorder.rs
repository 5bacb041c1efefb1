//! The reordering technique (§VI-H, Fig. 24).
//!
//! A locality-aware renumbering assigns incident vertices of each hyperedge
//! close-by ids (BFS discovery order over the bipartite structure), which
//! improves *spatial* locality. ChGraph improves *temporal* locality, so
//! the two compose — but the paper finds the reordering overhead offsets
//! its benefit. [`run_reordered`] reproduces that comparison: it reorders
//! the input, runs any system on it, and charges the reordering cost as
//! additional preprocessing.

use crate::{Algorithm, ExecError, ExecutionReport, RunConfig, System};
use hypergraph::{Csr, Hypergraph, Side};

/// Cycles charged per bipartite edge visited during the BFS renumbering —
/// a queue-driven traversal with random-access visited flags is far slower
/// per edge than sequential CSR construction.
pub const CYCLES_PER_REORDER_EDGE: u64 = 90;

/// Renumbers vertices and hyperedges in BFS discovery order over the
/// bipartite structure, returning the reordered hypergraph and the number
/// of traversal operations performed.
///
/// The transformation preserves structure (it is an isomorphism): element
/// counts, degrees and overlaps are unchanged; only ids move.
pub fn reorder(g: &Hypergraph) -> (Hypergraph, u64) {
    let nv = g.num_vertices();
    let nh = g.num_hyperedges();
    // new id assigned in discovery order; u32::MAX = undiscovered.
    let mut v_new = vec![u32::MAX; nv];
    let mut h_new = vec![u32::MAX; nh];
    let mut next_v = 0u32;
    let mut next_h = 0u32;
    let mut ops = 0u64;
    let mut queue = std::collections::VecDeque::new();
    for seed in 0..nv as u32 {
        if v_new[seed as usize] != u32::MAX {
            continue;
        }
        v_new[seed as usize] = next_v;
        next_v += 1;
        queue.push_back((Side::Vertex, seed));
        while let Some((side, id)) = queue.pop_front() {
            for &n in g.incidence(side, id) {
                ops += 1;
                let slot = match side {
                    Side::Vertex => &mut h_new[n as usize],
                    Side::Hyperedge => &mut v_new[n as usize],
                };
                if *slot == u32::MAX {
                    *slot = match side {
                        Side::Vertex => {
                            next_h += 1;
                            next_h - 1
                        }
                        Side::Hyperedge => {
                            next_v += 1;
                            next_v - 1
                        }
                    };
                    queue.push_back((side.opposite(), n));
                }
            }
        }
    }
    // Hyperedges never reached from any vertex cannot exist (hyperedges are
    // non-empty), but be defensive.
    for h in h_new.iter_mut() {
        if *h == u32::MAX {
            *h = next_h;
            next_h += 1;
        }
    }

    // Rebuild: row r of the new hyperedge CSR is old hyperedge with
    // h_new == r; entries renumbered through v_new.
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); nh];
    for (old_h, &mapped) in h_new.iter().enumerate().take(nh) {
        let new_h = mapped as usize;
        rows[new_h] =
            g.incidence(Side::Hyperedge, old_h as u32).iter().map(|&v| v_new[v as usize]).collect();
        // Sort incident vertices so close ids sit together in the line.
        rows[new_h].sort_unstable();
        ops += rows[new_h].len() as u64;
    }
    let hyperedge_csr = Csr::from_adjacency(rows);
    let vertex_csr = hyperedge_csr.transpose(nv);
    (Hypergraph::from_csr(hyperedge_csr, vertex_csr), ops)
}

/// Runs `system` on the reordered hypergraph, charging the reordering cost
/// to preprocessing (Fig. 24's `Hygra+Reordering` / `ChGraph+Reordering`
/// configurations).
pub fn run_reordered(
    system: System,
    g: &Hypergraph,
    algo: &dyn Algorithm,
    cfg: &RunConfig,
) -> Result<ExecutionReport, ExecError> {
    let (reordered, ops) = reorder(g);
    let mut report = system.run(&reordered, algo, cfg, None)?;
    report.preprocess.cycles_estimate += ops * CYCLES_PER_REORDER_EDGE;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::{HyperedgeId, VertexId};

    #[test]
    fn reorder_preserves_structure() {
        let g = hypergraph::generate::GeneratorConfig::new(500, 400).with_seed(2).generate();
        let (r, ops) = reorder(&g);
        assert_eq!(r.num_vertices(), g.num_vertices());
        assert_eq!(r.num_hyperedges(), g.num_hyperedges());
        assert_eq!(r.num_bipartite_edges(), g.num_bipartite_edges());
        assert!(ops >= g.num_bipartite_edges() as u64);
        // Degree multiset preserved.
        let degs = |g: &Hypergraph| {
            let mut d: Vec<usize> = (0..g.num_hyperedges())
                .map(|h| g.hyperedge_degree(HyperedgeId::from_index(h)))
                .collect();
            d.sort_unstable();
            d
        };
        assert_eq!(degs(&g), degs(&r));
        let vdegs = |g: &Hypergraph| {
            let mut d: Vec<usize> =
                (0..g.num_vertices()).map(|v| g.vertex_degree(VertexId::from_index(v))).collect();
            d.sort_unstable();
            d
        };
        assert_eq!(vdegs(&g), vdegs(&r));
    }

    #[test]
    fn reorder_improves_incident_id_locality() {
        let g = hypergraph::datasets::Dataset::LiveJournal.config().with_seed(123).generate();
        let spread = |g: &Hypergraph| -> f64 {
            let mut total = 0u64;
            let mut n = 0u64;
            for h in 0..g.num_hyperedges() {
                let vs = g.incidence(Side::Hyperedge, h as u32);
                for w in vs.windows(2) {
                    total += (w[1] as i64 - w[0] as i64).unsigned_abs();
                    n += 1;
                }
            }
            total as f64 / n.max(1) as f64
        };
        let (r, _) = reorder(&g);
        assert!(
            spread(&r) < spread(&g),
            "BFS renumbering should shrink the id spread within hyperedges"
        );
    }

    #[test]
    fn reorder_ids_are_dense_permutations() {
        let g = hypergraph::fig1_example();
        let (r, _) = reorder(&g);
        // Every vertex id appears exactly once across incidence lists'
        // universe: check via degree > 0 count preserved.
        assert_eq!(r.num_vertices(), 7);
        let total: usize = (0..7).map(|v| r.vertex_degree(VertexId::from_index(v))).sum();
        assert_eq!(total, 12);
    }
}
