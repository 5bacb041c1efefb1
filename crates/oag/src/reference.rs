//! Retained reference kernels (pre-flattening implementations).
//!
//! These are the OAG-construction and chain-generation kernels exactly as
//! they shipped before the cache-friendly rewrite: two-hop counting with a
//! clear-as-you-drain dense counter (a zeroing store per drained candidate
//! per row) and a full-row sort ahead of the degree cap, and a chain walk
//! that allocates a fresh `Vec<bool>` visited array per invocation.
//!
//! Compiled only under `cfg(test)` or the `reference-kernels` feature.
//! The workspace identity suite proves the optimized kernels produce
//! byte-identical [`Oag`]s / [`ChainSet`]s / build statistics against
//! these, across random geometries and datasets.

use crate::{ChainConfig, ChainObserver, ChainSet, NoopObserver, Oag, OagBuildStats, OagConfig};
use hypergraph::{Frontier, Hypergraph, Side};
use std::ops::Range;

/// The pre-rewrite serial OAG build, preserved verbatim from the original
/// span-and-merge pipeline: two-hop counting with a clear-as-you-drain
/// scratch and a full-row sort, rows staged into span-local buffers, then
/// a merge pass copying them into the final CSR arrays (the original
/// serial path paid that concatenation with a single span). Produces the same
/// `(Oag, OagBuildStats)` as [`OagConfig::build_with_stats`].
pub fn build_with_stats(cfg: &OagConfig, g: &Hypergraph, side: Side) -> (Oag, OagBuildStats) {
    let n = g.num_on(side);

    // --- staging: count the single span 0..n into span-local buffers ---
    let mut stats = OagBuildStats::default();

    // Sparse per-row counter: counts[b] = overlap weight with the pivot
    // row; `touched` remembers which slots to reset.
    let mut counts = vec![0u32; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut row: Vec<(u32, u32)> = Vec::new(); // (neighbor, weight)

    let mut row_lens: Vec<u32> = Vec::with_capacity(n);
    let mut span_edges: Vec<u32> = Vec::new();
    let mut span_weights: Vec<u32> = Vec::new();
    for a in 0..n as u32 {
        for &mid in g.incidence(side, a) {
            let pivot_deg = g.degree(side.opposite(), mid);
            if pivot_deg as u64 > cfg.max_pivot_degree as u64 {
                stats.pivots_skipped += 1;
                continue;
            }
            for &b in g.incidence(side.opposite(), mid) {
                stats.two_hop_steps += 1;
                if b == a {
                    continue;
                }
                if counts[b as usize] == 0 {
                    touched.push(b);
                }
                counts[b as usize] += 1;
            }
        }
        row.clear();
        for &b in &touched {
            let w = counts[b as usize];
            counts[b as usize] = 0;
            stats.pairs_considered += 1;
            if w >= cfg.w_min {
                row.push((b, w));
            }
        }
        touched.clear();
        // Descending weight, ascending id on ties — the storage order the
        // hardware's neighbor-selection stage relies on.
        row.sort_unstable_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        row.truncate(cfg.max_degree as usize);
        stats.edges_kept += row.len();
        row_lens.push(row.len() as u32);
        for &(b, w) in &row {
            span_edges.push(b);
            span_weights.push(w);
        }
    }

    // --- merge: prefix-sum the offsets and copy the staged arrays ---
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut edges = Vec::with_capacity(span_edges.len());
    let mut weights = Vec::with_capacity(span_weights.len());
    let mut running = 0u64;
    for len in row_lens {
        running += len as u64;
        // invariant: node ids are u32 and max_degree caps edges per node,
        // so the total edge count fits u32 by construction.
        offsets.push(u32::try_from(running).expect("OAG edge count fits u32"));
    }
    edges.extend_from_slice(&span_edges);
    weights.extend_from_slice(&span_weights);
    let oag = Oag::from_parts(side, cfg.w_min, offsets, edges, weights);
    stats.size_bytes = oag.size_bytes();
    (oag, stats)
}

/// The pre-rewrite chain walk: fresh `vec![false; width]` visited array and
/// unreserved chain queue per call. Produces the same [`ChainSet`] (and the
/// same observer event sequence) as [`crate::generate_chains`].
pub fn generate_chains(
    oag: &Oag,
    frontier: &Frontier,
    range: Range<u32>,
    cfg: &ChainConfig,
) -> ChainSet {
    generate_chains_observed(oag, frontier, range, cfg, &mut NoopObserver)
}

/// [`generate_chains`] with a [`ChainObserver`] receiving every micro-step.
pub fn generate_chains_observed<O: ChainObserver>(
    oag: &Oag,
    frontier: &Frontier,
    range: Range<u32>,
    cfg: &ChainConfig,
    observer: &mut O,
) -> ChainSet {
    assert!(range.end as usize <= oag.len(), "chunk range exceeds OAG size");
    assert!(frontier.universe() >= oag.len(), "frontier universe smaller than OAG");
    let mut chains = ChainSet::new();
    if range.is_empty() {
        return chains;
    }
    let mut visited = vec![false; (range.end - range.start) as usize];
    let in_range = |e: u32| (range.start..range.end).contains(&e);
    let vis_idx = |e: u32| (e - range.start) as usize;

    for root in range.clone() {
        observer.bitmap_scan(root);
        if visited[vis_idx(root)] || !frontier.contains(root) {
            continue;
        }
        chains.begin_chain();
        let mut current = root;
        visited[vis_idx(current)] = true;
        observer.emit(current);
        chains.push_element(current);
        let mut depth = 1usize;
        'walk: while depth < cfg.d_max {
            observer.offsets_fetch(current);
            let (lo, hi) = oag.edge_range(current);
            let neighbors = oag.edges();
            let mut next = None;
            for (j, &cand) in neighbors.iter().enumerate().take(hi).skip(lo) {
                observer.edge_scan(j);
                if in_range(cand) && !visited[vis_idx(cand)] && frontier.contains(cand) {
                    next = Some(cand);
                    break;
                }
            }
            let Some(cand) = next else {
                break 'walk;
            };
            current = cand;
            visited[vis_idx(current)] = true;
            observer.emit(current);
            chains.push_element(current);
            depth += 1;
        }
        observer.chain_end();
    }
    chains.end_generation();
    chains
}
