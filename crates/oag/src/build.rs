//! OAG construction (preprocessing).
//!
//! For every element `a` of the chosen side, the builder walks the two-hop
//! bipartite neighborhood (`a -> shared opposite element -> b`) counting how
//! many opposite-side elements each candidate `b` shares with `a`. Pairs with
//! count `>= W_min` become OAG edges. This is the hypergraph preprocessing
//! the paper amortizes across algorithm executions (§IV-A, Fig. 21).

use crate::Oag;
use hypergraph::epoch::EpochCounters;
use hypergraph::{Hypergraph, Side};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Configuration of OAG construction.
///
/// ```
/// use hypergraph::Side;
/// use oag::OagConfig;
/// let g = hypergraph::fig1_example();
/// let oag = OagConfig::new().with_w_min(2).build(&g, Side::Hyperedge);
/// assert_eq!(oag.weight(1, 2), None); // weight-1 edge filtered out
/// assert_eq!(oag.weight(0, 2), Some(2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct OagConfig {
    /// Minimum overlap weight for an edge to be kept. The paper empirically
    /// sets 3 (§IV-A); correctness never depends on this value.
    pub w_min: u32,
    /// Pivot-degree cap: opposite-side elements incident to more than this
    /// many `side` elements are skipped during two-hop counting. Such hubs
    /// connect nearly everything to nearly everything with near-uniform
    /// weight, exploding preprocessing cost while adding little locality
    /// signal; skipping them only drops OAG edges, which (like `W_min`)
    /// cannot affect correctness. `u32::MAX` disables the cap.
    pub max_pivot_degree: u32,
    /// Maximum OAG degree kept per element (highest-weight edges win).
    /// Bounds both OAG storage and the hardware's neighbor-scan work.
    pub max_degree: u32,
}

impl OagConfig {
    /// Paper defaults: `W_min = 3`, pivot cap 256, degree cap 16.
    pub fn new() -> Self {
        OagConfig { w_min: 3, max_pivot_degree: 256, max_degree: 16 }
    }

    /// Sets `W_min` (minimum 1).
    pub fn with_w_min(mut self, w_min: u32) -> Self {
        self.w_min = w_min.max(1);
        self
    }

    /// Sets the pivot-degree cap.
    pub fn with_max_pivot_degree(mut self, cap: u32) -> Self {
        self.max_pivot_degree = cap.max(1);
        self
    }

    /// Sets the per-element OAG degree cap.
    pub fn with_max_degree(mut self, cap: u32) -> Self {
        self.max_degree = cap.max(1);
        self
    }

    /// Builds the OAG for `side` elements of `g`.
    pub fn build(&self, g: &Hypergraph, side: Side) -> Oag {
        self.build_with_stats(g, side).0
    }

    /// Builds the OAG and reports preprocessing statistics (Fig. 21).
    pub fn build_with_stats(&self, g: &Hypergraph, side: Side) -> (Oag, OagBuildStats) {
        self.build_with_stats_threads(g, side, 1)
    }

    /// Builds the OAG across `threads` worker threads.
    ///
    /// The result is **bit-identical** to the serial build for any thread
    /// count: each row of the OAG depends only on its own source element, so
    /// the source range is split into contiguous spans, every span is counted
    /// with private scratch buffers, and the spans are concatenated back in
    /// index order. The descending-weight / ascending-id row order (the
    /// storage contract of the hardware's neighbor-selection stage) is
    /// established per row and therefore unaffected by the split.
    pub fn build_threads(&self, g: &Hypergraph, side: Side, threads: usize) -> Oag {
        self.build_with_stats_threads(g, side, threads).0
    }

    /// Builds the OAG and statistics across `threads` worker threads (see
    /// [`build_threads`](Self::build_threads) for the determinism contract).
    pub fn build_with_stats_threads(
        &self,
        g: &Hypergraph,
        side: Side,
        threads: usize,
    ) -> (Oag, OagBuildStats) {
        let n = g.num_on(side);
        let threads = threads.max(1).min(n.max(1));
        if threads == 1 {
            // Serial fast path: rows stream straight into the final CSR
            // arrays, skipping the per-span staging buffers and their
            // merge copy entirely.
            return self.build_serial(g, side, 0);
        }
        let spans: Vec<Range<u32>> = {
            let per = n.div_ceil(threads);
            (0..threads)
                .map(|t| {
                    let lo = (t * per).min(n) as u32;
                    let hi = ((t + 1) * per).min(n) as u32;
                    lo..hi
                })
                .collect()
        };
        let parts: Vec<SpanRows> = std::thread::scope(|scope| {
            let handles: Vec<_> = spans
                .into_iter()
                .map(|s| scope.spawn(move || self.count_span(g, side, s)))
                .collect();
            // invariant: count_rows is pure arithmetic over a
            // validated graph; a panic there is a bug, and silently
            // dropping a span would corrupt the merged OAG, so the
            // panic is re-propagated rather than recovered.
            handles.into_iter().map(|h| h.join().expect("OAG span worker panicked")).collect()
        });

        // Merge spans in index order: offsets by prefix sum, edge/weight
        // arrays by concatenation, statistics by field-wise summation.
        let mut stats = OagBuildStats::default();
        let total: usize = parts.iter().map(|p| p.edges.len()).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut edges = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        let mut running = 0u64;
        for part in parts {
            for len in part.row_lens {
                running += len as u64;
                // invariant: node ids are u32 and max_degree caps edges
                // per node, so the total edge count fits u32 by
                // construction.
                offsets.push(u32::try_from(running).expect("OAG edge count fits u32"));
            }
            edges.extend_from_slice(&part.edges);
            weights.extend_from_slice(&part.weights);
            stats.two_hop_steps += part.stats.two_hop_steps;
            stats.pairs_considered += part.stats.pairs_considered;
            stats.edges_kept += part.stats.edges_kept;
            stats.pivots_skipped += part.stats.pivots_skipped;
        }
        let oag = Oag::from_parts(side, self.w_min, offsets, edges, weights);
        stats.size_bytes = oag.size_bytes();
        (oag, stats)
    }

    /// Two-hop counting over a contiguous span of source elements, handing
    /// each finished `(neighbor, weight)` row — already degree-capped and
    /// in descending-weight / ascending-id order — to `emit`. All scratch —
    /// the epoch-tagged counter, the touched list, and the per-row
    /// candidate buffer — is allocated once and reused across rows; the
    /// counter is "cleared" between rows by an epoch bump
    /// ([`EpochCounters::begin`]) instead of per-slot zeroing stores, and
    /// the degree cap uses a bounded top-k selection rather than a
    /// full-row sort. `initial_epoch` parks the epoch counter for the
    /// wraparound tests; production paths pass 0 (ignored).
    fn count_rows(
        &self,
        g: &Hypergraph,
        side: Side,
        span: Range<u32>,
        initial_epoch: u32,
        mut emit: impl FnMut(&[(u32, u32)]),
    ) -> OagBuildStats {
        let n = g.num_on(side);
        let mut stats = OagBuildStats::default();

        // Dense per-row counter: counts.get(b) = overlap weight with the
        // pivot row; `touched` remembers which slots to drain.
        let mut counts = EpochCounters::new();
        counts.begin(n);
        if initial_epoch != 0 {
            counts.force_epoch(initial_epoch);
        }
        let mut touched: Vec<u32> = Vec::new();
        let mut row: Vec<(u32, u32)> = Vec::new(); // (neighbor, weight)
        let cap = self.max_degree as usize;
        // Descending weight, ascending id on ties — the storage order the
        // hardware's neighbor-selection stage relies on. A total order
        // (ids are unique per row), so top-k selection + sort of the k
        // survivors yields exactly the full sort's prefix.
        let order = |x: &(u32, u32), y: &(u32, u32)| y.1.cmp(&x.1).then(x.0.cmp(&y.0));

        for a in span {
            counts.begin(n);
            for &mid in g.incidence(side, a) {
                let pivot_deg = g.degree(side.opposite(), mid);
                if pivot_deg as u64 > self.max_pivot_degree as u64 {
                    stats.pivots_skipped += 1;
                    continue;
                }
                for &b in g.incidence(side.opposite(), mid) {
                    stats.two_hop_steps += 1;
                    if b == a {
                        continue;
                    }
                    if counts.add(b as usize) == 1 {
                        touched.push(b);
                    }
                }
            }
            row.clear();
            for b in touched.drain(..) {
                let w = counts.get(b as usize);
                stats.pairs_considered += 1;
                if w >= self.w_min {
                    row.push((b, w));
                }
            }
            if row.len() > cap {
                // Bounded top-k: partition the k heaviest candidates to the
                // front, then sort only those k.
                row.select_nth_unstable_by(cap, order);
                row.truncate(cap);
            }
            row.sort_unstable_by(order);
            stats.edges_kept += row.len();
            emit(&row);
        }
        stats
    }

    /// [`count_rows`](Self::count_rows) staged into per-span buffers for
    /// the threaded build's index-order merge.
    fn count_span(&self, g: &Hypergraph, side: Side, span: Range<u32>) -> SpanRows {
        let mut out = SpanRows {
            row_lens: Vec::with_capacity(span.len()),
            edges: Vec::new(),
            weights: Vec::new(),
            stats: OagBuildStats::default(),
        };
        out.stats = self.count_rows(g, side, span, 0, |row| {
            out.row_lens.push(row.len() as u32);
            for &(b, w) in row {
                out.edges.push(b);
                out.weights.push(w);
            }
        });
        out
    }

    /// The serial build: rows stream directly into the final CSR arrays
    /// with no intermediate staging. `initial_epoch` as in
    /// [`count_rows`](Self::count_rows).
    fn build_serial(&self, g: &Hypergraph, side: Side, initial_epoch: u32) -> (Oag, OagBuildStats) {
        let n = g.num_on(side);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut edges: Vec<u32> = Vec::new();
        let mut weights: Vec<u32> = Vec::new();
        let mut running = 0u64;
        let mut stats = self.count_rows(g, side, 0..n as u32, initial_epoch, |row| {
            running += row.len() as u64;
            // invariant: node ids are u32 and max_degree caps edges per
            // node, so the total edge count fits u32 by construction.
            offsets.push(u32::try_from(running).expect("OAG edge count fits u32"));
            for &(b, w) in row {
                edges.push(b);
                weights.push(w);
            }
        });
        let oag = Oag::from_parts(side, self.w_min, offsets, edges, weights);
        stats.size_bytes = oag.size_bytes();
        (oag, stats)
    }

    /// [`build_with_stats`](Self::build_with_stats) with the counting
    /// scratch's epoch counter parked at `epoch` before the first row —
    /// wraparound-coverage support: the identity tests start just below
    /// `u32::MAX` and prove the output matches the reference kernel across
    /// the wrap. Serial only; compiled for tests and the
    /// `reference-kernels` feature.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn build_with_stats_at_epoch(
        &self,
        g: &Hypergraph,
        side: Side,
        epoch: u32,
    ) -> (Oag, OagBuildStats) {
        self.build_serial(g, side, epoch.max(1))
    }
}

/// Rows produced for one contiguous span of source elements.
struct SpanRows {
    row_lens: Vec<u32>,
    edges: Vec<u32>,
    weights: Vec<u32>,
    stats: OagBuildStats,
}

impl Default for OagConfig {
    fn default() -> Self {
        OagConfig::new()
    }
}

/// Preprocessing statistics of one OAG build, feeding the Fig. 21
/// preprocessing-overhead experiment.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct OagBuildStats {
    /// Bipartite two-hop traversal steps performed (the dominant cost).
    pub two_hop_steps: u64,
    /// Distinct candidate pairs examined against `W_min`.
    pub pairs_considered: u64,
    /// Directed edge entries kept in the OAG.
    pub edges_kept: usize,
    /// Pivot expansions skipped by the pivot-degree cap.
    pub pivots_skipped: u64,
    /// Final OAG size in bytes.
    pub size_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::{fig1_example, generate::GeneratorConfig};

    #[test]
    fn symmetric_weights() {
        let g = GeneratorConfig::new(400, 300).with_seed(21).generate();
        let oag =
            OagConfig::new().with_w_min(1).with_max_degree(u32::MAX).build(&g, Side::Hyperedge);
        for a in 0..oag.len() as u32 {
            for (&b, &w) in oag.neighbors(a).iter().zip(oag.weights_of(a)) {
                assert_eq!(oag.weight(b, a), Some(w), "edge ({a},{b}) not symmetric");
            }
        }
    }

    #[test]
    fn matches_naive_reference_on_small_inputs() {
        let g = GeneratorConfig::new(120, 80).with_seed(33).generate();
        let oag =
            OagConfig::new().with_w_min(2).with_max_degree(u32::MAX).build(&g, Side::Hyperedge);
        // Naive O(|H|^2) intersection counting.
        for a in 0..g.num_hyperedges() as u32 {
            for b in 0..g.num_hyperedges() as u32 {
                if a == b {
                    continue;
                }
                let sa = g.incidence(Side::Hyperedge, a);
                let sb = g.incidence(Side::Hyperedge, b);
                let w = sa.iter().filter(|v| sb.contains(v)).count() as u32;
                if w >= 2 {
                    assert_eq!(oag.weight(a, b), Some(w), "({a},{b})");
                } else {
                    assert_eq!(oag.weight(a, b), None, "({a},{b})");
                }
            }
        }
    }

    #[test]
    fn w_min_filters_edges() {
        let g = fig1_example();
        let all = OagConfig::new().with_w_min(1).build(&g, Side::Hyperedge);
        let filtered = OagConfig::new().with_w_min(2).build(&g, Side::Hyperedge);
        assert_eq!(all.num_edge_entries(), 6);
        assert_eq!(filtered.num_edge_entries(), 4); // (h1,h2) w=1 dropped both ways
        let heavy = OagConfig::new().with_w_min(3).build(&g, Side::Hyperedge);
        assert_eq!(heavy.num_edge_entries(), 0);
    }

    #[test]
    fn vertex_side_oag() {
        let g = fig1_example();
        let oag = OagConfig::new().with_w_min(1).build(&g, Side::Vertex);
        assert_eq!(oag.len(), 7);
        // v0 and v4 are both in h0 and h2: weight 2.
        assert_eq!(oag.weight(0, 4), Some(2));
        // v0 and v6 share only h0.
        assert_eq!(oag.weight(0, 6), Some(1));
        // v0 and v1 share nothing.
        assert_eq!(oag.weight(0, 1), None);
    }

    #[test]
    fn degree_cap_keeps_heaviest() {
        let g = GeneratorConfig::new(300, 400).with_seed(5).generate();
        let full =
            OagConfig::new().with_w_min(1).with_max_degree(u32::MAX).build(&g, Side::Hyperedge);
        let capped = OagConfig::new().with_w_min(1).with_max_degree(2).build(&g, Side::Hyperedge);
        for a in 0..capped.len() as u32 {
            assert!(capped.degree(a) <= 2);
            if capped.degree(a) == 2 {
                // The kept edges must be at least as heavy as any dropped one.
                let kept_min = *capped.weights_of(a).iter().min().unwrap();
                let full_max_dropped = full
                    .weights_of(a)
                    .iter()
                    .zip(full.neighbors(a))
                    .filter(|&(_, n)| !capped.neighbors(a).contains(n))
                    .map(|(w, _)| *w)
                    .max()
                    .unwrap_or(0);
                assert!(kept_min >= full_max_dropped);
            }
        }
    }

    #[test]
    fn pivot_cap_reduces_work() {
        let g = GeneratorConfig::new(500, 800).with_seed(77).generate();
        let (_, full) =
            OagConfig::new().with_max_pivot_degree(u32::MAX).build_with_stats(&g, Side::Hyperedge);
        let (_, capped) =
            OagConfig::new().with_max_pivot_degree(8).build_with_stats(&g, Side::Hyperedge);
        assert!(capped.two_hop_steps < full.two_hop_steps);
        assert!(capped.pivots_skipped > 0);
        assert_eq!(full.pivots_skipped, 0);
    }

    #[test]
    fn optimized_build_matches_reference_kernel() {
        for (seed, w_min, max_deg, pivot_cap) in [
            (21u64, 1u32, u32::MAX, u32::MAX),
            (33, 2, 16, 256),
            (5, 3, 4, 8),
            (77, 1, 2, u32::MAX),
        ] {
            let g = GeneratorConfig::new(400, 300).with_seed(seed).generate();
            let cfg = OagConfig::new()
                .with_w_min(w_min)
                .with_max_degree(max_deg)
                .with_max_pivot_degree(pivot_cap);
            for side in [Side::Hyperedge, Side::Vertex] {
                let (opt, opt_stats) = cfg.build_with_stats(&g, side);
                let (reference, ref_stats) = crate::reference::build_with_stats(&cfg, &g, side);
                assert_eq!(opt, reference, "seed {seed} {side:?}");
                assert_eq!(opt_stats, ref_stats, "seed {seed} {side:?}");
            }
        }
    }

    #[test]
    fn epoch_wraparound_does_not_corrupt_counts() {
        let g = GeneratorConfig::new(300, 200).with_seed(13).generate();
        let cfg = OagConfig::new().with_w_min(1).with_max_degree(8);
        let (reference, ref_stats) = crate::reference::build_with_stats(&cfg, &g, Side::Hyperedge);
        // Park the epoch counter so it wraps mid-build (one bump per row,
        // 200 rows, wrap forced within the first few).
        for start in [u32::MAX - 3, u32::MAX - 100, u32::MAX] {
            let (opt, opt_stats) = cfg.build_with_stats_at_epoch(&g, Side::Hyperedge, start);
            assert_eq!(opt, reference, "start epoch {start}");
            assert_eq!(opt_stats, ref_stats, "start epoch {start}");
        }
    }

    #[test]
    fn stats_report_size() {
        let g = fig1_example();
        let (oag, stats) = OagConfig::new().with_w_min(1).build_with_stats(&g, Side::Hyperedge);
        assert_eq!(stats.size_bytes, oag.size_bytes());
        assert_eq!(stats.edges_kept, oag.num_edge_entries());
        assert!(stats.two_hop_steps > 0);
    }
}
