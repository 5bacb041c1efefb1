//! OAG construction (preprocessing).
//!
//! Two elements `a`, `b` of the chosen side are joined by an OAG edge when
//! they share at least `W_min` opposite-side elements (*pivots*); the edge
//! weight is the number they share. This is the hypergraph preprocessing
//! the paper amortizes across algorithm executions (§IV-A, Fig. 21).
//!
//! # Symmetric half-counting
//!
//! Overlap is symmetric, so the kernel counts every pair once. Row `a`
//! walks its pivots and, from each pivot's ascending member list, scatters
//! only the suffix `b > a` into the counter. Rows run in ascending order,
//! so a per-pivot cursor (starting at the pivot list's first entry)
//! always sits on `a`'s own entry and the suffix starts right after it.
//! Each pair that reaches `W_min` then serves two rows: `b` is a candidate
//! of row `a`, and `a` is *mirrored* into row `b`, whose turn comes later.
//!
//! # Counter and drain
//!
//! The counter is a plain `u32` per row of the side, zero between rows,
//! and `touched` lists the distinct rows a scatter reached; both are
//! allocated once per build. A scatter step has no data-dependent branch:
//! it increments `counts[b]`, stores `b` at the end of `touched`
//! unconditionally, and advances the end only if the old count was zero
//! (so `touched` has one spare slot). Row `a`'s own count is held nonzero
//! during its scatter, so `a` never enters `touched` even where its pivot
//! lists contain it (a directed build), and is cleared after. The drain
//! reads each touched count with `std::mem::take`, which leaves the
//! counter zero for the next row: no clear pass, no epoch, no wraparound.
//!
//! # Output rows
//!
//! A mirrored pair waits in its row's own slots of the final
//! `edges`/`weights` arrays, so there is no side buffer. Every row reserves
//! `min(max_degree, two-hop bound)` slots, where the bound counts the other
//! members of the row's pivots within the cap, so the slots never overflow.
//! A full row keeps a floor, the lowest weight it holds; mirrored pairs
//! arrive in ascending source order and so lose weight ties, which makes a
//! pair at or below the floor cost one compare. A row's filled count and
//! floor share one 8-byte entry, since a mirrored pair reads the floor and,
//! if it enters, the count; the slot offsets are a separate array. On its
//! turn a row merges its waiting pairs with those of its forward
//! candidates above its own floor (the rest lose to every waiting pair),
//! keeps the `max_degree` heaviest in descending-weight / ascending-id
//! order (a bounded top-k selection, then a sort of the survivors) and
//! writes them back to its slots. One in-place left compaction turns the
//! padded rows into the CSR.
//!
//! The hyperedge side's pivot lists are the vertex CSR's rows, which are
//! ascending by construction. The vertex side's are the hyperedge lists,
//! sorted once by an `O(E)` transpose of the vertex CSR. Both choices
//! assume the two CSR sides are transposes of each other; a hypergraph
//! whose sides are not (a directed one) has asymmetric overlap, and there
//! every row counts its whole two-hop neighborhood and mirrors nothing.
//!
//! [`OagBuildStats`] describes the paper's full two-hop walk, not the half
//! the kernel executes: `two_hop_steps` adds `deg(p)` per visit of a pivot
//! `p` within the cap (`Σ deg(p)²` in all), `pivots_skipped` counts visits
//! of the others, and `pairs_considered` counts each distinct pair from
//! both ends, as a full walk would.

use crate::Oag;
use hypergraph::{Csr, Hypergraph, Side};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Reverse;

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

    /// Builds the OAG and reports preprocessing statistics (Fig. 21): the
    /// half-counting kernel fills every row's padded slots, which one
    /// in-place left compaction turns into the final CSR arrays.
    pub fn build_with_stats(&self, g: &Hypergraph, side: Side) -> (Oag, OagBuildStats) {
        let n = g.num_on(side);
        let pivots = Pivots::new(g, side);
        let PaddedRows { start, fill, mut edges, mut weights, mut stats } =
            self.count_pairs(g, side, &pivots);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut end = 0;
        for (&from, f) in start.iter().zip(&fill) {
            let l = f.len as usize;
            // Rows move left only: a row's slots start at or past the sum
            // of the lengths before it.
            edges.copy_within(from..from + l, end);
            weights.copy_within(from..from + l, end);
            end += l;
            // invariant: node ids are u32 and max_degree caps edges per
            // node, so the total edge count fits u32 by construction.
            offsets.push(u32::try_from(end).expect("OAG edge count fits u32"));
        }
        for v in [&mut edges, &mut weights] {
            v.truncate(end);
            v.shrink_to_fit();
        }
        stats.edges_kept = end;
        let oag = Oag::from_parts(side, self.w_min, offsets, edges, weights);
        stats.size_bytes = oag.size_bytes();
        (oag, stats)
    }

    /// The half-counting kernel over every row (see the module docs). Each
    /// row comes out final: the top-k of its forward candidates and the
    /// pairs mirrored from earlier rows, sorted. All scratch — the counter,
    /// the touched list, the row buffer — is allocated once; the drain
    /// leaves every count zero for the next row.
    fn count_pairs(&self, g: &Hypergraph, side: Side, pivots: &Pivots) -> PaddedRows {
        let n = g.num_on(side);
        let rows = g.csr_for(side);
        let lists = &*pivots.lists;
        let symmetric = pivots.symmetric;
        let pivot_cap = self.max_pivot_degree as u64;
        let mut out = PaddedRows::with_slots(n, |r| {
            // Each pivot within the cap adds at most its other members
            // (in a symmetric build the row itself is one of them).
            let bound: usize = rows
                .neighbors(r)
                .iter()
                .map(|&p| lists.degree(p as usize))
                .filter(|&d| d as u64 <= pivot_cap)
                .map(|d| d - usize::from(symmetric))
                .sum();
            bound.min(self.max_degree as usize)
        });

        // `touched[..t]` lists the distinct rows counted so far; one slot
        // past them takes the unconditional store of the next step.
        let mut counts = vec![0u32; n];
        let mut touched = vec![0u32; n + 1];
        let mut row: Vec<(u32, u32)> = Vec::new(); // (neighbor, weight)

        // Rows are visited in ascending order, so in a symmetric build row
        // `a`'s own entry in each of its pivots' lists is the first one not
        // yet passed: one cursor per pivot, starting at the list's first
        // entry, finds every suffix `b > a` without a search.
        let targets = lists.targets();
        let mut cursor: Vec<u32> = if symmetric {
            (0..lists.len()).map(|p| lists.target_range(p).0 as u32).collect()
        } else {
            Vec::new()
        };
        for a in 0..n as u32 {
            // A directed build's pivot lists may hold `a` itself: its
            // count starts nonzero, so it never enters `touched`.
            counts[a as usize] = 1;
            let mut t = 0;
            for &p in rows.neighbors(a as usize) {
                let (from, to) = lists.target_range(p as usize);
                if (to - from) as u64 > pivot_cap {
                    out.stats.pivots_skipped += 1;
                    continue;
                }
                out.stats.two_hop_steps += (to - from) as u64;
                let members = if symmetric {
                    let c = &mut cursor[p as usize];
                    debug_assert_eq!(targets[*c as usize], a, "pivot lists are the transpose");
                    *c += 1;
                    &targets[*c as usize..to]
                } else {
                    &targets[from..to]
                };
                for &b in members {
                    let c = counts[b as usize];
                    counts[b as usize] = c + 1;
                    touched[t] = b;
                    t += usize::from(c == 0);
                }
            }
            counts[a as usize] = 0;
            out.stats.pairs_considered += t as u64 * (1 + u64::from(symmetric));
            // Once the row's own slots are full, a forward candidate at or
            // below their floor cannot make the top-k: the held pairs all
            // weigh at least as much and have smaller ids.
            let floor = out.fill[a as usize].floor;
            row.clear();
            row.extend(out.row(a as usize));
            for &b in &touched[..t] {
                let w = std::mem::take(&mut counts[b as usize]);
                if w >= self.w_min {
                    if w > floor {
                        row.push((b, w));
                    }
                    if symmetric {
                        out.mirror(b as usize, a, w);
                    }
                }
            }
            self.keep_heaviest(&mut row);
            out.set_row(a as usize, &row);
        }
        debug_assert!(counts.iter().all(|&c| c == 0), "every count is taken as it drains");
        out
    }

    /// Keeps the `max_degree` heaviest entries of `row` in descending-weight
    /// / ascending-id order — the storage order the hardware's
    /// neighbor-selection stage relies on. A total order (ids are unique
    /// per row), so a bounded top-k selection followed by a sort of the k
    /// survivors yields exactly the full sort's prefix.
    fn keep_heaviest(&self, row: &mut Vec<(u32, u32)>) {
        let order = |x: &(u32, u32), y: &(u32, u32)| y.1.cmp(&x.1).then(x.0.cmp(&y.0));
        let cap = self.max_degree as usize;
        if row.len() > cap {
            row.select_nth_unstable_by(cap, order);
            row.truncate(cap);
        }
        row.sort_unstable_by(order);
    }
}

/// The member lists a build scatters from, one per pivot, and whether
/// overlap is symmetric: the lists are ascending and exactly the transpose
/// of the row side's incidence, so each pair may be counted once and
/// mirrored.
struct Pivots<'g> {
    lists: Cow<'g, Csr>,
    symmetric: bool,
}

impl<'g> Pivots<'g> {
    fn new(g: &'g Hypergraph, side: Side) -> Self {
        let rows = g.csr_for(side);
        let opposite = g.csr_for(side.opposite());
        if opposite.is_transpose_of(rows) {
            Pivots { lists: Cow::Borrowed(opposite), symmetric: true }
        } else if rows.is_transpose_of(opposite) {
            // The opposite side's lists as multisets, each sorted.
            Pivots { lists: Cow::Owned(rows.transpose(opposite.len())), symmetric: true }
        } else {
            Pivots { lists: Cow::Borrowed(opposite), symmetric: false }
        }
    }
}

/// The build's output in the padded layout: row `r` owns slots
/// `start[r]..start[r + 1]` of `edges`/`weights`, of which the first
/// `fill[r].len` are filled.
struct PaddedRows {
    start: Vec<usize>,
    fill: Vec<Fill>,
    edges: Vec<u32>,
    weights: Vec<u32>,
    stats: OagBuildStats,
}

/// A row's filled slot count and floor, side by side because a mirrored
/// pair reads the floor and, when it enters, the count.
#[derive(Clone, Copy)]
struct Fill {
    len: u32,
    /// The weight a mirrored pair must exceed to enter the row: 0 while
    /// the row has free slots, its lowest weight once full, and `u32::MAX`
    /// for a row without slots.
    floor: u32,
}

impl PaddedRows {
    /// `n` empty rows, row `r` with `slots(r)` slots.
    fn with_slots(n: usize, slots: impl Fn(usize) -> usize) -> Self {
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        let mut total = 0;
        for r in 0..n {
            total += slots(r);
            start.push(total);
        }
        let fill = start
            .windows(2)
            .map(|s| Fill { len: 0, floor: if s[0] == s[1] { u32::MAX } else { 0 } })
            .collect();
        PaddedRows {
            start,
            fill,
            edges: vec![0; total],
            weights: vec![0; total],
            stats: OagBuildStats::default(),
        }
    }

    /// The filled slots of row `r` as `(neighbor, weight)` pairs.
    fn row(&self, r: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let filled = self.start[r]..self.start[r] + self.fill[r].len as usize;
        self.edges[filled.clone()].iter().copied().zip(self.weights[filled].iter().copied())
    }

    /// Overwrites row `r` with `row`, which fits its slots.
    fn set_row(&mut self, r: usize, row: &[(u32, u32)]) {
        let from = self.start[r];
        for (k, &(b, w)) in row.iter().enumerate() {
            self.edges[from + k] = b;
            self.weights[from + k] = w;
        }
        self.fill[r].len = row.len() as u32;
    }

    /// Offers the pair `(a, w)` to row `b`, keeping the row's top-k. Pairs
    /// arrive in ascending `a`, so a newcomer loses every weight tie: it
    /// enters a full row only above the floor, evicting the lowest-weight
    /// pair with the highest id.
    fn mirror(&mut self, b: usize, a: u32, w: u32) {
        if w <= self.fill[b].floor {
            return;
        }
        let slots = self.start[b]..self.start[b + 1];
        let filled = self.fill[b].len as usize;
        let k = if filled < slots.len() {
            self.fill[b].len += 1;
            slots.start + filled
        } else {
            slots
                .clone()
                .min_by_key(|&k| (self.weights[k], Reverse(self.edges[k])))
                .expect("a full row with a floor below u32::MAX has slots")
        };
        self.edges[k] = a;
        self.weights[k] = w;
        if self.fill[b].len as usize == slots.len() {
            self.fill[b].floor = self.weights[slots].iter().copied().min().unwrap_or(u32::MAX);
        }
    }
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
    /// Steps of the full bipartite two-hop walk the paper's preprocessing
    /// performs (the dominant cost): `Σ deg(p)²` over the pivots `p`
    /// within the cap. The half-counting build executes about half.
    pub two_hop_steps: u64,
    /// Distinct candidate pairs examined against `W_min`, each pair counted
    /// from both of its ends: twice the number of distinct two-hop pairs
    /// (ordered pairs in a directed build). Unlike `two_hop_steps` and
    /// `pivots_skipped`, this is no closed form over pivot degrees, so a
    /// build that skips pairs (prefix filtering for `W_min` ≥ 2, say) must
    /// still enumerate every pair to report it, or change this field and
    /// the stats cache format.
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
    fn builds_match_reference_on_every_dataset() {
        use hypergraph::datasets::Dataset;
        for ds in Dataset::ALL {
            let g = ds.load();
            for w_min in [1, 3] {
                let cfg = OagConfig::new().with_w_min(w_min);
                for side in [Side::Hyperedge, Side::Vertex] {
                    let want = crate::reference::build_with_stats(&cfg, &g, side);
                    let got = cfg.build_with_stats(&g, side);
                    assert!(got == want, "{ds} W_min {w_min} {side:?}");
                }
            }
        }
    }

    #[test]
    fn directed_hypergraph_counts_without_mirroring() {
        // The two CSR sides of a directed hypergraph are not transposes, so
        // overlap is asymmetric; every configuration must still match the
        // reference's full walk.
        use hypergraph::directed::DirectedHypergraphBuilder;
        use hypergraph::VertexId;
        let und = GeneratorConfig::new(300, 200).with_seed(9).generate();
        let mut b = DirectedHypergraphBuilder::new(und.num_vertices());
        for h in 0..und.num_hyperedges() as u32 {
            let vs = und.incidence(Side::Hyperedge, h);
            let mid = vs.len().div_ceil(2);
            let ids = |s: &[u32]| s.iter().map(|&v| VertexId::new(v)).collect::<Vec<_>>();
            b.add_hyperedge(ids(&vs[..mid]), ids(&vs[mid..])).unwrap();
        }
        let g = b.build();
        for cfg in [OagConfig::new().with_w_min(1), OagConfig::new().with_max_degree(u32::MAX)] {
            for side in [Side::Hyperedge, Side::Vertex] {
                assert!(!Pivots::new(&g, side).symmetric, "{side:?}");
                let want = crate::reference::build_with_stats(&cfg, &g, side);
                assert!(cfg.build_with_stats(&g, side) == want, "{side:?}");
            }
        }
    }

    /// The modelled work of a build, in closed form over the pivots `p` of
    /// the opposite side: the paper's full two-hop walk expands every pivot
    /// within the cap once per member, `deg(p)` steps each, and skips every
    /// other pivot once per member. Returns `(two_hop_steps, pivots_skipped)`.
    fn modelled_work(g: &hypergraph::Hypergraph, side: Side, cap: u32) -> (u64, u64) {
        let pivots = side.opposite();
        (0..g.num_on(pivots) as u32).map(|p| g.degree(pivots, p) as u64).fold(
            (0, 0),
            |(steps, skipped), d| {
                if d > cap as u64 {
                    (steps, skipped + d)
                } else {
                    (steps + d * d, skipped)
                }
            },
        )
    }

    #[test]
    fn stats_count_the_full_two_hop_walk_on_every_dataset() {
        // `two_hop_steps` and `pivots_skipped` describe the paper's
        // preprocessing (the cost model behind Fig. 21/22 charges them),
        // not whatever loop the host runs: both equal their closed forms,
        // for the reference kernel and the production build alike.
        use hypergraph::datasets::Dataset;
        for ds in Dataset::ALL {
            let g = ds.load();
            for cap in [OagConfig::new().max_pivot_degree, 16] {
                let cfg = OagConfig::new().with_max_pivot_degree(cap);
                for side in [Side::Hyperedge, Side::Vertex] {
                    let (steps, skipped) = modelled_work(&g, side, cap);
                    let (_, reference) = crate::reference::build_with_stats(&cfg, &g, side);
                    let (_, built) = cfg.build_with_stats(&g, side);
                    assert_eq!(reference.two_hop_steps, steps, "{ds} {side:?} cap {cap}");
                    assert_eq!(reference.pivots_skipped, skipped, "{ds} {side:?} cap {cap}");
                    assert_eq!(built, reference, "{ds} {side:?} cap {cap}");
                }
            }
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
