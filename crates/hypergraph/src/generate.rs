//! Deterministic synthetic hypergraph generators.
//!
//! The paper evaluates on five SNAP/KONECT hypergraphs (Table II). Those
//! datasets are not redistributable inside this repository, so this module
//! provides a seeded **family-model** generator whose overlap is
//! *structural*, matching the mechanism the paper exploits.
//!
//! Real hypergraphs overlap because groups of hyperedges are near-copies of
//! one another — papers by the same authors, posts in the same group,
//! trackers on the same site. The generator reproduces this directly:
//! hyperedges are produced in **families**; each family draws a *template*
//! vertex set, and every member hyperedge keeps each template vertex with
//! probability `member_prob` plus a few uniformly random *noise* vertices.
//! Hyperedge ids are globally shuffled afterwards, so index order carries no
//! family locality (as with crawl-ordered real datasets): index-ordered
//! systems re-fetch each family's shared vertices from memory over and over,
//! while chain-driven scheduling can line family members up back-to-back.
//!
//! Two knobs set a dataset's place on the Fig. 8 overlap spectrum:
//! `family_size` (how many hyperedges share a template — vertex sharing
//! depth) and `member_prob` (how much consecutive members overlap).
//! Generation is deterministic for a given [`GeneratorConfig`].

use crate::{Hypergraph, HypergraphBuilder, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the family-model hypergraph generator.
///
/// ```
/// use hypergraph::generate::GeneratorConfig;
/// let g = GeneratorConfig::new(1_000, 400).with_seed(7).generate();
/// assert_eq!(g.num_vertices(), 1_000);
/// assert_eq!(g.num_hyperedges(), 400);
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of vertices `|V|`.
    pub num_vertices: usize,
    /// Number of hyperedges `|H|`.
    pub num_hyperedges: usize,
    /// Minimum family size (hyperedges per template).
    pub family_min: usize,
    /// Maximum family size. Real datasets have heavy-tailed family sizes:
    /// a few very large groups of near-duplicate hyperedges dominate the
    /// bipartite edges even when most *vertices* are shared only shallowly
    /// (the paper's Fig. 8 profile).
    pub family_max: usize,
    /// Exponent of the truncated power-law family-size distribution
    /// (smaller = heavier tail = more edge mass in large families).
    pub family_exponent: f64,
    /// Minimum template size (distinct vertices underlying a family).
    pub template_min: usize,
    /// Maximum template size.
    pub template_max: usize,
    /// Exponent of the truncated power-law template-size distribution.
    pub template_exponent: f64,
    /// Minimum fraction of the template a member keeps. Each member keeps a
    /// uniformly-drawn prefix fraction in `member_prob..=1.0` of its
    /// family's template — the pairwise overlap strength within a family.
    pub member_prob: f64,
    /// Uniformly random extra vertices added to each hyperedge.
    pub noise_vertices: usize,
    /// Hyperedge ids are shuffled within windows of this size (0 selects
    /// the default, `|H| / 32` clamped to at least 512). Windowed rather
    /// than global shuffling models crawl/discovery order: related
    /// hyperedges land in the same region of the id space — and therefore
    /// the same processing chunk — but thousands of ids apart, far beyond
    /// the reach of an LRU cache under index-ordered scheduling.
    pub shuffle_window: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Creates a config with moderate-overlap defaults.
    pub fn new(num_vertices: usize, num_hyperedges: usize) -> Self {
        GeneratorConfig {
            num_vertices,
            num_hyperedges,
            family_min: 1,
            family_max: 128,
            family_exponent: 2.0,
            template_min: 4,
            template_max: 48,
            template_exponent: 2.2,
            member_prob: 0.8,
            noise_vertices: 1,
            shuffle_window: 0,
            seed: 0xC4A1,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the family-size bounds.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0` or `min > max`.
    pub fn with_family_range(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 1 && min <= max, "family range must satisfy 1 <= min <= max");
        self.family_min = min;
        self.family_max = max;
        self
    }

    /// Sets the family-size power-law exponent (clamped to `>= 1.05`).
    pub fn with_family_exponent(mut self, a: f64) -> Self {
        self.family_exponent = a.max(1.05);
        self
    }

    /// Sets the template size bounds.
    ///
    /// # Panics
    ///
    /// Panics if `min < 2` or `min > max`.
    pub fn with_template_range(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 2 && min <= max, "template range must satisfy 2 <= min <= max");
        self.template_min = min;
        self.template_max = max;
        self
    }

    /// Sets the minimum kept template fraction (clamped to `0.05..=1.0`).
    pub fn with_member_prob(mut self, p: f64) -> Self {
        self.member_prob = p.clamp(0.05, 1.0);
        self
    }

    /// Sets the number of noise vertices per hyperedge.
    pub fn with_noise(mut self, n: usize) -> Self {
        self.noise_vertices = n;
        self
    }

    /// Sets the id-shuffle window (see [`GeneratorConfig::shuffle_window`]).
    pub fn with_shuffle_window(mut self, w: usize) -> Self {
        self.shuffle_window = w;
        self
    }

    /// Runs the generator, producing a hypergraph.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices < template_max + noise_vertices` or either
    /// count is zero.
    pub fn generate(&self) -> Hypergraph {
        assert!(self.num_vertices > 0 && self.num_hyperedges > 0, "empty generator config");
        assert!(
            self.num_vertices >= self.template_max + self.noise_vertices,
            "vertex pool smaller than a maximal hyperedge"
        );
        let mut rng = SmallRng::seed_from_u64(self.seed);
        // Each family's template is stored once, back to back in
        // `templates`; a hyperedge is a `Member` record naming a prefix of
        // its template, plus its own `noise_vertices` ids in `noise`. No
        // per-hyperedge row is ever allocated.
        let mut templates: Vec<u32> = Vec::new();
        let mut noise: Vec<u32> = Vec::with_capacity(self.num_hyperedges * self.noise_vertices);
        let mut members: Vec<Member> = Vec::with_capacity(self.num_hyperedges);
        let mut incidences = 0usize;
        let mut in_template = vec![false; self.num_vertices];
        // invariant: hyperedge ids and CSR offsets are u32, so a graph
        // that can be built has every draw index, template offset and
        // prefix length within u32.
        let fits = |x: usize| u32::try_from(x).expect("generated graph exceeds u32 ids");
        while members.len() < self.num_hyperedges {
            // Draw this family's template: `tsize` distinct vertices.
            let tsize = sample_truncated_power_law(
                self.template_min,
                self.template_max,
                self.template_exponent,
                &mut rng,
            );
            // Vertex-id discovery locality: a family's template vertices
            // come from one region of the vertex id space (co-discovered
            // entities receive nearby ids in real crawls). The region is a
            // 1/32 slice of the id space: wide enough that index-ordered
            // scheduling finds no free reuse between family members, narrow
            // enough to nest inside one per-core chunk, so a cache line's
            // vertices are written by a single core (no pathological false
            // sharing).
            let span = (self.num_vertices / 16).max(tsize * 4).clamp(tsize, self.num_vertices);
            // Windows are span-aligned so they nest inside the contiguous
            // per-core chunks of any power-of-two core count up to 32: a
            // family's vertices — and hence a hyperedge's writers — belong
            // to one core, as with real partitioners that respect discovery
            // order.
            let nwin = (self.num_vertices / span).max(1) as u32;
            let base = span as u32 * rng.gen_range(0..nwin);
            let template_start = templates.len();
            while templates.len() - template_start < tsize {
                let v = base + rng.gen_range(0..span as u32);
                if !in_template[v as usize] {
                    in_template[v as usize] = true;
                    templates.push(v);
                }
            }
            // Family size ~ truncated power law: heavy-tailed, so large
            // near-duplicate groups carry most bipartite edges.
            let fsize = sample_truncated_power_law(
                self.family_min,
                self.family_max,
                self.family_exponent,
                &mut rng,
            )
            .min(self.num_hyperedges - members.len());
            for _ in 0..fsize {
                // Members keep a *prefix* of the template: families have a
                // shared core plus optional extras (nested, like tracker
                // bundles or author groups with occasional guests). Nesting
                // maximizes pairwise co-occurrence for a given vertex depth,
                // which is what real near-duplicate hyperedge groups look
                // like and what the OAG's W_min threshold keys on.
                let frac = rng.gen_range(self.member_prob..=1.0);
                let keep = ((tsize as f64 * frac).round() as usize).clamp(2, tsize);
                for _ in 0..self.noise_vertices {
                    // Noise is window-local too (incidental co-occurrences
                    // happen between co-discovered entities): collisions
                    // within the window give tail vertices the shallow
                    // depth-2..3 sharing of Fig. 8's k = 2 level without
                    // creating chain structure, and writes to a cache line
                    // stay with the line's owning chunk/core.
                    noise.push(base + rng.gen_range(0..span as u32));
                }
                members.push(Member {
                    window: base,
                    template: fits(template_start),
                    keep: fits(keep),
                    draw: fits(members.len()),
                });
                incidences += keep + self.noise_vertices;
            }
            for &v in &templates[template_start..] {
                in_template[v as usize] = false;
            }
        }
        // Discovery-order id assignment: hyperedges are grouped by the
        // vertex region they belong to (entities and their relationships
        // are crawled together), then shuffled *within* each group. Within
        // a group, family members sit far enough apart that index-ordered
        // scheduling finds no cache reuse, while a group — and therefore
        // every cache line of values its hyperedges update — stays inside
        // one processing chunk, as with real partitioned inputs. The
        // `shuffle_window` cap bounds the mixing radius for very large
        // groups. Draw indices are unique, so the in-place unstable sort
        // by (window, draw) is the stable sort by window.
        members.sort_unstable_by_key(|m| (m.window, m.draw));
        let window = if self.shuffle_window == 0 {
            (self.num_hyperedges / 32).max(512)
        } else {
            self.shuffle_window
        };
        let n = members.len();
        let mut start = 0usize;
        while start < n {
            let win = members[start].window;
            let mut end = start;
            while end < n && members[end].window == win && end - start < window {
                end += 1;
            }
            for i in (start + 1..end).rev() {
                let j = rng.gen_range(start..=i);
                members.swap(i, j);
            }
            start = end;
        }
        let mut builder =
            HypergraphBuilder::with_capacity(self.num_vertices, self.num_hyperedges, incidences);
        for m in &members {
            let kept = &templates[m.template as usize..][..m.keep as usize];
            let draw = m.draw as usize * self.noise_vertices;
            let extra = &noise[draw..draw + self.noise_vertices];
            builder
                .add_hyperedge(kept.iter().chain(extra).map(|&v| VertexId::new(v)))
                // invariant: the generator samples non-empty member sets
                // with ids below self.num_vertices, the only two ways
                // add_hyperedge can fail.
                .expect("generated hyperedge is valid");
        }
        // Free the records before the transpose allocates the vertex side.
        drop((members, noise, templates, in_template));
        builder.build()
    }
}

/// One generated hyperedge: the kept prefix of its family's template plus
/// its noise vertices, in 16 bytes.
#[derive(Clone, Copy)]
struct Member {
    /// First vertex id of the family's discovery window (the sort key).
    window: u32,
    /// Offset of the family's template in the generator's `templates`.
    template: u32,
    /// Length of the kept template prefix.
    keep: u32,
    /// Draw order: indexes this hyperedge's noise ids and breaks sort ties.
    draw: u32,
}

/// Samples from a truncated discrete power law on `[min, max]`.
fn sample_truncated_power_law(min: usize, max: usize, alpha: f64, rng: &mut SmallRng) -> usize {
    if min >= max {
        return min;
    }
    let alpha = alpha.max(1.01);
    let u: f64 = rng.gen_range(0.0..1.0);
    let a = 1.0 - alpha;
    let lo = (min as f64).powf(a);
    let hi = (max as f64).powf(a);
    let d = (lo + u * (hi - lo)).powf(1.0 / a);
    (d.floor() as usize).clamp(min, max)
}

/// Generates an ordinary graph as a **2-uniform hypergraph**: every
/// hyperedge connects exactly two vertices. Used by the generality study
/// (paper §VI-I), where conventional graphs are the special case of the
/// hypergraph.
///
/// The graph is a preferential-attachment-style power-law graph with
/// `num_edges` undirected edges over `num_vertices` vertices.
///
/// ```
/// let g = hypergraph::generate::two_uniform_graph(100, 300, 42);
/// assert_eq!(g.num_hyperedges(), 300);
/// assert!(g.incident_vertices(hypergraph::HyperedgeId::new(0)).len() <= 2);
/// ```
pub fn two_uniform_graph(num_vertices: usize, num_edges: usize, seed: u64) -> Hypergraph {
    assert!(num_vertices >= 2, "a graph needs at least two vertices");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = HypergraphBuilder::new(num_vertices);
    // Repeated-endpoint list gives preferential attachment in O(E).
    let mut endpoints: Vec<u32> = vec![0, 1];
    for _ in 0..num_edges {
        let a = if rng.gen_bool(0.7) {
            endpoints[rng.gen_range(0..endpoints.len())]
        } else {
            rng.gen_range(0..num_vertices as u32)
        };
        let mut b = rng.gen_range(0..num_vertices as u32);
        if b == a {
            b = (b + 1) % num_vertices as u32;
        }
        builder
            .add_hyperedge([VertexId::new(a), VertexId::new(b)])
            // invariant: both endpoints were just sampled/wrapped modulo
            // num_vertices, so they are in range and the pair is
            // non-empty.
            .expect("two distinct in-range endpoints");
        endpoints.push(a);
        endpoints.push(b);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HyperedgeId, Side};

    #[test]
    fn generator_is_deterministic() {
        let cfg = GeneratorConfig::new(500, 300).with_seed(11);
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn different_seeds_differ() {
        let a = GeneratorConfig::new(500, 300).with_seed(1).generate();
        let b = GeneratorConfig::new(500, 300).with_seed(2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn sizes_match_config() {
        let g = GeneratorConfig::new(1234, 777).with_seed(3).generate();
        assert_eq!(g.num_vertices(), 1234);
        assert_eq!(g.num_hyperedges(), 777);
    }

    #[test]
    fn hyperedge_degrees_bounded_by_template_plus_noise() {
        let cfg =
            GeneratorConfig::new(2_000, 500).with_template_range(4, 12).with_noise(2).with_seed(5);
        let g = cfg.generate();
        for h in 0..g.num_hyperedges() {
            let d = g.hyperedge_degree(HyperedgeId::from_index(h));
            assert!((1..=14).contains(&d), "degree {d} out of bounds");
        }
    }

    #[test]
    fn larger_families_mean_more_strong_overlap() {
        let small =
            GeneratorConfig::new(4_000, 2_000).with_family_range(1, 3).with_seed(9).generate();
        let large =
            GeneratorConfig::new(4_000, 2_000).with_family_range(8, 64).with_seed(9).generate();
        // Family size controls how many hyperedge pairs share >= 3 vertices:
        // a family of f contributes ~f^2/2 strongly-overlapped pairs.
        let strong = |g: &Hypergraph| {
            crate::stats::overlapped_hyperedge_pairs(g, 3) as f64 / g.num_hyperedges() as f64
        };
        assert!(
            strong(&large) > 2.0 * strong(&small),
            "families of 12 must create far more strong pairs ({:.2} vs {:.2})",
            strong(&large),
            strong(&small)
        );
    }

    #[test]
    fn families_create_structural_hyperedge_overlap() {
        let g = GeneratorConfig::new(4_000, 1_000)
            .with_family_range(4, 32)
            .with_member_prob(0.85)
            .with_seed(4)
            .generate();
        // A healthy fraction of hyperedges must overlap another hyperedge in
        // >= 3 vertices (the paper's default W_min).
        let pairs = crate::stats::overlapped_hyperedge_pairs(&g, 3);
        assert!(pairs > g.num_hyperedges() / 4, "only {pairs} strongly-overlapped pairs");
    }

    #[test]
    fn hyperedge_ids_are_shuffled() {
        // Consecutive hyperedges should rarely belong to the same family:
        // count strongly-overlapped *adjacent-id* pairs. (Sized so that
        // discovery regions hold many families; tiny inputs cannot mix.)
        let g = GeneratorConfig::new(16_000, 8_000)
            .with_family_range(4, 32)
            .with_member_prob(0.9)
            .with_seed(4)
            .generate();
        let adjacent_overlapped = (0..g.num_hyperedges() - 1)
            .filter(|&h| {
                let a = g.incidence(Side::Hyperedge, h as u32);
                let b = g.incidence(Side::Hyperedge, h as u32 + 1);
                a.iter().filter(|v| b.contains(v)).count() >= 3
            })
            .count();
        assert!(
            adjacent_overlapped < g.num_hyperedges() / 10,
            "{adjacent_overlapped} adjacent pairs share a family — ids not shuffled?"
        );
    }

    #[test]
    fn two_uniform_graph_has_arity_at_most_two() {
        let g = two_uniform_graph(50, 200, 17);
        for h in 0..g.num_hyperedges() {
            let deg = g.hyperedge_degree(HyperedgeId::from_index(h));
            assert!((1..=2).contains(&deg));
        }
    }

    #[test]
    fn power_law_sampler_within_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let d = sample_truncated_power_law(4, 32, 2.2, &mut rng);
            assert!((4..=32).contains(&d));
        }
        assert_eq!(sample_truncated_power_law(5, 5, 2.0, &mut rng), 5);
    }

    #[test]
    fn family_sampler_is_heavy_tailed() {
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 20_000;
        let sizes: Vec<usize> =
            (0..n).map(|_| sample_truncated_power_law(1, 256, 1.8, &mut rng)).collect();
        let big = sizes.iter().filter(|&&s| s >= 32).count();
        assert!(big > n / 200, "power law must produce large families ({big})");
        assert!(sizes.iter().all(|&s| (1..=256).contains(&s)));
    }
}
