//! Named synthetic stand-ins for the paper's evaluation datasets.
//!
//! Table II of the paper lists five real-world hypergraphs from SNAP/KONECT.
//! Those inputs are not redistributable here, so each one is replaced by a
//! deterministic synthetic hypergraph, scaled roughly 300–500× down, that
//! preserves the two properties the paper's results hinge on:
//!
//! - the `|H| / |V|` ratio and mean hyperedge degree — which fix the mean
//!   *vertex* degree, the direct driver of the Fig. 8 overlap profile. The
//!   heavy-overlap group (OG, LJ, OK: 71–82 % of vertices shared by 7+
//!   hyperedges) and the light-overlap group (FS, WEB: 8–13 %) fall out of
//!   these ratios;
//! - a power-law hyperedge-degree distribution with community structure, so
//!   chains discover genuine reuse rather than artifacts of id order.
//!
//! The simulator configuration scales cache capacities by a similar factor
//! (see `archsim::config`), keeping the working-set:cache ratio in the
//! paper's regime. The substitution is documented in `DESIGN.md` §3.

use crate::generate::{two_uniform_graph, GeneratorConfig};
use crate::Hypergraph;
use std::fmt;

/// The five hypergraph datasets of Table II (synthetic stand-ins).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dataset {
    /// Friendster (FS): many vertices, few hyperedges — light overlap.
    Friendster,
    /// com-Orkut (OK): few vertices, many hyperedges — heavy overlap.
    ComOrkut,
    /// LiveJournal (LJ): heavy overlap.
    LiveJournal,
    /// Web-trackers (WEB): the paper's headline dataset — light overlap,
    /// largest vertex count.
    WebTrackers,
    /// Orkut-group (OG): densest bipartite structure — heavy overlap.
    OrkutGroup,
}

impl Dataset {
    /// All five datasets, in the paper's presentation order.
    pub const ALL: [Dataset; 5] = [
        Dataset::Friendster,
        Dataset::ComOrkut,
        Dataset::LiveJournal,
        Dataset::WebTrackers,
        Dataset::OrkutGroup,
    ];

    /// The paper's two-letter abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            Dataset::Friendster => "FS",
            Dataset::ComOrkut => "OK",
            Dataset::LiveJournal => "LJ",
            Dataset::WebTrackers => "WEB",
            Dataset::OrkutGroup => "OG",
        }
    }

    /// The dataset whose [`abbrev`](Self::abbrev) is `name`, ignoring
    /// ASCII case.
    pub fn from_name(name: &str) -> Option<Dataset> {
        Dataset::ALL.into_iter().find(|d| d.abbrev().eq_ignore_ascii_case(name))
    }

    /// Full dataset name as in Table II.
    pub fn full_name(self) -> &'static str {
        match self {
            Dataset::Friendster => "Friendster",
            Dataset::ComOrkut => "com-Orkut",
            Dataset::LiveJournal => "LiveJournal",
            Dataset::WebTrackers => "Web-trackers",
            Dataset::OrkutGroup => "Orkut-group",
        }
    }

    /// Returns `true` for the heavy-overlap group (OG, LJ, OK), where Fig. 8
    /// reports 71–82 % of vertices shared by seven hyperedges.
    pub fn heavy_overlap(self) -> bool {
        matches!(self, Dataset::ComOrkut | Dataset::LiveJournal | Dataset::OrkutGroup)
    }

    /// The generator configuration of the stand-in.
    pub fn config(self) -> GeneratorConfig {
        match self {
            // |V| >> |H|: shallow vertex depth (small families) — light
            // overlap; large vertex working set.
            Dataset::Friendster => GeneratorConfig::new(40_000, 8_000)
                .with_seed(0xF5)
                .with_family_range(4, 96)
                .with_family_exponent(2.0)
                .with_template_range(8, 40)
                .with_member_prob(0.8)
                .with_noise(2),
            // |H| >> |V|: deep vertex sharing (large families) — heavy
            // overlap.
            Dataset::ComOrkut => GeneratorConfig::new(5_800, 38_000)
                .with_seed(0x0C)
                .with_family_range(16, 320)
                .with_family_exponent(1.6)
                .with_template_range(4, 20)
                .with_member_prob(0.8)
                .with_noise(1),
            Dataset::LiveJournal => GeneratorConfig::new(8_000, 18_700)
                .with_seed(0x17)
                .with_family_range(12, 256)
                .with_family_exponent(1.7)
                .with_template_range(6, 40)
                .with_member_prob(0.8)
                .with_noise(2),
            // Largest vertex count, shallow depth — light overlap, big
            // working set (the paper's headline dataset).
            Dataset::WebTrackers => GeneratorConfig::new(69_000, 32_000)
                .with_seed(0x3B)
                .with_family_range(4, 192)
                .with_family_exponent(1.7)
                .with_template_range(6, 32)
                .with_member_prob(0.88)
                .with_noise(2),
            // Densest bipartite structure, largest families — heavy overlap.
            Dataset::OrkutGroup => GeneratorConfig::new(5_000, 15_700)
                .with_seed(0x09)
                .with_family_range(20, 512)
                .with_family_exponent(1.5)
                .with_template_range(12, 72)
                .with_member_prob(0.85)
                .with_noise(2),
        }
    }

    /// Generates the stand-in hypergraph (deterministic).
    pub fn load(self) -> Hypergraph {
        self.config().generate()
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// The two ordinary graphs of the generality study (paper §VI-I, Fig. 25),
/// represented as 2-uniform hypergraphs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GraphDataset {
    /// com-Amazon (AZ) stand-in.
    ComAmazon,
    /// soc-Pokec (PK) stand-in.
    SocPokec,
}

impl GraphDataset {
    /// Both ordinary-graph datasets.
    pub const ALL: [GraphDataset; 2] = [GraphDataset::ComAmazon, GraphDataset::SocPokec];

    /// The paper's abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            GraphDataset::ComAmazon => "AZ",
            GraphDataset::SocPokec => "PK",
        }
    }

    /// Generates the 2-uniform stand-in (deterministic).
    pub fn load(self) -> Hypergraph {
        match self {
            GraphDataset::ComAmazon => two_uniform_graph(6_000, 18_000, 0xA2),
            GraphDataset::SocPokec => two_uniform_graph(8_000, 60_000, 0x9C),
        }
    }
}

impl fmt::Display for GraphDataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::sharable_ratio;
    use crate::Side;

    #[test]
    fn all_datasets_load_with_declared_sizes() {
        for ds in Dataset::ALL {
            let g = ds.load();
            let cfg = ds.config();
            assert_eq!(g.num_vertices(), cfg.num_vertices, "{ds}");
            assert_eq!(g.num_hyperedges(), cfg.num_hyperedges, "{ds}");
            assert!(g.num_bipartite_edges() > g.num_hyperedges(), "{ds}");
        }
    }

    #[test]
    fn loads_are_deterministic() {
        let a = Dataset::WebTrackers.load();
        let b = Dataset::WebTrackers.load();
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_overlap_group_is_heavier_than_light_group() {
        // Fig. 8 / §VI-C: in OG, LJ, OK most vertices are shared by >= 7
        // hyperedges; in FS and WEB only a small fraction are.
        for ds in Dataset::ALL {
            let g = ds.load();
            let r7 = sharable_ratio(&g, Side::Vertex, 7);
            if ds.heavy_overlap() {
                assert!(r7 > 0.5, "{ds}: expected heavy overlap, got {r7:.3}");
            } else {
                assert!(r7 < 0.35, "{ds}: expected light overlap, got {r7:.3}");
            }
        }
    }

    #[test]
    fn vertices_shared_by_two_hyperedges() {
        // Fig. 8(a) reports 55–96 % of vertices shared by at least two
        // hyperedges. The light stand-ins sit below the paper's low end
        // (documented in EXPERIMENTS.md): at ~400x downscale the
        // coverage x depth budget (BE/|V|) cannot support both the paper's
        // k = 2 coverage and chain-exploitable family depth, and depth is
        // the property the evaluation depends on.
        for ds in Dataset::ALL {
            let g = ds.load();
            let r2 = sharable_ratio(&g, Side::Vertex, 2);
            let floor = if ds.heavy_overlap() { 0.9 } else { 0.2 };
            assert!(r2 > floor, "{ds}: sharable ratio at k=2 is only {r2:.3}");
        }
    }

    #[test]
    fn graph_datasets_are_two_uniform() {
        for gd in GraphDataset::ALL {
            let g = gd.load();
            for h in 0..g.num_hyperedges() {
                assert!(g.hyperedge_degree(crate::HyperedgeId::from_index(h)) <= 2, "{gd}");
            }
        }
    }

    #[test]
    fn from_name_accepts_every_case_of_each_abbreviation() {
        for ds in Dataset::ALL {
            let abbrev = ds.abbrev().as_bytes();
            for mask in 0..1u32 << abbrev.len() {
                let spelling: String = abbrev
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| {
                        let c = b as char;
                        if mask >> i & 1 == 1 {
                            c.to_ascii_lowercase()
                        } else {
                            c
                        }
                    })
                    .collect();
                assert_eq!(Dataset::from_name(&spelling), Some(ds), "{spelling:?}");
            }
        }
        for name in ["", "L", "LJX", " LJ", "LiveJournal", "PK"] {
            assert_eq!(Dataset::from_name(name), None, "{name:?}");
        }
    }

    #[test]
    fn display_matches_abbrev() {
        assert_eq!(Dataset::WebTrackers.to_string(), "WEB");
        assert_eq!(GraphDataset::SocPokec.to_string(), "PK");
    }
}
